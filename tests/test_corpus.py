from __future__ import annotations

import dataclasses
import random
import shutil

import pytest

from fusetb.corpus import (
    compute_stats,
    load_corpus,
    parse_manifest,
    parse_tag_registry,
    serialize_manifest,
)
from fusetb.formats import ParseError
from fusetb.model import DEFAULT_ALIGNMENT_TAGS, DEFAULT_BINDING_TAGS
from fusetb.query import parse_query, run_query
from fusetb.suggest import suggest_roles

from .conftest import FIXTURES, mutate_file
from .generators import random_corpus, write_corpus_files
from .oracles import oracle_stats_recount, oracle_unaligned, oracle_unaligned_counts


def manifest_error_code(text):
    with pytest.raises(ParseError) as excinfo:
        parse_manifest(text)
    return excinfo.value.diagnostic.code


def test_parse_fixture_manifest():
    manifest = parse_manifest((FIXTURES / "corpus.manifest").read_text(encoding="utf-8"))
    assert [e.code for e in manifest.languages] == ["en", "de"]
    assert manifest.align_sets[0].path == "en-de.al"
    assert manifest.registry.binding_tags == DEFAULT_BINDING_TAGS
    assert manifest.registry.alignment_tags == DEFAULT_ALIGNMENT_TAGS


def test_manifest_tag_overrides():
    text = (
        "LANG en TREES a.tb PREDARG a.pa\nBINDTAGS pv,refl\nALIGNTAGS near-syn\n"
    )
    manifest = parse_manifest(text)
    assert manifest.registry.binding_tags == frozenset({"pv", "refl"})
    assert manifest.registry.alignment_tags == frozenset({"near-syn"})


@pytest.mark.parametrize(
    "text,code",
    [
        ("LANG en TREES a.tb PREDARG a.pa\nALIGN en fr x.al\n", "E-MANIFEST-LANG"),
        ("LANG en TREES a.tb PREDARG a.pa\nLANG en TREES b.tb PREDARG b.pa\n", "E-MANIFEST-DUP"),
        ("", "E-MANIFEST-SYNTAX"),
        ("BOGUS x\n", "E-MANIFEST-SYNTAX"),
        ("LANG en TREES a.tb\n", "E-MANIFEST-SYNTAX"),
        ("LANG en TREES a.tb PREDARG a.pa\nBINDTAGS pv\nBINDTAGS imp\n", "E-MANIFEST-SYNTAX"),
    ],
)
def test_manifest_errors(text, code):
    assert manifest_error_code(text) == code


@pytest.mark.parametrize(
    "text",
    [
        "LANG en TREES a.tb\rPREDARG a.pa\n",
        "LANG en TREES a.tb PREDARG a.pa\nALIGN en\u00a0en x.al\n",
        "LANG en TREES a.tb PREDARG a.pa\r\nBINDTAGS\x0cpv\r\n",
    ],
    ids=["cr", "nbsp", "form-feed"],
)
def test_manifest_fields_are_separated_by_spaces_and_tabs_only(text):
    with pytest.raises(ParseError) as excinfo:
        parse_manifest(text, "m")
    assert excinfo.value.diagnostic.code == "E-MANIFEST-SYNTAX"
    assert excinfo.value.diagnostic.line == text.count("\n")
    spaced = parse_manifest(" LANG\ten  TREES a.tb PREDARG a.pa \r\n%% a\u00a0comment\n")
    assert spaced == parse_manifest("LANG en TREES a.tb PREDARG a.pa\n")
    with pytest.raises(ParseError):
        parse_tag_registry("BINDTAGS\u3000pv\n")


def test_manifest_round_trip():
    text = (FIXTURES / "corpus.manifest").read_text(encoding="utf-8")
    assert serialize_manifest(parse_manifest(text)) == text


def test_parse_tag_registry_file():
    registry = parse_tag_registry("BINDTAGS pv\n")
    assert registry.binding_tags == frozenset({"pv"})
    assert registry.alignment_tags == DEFAULT_ALIGNMENT_TAGS


def test_load_fixture_corpus(fixture_corpus):
    assert fixture_corpus.validated
    assert fixture_corpus.languages == ("de", "en")
    assert len(fixture_corpus.pair_sets) == 1
    assert len(fixture_corpus.pair_sets[0].pairs) == 4
    assert fixture_corpus.sentence("en:s1").predicates[0].lemma == "HARMONISE"


def test_load_missing_manifest(tmp_path):
    corpus, diags = load_corpus(tmp_path / "nope.manifest")
    assert corpus is None
    assert [d.code for d in diags] == ["E-IO"]


def test_load_missing_referenced_file(corpus_copy):
    (corpus_copy / "de.tb").unlink()
    corpus, diags = load_corpus(corpus_copy / "corpus.manifest")
    assert corpus is None
    assert "E-IO" in [d.code for d in diags]


def test_load_reports_annotation_for_unknown_sentence(corpus_copy):
    mutate_file(corpus_copy, "en.pa", "#SENT s5", "#SENT s9")
    corpus, diags = load_corpus(corpus_copy / "corpus.manifest")
    assert corpus is None
    assert "E-SENT-UNKNOWN" in [d.code for d in diags]


def test_load_rejects_pair_language_mismatch(corpus_copy):
    text = (corpus_copy / "corpus.manifest").read_text(encoding="utf-8")
    (corpus_copy / "corpus.manifest").write_text(
        text + "LANG fr TREES en.tb PREDARG en.pa\nALIGN en fr en-de.al\n",
        encoding="utf-8",
    )
    corpus, diags = load_corpus(corpus_copy / "corpus.manifest")
    assert corpus is None
    assert "E-PAIR-LANG" in [d.code for d in diags]


def test_errors_are_reported_in_their_own_alignment_file(corpus_copy):
    # two pair sets share the language pair en-de; only the first has a fault
    shutil.copy(corpus_copy / "en-de.al", corpus_copy / "second.al")
    mutate_file(corpus_copy, "en-de.al", "AALIGN p1.LOC p1.LOC", "AALIGN p1.NOPE p1.NOPE")
    with (corpus_copy / "corpus.manifest").open("a", encoding="utf-8") as manifest:
        manifest.write("ALIGN en de second.al\n")
    corpus, diags = load_corpus(corpus_copy / "corpus.manifest")
    assert corpus is None
    errors = [d for d in diags if d.is_error]
    assert errors and {d.file for d in errors} == {str(corpus_copy / "en-de.al")}


def test_crlf_manifest_still_loads(corpus_copy, fixture_corpus):
    manifest = corpus_copy / "corpus.manifest"
    manifest.write_bytes(manifest.read_bytes().replace(b"\n", b"\r\n"))
    corpus, diags = load_corpus(manifest)
    assert diags == [] and corpus == fixture_corpus


def test_three_languages_two_pair_sets(corpus_copy):
    (corpus_copy / "empty.al").write_text("", encoding="utf-8")
    text = (corpus_copy / "corpus.manifest").read_text(encoding="utf-8")
    (corpus_copy / "corpus.manifest").write_text(
        text + "LANG fr TREES en.tb PREDARG en.pa\nALIGN en fr empty.al\n",
        encoding="utf-8",
    )
    corpus, diags = load_corpus(corpus_copy / "corpus.manifest")
    assert corpus is not None, [d.render() for d in diags]
    assert corpus.languages == ("de", "en", "fr")
    assert len(corpus.pair_sets) == 2
    assert corpus.pair_sets[1].pairs == ()


def test_unaligned_is_the_union_over_pair_sets(corpus_copy):
    # fr is a copy of en; en-fr aligns only en:s1 p1 and en:s5 p2, so
    # en:s1 p1.ENT_HARMONISED is aligned in en-de but not in en-fr, and
    # en:s5 p2 is aligned in en-fr but not in en-de
    (corpus_copy / "en-fr.al").write_text(
        "#PAIR en:s1 fr:s1\nPALIGN p1 p1\n#PAIR en:s5 fr:s5\nPALIGN p2 p2\n",
        encoding="utf-8",
    )
    text = (corpus_copy / "corpus.manifest").read_text(encoding="utf-8")
    (corpus_copy / "corpus.manifest").write_text(
        text + "LANG fr TREES en.tb PREDARG en.pa\nALIGN en fr en-fr.al\n",
        encoding="utf-8",
    )
    corpus, diags = load_corpus(corpus_copy / "corpus.manifest")
    assert corpus is not None, [d.render() for d in diags]
    unaligned_en = [
        (row["sent"], row["ref"])
        for kind in ("pred", "arg")
        for row in run_query(corpus, parse_query(f"unaligned kind={kind} lang=en"))
    ]
    assert ("s1", "p1.ENT_HARMONISED") not in unaligned_en
    assert ("s5", "p2") not in unaligned_en
    assert ("s5", "p1") in unaligned_en
    for kind in ("pred", "arg"):
        got = run_query(corpus, parse_query(f"unaligned kind={kind}"))
        expected = oracle_unaligned(corpus, parse_query(f"unaligned kind={kind}").filters)
        assert [(r["lang"], r["sent"], r["ref"]) for r in got] == expected
    en_de, en_fr = compute_stats(corpus).pair_sets
    assert en_de.unaligned_predicates == {"en": 0, "de": 1}
    assert en_de.unaligned_arguments == {"en": 0, "de": 2}
    # en-fr counts en:s1 p1.ENT_HARMONISED and the four arguments of en:s5
    assert en_fr.unaligned_predicates == {"en": 1, "fr": 1}
    assert en_fr.unaligned_arguments == {"en": 5, "fr": 5}
    assert (en_fr.unaligned_predicates, en_fr.unaligned_arguments) == oracle_unaligned_counts(
        corpus, corpus.pair_sets[1]
    )


def test_derived_indexes_leave_identity_unchanged():
    corpus, _ = load_corpus(FIXTURES / "corpus.manifest")
    before = repr(corpus)
    for text in (
        "preds",
        "aligns",
        "unaligned kind=pred",
        "unaligned kind=arg",
        "realizations group=GIVE role=GIVER",
        "frames group=GIVE",
    ):
        run_query(corpus, parse_query(text))
    compute_stats(corpus)
    suggest_roles(corpus, "en", "GIVE")
    assert repr(corpus) == before
    fresh, _ = load_corpus(FIXTURES / "corpus.manifest")
    assert corpus == fresh
    assert dataclasses.replace(corpus, validated=False) == corpus


def test_parse_failure_skips_semantic_validation(corpus_copy):
    # corrupt en.tb and remove a binding: only the parse error is reported
    mutate_file(corpus_copy, "en.tb", "#EOS s5", "#EOS s9")
    mutate_file(corpus_copy, "en.pa", " nodes=n501", "")
    corpus, diags = load_corpus(corpus_copy / "corpus.manifest")
    assert corpus is None
    codes = {d.code for d in diags}
    assert codes == {"E-SYNTAX"}


def test_fixture_pruned_binding_yield(fixture_corpus):
    from fusetb.model import ElemRef, resolve_yield

    ann = fixture_corpus.sentence("en:s5")
    binding = ann.binding_for(ElemRef("p2", "ENT_RAISED"))
    # NP 525 covers tokens 4..11; pruning clause 517 removes the medial 6..9
    covered = resolve_yield(ann.tree, binding)
    assert covered == [4, 5, 10, 11]
    assert covered != list(range(covered[0], covered[-1] + 1))
    whole = ann.binding_for(ElemRef("p1", "ENT_DISCUSSED"))
    covered = resolve_yield(ann.tree, whole)
    assert covered == [4, 5, 6, 7, 8, 9, 10, 11]
    assert covered == list(range(covered[0], covered[-1] + 1))


def test_fixture_stats(fixture_corpus):
    stats = compute_stats(fixture_corpus)
    en = stats.languages["en"]
    de = stats.languages["de"]
    assert (en.sentences, en.tokens, en.predicates, en.arguments) == (5, 50, 6, 12)
    assert (de.sentences, de.tokens, de.predicates, de.arguments) == (5, 48, 6, 10)
    assert en.by_class == {"v": 5, "n": 0, "a": 1}
    assert de.by_class == {"v": 3, "n": 1, "a": 2}
    assert en.binding_tags == {}
    assert de.binding_tags == {"pv": 2}
    ps = stats.pair_sets[0]
    assert (ps.pairs, ps.pred_alignments, ps.arg_alignments) == (4, 4, 8)
    assert ps.pred_tags == {"abs-opp": 1}
    assert ps.arg_tags == {"incomp": 1}
    assert ps.unaligned_predicates == {"en": 0, "de": 1}
    assert ps.unaligned_arguments == {"en": 0, "de": 2}


def test_empty_corpus_stats(tmp_path):
    (tmp_path / "e.tb").write_text("", encoding="utf-8")
    (tmp_path / "e.pa").write_text("", encoding="utf-8")
    (tmp_path / "m.manifest").write_text(
        "LANG en TREES e.tb PREDARG e.pa\n", encoding="utf-8"
    )
    corpus, diags = load_corpus(tmp_path / "m.manifest")
    assert corpus is not None and diags == []
    stats = compute_stats(corpus)
    en = stats.languages["en"]
    assert (en.sentences, en.tokens, en.predicates, en.arguments) == (0, 0, 0, 0)
    assert stats.pair_sets == ()


def test_stats_match_flat_recount_on_random_corpora():
    rng = random.Random(33)
    for _ in range(50):
        corpus = random_corpus(rng)
        stats = compute_stats(corpus)
        for lang, expected in oracle_stats_recount(corpus).items():
            got = stats.languages[lang]
            assert (got.sentences, got.tokens, got.predicates, got.arguments) == expected[:4]
            assert {k: v for k, v in got.by_class.items() if v} == expected[4]
            assert got.binding_tags == expected[5]
        ps = stats.pair_sets[0]
        n_pred = sum(
            1
            for pair in corpus.pair_sets[0].pairs
            for a in pair.alignments
            if a.kind == "pred"
        )
        assert ps.pred_alignments == n_pred
        assert (ps.unaligned_predicates, ps.unaligned_arguments) == oracle_unaligned_counts(
            corpus, corpus.pair_sets[0]
        )


def test_stats_invariant_under_manifest_order(corpus_copy):
    corpus_a, _ = load_corpus(corpus_copy / "corpus.manifest")
    text = (corpus_copy / "corpus.manifest").read_text(encoding="utf-8")
    lines = text.splitlines()
    (corpus_copy / "corpus.manifest").write_text(
        "\n".join([lines[1], lines[0], lines[2]]) + "\n", encoding="utf-8"
    )
    corpus_b, _ = load_corpus(corpus_copy / "corpus.manifest")
    assert compute_stats(corpus_a) == compute_stats(corpus_b)
    assert corpus_a == corpus_b


def test_corpus_round_trip_through_files(tmp_path):
    rng = random.Random(44)
    for i in range(60):
        corpus = random_corpus(rng)
        directory = tmp_path / f"c{i}"
        directory.mkdir()
        manifest_path = write_corpus_files(corpus, directory)
        loaded, diags = load_corpus(manifest_path)
        assert loaded is not None, [d.render() for d in diags]
        assert loaded == corpus
        shutil.rmtree(directory)


def test_block_order_in_files_is_irrelevant(corpus_copy):
    corpus_a, _ = load_corpus(corpus_copy / "corpus.manifest")
    pa = (corpus_copy / "en.pa").read_text(encoding="utf-8")
    blocks = ["#SENT " + b for b in pa.split("#SENT ") if b]
    (corpus_copy / "en.pa").write_text("".join(reversed(blocks)), encoding="utf-8")
    corpus_b, diags = load_corpus(corpus_copy / "corpus.manifest")
    assert corpus_b is not None, [d.render() for d in diags]
    assert corpus_a == corpus_b


def test_unvalidated_corpus_is_not_equal_only_because_of_flag(fixture_corpus):
    import dataclasses

    unmarked = dataclasses.replace(fixture_corpus, validated=False)
    assert unmarked == fixture_corpus


def test_unaligned_stats_of_a_hand_built_unvalidated_corpus():
    """An alignment to an undeclared element or sentence counts for nothing."""
    from fusetb.model import (
        Alignment,
        Argument,
        ElemRef,
        MonolingualAnnotation,
        PairSet,
        ParallelCorpus,
        Predicate,
        SentencePairAlignment,
        SentenceTree,
    )

    def ann(sid, preds, args):
        tree = SentenceTree(sid, ("w",), ("NN",), (None,), (0,))
        return MonolingualAnnotation(
            tree,
            tuple(Predicate(p, "GIVE", "v", "GIVE") for p in preds),
            tuple(Argument(p, r) for p, r in args),
        )

    en = (ann("s1", ["p1", "p2"], [("p1", "AGENT"), ("p1", "THEME")]), ann("s2", ["p1"], []))
    de = (ann("s1", ["p1"], [("p1", "AGENT")]), ann("s3", ["p1"], []))
    pairs = (
        SentencePairAlignment("en:s1", "de:s1", (
            Alignment("pred", ElemRef("p1"), ElemRef("p1")),
            Alignment("pred", ElemRef("p9"), ElemRef("p1")),
            Alignment("arg", ElemRef("p1", "AGENT"), ElemRef("p1", "NOSUCH")),
            Alignment("arg", ElemRef("p1", "GHOST"), ElemRef("p1", "AGENT")),
        )),
        SentencePairAlignment("en:s2", "de:s9", (Alignment("pred", ElemRef("p1"), ElemRef("p7")),)),
    )
    corpus = ParallelCorpus({"en": en, "de": de}, (PairSet("en", "de", pairs),))
    assert not corpus.validated
    [stats] = compute_stats(corpus).pair_sets
    assert stats.unaligned_predicates == {"en": 1, "de": 0}
    assert stats.unaligned_arguments == {"en": 1, "de": 0}
    expected = oracle_unaligned_counts(corpus, corpus.pair_sets[0])
    assert (stats.unaligned_predicates, stats.unaligned_arguments) == expected


def _en_en_corpus():
    """en:s2 is the right sentence of one pair and the left of the next; its p1 is aligned in both."""
    from fusetb.model import (
        Alignment,
        Argument,
        ElemRef,
        MonolingualAnnotation,
        PairSet,
        ParallelCorpus,
        Predicate,
        SentencePairAlignment,
        SentenceTree,
    )

    def ann(sid, preds, args):
        tree = SentenceTree(sid, ("w",), ("NN",), (None,), (0,))
        return MonolingualAnnotation(
            tree,
            tuple(Predicate(p, "GIVE", "v", "GIVE") for p in preds),
            tuple(Argument(p, r) for p, r in args),
        )

    en = (
        ann("s1", ["p1", "p2"], [("p1", "AGENT")]),
        ann("s2", ["p1", "p2"], [("p1", "AGENT"), ("p2", "THEME")]),
        ann("s3", ["p1"], []),
    )
    pairs = (
        SentencePairAlignment("en:s1", "en:s2", (
            Alignment("pred", ElemRef("p1"), ElemRef("p1")),
            Alignment("arg", ElemRef("p1", "AGENT"), ElemRef("p1", "AGENT")),
        )),
        SentencePairAlignment("en:s2", "en:s3", (Alignment("pred", ElemRef("p1"), ElemRef("p1")),)),
    )
    return ParallelCorpus({"en": en}, (PairSet("en", "en", pairs),))


def test_unaligned_stats_count_a_sentence_on_both_sides_once():
    corpus = _en_en_corpus()
    [stats] = compute_stats(corpus).pair_sets
    # en:s1 p2, en:s2 p2 and en:s2 p2.THEME, each once although en:s2 is in two pairs
    assert stats.unaligned_predicates == {"en": 2}
    assert stats.unaligned_arguments == {"en": 1}
    expected = oracle_unaligned_counts(corpus, corpus.pair_sets[0])
    assert (stats.unaligned_predicates, stats.unaligned_arguments) == expected


def test_unaligned_stats_count_an_element_aligned_in_two_pairs_as_aligned_once():
    corpus = _en_en_corpus()
    first, second = corpus.pair_sets[0].pairs
    assert (first.right_sentence, second.left_sentence) == ("en:s2", "en:s2")
    [stats] = compute_stats(corpus).pair_sets
    # subtracting en:s2 p1 once per pair would leave en:s2 p2 uncounted
    assert stats.unaligned_predicates["en"] == 2
    expected = oracle_unaligned_counts(corpus, corpus.pair_sets[0])
    assert (stats.unaligned_predicates, stats.unaligned_arguments) == expected
