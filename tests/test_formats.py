from __future__ import annotations

import random
import sys
import tracemalloc
import unicodedata

import pytest

from fusetb.formats import (
    ParseError,
    PredArg,
    parse_alignments,
    parse_predarg,
    parse_trees,
    serialize_alignments,
    serialize_predarg,
    serialize_trees,
)
from fusetb.model import ElemRef, NodeRef, TagRegistry

from .conftest import FIXTURES
from .generators import random_annotation, random_corpus, random_tree


def parse_error(fn, *args, **kwargs) -> tuple[str, int, str]:
    """(code, line, message) of the ParseError that fn raises."""
    with pytest.raises(ParseError) as excinfo:
        fn(*args, **kwargs)
    diag = excinfo.value.diagnostic
    assert diag.file is not None and diag.line is not None
    return diag.code, diag.line, diag.message


def parse_error_at(fn, *args, **kwargs) -> tuple[str, int]:
    return parse_error(fn, *args, **kwargs)[:2]


def parse_error_code(fn, *args, **kwargs) -> str:
    return parse_error_at(fn, *args, **kwargs)[0]


# ---------------------------------------------------------------------------
# .tb


def test_parse_trees_minimal_document():
    text = "#BOS s1\nDie\tART\tNK\t502\nRichtlinie\tNN\tNK\t502\n#502\tNP\tSB\t0\n#EOS s1\n"
    trees = parse_trees(text)
    assert len(trees) == 1
    tree = trees[0]
    assert tree.tokens == ("Die", "Richtlinie")
    assert tree.nt_ids == (502,)
    assert (tree.labels[2], tree.edges[2], tree.parents[2]) == ("NP", "SB", 0)
    assert tree.parents[0] == 502


def test_parse_trees_empty_document():
    assert parse_trees("") == []
    assert parse_trees("%% nothing here\n\n") == []


def test_node_id_below_range():
    text = "#BOS s1\na\tNN\t--\t0\n#499\tNP\tSB\t0\n#EOS s1\n"
    assert parse_error(parse_trees, text) == ("E-NODE-ID-RANGE", 3, "nonterminal id 499 below 500")


def test_duplicate_sentence_id():
    block = "#BOS s1\na\tNN\t--\t0\n#EOS s1\n"
    assert parse_error_code(parse_trees, block + block) == "E-SENT-DUP"


def test_unknown_parent():
    text = "#BOS s1\na\tNN\t--\t510\n#EOS s1\n"
    assert parse_error(parse_trees, text) == (
        "E-PARENT-UNKNOWN", 2, "sentence s1: token 1 attached to unknown node 510")


def test_cycle_detected():
    text = (
        "#BOS s1\na\tNN\t--\t501\n"
        "#501\tNP\t--\t502\n#502\tNP\t--\t501\n#EOS s1\n"
    )
    assert parse_error(parse_trees, text) == ("E-TREE-CYCLE", 3, "sentence s1: cycle through node 501")


def test_childless_nonterminal():
    text = "#BOS s1\na\tNN\t--\t0\n#501\tNP\t--\t0\n#EOS s1\n"
    assert parse_error(parse_trees, text) == ("E-NT-EMPTY", 3, "sentence s1: node 501 has no children")


def test_duplicate_node_id():
    text = (
        "#BOS s1\na\tNN\t--\t501\nb\tNN\t--\t501\n"
        "#501\tNP\t--\t0\n#501\tPP\t--\t0\n#EOS s1\n"
    )
    assert parse_error(parse_trees, text) == ("E-NODE-DUP", 5, "duplicate nonterminal id 501")


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param(text, line, id=text)
        for text, line in [
            ("#BOS s1\na\tNN\t--\t0\n\n#EOS s1\n", 3),  # blank line inside block
            ("#BOS s1\na\tNN\t--\n#EOS s1\n", 2),  # missing field
            ("#BOS s1\n#EOS s1\n", 2),  # no terminals
            ("#BOS s1\na\tNN\t--\t0\n", 1),  # missing #EOS
            ("a\tNN\t--\t0\n", 1),  # data outside block
            ("#BOS s1\n#501\tNP\t--\t0\na\tNN\t--\t501\n#EOS s1\n", 3),  # terminal after nonterminal
            ("#BOS s1\na\tNN\t--\t502\nb\tNN\t--\t501\n#502\tNP\t--\t0\n#501\tNP\t--\t0\n#EOS s1\n", 5),
            ("#BOS s1\na\tNN\t--\t0\n#EOS s2\n", 3),  # mismatched #EOS
            ("#BOS s1\na b\tNN\t--\t0\n#EOS s1\n", 2),  # space in form
            ("#BOS s1\na\u00a0b\tNN\t--\t0\n#EOS s1\n", 2),  # no-break space in form
            ("#BOSS s1\na\tNN\t--\t0\n#EOS s1\n", 1),  # keywords match whole words
            ("#BOS s1\na\tNN\t--\t0\n#EOSX s1\n", 3),
            # a fault inside a block comes after the block's earlier lines ...
            ("#BOS s1\na\tNN\t--\t0\nb\tNN\t--\nc\tNN\t--\t0\n\n#EOS s1\n", 3),
            # ... and before the checks of the whole tree (here E-PARENT-UNKNOWN)
            ("#BOS s1\na\tNN\t--\t510\n", 1),
        ]
    ],
)
def test_tb_syntax_errors(text, line):
    assert parse_error_at(parse_trees, text) == ("E-SYNTAX", line)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("#BOS s1\na\tNN\t--\t\u00b2\n#EOS s1\n", 2, "malformed parent reference '\u00b2'"),
        ("#BOS s1\na\tNN\t--\t\u0665\u0663\u0660\n#EOS s1\n", 2, "malformed parent reference"),
        (
            "#BOS s1\na\tNN\t--\t530\n#5\u0663\u0660\tNP\t--\t0\n#EOS s1\n",
            3,
            "malformed nonterminal id '#5\u0663\u0660'",
        ),
        # more digits than int() converts
        ("#BOS s1\na\tNN\t--\t" + "5" * 5000 + "\n#EOS s1\n", 2, "malformed parent reference"),
    ],
    ids=["superscript-parent", "arabic-indic-parent", "arabic-indic-node-id", "5000-digit-parent"],
)
def test_numeric_fields_take_only_ascii_digits(text, line, message):
    with pytest.raises(ParseError) as excinfo:
        parse_trees(text, filename="f")
    diag = excinfo.value.diagnostic
    assert (diag.code, diag.file, diag.line) == ("E-SYNTAX", "f", line)
    assert diag.message.startswith(message)


def test_tb_fixture_round_trip_is_byte_identical():
    for name in ("en.tb", "de.tb"):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        assert serialize_trees(parse_trees(text, name)) == text


def test_tb_random_round_trip():
    rng = random.Random(7)
    for i in range(150):
        trees = [random_tree(rng, f"s{k + 1}") for k in range(rng.randint(0, 3))]
        assert parse_trees(serialize_trees(trees)) == trees


def test_input_is_nfc_normalized():
    decomposed = unicodedata.normalize("NFD", "wörter")
    assert decomposed != "wörter"
    text = f"#BOS s1\n{decomposed}\tNN\t--\t0\n#EOS s1\n"
    trees = parse_trees(text)
    assert trees[0].tokens[0] == "wörter"


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_trees, "\ufeff#BOS s1\na\tNN\t--\t0\n#EOS s1\n"),
        (parse_predarg, "\ufeff#SENT s1\n"),
        (parse_alignments, "\ufeff#PAIR en:s1 de:s1\n"),
    ],
)
def test_byte_order_mark_is_rejected(parse, text):
    with pytest.raises(ParseError) as excinfo:
        parse(text, filename="f")
    diag = excinfo.value.diagnostic
    assert (diag.code, diag.file, diag.line) == ("E-SYNTAX", "f", 1)
    assert "byte-order mark" in diag.message


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_trees, "#BOS s1\na\tNN\t--\t0\r\n#EOS s1\n"),
        (parse_predarg, "#SENT s1\nPRED p1 lemma=A class=v group=A nodes=t1\r\n"),
        (parse_alignments, "#PAIR en:s1 de:s1\nPALIGN p1 p1\r\n"),
    ],
)
def test_carriage_return_is_rejected(parse, text):
    with pytest.raises(ParseError) as excinfo:
        parse(text, filename="f")
    diag = excinfo.value.diagnostic
    assert (diag.code, diag.file, diag.line) == ("E-SYNTAX", "f", 2)
    assert "carriage-return" in diag.message


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_predarg, "#SENT s1\nPRED p1\rlemma=X class=v group=X nodes=t1\n", 2),
        (parse_alignments, "#PAIR en:s1\rde:s1\nPALIGN p1 p1\n", 1),
        (parse_predarg, "#SENT s1\nPRED p1\u00a0lemma=X class=v group=X nodes=t1\n", 2),
        (parse_predarg, "#SENT\u2003s1\nPRED p1 lemma=X class=v group=X nodes=t1\n", 1),
        (parse_alignments, "#PAIR en:s1 de:s1\nPALIGN p1\x1fp1\n", 2),
        (parse_trees, "#BOS\x0bs1\na\tNN\t--\t0\n#EOS s1\n", 1),
        (parse_trees, "#BOS s1\na\tNN\t--\t0\n#EOS s1\x85\n", 3),
    ],
    ids=["pa-cr", "al-header-cr", "pa-nbsp", "pa-header-em-space", "al-unit-separator",
         "tb-header-vt", "tb-closer-nel"],
)
def test_only_spaces_and_tabs_separate_fields(parse, text, line):
    with pytest.raises(ParseError) as excinfo:
        parse(text, filename="f")
    diag = excinfo.value.diagnostic
    assert (diag.code, diag.file, diag.line) == ("E-SYNTAX", "f", line)
    assert "whitespace U+" in diag.message


def test_spaces_and_tabs_between_fields_are_kept():
    spaced = "#SENT  s1 \n\t PRED p1  lemma=X\tclass=v group=X nodes=t1 \n%% any\u00a0comment\r \n"
    assert parse_predarg(spaced) == parse_predarg("#SENT s1\nPRED p1 lemma=X class=v group=X nodes=t1\n")
    tabbed = "#PAIR\ten:s1 \t de:s1\nPALIGN p1\t\tp1 \n"
    assert parse_alignments(tabbed) == parse_alignments("#PAIR en:s1 de:s1\nPALIGN p1 p1\n")


def test_other_space_lists_every_split_character():
    from fusetb.formats import _OTHER_SPACE

    split_on = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert set(_OTHER_SPACE) == split_on - {" ", "\t", "\n"}


# ---------------------------------------------------------------------------
# .pa


def test_parse_predarg_tagged_predicate_binding():
    text = "#SENT s5\nPRED p1 lemma=DOLMETSCHEN class=v group=DOLMETSCHEN nodes=t3 tags=pv\n"
    result = parse_predarg(text)
    pa = result["s5"]
    pred = pa.predicates[0]
    assert (pred.lemma, pred.syn_class, pred.group) == ("DOLMETSCHEN", "v", "DOLMETSCHEN")
    binding = pa.bindings[0]
    assert binding.included == frozenset({NodeRef.parse("t3")})
    assert binding.tags == frozenset({"pv"})


def test_parse_predarg_argument_line():
    text = (
        "#SENT s1\nPRED p1 lemma=HARMONISE class=v group=HARMONISE nodes=t7\n"
        "ARG p1 role=ENT_HARMONISED nodes=n502\n"
    )
    pa = parse_predarg(text)["s1"]
    assert pa.arguments[0].role == "ENT_HARMONISED"
    assert pa.bindings[0].target == ElemRef("p1")
    assert pa.bindings[1].target == ElemRef("p1", "ENT_HARMONISED")
    assert pa.bindings[1].included == frozenset({NodeRef.parse("n502")})


def test_parse_predarg_empty_document():
    assert parse_predarg("") == {}


@pytest.mark.parametrize(
    "line,code",
    [
        ("PRED p1 lemma=X class=x group=X nodes=t1", "E-CLASS"),
        ("PRED p1 lemma=x class=v group=X nodes=t1", "E-CASE"),
        ("PRED p1 lemma=X class=v group=X nodes=t1 tags=bogus", "E-TAG-UNKNOWN"),
        ("PRED p1 lemma=X class=v group=X nodes=q1", "E-REF-SYNTAX"),
        ("PRED p1 lemma=X class=v group=X excl=t1", "E-SYNTAX"),
        ("PRED p1 lemma=X class=v group=X tags=pv", "E-SYNTAX"),
        ("PRED p1 lemma=X class=v group=X nodes=t1 bogus=1", "E-SYNTAX"),
        ("PRED p1 lemma=X class=v nodes=t1", "E-SYNTAX"),
        ("ARG p1 role=AGENT nodes=t1", "E-ORDER"),
        ("PRED P1 lemma=X class=v group=X nodes=t1", "E-REF-SYNTAX"),
        ("#SENTENCE s2", "E-SYNTAX"),  # keywords match whole words
        ("\nPRED p1 lemma=X class=v group=X nodes=t1", "E-SYNTAX"),  # the blank line is the fault
    ],
)
def test_pa_line_errors(line, code):
    assert parse_error_at(parse_predarg, f"#SENT s1\n{line}\n") == (code, 2)


def test_pa_duplicate_pred_and_role():
    pred = "PRED p1 lemma=X class=v group=X nodes=t1\n"
    assert (
        parse_error_code(parse_predarg, "#SENT s1\n" + pred + pred) == "E-PRED-DUP"
    )
    arg = "ARG p1 role=AGENT nodes=t2\n"
    assert (
        parse_error_code(parse_predarg, "#SENT s1\n" + pred + arg + arg) == "E-ROLE-DUP"
    )


def test_pa_missing_nodes_yields_no_binding():
    # structural completeness (every element bound) is the validator's check
    pa = parse_predarg("#SENT s1\nPRED p1 lemma=X class=v group=X\n")["s1"]
    assert pa.predicates and not pa.bindings


def test_pa_custom_registry():
    text = "#SENT s1\nPRED p1 lemma=X class=v group=X nodes=t1 tags=refl\n"
    assert parse_error_code(parse_predarg, text) == "E-TAG-UNKNOWN"
    registry = TagRegistry(binding_tags=frozenset({"refl"}))
    pa = parse_predarg(text, registry)["s1"]
    assert pa.bindings[0].tags == frozenset({"refl"})


@pytest.mark.parametrize(
    "tags,code,named",
    [("zz,Bad", "E-TAG-UNKNOWN", "'zz'"), ("Bad,zz", "E-SYNTAX", "'Bad'")],
)
def test_tags_are_checked_in_file_order(tags, code, named):
    # the first faulty tag decides the diagnostic, whichever check it fails
    text = (
        "#SENT s1\nPRED p0 lemma=X class=v group=X nodes=t1\n"
        f"PRED p1 lemma=X class=v group=X nodes=t1 tags={tags}\n"
    )
    with pytest.raises(ParseError) as excinfo:
        parse_predarg(text, filename="t.pa")
    diag = excinfo.value.diagnostic
    assert (diag.code, diag.file, diag.line) == (code, "t.pa", 3)
    assert named in diag.message


def test_pa_fixture_round_trip_is_byte_identical():
    for name in ("en.pa", "de.pa"):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        assert serialize_predarg(parse_predarg(text, filename=name)) == text


def test_pa_random_round_trip():
    rng = random.Random(8)
    for i in range(150):
        annotations = {}
        monolingual = {}
        for k in range(rng.randint(0, 3)):
            sid = f"s{k + 1}"
            ann = random_annotation(rng, random_tree(rng, sid))
            annotations[sid] = PredArg(ann.predicates, ann.arguments, ann.bindings)
            monolingual[sid] = ann
        text = serialize_predarg(annotations)
        assert parse_predarg(text) == annotations
        assert serialize_predarg(monolingual) == text


def test_pa_header_only_serialization():
    assert serialize_predarg({"s1": PredArg()}) == "#SENT s1\n"
    assert serialize_predarg({}) == ""


# ---------------------------------------------------------------------------
# .al


def test_parse_alignments_examples():
    text = (
        "#PAIR en:s3 de:s3\nPALIGN p1 p1 tag=abs-opp\n"
        "AALIGN p1.GIVER p1.MITGEBER tag=incomp\n"
    )
    pairs = parse_alignments(text)
    assert len(pairs) == 1
    pair = pairs[0]
    assert (pair.left_sentence, pair.right_sentence) == ("en:s3", "de:s3")
    kinds = {(a.kind, a.tag) for a in pair.alignments}
    assert kinds == {("pred", "abs-opp"), ("arg", "incomp")}


def test_alignment_unknown_tag():
    text = "#PAIR en:s1 de:s1\nPALIGN p1 p1 tag=bogus\n"
    assert parse_error_code(parse_alignments, text) == "E-TAG-UNKNOWN"


def test_alignment_duplicate_pair_header():
    block = "#PAIR en:s1 de:s1\nPALIGN p1 p1\n"
    assert parse_error_code(parse_alignments, block + block) == "E-PAIR-DUP"


@pytest.mark.parametrize(
    "text, code, line",
    [
        pytest.param(text, code, line, id=f"{text}-{code}")
        for text, code, line in [
            ("PALIGN p1 p1\n", "E-SYNTAX", 1),
            ("#PAIR en:s1 de:s1\nPALIGN p1\n", "E-SYNTAX", 2),
            ("#PAIR en:s1\nPALIGN p1 p1\n", "E-SYNTAX", 1),
            ("#PAIR en:s1 de:s1\nPALIGN p1. p2\n", "E-REF-SYNTAX", 2),
            ("#PAIR en:s1 de:s1\nAALIGN p1.x p2.Y\n", "E-REF-SYNTAX", 2),
            ("#PAIR en:s1 de:s1\nPALIGN p1 p1 atag=x\n", "E-SYNTAX", 2),
            ("#PAIRS en:s1 de:s1\nPALIGN p1 p1\n", "E-SYNTAX", 1),  # keywords match whole words
        ]
    ],
)
def test_al_syntax_errors(text, code, line):
    assert parse_error_at(parse_alignments, text) == (code, line)


def test_al_fixture_round_trip_is_byte_identical():
    text = (FIXTURES / "en-de.al").read_text(encoding="utf-8")
    assert serialize_alignments(parse_alignments(text, filename="en-de.al")) == text


def test_al_random_round_trip():
    rng = random.Random(9)
    for i in range(100):
        corpus = random_corpus(rng)
        pairs = list(corpus.pair_sets[0].pairs)
        assert parse_alignments(serialize_alignments(pairs)) == pairs


def test_al_header_only_serialization():
    from fusetb.model import SentencePairAlignment

    assert (
        serialize_alignments([SentencePairAlignment("en:s1", "de:s1")])
        == "#PAIR en:s1 de:s1\n"
    )


@pytest.mark.parametrize(
    "name, header, parse",
    [("en.tb", "#BOS", parse_trees), ("en.pa", "#SENT", parse_predarg), ("en-de.al", "#PAIR", parse_alignments)],
)
def test_blank_and_comment_lines_between_blocks_are_ignored(name, header, parse):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    assert text.count(header) > 1
    spaced = text.replace(f"\n{header}", f"\n\n%% between blocks\n \n{header}") + "\n%% end\n\n"
    assert parse(spaced, filename=name) == parse(text, filename=name)


def test_comments_ignored_inside_blocks():
    text = "#BOS s1\n%% a comment\na\tNN\t--\t0\n#EOS s1\n"
    assert len(parse_trees(text)) == 1
    text = "#SENT s1\n%% c\nPRED p1 lemma=X class=v group=X nodes=t1\n"
    assert len(parse_predarg(text)["s1"].predicates) == 1


def test_serialize_predarg_hashes_no_elem_ref(fixture_corpus, monkeypatch):
    def no_hash(self):
        raise AssertionError(f"hashed {self}")

    monkeypatch.setattr(ElemRef, "__hash__", no_hash)
    for lang, anns in fixture_corpus.treebanks.items():
        expected = (FIXTURES / f"{lang}.pa").read_text(encoding="utf-8")
        assert serialize_predarg({a.sentence_id: a for a in anns}) == expected
        predarg = {a.sentence_id: PredArg(a.predicates, a.arguments, a.bindings) for a in anns}
        assert serialize_predarg(predarg) == expected


def peak_over_size(serialize, data) -> float:
    """The tracemalloc peak of one call, as a multiple of the size of the text it returns."""
    tracemalloc.start()
    try:
        text = serialize(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sys.getsizeof(text)


def test_serializers_build_one_block_at_a_time():
    # Holding one string per line until the end costs about 6x the text for
    # .tb and 4x for .pa; one string per sentence block stays under 3x for
    # sentences of up to 20 tokens.
    rng = random.Random(3)
    anns = [random_annotation(rng, random_tree(rng, f"s{i}", max_tokens=20)) for i in range(300)]
    assert peak_over_size(serialize_trees, [ann.tree for ann in anns]) < 3
    assert peak_over_size(serialize_predarg, {ann.sentence_id: ann for ann in anns}) < 3
