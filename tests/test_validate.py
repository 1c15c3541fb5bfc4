from __future__ import annotations

import dataclasses
import random

import pytest

import fusetb.validate
from fusetb.model import (
    Alignment,
    Argument,
    Binding,
    ElemRef,
    MonolingualAnnotation,
    PairSet,
    ParallelCorpus,
    Predicate,
    SentencePairAlignment,
    SentenceTree,
    TagRegistry,
)
from fusetb.validate import (
    check_group_roles,
    roles_near_duplicate,
    validate_corpus,
    validate_monolingual,
    validate_pair,
)

from .generators import random_corpus


def small_tree(sid="s1"):
    # t1 under 500, t2 t3 under 501, 500 501 under 502, t4 at root
    return SentenceTree(
        sid,
        ("a", "b", "c", "d"),
        ("NN", "NN", "NN", "NN", "NP", "NP", "S"),
        (None,) * 7,
        (500, 501, 501, 0, 502, 502, 0),
        (500, 501, 502),
    )


def annotation(preds=(), args=(), binds=(), sid="s1"):
    return MonolingualAnnotation(small_tree(sid), tuple(preds), tuple(args), tuple(binds))


def ref(text):
    from fusetb.model import NodeRef

    return NodeRef.parse(text)


P1 = Predicate("p1", "GEBEN", "v", "GEBEN")


def error_codes(diags):
    return [d.code for d in diags if d.is_error]


def test_valid_annotation_has_no_diagnostics():
    ann = annotation(
        (P1,),
        (Argument("p1", "AGENT"),),
        (
            Binding(ElemRef("p1"), frozenset({ref("t4")})),
            Binding(ElemRef("p1", "AGENT"), frozenset({ref("n501")})),
        ),
    )
    assert validate_monolingual(ann) == []


def test_missing_binding():
    ann = annotation((P1,), (), ())
    assert error_codes(validate_monolingual(ann)) == ["E-BIND-MISSING"]


def test_double_binding_is_reported_under_bind_missing():
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("t4")})),
        Binding(ElemRef("p1"), frozenset({ref("t1")})),
    )
    ann = annotation((P1,), (), binds)
    assert error_codes(validate_monolingual(ann)) == ["E-BIND-MISSING"]


def test_dangling_node():
    ann = annotation((P1,), (), (Binding(ElemRef("p1"), frozenset({ref("n999")})),))
    assert error_codes(validate_monolingual(ann)) == ["E-BIND-DANGLE"]


def test_dangling_target():
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("t4")})),
        Binding(ElemRef("p2"), frozenset({ref("t1")})),
    )
    ann = annotation((P1,), (), binds)
    assert error_codes(validate_monolingual(ann)) == ["E-BIND-DANGLE"]


def test_excluded_not_descendant():
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("n501")}), frozenset({ref("t1")})),
    )
    ann = annotation((P1,), (), binds)
    assert error_codes(validate_monolingual(ann)) == ["E-EXCL-NOT-DESC"]


def test_included_nested():
    binds = (Binding(ElemRef("p1"), frozenset({ref("n502"), ref("n500")})),)
    ann = annotation((P1,), (), binds)
    assert error_codes(validate_monolingual(ann)) == ["E-INCL-NESTED"]


def test_empty_yield():
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("n500")}), frozenset({ref("t1")})),
    )
    ann = annotation((P1,), (), binds)
    assert error_codes(validate_monolingual(ann)) == ["E-YIELD-EMPTY"]


def test_recursion():
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("t2")})),
        Binding(ElemRef("p1", "THEME"), frozenset({ref("n501")})),
    )
    ann = annotation((P1,), (Argument("p1", "THEME"),), binds)
    assert error_codes(validate_monolingual(ann)) == ["E-RECURSION"]


def test_recursion_fixed_by_exclusion():
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("t2")})),
        Binding(ElemRef("p1", "THEME"), frozenset({ref("n501")}), frozenset({ref("t2")})),
    )
    ann = annotation((P1,), (Argument("p1", "THEME"),), binds)
    assert validate_monolingual(ann) == []


@pytest.mark.parametrize(
    "binds",
    [
        # p1 bound twice; its second binding overlaps the argument's yield
        (
            Binding(ElemRef("p1"), frozenset({ref("t4")})),
            Binding(ElemRef("p1"), frozenset({ref("t2")})),
            Binding(ElemRef("p1", "THEME"), frozenset({ref("n501")})),
        ),
        # the argument bound twice; its first binding overlaps the predicate's yield
        (
            Binding(ElemRef("p1"), frozenset({ref("t2")})),
            Binding(ElemRef("p1", "THEME"), frozenset({ref("n501")})),
            Binding(ElemRef("p1", "THEME"), frozenset({ref("t1")})),
        ),
    ],
)
def test_recursion_needs_exactly_one_binding_per_element(binds):
    ann = annotation((P1,), (Argument("p1", "THEME"),), binds)
    assert error_codes(validate_monolingual(ann)) == ["E-BIND-MISSING"]


def test_tag_on_argument_binding():
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("t4")})),
        Binding(ElemRef("p1", "AGENT"), frozenset({ref("t1")}), tags=frozenset({"pv"})),
    )
    ann = annotation((P1,), (Argument("p1", "AGENT"),), binds)
    assert error_codes(validate_monolingual(ann)) == ["E-TAG-ON-ARG"]


def test_role_near_duplicate_metric():
    assert roles_near_duplicate("ENT_HARMONISED", "ENT_HARMONIZED")
    assert roles_near_duplicate("AGENT", "AGENTS")
    assert not roles_near_duplicate("AGENT", "AGENT")
    assert not roles_near_duplicate("LOC", "LOK")  # too short to count
    assert not roles_near_duplicate("GIVER", "ENT_GIVEN")
    assert roles_near_duplicate("Agent", "AGENT")  # case-insensitive equality


def test_role_near_duplicate_warning():
    preds = (P1, Predicate("p2", "GABE", "n", "GEBEN"))
    args = (Argument("p1", "ENT_HARMONISED"), Argument("p2", "ENT_HARMONIZED"))
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("t4")})),
        Binding(ElemRef("p1", "ENT_HARMONISED"), frozenset({ref("t1")})),
        Binding(ElemRef("p2"), frozenset({ref("t2")})),
        Binding(ElemRef("p2", "ENT_HARMONIZED"), frozenset({ref("t3")})),
    )
    ann = annotation(preds, args, binds)
    # a group spans sentences, so only the treebank-wide scan reports roles
    assert validate_monolingual(ann) == []
    diags = check_group_roles([ann])
    assert [d.code for d in diags] == ["W-ROLE-NEAR-DUP"]
    assert not diags[0].is_error


def test_corpus_reports_near_duplicate_roles_within_one_sentence():
    preds = (P1, Predicate("p2", "GABE", "n", "GEBEN"))
    args = (Argument("p1", "ENT_HARMONISED"), Argument("p2", "ENT_HARMONIZED"))
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("t4")})),
        Binding(ElemRef("p1", "ENT_HARMONISED"), frozenset({ref("t1")})),
        Binding(ElemRef("p2"), frozenset({ref("t2")})),
        Binding(ElemRef("p2", "ENT_HARMONIZED"), frozenset({ref("t3")})),
    )
    ann = annotation(preds, args, binds)
    corpus, diags = validate_corpus(ParallelCorpus({"en": (ann,)}))
    assert corpus.validated
    assert [d.code for d in diags] == ["W-ROLE-NEAR-DUP"]
    assert validate_monolingual(ann) == []
    assert diags == check_group_roles([ann], file="<en>")


def two_sentence_corpus(alignments, tag_registry=TagRegistry()):
    left = MonolingualAnnotation(
        small_tree("s1"),
        (P1,),
        (Argument("p1", "AGENT"),),
        (
            Binding(ElemRef("p1"), frozenset({ref("t4")})),
            Binding(ElemRef("p1", "AGENT"), frozenset({ref("n501")})),
        ),
    )
    right = MonolingualAnnotation(
        small_tree("s1"),
        (Predicate("p1", "NEHMEN", "v", "NEHMEN"),),
        (Argument("p1", "EMPFÄNGER"),),
        (
            Binding(ElemRef("p1"), frozenset({ref("t4")})),
            Binding(ElemRef("p1", "EMPFÄNGER"), frozenset({ref("n501")})),
        ),
    )
    pair = SentencePairAlignment("en:s1", "de:s1", tuple(alignments))
    return (
        ParallelCorpus(
            {"en": (left,), "de": (right,)},
            (PairSet("en", "de", (pair,)),),
            tag_registry,
        ),
        pair,
    )


def test_valid_pair():
    corpus, pair = two_sentence_corpus(
        (
            Alignment("pred", ElemRef("p1"), ElemRef("p1")),
            Alignment("arg", ElemRef("p1", "AGENT"), ElemRef("p1", "EMPFÄNGER"), "incomp"),
        )
    )
    assert validate_pair(corpus, pair) == []


def test_align_dangle_unknown_element():
    corpus, pair = two_sentence_corpus((Alignment("pred", ElemRef("p9"), ElemRef("p1")),))
    assert error_codes(validate_pair(corpus, pair)) == ["E-ALIGN-DANGLE"]


def test_align_dangle_unknown_sentence():
    corpus, _ = two_sentence_corpus(())
    pair = SentencePairAlignment("en:s9", "de:s1", ())
    assert error_codes(validate_pair(corpus, pair)) == ["E-ALIGN-DANGLE"]


def test_align_kind_mismatch():
    corpus, pair = two_sentence_corpus(
        (Alignment("pred", ElemRef("p1", "AGENT"), ElemRef("p1")),)
    )
    assert error_codes(validate_pair(corpus, pair)) == ["E-ALIGN-KIND"]


def test_align_duplicate_element():
    corpus, pair = two_sentence_corpus(
        (
            Alignment("pred", ElemRef("p1"), ElemRef("p1")),
            Alignment("pred", ElemRef("p1"), ElemRef("p1"), "abs-opp"),
        )
    )
    assert error_codes(validate_pair(corpus, pair)) == ["E-ALIGN-DUP", "E-ALIGN-DUP"]


def test_align_orphan_argument():
    corpus, pair = two_sentence_corpus(
        (Alignment("arg", ElemRef("p1", "AGENT"), ElemRef("p1", "EMPFÄNGER")),)
    )
    assert error_codes(validate_pair(corpus, pair)) == ["E-ALIGN-ORPHAN-ARG"]


def test_align_unregistered_tag():
    registry = TagRegistry(alignment_tags=frozenset({"incomp"}))
    corpus, pair = two_sentence_corpus(
        (Alignment("pred", ElemRef("p1"), ElemRef("p1"), "abs-opp"),), registry
    )
    assert error_codes(validate_pair(corpus, pair)) == ["E-ALIGN-TAG"]


def test_unaligned_elements_are_never_diagnostics():
    corpus, pair = two_sentence_corpus(())
    assert validate_pair(corpus, pair) == []


def test_binding_tag_and_alignment_tag_may_cooccur():
    corpus, pair = two_sentence_corpus(
        (Alignment("pred", ElemRef("p1"), ElemRef("p1"), "abs-opp"),)
    )
    left = corpus.treebanks["en"][0]
    tagged = dataclasses.replace(
        left,
        bindings=(
            Binding(ElemRef("p1"), frozenset({ref("t4")}), tags=frozenset({"pv"})),
            left.bindings_for(ElemRef("p1", "AGENT"))[0],
        ),
    )
    corpus = dataclasses.replace(corpus, treebanks={**corpus.treebanks, "en": (tagged,)})
    _, diags = validate_corpus(corpus)
    assert diags == []


def test_validate_corpus_marks_validated_flag():
    corpus, _ = two_sentence_corpus((Alignment("pred", ElemRef("p1"), ElemRef("p1")),))
    assert not corpus.validated
    blessed, diags = validate_corpus(corpus)
    assert diags == [] and blessed.validated
    assert blessed == corpus  # the flag never participates in equality
    broken = dataclasses.replace(
        corpus, tag_registry=TagRegistry(alignment_tags=frozenset({"x"}))
    )
    broken = dataclasses.replace(
        broken,
        pair_sets=(
            PairSet(
                "en",
                "de",
                (
                    SentencePairAlignment(
                        "en:s1",
                        "de:s1",
                        (Alignment("pred", ElemRef("p1"), ElemRef("p1"), "abs-opp"),),
                    ),
                ),
            ),
        ),
    )
    blessed, diags = validate_corpus(broken)
    assert error_codes(diags) == ["E-ALIGN-TAG"]
    assert not blessed.validated


def test_diagnostics_are_deterministic():
    binds = (Binding(ElemRef("p1"), frozenset({ref("n999"), ref("n998")})),)
    ann = annotation((P1,), (Argument("p1", "AGENT"),), binds)
    first = validate_monolingual(ann)
    second = validate_monolingual(ann)
    assert first == second
    assert [d.sort_key for d in first] == sorted(d.sort_key for d in first)


def test_validate_corpus_resolves_each_binding_once(fixture_corpus, monkeypatch):
    corpora = (fixture_corpus, random_corpus(random.Random(17), max_sents=40))
    calls = []
    resolve_yield = fusetb.validate.resolve_yield

    def counting(tree, binding):
        calls.append(binding)
        return resolve_yield(tree, binding)

    monkeypatch.setattr(fusetb.validate, "resolve_yield", counting)
    for corpus in corpora:
        calls.clear()
        _, diags = validate_corpus(corpus)
        assert error_codes(diags) == []
        bindings = sum(len(ann.bindings) for anns in corpus.treebanks.values() for ann in anns)
        assert bindings > 10 and len(calls) == bindings
