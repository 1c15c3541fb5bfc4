from __future__ import annotations

import dataclasses
import random

import pytest

from fusetb.model import (
    Alignment,
    Argument,
    Binding,
    ElemRef,
    EmptyYieldError,
    FieldError,
    MonolingualAnnotation,
    NodeRef,
    PairSet,
    Predicate,
    ResolutionError,
    SentencePairAlignment,
    SentenceTree,
    is_ancestor,
    node_yield,
    resolve_yield,
)
from fusetb.validate import validate_monolingual

from .generators import node_refs, plant_tree_fault, random_annotation, random_binding, random_tree
from .oracles import brute_dominates, brute_is_tree, brute_resolve, brute_yield


def make_tree(n_tokens, nts):
    """nts: list of (id, parent); token parents given via tok_parents list."""
    ids, parents, tok_parents = nts
    return SentenceTree(
        "s1",
        tuple(f"w{i}" for i in range(1, n_tokens + 1)),
        ("NN",) * n_tokens + ("NP",) * len(ids),
        (None,) * (n_tokens + len(ids)),
        tuple(tok_parents) + tuple(parents),
        tuple(ids),
    )


@pytest.fixture()
def tree():
    # t1 t5 t6 under 502; t2 t3 under 500; t4 under 501; 500 501 under 502
    return make_tree(6, ([500, 501, 502], [502, 502, 0], [502, 500, 500, 501, 502, 502]))


def test_terminal_yields_itself(tree):
    assert node_yield(tree, NodeRef.parse("t3")) == [3]


def test_root_nonterminal_yields_whole_sentence(tree):
    assert node_yield(tree, NodeRef.parse("n502")) == [1, 2, 3, 4, 5, 6]


def test_inner_nodes(tree):
    assert node_yield(tree, NodeRef.parse("n500")) == [2, 3]
    assert node_yield(tree, NodeRef.parse("n501")) == [4]


def test_unknown_node_is_resolution_error(tree):
    with pytest.raises(ResolutionError):
        node_yield(tree, NodeRef.parse("n999"))
    with pytest.raises(ResolutionError):
        node_yield(tree, NodeRef.parse("t9"))


def test_node_yield_matches_brute_force_on_random_trees():
    rng = random.Random(101)
    for _ in range(300):
        tree = random_tree(rng, "s1")
        for ref in node_refs(tree):
            assert node_yield(tree, ref) == brute_yield(tree, ref)


def test_dominance_on_trees_with_a_cycle_or_an_unknown_parent():
    rng = random.Random(606)
    trees = pairs = 0
    while trees < 2000:
        tree = random_tree(rng, "s1")
        if not tree.nt_ids:
            continue
        ann = random_annotation(rng, tree)
        faulty = plant_tree_fault(rng, tree)
        columns = [getattr(faulty, name) for name in SentenceTree.__slots__]
        if brute_is_tree(faulty):  # the planted parent may still make a tree
            assert SentenceTree(*columns) == faulty
        else:
            with pytest.raises(FieldError):
                SentenceTree(*columns)
        refs = node_refs(faulty)
        for a in refs:
            assert node_yield(faulty, a) == brute_yield(faulty, a)
            for d in refs:
                assert is_ancestor(faulty, a, d) == brute_dominates(faulty, a, d), (faulty, a, d)
        pairs += len(refs) ** 2
        assert isinstance(validate_monolingual(dataclasses.replace(ann, tree=faulty)), list)
        trees += 1
    assert pairs > 100_000


def test_resolve_yield_single_terminal(tree):
    binding = Binding(ElemRef("p1"), frozenset({NodeRef.parse("t4")}))
    assert resolve_yield(tree, binding) == [4]


def test_resolve_yield_with_exclusion_is_discontinuous(tree):
    # 502 covers all six tokens, pruning 500 removes the medial t2 t3
    binding = Binding(
        ElemRef("p1", "THEME"),
        frozenset({NodeRef.parse("n502")}),
        frozenset({NodeRef.parse("n500")}),
    )
    covered = resolve_yield(tree, binding)
    assert covered == [1, 4, 5, 6]
    assert covered != list(range(covered[0], covered[-1] + 1))


def test_contiguous_yield_is_not_discontinuous(tree):
    binding = Binding(ElemRef("p1"), frozenset({NodeRef.parse("n500")}))
    covered = resolve_yield(tree, binding)
    assert covered == [2, 3]
    assert covered == list(range(covered[0], covered[-1] + 1))


def test_empty_yield_raises(tree):
    binding = Binding(
        ElemRef("p1"),
        frozenset({NodeRef.parse("n501")}),
        frozenset({NodeRef.parse("t4")}),
    )
    with pytest.raises(EmptyYieldError):
        resolve_yield(tree, binding)


def test_resolve_yield_matches_set_arithmetic_oracle():
    rng = random.Random(202)
    for i in range(300):
        tree = random_tree(rng, "s1")
        binding = random_binding(rng, tree, ElemRef("p1"))
        assert resolve_yield(tree, binding) == brute_resolve(tree, binding)


def test_element_of(tree):
    ann = MonolingualAnnotation(
        tree,
        (Predicate("p1", "HARMONISE", "v", "HARMONISE"),),
        (Argument("p1", "ENT_HARMONISED"),),
        (
            Binding(ElemRef("p1"), frozenset({NodeRef.parse("t4")})),
            Binding(ElemRef("p1", "ENT_HARMONISED"), frozenset({NodeRef.parse("n500")})),
        ),
    )
    assert ann.predicate("p1") == Predicate("p1", "HARMONISE", "v", "HARMONISE")
    assert ann.predicate("p9") is None


def test_annotation_equality_is_order_insensitive(tree):
    preds = (
        Predicate("p1", "GEBEN", "v", "GEBEN"),
        Predicate("p2", "SEHEN", "v", "SEHEN"),
    )
    args = (Argument("p1", "AGENT"), Argument("p1", "THEME"))
    binds = (
        Binding(ElemRef("p1"), frozenset({NodeRef.parse("t1")})),
        Binding(ElemRef("p2"), frozenset({NodeRef.parse("t4")})),
        Binding(ElemRef("p1", "AGENT"), frozenset({NodeRef.parse("t5")})),
        Binding(ElemRef("p1", "THEME"), frozenset({NodeRef.parse("n500")})),
    )
    a = MonolingualAnnotation(tree, preds, args, binds)
    b = MonolingualAnnotation(tree, preds[::-1], args[::-1], binds[::-1])
    assert a == b


def test_element_refs_list_predicates_then_arguments(tree):
    ann = MonolingualAnnotation(
        tree,
        (Predicate("p2", "SEHEN", "v", "SEHEN"), Predicate("p1", "GEBEN", "v", "GEBEN")),
        (Argument("p1", "THEME"), Argument("p1", "AGENT")),
    )
    assert ann.element_refs() == (
        ElemRef("p1"), ElemRef("p2"), ElemRef("p1", "AGENT"), ElemRef("p1", "THEME")
    )


def test_value_types_have_no_instance_dict():
    binding = Binding(ElemRef("p1"), frozenset({NodeRef.parse("t1")}))
    alignment = Alignment("pred", ElemRef("p1"), ElemRef("p1"))
    for value in (
        NodeRef.parse("t1"), ElemRef("p1"),
        Predicate("p1", "GEBEN", "v", "GEBEN"), Argument("p1", "AGENT"), binding, alignment,
    ):
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)


def test_pair_set_alignment_index():
    pair_set = PairSet(
        "en",
        "de",
        (
            SentencePairAlignment(
                "en:s1",
                "de:s1",
                (
                    Alignment("pred", ElemRef("p1"), ElemRef("p2")),
                    Alignment("arg", ElemRef("p1", "AGENT"), ElemRef("p2", "GEBER")),
                ),
            ),
            SentencePairAlignment("en:s2", "de:s2"),
        ),
    )
    before = repr(pair_set)
    assert dict(pair_set.aligned) == {
        "en:s1": frozenset({ElemRef("p1"), ElemRef("p1", "AGENT")}),
        "de:s1": frozenset({ElemRef("p2"), ElemRef("p2", "GEBER")}),
    }
    assert pair_set.aligned is pair_set.aligned
    with pytest.raises(TypeError):
        pair_set.aligned["en:s2"] = frozenset()
    assert repr(pair_set) == before
    assert pair_set == dataclasses.replace(pair_set)


def test_node_ref_parse_and_str():
    assert str(NodeRef.parse("t3")) == "t3"
    assert str(NodeRef.parse("n502")) == "n502"
    with pytest.raises(ValueError):
        NodeRef.parse("x5")
    with pytest.raises(ValueError):
        NodeRef.parse("t-1")


def test_elem_ref_parse_and_str():
    assert str(ElemRef.parse("p1")) == "p1"
    assert str(ElemRef.parse("p1.ENT_HARMONISED")) == "p1.ENT_HARMONISED"
    with pytest.raises(ValueError):
        ElemRef.parse("P1")
    with pytest.raises(ValueError):
        ElemRef.parse("p1.lower")


def test_degenerate_single_token_sentence():
    tree = SentenceTree("s1", ("Ja",), ("ADV",), (None,), (0,))
    assert node_yield(tree, NodeRef.parse("t1")) == [1]
