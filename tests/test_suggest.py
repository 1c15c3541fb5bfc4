from __future__ import annotations

import random

import pytest

from fusetb.model import (
    Argument,
    Binding,
    ElemRef,
    MonolingualAnnotation,
    NodeRef,
    ParallelCorpus,
    Predicate,
    ResolutionError,
    SentenceTree,
)
from fusetb.suggest import RoleSuggestion, suggest_roles

from .generators import random_corpus
from .oracles import oracle_suggest


def test_fixture_suggestion(fixture_corpus):
    assert suggest_roles(fixture_corpus, "en", "HARMONISE") == [
        RoleSuggestion("ENT_HARMONISED", 1, 1.0)
    ]


def test_unknown_group_is_empty(fixture_corpus):
    assert suggest_roles(fixture_corpus, "en", "NOSUCH") == []


def test_unknown_language_is_error(fixture_corpus):
    with pytest.raises(ResolutionError):
        suggest_roles(fixture_corpus, "fr", "HARMONISE")


def test_already_used_roles_are_excluded_but_share_denominator_stays(fixture_corpus):
    all_roles = suggest_roles(fixture_corpus, "en", "GIVE")
    assert [(s.role, s.frequency) for s in all_roles] == [
        ("ENT_GIVEN", 1),
        ("GIVER", 1),
        ("RECIPIENT", 1),
    ]
    assert all(s.share == pytest.approx(1 / 3) for s in all_roles)
    remaining = suggest_roles(fixture_corpus, "en", "GIVE", {"GIVER"})
    assert [s.role for s in remaining] == ["ENT_GIVEN", "RECIPIENT"]
    assert all(s.share == pytest.approx(1 / 3) for s in remaining)


def test_ordering_frequency_then_lexicographic():
    tree = SentenceTree("s1", tuple(f"w{i}" for i in range(1, 7)), ("NN",) * 6, (None,) * 6, (0,) * 6)
    preds = (Predicate("p1", "GEBEN", "v", "GEBEN"), Predicate("p2", "GABE", "n", "GEBEN"))
    args = (
        Argument("p1", "THEME"),
        Argument("p1", "AGENT"),
        Argument("p2", "THEME"),
    )
    binds = (
        Binding(ElemRef("p1"), frozenset({NodeRef.parse("t1")})),
        Binding(ElemRef("p2"), frozenset({NodeRef.parse("t2")})),
        Binding(ElemRef("p1", "THEME"), frozenset({NodeRef.parse("t3")})),
        Binding(ElemRef("p1", "AGENT"), frozenset({NodeRef.parse("t4")})),
        Binding(ElemRef("p2", "THEME"), frozenset({NodeRef.parse("t5")})),
    )
    corpus = ParallelCorpus({"en": (MonolingualAnnotation(tree, preds, args, binds),)})
    got = suggest_roles(corpus, "en", "GEBEN")
    assert [(s.role, s.frequency) for s in got] == [("THEME", 2), ("AGENT", 1)]
    assert got[0].share == pytest.approx(2 / 3)


def test_matches_flat_count_oracle_on_random_corpora():
    rng = random.Random(66)
    for _ in range(40):
        corpus = random_corpus(rng)
        lang = rng.choice(list(corpus.treebanks))
        groups = {
            p.group for ann in corpus.treebanks[lang] for p in ann.predicates
        } | {"NOSUCH"}
        for group in sorted(groups):
            used = set()
            expected = oracle_suggest(corpus, lang, group, used)
            got = suggest_roles(corpus, lang, group, used)
            assert [(s.role, s.frequency) for s in got] == [
                (role, freq) for role, freq, _ in expected
            ]
            for s, (_, _, share) in zip(got, expected):
                assert s.share == pytest.approx(share)


def _with_extra_use(corpus, lang, group, role):
    """Corpus plus one sentence where `group` takes `role` once more."""
    tree = SentenceTree("sx99", ("w1", "w2"), ("NN", "NN"), (None, None), (0, 0))
    extra = MonolingualAnnotation(
        tree,
        (Predicate("p1", "GEBEN", "v", group),),
        (Argument("p1", role),),
        (
            Binding(ElemRef("p1"), frozenset({NodeRef.parse("t1")})),
            Binding(ElemRef("p1", role), frozenset({NodeRef.parse("t2")})),
        ),
    )
    treebanks = dict(corpus.treebanks)
    treebanks[lang] = treebanks[lang] + (extra,)
    return ParallelCorpus(treebanks, corpus.pair_sets, corpus.tag_registry)


def _rank(suggestions, role):
    for i, s in enumerate(suggestions):
        if s.role == role:
            return i
    return len(suggestions)


def test_adding_a_use_never_demotes_a_role():
    rng = random.Random(77)
    for _ in range(60):
        corpus = random_corpus(rng)
        lang = rng.choice(list(corpus.treebanks))
        groups = sorted(
            {p.group for ann in corpus.treebanks[lang] for p in ann.predicates}
        ) or ["GEBEN"]
        group = rng.choice(groups)
        role = rng.choice(["AGENT", "THEME", "GOAL"])
        before = _rank(suggest_roles(corpus, lang, group), role)
        grown = _with_extra_use(corpus, lang, group, role)
        after = _rank(suggest_roles(grown, lang, group), role)
        assert after <= before
