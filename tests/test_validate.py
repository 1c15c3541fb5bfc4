from __future__ import annotations

import dataclasses
import random
import re

import pytest

import fusetb.validate
from fusetb.model import (
    Alignment,
    Argument,
    Binding,
    ElemRef,
    FieldError,
    MonolingualAnnotation,
    NodeRef,
    PairSet,
    ParallelCorpus,
    Predicate,
    SentencePairAlignment,
    SentenceTree,
    TagRegistry,
    is_ancestor,
)
from fusetb.validate import (
    check_group_roles,
    roles_near_duplicate,
    validate_corpus,
    validate_monolingual,
    validate_pair,
)

from .generators import node_refs, plant_tree_fault, random_corpus
from .oracles import oracle_diagnostics


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
    return NodeRef.parse(text)


P1 = Predicate("p1", "GEBEN", "v", "GEBEN")


def error_codes(diags):
    return [d.code for d in diags if d.is_error]


def rejection(build):
    """(code, message) of the FieldError that build() raises."""
    with pytest.raises(FieldError) as excinfo:
        build()
    return excinfo.value.code, str(excinfo.value)


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
    assert rejection(lambda: annotation((P1,), (), binds)) == (
        "E-BIND-MISSING", "sentence s1: element p1 has 2 bindings, expected exactly one")


def test_dangling_node():
    ann = annotation((P1,), (), (Binding(ElemRef("p1"), frozenset({ref("n999")})),))
    assert error_codes(validate_monolingual(ann)) == ["E-BIND-DANGLE"]


def test_dangling_target():
    binds = (
        Binding(ElemRef("p1"), frozenset({ref("t4")})),
        Binding(ElemRef("p2"), frozenset({ref("t1")})),
    )
    assert rejection(lambda: annotation((P1,), (), binds)) == (
        "E-BIND-DANGLE", "sentence s1, binding of p2: target is not a declared element")


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
    code, message = rejection(lambda: annotation((P1,), (Argument("p1", "THEME"),), binds))
    assert code == "E-BIND-MISSING" and message.endswith(" has 2 bindings, expected exactly one")


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
            left.binding_for(ElemRef("p1", "AGENT")),
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


# Seeded faults. Each planter takes a valid annotation (or a corpus and one of its
# pairs) and an rng, and returns (mutated, code, fragment), or None when the input has
# no place for the fault; fragment is message text naming the planted element or node.


def _rebind(ann, i, **changes):
    """ann with the given fields of its i-th binding changed."""
    moved = dataclasses.replace(ann.bindings[i], **changes)
    return dataclasses.replace(ann, bindings=(*ann.bindings[:i], moved, *ann.bindings[i + 1 :]))


def _realign(pair, i, **changes):
    """pair with the given fields of its i-th alignment changed."""
    moved = dataclasses.replace(pair.alignments[i], **changes)
    return dataclasses.replace(pair, alignments=(*pair.alignments[:i], moved, *pair.alignments[i + 1 :]))


def _drop_binding(ann, rng):
    if ann.bindings:
        i = rng.randrange(len(ann.bindings))
        mutated = dataclasses.replace(ann, bindings=ann.bindings[:i] + ann.bindings[i + 1 :])
        return mutated, "E-BIND-MISSING", f"element {ann.bindings[i].target} has 0 bindings"


def _double_binding(ann, rng):
    """No fault: MonolingualAnnotation rejects a second binding of an element when it is built."""
    if ann.bindings:
        extra = rng.choice(ann.bindings)
        code, message = rejection(lambda: dataclasses.replace(ann, bindings=(*ann.bindings, extra)))
        assert code == "E-BIND-MISSING" and f"element {extra.target} has 2 bindings" in message


def _retarget_outside_tree(ann, rng):
    if ann.bindings:
        i = rng.randrange(len(ann.bindings))
        binding = ann.bindings[i]
        tree = ann.tree
        outside = rng.choice(
            (NodeRef.parse(f"t{len(tree.tokens) + 1}"), NodeRef.parse(f"n{max(tree.nt_ids, default=500) + 1}"))
        )
        gone = rng.choice(sorted(binding.included, key=lambda r: r.sort_key))
        mutated = _rebind(ann, i, included=binding.included - {gone} | {outside})
        return mutated, "E-BIND-DANGLE", f"binding of {binding.target}: node {outside} not in tree"


def _exclude_a_non_descendant(ann, rng):
    tree = ann.tree
    places = [
        (i, ref)
        for i, binding in enumerate(ann.bindings)
        for ref in node_refs(tree)
        if not any(is_ancestor(tree, inc, ref) for inc in binding.included)
    ]
    if places:
        i, ref = rng.choice(places)
        binding = ann.bindings[i]
        mutated = _rebind(ann, i, excluded=binding.excluded | {ref})
        return mutated, "E-EXCL-NOT-DESC", f"binding of {binding.target}: excluded node {ref} is not"


def _nest_included(ann, rng):
    tree = ann.tree
    places = [
        (i, inc, ref)
        for i, binding in enumerate(ann.bindings)
        for inc in sorted(binding.included, key=lambda r: r.sort_key)
        for ref in node_refs(tree)
        if is_ancestor(tree, inc, ref)
    ]
    if places:
        i, inc, ref = rng.choice(places)
        binding = ann.bindings[i]
        mutated = _rebind(ann, i, included=binding.included | {ref})
        first, second = sorted((inc, ref), key=lambda r: r.sort_key)
        fragment = f"binding of {binding.target}: included nodes {first} and {second} are nested"
        return mutated, "E-INCL-NESTED", fragment


def _tag_an_argument_binding(ann, rng):
    places = [i for i, binding in enumerate(ann.bindings) if binding.target.role is not None]
    if places:
        i = rng.choice(places)
        mutated = _rebind(ann, i, tags=frozenset({"pv"}))
        return mutated, "E-TAG-ON-ARG", f"binding of {ann.bindings[i].target}: binding tags ['pv']"


def _duplicate_alignment(corpus, pair, rng):
    if pair.alignments:
        a = rng.choice(pair.alignments)
        mutated = dataclasses.replace(pair, alignments=(*pair.alignments, a))
        return mutated, "E-ALIGN-DUP", f"element {a.left} of {pair.left_sentence} appears in 2 alignments"


def _orphan_argument_alignment(corpus, pair, rng):
    args = [a for a in pair.alignments if a.kind == "arg"]
    if args:
        a = rng.choice(args)
        owners = (a.left.pred_id, a.right.pred_id)
        kept = tuple(
            b for b in pair.alignments if b.kind == "arg" or (b.left.pred_id, b.right.pred_id) != owners
        )
        mutated = dataclasses.replace(pair, alignments=kept)
        fragment = f"{a.left} ~ {a.right}: owner predicates {owners[0]} and {owners[1]}"
        return mutated, "E-ALIGN-ORPHAN-ARG", fragment


def _flip_alignment_kind(corpus, pair, rng):
    if pair.alignments:
        i = rng.randrange(len(pair.alignments))
        a = pair.alignments[i]
        mutated = _realign(pair, i, kind="arg" if a.kind == "pred" else "pred")
        return mutated, "E-ALIGN-KIND", f"{a.left} ~ {a.right}: endpoint shape does not match"


def _unregistered_alignment_tag(corpus, pair, rng):
    if pair.alignments:
        i = rng.randrange(len(pair.alignments))
        a = pair.alignments[i]
        return _realign(pair, i, tag="bogus"), "E-ALIGN-TAG", f"{a.left} ~ {a.right}: unregistered tag 'bogus'"


def _unknown_sentence(corpus, pair, rng):
    side = rng.choice(("left_sentence", "right_sentence"))
    key = getattr(pair, side) + "0"
    while corpus.has_sentence(key):
        key += "0"
    mutated = dataclasses.replace(pair, **{side: key})
    return mutated, "E-ALIGN-DANGLE", f"unknown sentence {key}"


ANNOTATION_FAULTS = (
    _drop_binding,
    _double_binding,
    _retarget_outside_tree,
    _exclude_a_non_descendant,
    _nest_included,
    _tag_an_argument_binding,
)
PAIR_FAULTS = (
    _duplicate_alignment,
    _orphan_argument_alignment,
    _flip_alignment_kind,
    _unregistered_alignment_tag,
    _unknown_sentence,
)


def test_seeded_faults_are_reported_and_named():
    planted = {plant.__name__: 0 for plant in ANNOTATION_FAULTS + PAIR_FAULTS if plant is not _double_binding}
    for seed in range(40):
        rng = random.Random(seed)
        corpus = random_corpus(rng, max_sents=6)
        assert validate_corpus(corpus)[1] == []
        cases = []
        for anns in corpus.treebanks.values():
            for ann in anns:
                assert validate_monolingual(ann) == []
                cases += [(plant, plant(ann, rng)) for plant in ANNOTATION_FAULTS]
        for pair in corpus.pair_sets[0].pairs:
            assert validate_pair(corpus, pair) == []
            cases += [(plant, plant(corpus, pair, rng)) for plant in PAIR_FAULTS]
        for plant, fault in cases:
            if fault is None:
                continue
            mutated, code, fragment = fault
            if plant in PAIR_FAULTS:
                diags = validate_pair(corpus, mutated)
            else:
                diags = validate_monolingual(mutated)
            assert any(d.code == code and fragment in d.message for d in diags), (seed, plant.__name__, diags)
            planted[plant.__name__] += 1
    assert min(planted.values()) >= 10, planted


# Planters whose faults only the exact-set oracle test below needs: a role near-duplicate
# is a treebank-wide warning, and the other two reach the remaining codes.


def _bind_an_argument_over_its_predicate(ann, rng):
    pred_bindings = {b.target.pred_id: b for b in ann.bindings if b.target.role is None}
    places = [
        i for i, b in enumerate(ann.bindings) if b.target.role is not None and b.target.pred_id in pred_bindings
    ]
    if places:
        i = rng.choice(places)
        pred = pred_bindings[ann.bindings[i].target.pred_id]
        mutated = _rebind(ann, i, included=pred.included, excluded=pred.excluded)
        return mutated, "E-RECURSION", f"argument {ann.bindings[i].target} yield overlaps"


def _drop_an_owner_predicate(ann, rng):
    """No fault: MonolingualAnnotation rejects an argument of an undeclared predicate when it is built."""
    owners = sorted({a.pred_id for a in ann.arguments})
    if owners:
        pred_id = rng.choice(owners)
        predicates = tuple(p for p in ann.predicates if p.pred_id != pred_id)
        assert rejection(lambda: dataclasses.replace(ann, predicates=predicates)) == (
            "E-ORDER", f"ARG before PRED line for {pred_id}")


def _misspell_a_role(ann, rng):
    args = [a for a in ann.arguments if len(a.role) > 4]
    if args:
        arg = rng.choice(args)
        misspelt = Argument(arg.pred_id, arg.role[:-1])
        copies = tuple(
            dataclasses.replace(b, target=ElemRef.of(misspelt.pred_id, misspelt.role))
            for b in ann.bindings if b.target == ElemRef.of(arg.pred_id, arg.role)
        )
        mutated = dataclasses.replace(
            ann, arguments=(*ann.arguments, misspelt), bindings=(*ann.bindings, *copies)
        )
        return mutated, "W-ROLE-NEAR-DUP", f"roles {misspelt.role} and {arg.role}"


# Planters added after the exact-set test's seeds were fixed: they draw from an RNG of their
# own there, so each seed keeps the faults the planters above give it.


def _unregistered_binding_tag(ann, rng):
    if ann.bindings:
        i = rng.randrange(len(ann.bindings))
        mutated = _rebind(ann, i, tags=ann.bindings[i].tags | {"bogus"})
        return mutated, "E-BIND-TAG", f"binding of {ann.bindings[i].target}: unregistered tag 'bogus'"


def _swap_pair_sentences(corpus, pair, rng):
    mutated = dataclasses.replace(pair, left_sentence=pair.right_sentence, right_sentence=pair.left_sentence)
    return mutated, "E-PAIR-LANG", f"pair {pair.right_sentence} {pair.left_sentence} does not match ALIGN"


# One pattern per code: group 1 is the scope (sentence id, pair keys or group), and the
# others are what oracle_diagnostics calls the subject.
_MESSAGE_RES = {code: re.compile(pattern) for code, pattern in {
    "E-BIND-MISSING": r"sentence (\S+): element (\S+) has (\d+) bindings, expected exactly one",
    "E-BIND-DANGLE": r"sentence (\S+)(?:, binding of (\S+): (?:target is not a declared element"
                     r"|node (\S+) not in tree)|: argument (\S+) owned by unknown predicate)",
    "E-TAG-ON-ARG": r"sentence (\S+), binding of (\S+): binding tags (\[.*\]) are only legal on predicates",
    "E-INCL-NESTED": r"sentence (\S+), binding of (\S+): included nodes (\S+) and (\S+) are nested",
    "E-EXCL-NOT-DESC": r"sentence (\S+), binding of (\S+): excluded node (\S+) is not a proper"
                       r" descendant of an included node",
    "E-YIELD-EMPTY": r"sentence (\S+), binding of (\S+): empty binding yield",
    "E-RECURSION": r"sentence (\S+): argument (\S+) yield overlaps its predicate's yield at tokens (\[.*\])",
    "E-ALIGN-DANGLE": r"pair (\S+ \S+): (?:unknown sentence (\S+)|(\S+ ~ \S+): (\S+) has no element (\S+))",
    "E-ALIGN-KIND": r"pair (\S+ \S+): (\S+ ~ \S+): endpoint shape does not match (\w+)-\3 alignment",
    "E-ALIGN-DUP": r"pair (\S+ \S+): element (\S+) of (\S+) appears in (\d+) alignments",
    "E-ALIGN-ORPHAN-ARG": r"pair (\S+ \S+): (\S+ ~ \S+): owner predicates (\S+) and (\S+)"
                          r" are not aligned in this pair",
    "E-ALIGN-TAG": r"pair (\S+ \S+): (\S+ ~ \S+): unregistered tag (.+)",
    "E-BIND-TAG": r"sentence (\S+), binding of (\S+): unregistered tag (.+)",
    "E-PAIR-LANG": r"pair (\S+ \S+) does not match ALIGN (\S+) (\S+)",
    "W-ROLE-NEAR-DUP": r"group (\S+): roles (\S+) and (\S+) look like near-duplicates",
}.items()}


def _chain_faults(rng, planters, value, *context):
    """value with one to three planters applied in turn; a planter with no place is skipped."""
    for plant in rng.sample(planters, rng.randint(1, 3)):
        fault = plant(*context, value, rng)
        if fault is not None:
            value = fault[0]
    return value


def test_validation_reports_exactly_the_oracle_set():
    reported = set()
    for seed in range(200):
        rng = random.Random(seed)
        later = random.Random(-1 - seed)  # the later planters' own stream
        corpus = random_corpus(rng, max_sents=6)
        treebanks = {}
        for lang, anns in corpus.treebanks.items():
            faulty = []
            for ann in anns:
                if ann.tree.nt_ids and rng.random() < 0.1:
                    ann = dataclasses.replace(ann, tree=plant_tree_fault(rng, ann.tree))
                if rng.random() < 0.6:
                    planters = ANNOTATION_FAULTS + (_bind_an_argument_over_its_predicate,
                                                    _drop_an_owner_predicate, _misspell_a_role)
                    ann = _chain_faults(rng, planters, ann)
                fault = _unregistered_binding_tag(ann, later) if later.random() < 0.1 else None
                faulty.append(fault[0] if fault else ann)
            treebanks[lang] = tuple(faulty)
        pair_set = corpus.pair_sets[0]
        pairs = tuple(
            _chain_faults(rng, PAIR_FAULTS, pair, corpus) if rng.random() < 0.6 else pair
            for pair in pair_set.pairs
        )
        pairs = tuple(_swap_pair_sentences(corpus, pair, later)[0] if later.random() < 0.1 else pair
                      for pair in pairs)
        mutated = ParallelCorpus(treebanks, (dataclasses.replace(pair_set, pairs=pairs),), corpus.tag_registry)
        got = []
        for d in validate_corpus(mutated)[1]:
            m = _MESSAGE_RES[d.code].fullmatch(d.message)
            assert m, d.render()
            got.append((d.code, d.file, m.group(1), m.groups()[1:]))
        assert len(set(got)) == len(got), seed
        assert set(got) == oracle_diagnostics(mutated), seed
        reported.update(code for code, *_ in got)
    assert reported == set(_MESSAGE_RES)


def test_pair_languages_must_match_their_pair_set():
    corpus = random_corpus(random.Random(3), max_sents=4)
    pair_set = corpus.pair_sets[0]
    swapped = dataclasses.replace(pair_set, left_lang="de", right_lang="en")
    validated, diags = validate_corpus(dataclasses.replace(corpus, pair_sets=(swapped,)))
    assert not validated.validated and pair_set.pairs
    assert [d.render() for d in diags] == [
        f"ERROR\tE-PAIR-LANG\t<de-en>\tpair {pair.left_sentence} {pair.right_sentence} does not match ALIGN de en"
        for pair in pair_set.pairs
    ]


def test_unregistered_binding_tags_are_reported():
    tagged = Binding(ElemRef("p1"), frozenset({ref("t1")}), tags=frozenset({"pv", "refl", "zzz"}))
    corpus = ParallelCorpus({"en": (annotation([P1], [], [tagged]),)})
    assert [d.render() for d in validate_corpus(corpus)[1]] == [
        "ERROR\tE-BIND-TAG\t<en>\tsentence s1, binding of p1: unregistered tag 'refl'",
        "ERROR\tE-BIND-TAG\t<en>\tsentence s1, binding of p1: unregistered tag 'zzz'",
    ]
    registry = TagRegistry(binding_tags=frozenset({"pv", "refl", "zzz"}))
    assert validate_corpus(ParallelCorpus(corpus.treebanks, (), registry))[1] == []
