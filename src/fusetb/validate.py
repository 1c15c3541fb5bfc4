"""Cross-layer validation of annotations against the model's well-formedness rules.

README.md ("Diagnostic codes") is the contract: each check's code, and the order of the diagnostics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .formats import WARNING, Diagnostic
from .model import (
    Alignment,
    ElemRef,
    EmptyYieldError,
    MonolingualAnnotation,
    ParallelCorpus,
    SentencePairAlignment,
    group_roles,
    is_ancestor,
    resolve_yield,
    split_sentence_key,
)

__all__ = [
    "validate_monolingual",
    "validate_pair",
    "validate_corpus",
    "check_group_roles",
]

# Near-duplicate role detection: cheap typo detector, not a semantic check.
_NEAR_DUP_MIN_LEN = 4


def _sorted_unique(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(set(diags), key=lambda d: d.sort_key)


def _levenshtein_le_1(a: str, b: str) -> bool:
    if abs(len(a) - len(b)) > 1:
        return False
    if len(a) == len(b):
        return sum(x != y for x, y in zip(a, b)) <= 1
    if len(a) > len(b):
        a, b = b, a
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def roles_near_duplicate(a: str, b: str) -> bool:
    """True for distinct role names likely to be the same role misspelt."""
    if a == b or min(len(a), len(b)) < _NEAR_DUP_MIN_LEN:
        return False
    return a.casefold() == b.casefold() or _levenshtein_le_1(a, b)


def check_group_roles(
    annotations: Iterable[MonolingualAnnotation], file: str = "<memory>"
) -> list[Diagnostic]:
    """Treebank-wide near-duplicate role scan (a group spans sentences)."""
    groups: dict[str, set[str]] = {}
    for group, role in group_roles(annotations):
        groups.setdefault(group, set()).add(role)
    return _sorted_unique([
        Diagnostic(WARNING, "W-ROLE-NEAR-DUP", file, None,
                   f"group {group}: roles {role_a} and {role_b} look like near-duplicates")
        for group, roles in groups.items()
        for role_a, role_b in combinations(sorted(roles), 2)
        if roles_near_duplicate(role_a, role_b)
    ])


def validate_monolingual(
    annotation: MonolingualAnnotation, file: str = "<memory>"
) -> list[Diagnostic]:
    """All single-sentence checks; one diagnostic per violation."""
    diags: list[Diagnostic] = []
    sid, tree = annotation.sentence_id, annotation.tree

    def error(code: str, message: str, target: ElemRef | None = None) -> None:
        where = sid if target is None else f"{sid}, binding of {target}"
        diags.append(Diagnostic.error(code, file, f"sentence {where}: {message}"))

    # each bound element's yield; None where a dangling node or the exclusions leave it none
    yields: dict[ElemRef, list[int] | None] = {}
    for binding in annotation.bindings:
        target, included, excluded = binding.target, binding.included, binding.excluded
        if binding.tags and target.role is not None:
            error("E-TAG-ON-ARG", f"binding tags {sorted(binding.tags)} are only legal on predicates", target)
        dangling = [ref for ref in included | excluded if not tree.has_node(ref)]
        for ref in dangling:
            error("E-BIND-DANGLE", f"node {ref} not in tree", target)
        found = None
        if not dangling:
            # sorted, so that E-INCL-NESTED names the nodes of a pair in one order
            for ref_a, ref_b in combinations(sorted(included, key=lambda r: r.sort_key), 2):
                if is_ancestor(tree, ref_a, ref_b) or is_ancestor(tree, ref_b, ref_a):
                    error("E-INCL-NESTED", f"included nodes {ref_a} and {ref_b} are nested", target)
            for ref in excluded:
                if not any(is_ancestor(tree, inc, ref) for inc in included):
                    error("E-EXCL-NOT-DESC",
                          f"excluded node {ref} is not a proper descendant of an included node", target)
            try:
                found = resolve_yield(tree, binding)
            except EmptyYieldError:
                error("E-YIELD-EMPTY", "empty binding yield", target)
        yields[target] = found
    for ref in annotation.element_refs():
        if ref not in yields:
            error("E-BIND-MISSING", f"element {ref} has 0 bindings, expected exactly one")
    # recursion-freedom: an argument's yield may not overlap its predicate's
    for arg in annotation.arguments:
        arg_yield = yields.get(ElemRef.of(arg.pred_id, arg.role))
        pred_yield = yields.get(ElemRef.of(arg.pred_id))
        if arg_yield and pred_yield:
            overlap = sorted(set(arg_yield) & set(pred_yield))
            if overlap:
                error("E-RECURSION", f"argument {arg.pred_id}.{arg.role} yield overlaps its"
                                     f" predicate's yield at tokens {overlap}")
    return _sorted_unique(diags)


def validate_pair(
    corpus: ParallelCorpus, pair: SentencePairAlignment, file: str = "<memory>"
) -> list[Diagnostic]:
    """Alignment-layer checks for one sentence pair."""
    diags: list[Diagnostic] = []
    keys = (pair.left_sentence, pair.right_sentence)

    def error(code: str, message: str, a: Alignment | None = None) -> None:
        link = "" if a is None else f"{a.left} ~ {a.right}: "
        diags.append(Diagnostic.error(code, file, f"pair {keys[0]} {keys[1]}: {link}{message}"))

    for key in keys:
        if not corpus.has_sentence(key):
            error("E-ALIGN-DANGLE", f"unknown sentence {key}")
    if diags:
        return _sorted_unique(diags)
    anns = (corpus.sentence(keys[0]), corpus.sentence(keys[1]))
    pred_links = {(a.left.pred_id, a.right.pred_id) for a in pair.alignments if a.kind == "pred"}
    endpoints = []
    for a in pair.alignments:
        want_role = a.kind == "arg"
        if (a.left.role is not None) != want_role or (a.right.role is not None) != want_role:
            # a malformed record is reported once; its endpoints are not
            # fed into the duplicate/orphan bookkeeping
            error("E-ALIGN-KIND", f"endpoint shape does not match {a.kind}-{a.kind} alignment", a)
            continue
        for key, ann, ref in zip(keys, anns, (a.left, a.right)):
            if not ann.has_element(ref):
                error("E-ALIGN-DANGLE", f"{key} has no element {ref}", a)
            endpoints.append((key, ref))
        if a.tag is not None and a.tag not in corpus.tag_registry.alignment_tags:
            error("E-ALIGN-TAG", f"unregistered tag {a.tag!r}", a)
        if want_role and (a.left.pred_id, a.right.pred_id) not in pred_links:
            error("E-ALIGN-ORPHAN-ARG", f"owner predicates {a.left.pred_id} and"
                                        f" {a.right.pred_id} are not aligned in this pair", a)
    for (key, ref), count in Counter(endpoints).items():
        if count > 1:
            error("E-ALIGN-DUP", f"element {ref} of {key} appears in {count} alignments")
    return _sorted_unique(diags)


def validate_corpus(
    corpus: ParallelCorpus,
    lang_files: Mapping[str, str] | None = None,
    pair_files: Sequence[str] | None = None,
) -> tuple[ParallelCorpus, list[Diagnostic]]:
    """Run every check over a corpus; returns (corpus, diagnostics).

    The returned corpus carries validated=True iff no ERROR was found.
    File labels are used for diagnostic locations when provided (the
    loader passes real paths; in-memory corpora get <lang> placeholders).
    pair_files holds one label per pair set, in corpus.pair_sets order,
    since two pair sets may share a language pair.
    """
    lang_files = lang_files or {}
    if pair_files is None:
        pair_files = [f"<{ps.left_lang}-{ps.right_lang}>" for ps in corpus.pair_sets]
    diags: list[Diagnostic] = []
    registered = corpus.tag_registry.binding_tags
    for lang in corpus.languages:
        label = lang_files.get(lang, f"<{lang}>")
        for ann in corpus.treebanks[lang]:
            diags.extend(validate_monolingual(ann, label))
            diags.extend(
                Diagnostic.error("E-BIND-TAG", label, f"sentence {ann.sentence_id}, binding of {b.target}:"
                                                      f" unregistered tag {tag!r}")
                for b in ann.bindings if not b.tags <= registered for tag in b.tags - registered
            )
        diags.extend(check_group_roles(corpus.treebanks[lang], file=label))
    for pair_set, label in zip(corpus.pair_sets, pair_files, strict=True):
        align = (pair_set.left_lang, pair_set.right_lang)
        for pair in pair_set.pairs:
            keys = (pair.left_sentence, pair.right_sentence)
            if tuple(split_sentence_key(key)[0] for key in keys) != align:
                diags.append(Diagnostic.error(
                    "E-PAIR-LANG", label, f"pair {' '.join(keys)} does not match ALIGN {' '.join(align)}"))
            diags.extend(validate_pair(corpus, pair, file=label))
    diags = _sorted_unique(diags)
    ok = not any(d.is_error for d in diags)
    return replace(corpus, validated=ok), diags
