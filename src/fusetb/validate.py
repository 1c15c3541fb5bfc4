"""Cross-layer validation of annotations against the model's well-formedness rules.

Error codes (monolingual): E-BIND-MISSING (element without exactly one
binding), E-BIND-DANGLE (binding node or target does not resolve),
E-EXCL-NOT-DESC (excluded node is not a proper descendant of an included
node), E-INCL-NESTED (included nodes stand in a dominance relation),
E-YIELD-EMPTY (nothing left after exclusions), E-RECURSION (argument
yield overlaps its own predicate's yield), E-TAG-ON-ARG (binding tag on
an argument binding), all from validate_monolingual. A predicate group
spans sentences, so the warning W-ROLE-NEAR-DUP (suspiciously similar
role names inside one group) comes from the treebank-wide
check_group_roles, which validate_corpus runs per language.

Error codes (pair level): E-ALIGN-DANGLE (endpoint or sentence does not
resolve), E-ALIGN-KIND (endpoint shape contradicts the alignment kind),
E-ALIGN-DUP (element aligned more than once in a pair), E-ALIGN-ORPHAN-ARG
(argument alignment whose owner predicates are not aligned in the same
pair), E-ALIGN-TAG (tag not in the registry).

Unaligned elements are never diagnostics: deliberate non-alignment is a
legitimate annotation decision. All functions are pure and return
diagnostics sorted by (file, line, code, message).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Mapping, Sequence

from .formats import WARNING, Diagnostic
from .model import (
    Binding,
    ElemRef,
    EmptyYieldError,
    MonolingualAnnotation,
    ParallelCorpus,
    SentencePairAlignment,
    group_roles,
    is_ancestor,
    resolve_yield,
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
    diags = []
    for group in sorted(groups):
        roles = sorted(groups[group])
        for i, role_a in enumerate(roles):
            for role_b in roles[i + 1 :]:
                if roles_near_duplicate(role_a, role_b):
                    diags.append(
                        Diagnostic(
                            WARNING,
                            "W-ROLE-NEAR-DUP",
                            file,
                            None,
                            f"group {group}: roles {role_a} and {role_b} look like near-duplicates",
                        )
                    )
    return _sorted_unique(diags)


def _check_binding(
    ann: MonolingualAnnotation, binding: Binding, file: str, diags: list[Diagnostic]
) -> list[int] | None:
    """Append the binding's diagnostics to diags; its yield, or None if a node dangles or it is empty."""
    tree = ann.tree
    sid = ann.sentence_id
    where = f"sentence {sid}, binding of {binding.target}"
    if not ann.has_element(binding.target):
        diags.append(Diagnostic.error("E-BIND-DANGLE", file, f"{where}: target is not a declared element"))
    if binding.tags and not binding.target.is_predicate:
        diags.append(
            Diagnostic.error(
                "E-TAG-ON-ARG",
                file,
                f"{where}: binding tags {sorted(binding.tags)} are only legal on predicates",
            )
        )
    dangling = [ref for ref in sorted(binding.included | binding.excluded, key=lambda r: r.sort_key)
                if not tree.has_node(ref)]
    if dangling:
        for ref in dangling:
            diags.append(Diagnostic.error("E-BIND-DANGLE", file, f"{where}: node {ref} not in tree"))
        return None
    included = sorted(binding.included, key=lambda r: r.sort_key)
    for i, ref_a in enumerate(included):
        for ref_b in included[i + 1 :]:
            if is_ancestor(tree, ref_a, ref_b) or is_ancestor(tree, ref_b, ref_a):
                diags.append(
                    Diagnostic.error(
                        "E-INCL-NESTED",
                        file,
                        f"{where}: included nodes {ref_a} and {ref_b} are nested",
                    )
                )
    for ref in sorted(binding.excluded, key=lambda r: r.sort_key):
        if not any(is_ancestor(tree, inc, ref) for inc in binding.included):
            diags.append(
                Diagnostic.error(
                    "E-EXCL-NOT-DESC",
                    file,
                    f"{where}: excluded node {ref} is not a proper descendant of an included node",
                )
            )
    try:
        return resolve_yield(tree, binding)
    except EmptyYieldError:
        diags.append(Diagnostic.error("E-YIELD-EMPTY", file, f"{where}: empty binding yield"))
        return None


def validate_monolingual(
    annotation: MonolingualAnnotation, file: str = "<memory>"
) -> list[Diagnostic]:
    """All single-sentence checks; one diagnostic per violation."""
    diags: list[Diagnostic] = []
    sid = annotation.sentence_id
    for ref in annotation.element_refs():
        n = len(annotation.bindings_for(ref))
        if n != 1:
            diags.append(
                Diagnostic.error(
                    "E-BIND-MISSING",
                    file,
                    f"sentence {sid}: element {ref} has {n} bindings, expected exactly one",
                )
            )
    # only an element with exactly one binding has a yield
    yields: dict[ElemRef, list[int] | None] = {}
    for binding in annotation.bindings:
        found = _check_binding(annotation, binding, file, diags)
        yields[binding.target] = None if binding.target in yields else found
    # recursion-freedom: an argument's yield may not overlap its predicate's
    for arg in annotation.arguments:
        if annotation.predicate(arg.pred_id) is None:
            diags.append(
                Diagnostic.error(
                    "E-BIND-DANGLE",
                    file,
                    f"sentence {sid}: argument {arg.pred_id}.{arg.role} owned by unknown predicate",
                )
            )
            continue
        arg_yield = yields.get(ElemRef.of(arg.pred_id, arg.role))
        pred_yield = yields.get(ElemRef.of(arg.pred_id))
        if arg_yield is None or pred_yield is None:
            continue
        overlap = sorted(set(arg_yield) & set(pred_yield))
        if overlap:
            diags.append(
                Diagnostic.error(
                    "E-RECURSION",
                    file,
                    f"sentence {sid}: argument {arg.pred_id}.{arg.role} yield overlaps its"
                    f" predicate's yield at tokens {overlap}",
                )
            )
    return _sorted_unique(diags)


def validate_pair(
    corpus: ParallelCorpus, pair: SentencePairAlignment, file: str = "<memory>"
) -> list[Diagnostic]:
    """Alignment-layer checks for one sentence pair."""
    diags: list[Diagnostic] = []
    where = f"pair {pair.left_sentence} {pair.right_sentence}"
    sides = {}
    missing = False
    for key in (pair.left_sentence, pair.right_sentence):
        if corpus.has_sentence(key):
            sides[key] = corpus.sentence(key)
        else:
            diags.append(Diagnostic.error("E-ALIGN-DANGLE", file, f"{where}: unknown sentence {key}"))
            missing = True
    if missing:
        return _sorted_unique(diags)
    left_ann = sides[pair.left_sentence]
    right_ann = sides[pair.right_sentence]
    occurrences: dict[tuple[str, ElemRef], int] = {}
    pred_links = set()
    for a in pair.alignments:
        if a.kind == "pred":
            pred_links.add((a.left.pred_id, a.right.pred_id))
    for a in pair.alignments:
        link = f"{where}: {a.left} ~ {a.right}"
        want_role = a.kind == "arg"
        if (a.left.role is not None) != want_role or (a.right.role is not None) != want_role:
            # a malformed record is reported once; its endpoints are not
            # fed into the duplicate/orphan bookkeeping
            diags.append(
                Diagnostic.error(
                    "E-ALIGN-KIND",
                    file,
                    f"{link}: endpoint shape does not match {a.kind}-{a.kind} alignment",
                )
            )
            continue
        for key, ann, ref in (
            (pair.left_sentence, left_ann, a.left),
            (pair.right_sentence, right_ann, a.right),
        ):
            if not ann.has_element(ref):
                diags.append(
                    Diagnostic.error("E-ALIGN-DANGLE", file, f"{link}: {key} has no element {ref}")
                )
            occurrences[(key, ref)] = occurrences.get((key, ref), 0) + 1
        if a.tag is not None and a.tag not in corpus.tag_registry.alignment_tags:
            diags.append(Diagnostic.error("E-ALIGN-TAG", file, f"{link}: unregistered tag {a.tag!r}"))
        if a.kind == "arg" and (a.left.pred_id, a.right.pred_id) not in pred_links:
            diags.append(
                Diagnostic.error(
                    "E-ALIGN-ORPHAN-ARG",
                    file,
                    f"{link}: owner predicates {a.left.pred_id} and {a.right.pred_id}"
                    " are not aligned in this pair",
                )
            )
    for (key, ref), count in sorted(occurrences.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key)):
        if count > 1:
            diags.append(
                Diagnostic.error(
                    "E-ALIGN-DUP",
                    file,
                    f"{where}: element {ref} of {key} appears in {count} alignments",
                )
            )
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
    for lang in corpus.languages:
        label = lang_files.get(lang, f"<{lang}>")
        for ann in corpus.treebanks[lang]:
            diags.extend(validate_monolingual(ann, label))
        diags.extend(check_group_roles(corpus.treebanks[lang], file=label))
    for pair_set, label in zip(corpus.pair_sets, pair_files, strict=True):
        for pair in pair_set.pairs:
            diags.extend(validate_pair(corpus, pair, file=label))
    diags = _sorted_unique(diags)
    ok = not any(d.is_error for d in diags)
    return replace(corpus, validated=ok), diags
