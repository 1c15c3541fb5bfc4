"""Seeded random data for property and oracle tests.

Everything is driven by an explicit random.Random so failures reproduce.
Generated corpora are always structurally valid (the corpus generator
asserts ERROR-free validation, which doubles as a generator soundness
check); bindings honour the antichain/exclusion/recursion rules by
construction, with retries.
"""

from __future__ import annotations

import random

from fusetb.corpus import AlignEntry, LanguageEntry, Manifest, serialize_manifest
from fusetb.formats import PredArg, serialize_alignments, serialize_predarg, serialize_trees
from fusetb.model import (
    Alignment,
    Argument,
    Binding,
    ElemRef,
    EmptyYieldError,
    MonolingualAnnotation,
    NodeRef,
    PairSet,
    ParallelCorpus,
    Predicate,
    SentencePairAlignment,
    SentenceTree,
    TagRegistry,
    is_ancestor,
    resolve_yield,
)
from fusetb.validate import validate_corpus

FORMS = ["die", "der", "laws", "report", "wörter", "maß", "x-1", "Kommissar", "naive"]
POS = ["NN", "ART", "VVFIN", "ADJD", "APPR", "NE"]
EDGES = [None, "SB", "OA", "HD", "NK", "MO", "AC"]
LEMMAS = ["GEBEN", "HARMONISE", "ÜBERSETZEN", "SAFEGUARD", "PRÜFEN", "APPLY"]
GROUPS = ["GEBEN", "NEHMEN", "SEHEN", "APPLY"]
ROLES = ["AGENT", "THEME", "GOAL", "SOURCE", "LOCATION", "EMPFÄNGER"]


def random_tree(rng: random.Random, sid: str, max_tokens: int = 8, max_nts: int = 10) -> SentenceTree:
    n_tokens = rng.randint(1, max_tokens)
    n_nts = rng.randint(0, min(max_nts, 25 - n_tokens))
    ids = []
    next_id = 500 + rng.randint(0, 2)
    for _ in range(n_nts):
        ids.append(next_id)
        next_id += rng.randint(1, 3)
    # acyclic parents: walk a shuffled order, each node parented further along
    order = ids[:]
    rng.shuffle(order)
    nt_parent = {}
    for i, node_id in enumerate(order):
        later = order[i + 1 :]
        if later and rng.random() < 0.8:
            nt_parent[node_id] = rng.choice(later)
        else:
            nt_parent[node_id] = 0
    tok_parent = {}
    for index in range(1, n_tokens + 1):
        if ids and rng.random() < 0.85:
            tok_parent[index] = rng.choice(ids)
        else:
            tok_parent[index] = 0
    # drop childless nonterminals until none remain
    kept = set(ids)
    while True:
        with_children = set(tok_parent.values()) | {nt_parent[i] for i in kept}
        empty = kept - with_children
        if not empty:
            break
        kept -= empty
    # a fixed order of draws keeps each seed's corpus the same
    forms, labels, edges = [], [], []
    for _ in range(n_tokens):
        forms.append(rng.choice(FORMS))
        labels.append(rng.choice(POS))
        edges.append(rng.choice(EDGES))
    nt_ids = tuple(sorted(kept))
    for _ in nt_ids:
        labels.append(rng.choice(["NP", "PP", "VP", "S"]))
        edges.append(rng.choice(EDGES))
    parents = [tok_parent[i] for i in range(1, n_tokens + 1)] + [nt_parent[i] for i in nt_ids]
    return SentenceTree(sid, tuple(forms), tuple(labels), tuple(edges), tuple(parents), nt_ids)


def node_refs(tree: SentenceTree) -> list[NodeRef]:
    """Every node of tree in column order: terminals, then nonterminals."""
    terminals = [NodeRef.parse(f"t{index}") for index in range(1, len(tree.tokens) + 1)]
    return terminals + [NodeRef.parse(f"n{node_id}") for node_id in tree.nt_ids]


def unchecked_tree(tree: SentenceTree, **columns) -> SentenceTree:
    """tree with the given columns replaced, built around the constructor, which would reject
    a tree that breaks a tree rule; for tests of what reads or writes such a tree."""
    faulty = object.__new__(SentenceTree)
    for name in SentenceTree.__slots__:
        object.__setattr__(faulty, name, columns.get(name, getattr(tree, name)))
    return faulty


def plant_tree_fault(rng: random.Random, tree: SentenceTree) -> SentenceTree:
    """tree with one nonterminal's parent pointed at a nonterminal, at itself or at an
    unknown id, and sometimes a terminal's parent pointed at an unknown id; tree must
    have a nonterminal. The result is built by unchecked_tree."""
    n = len(tree.tokens)
    parents = list(tree.parents)
    at = rng.randrange(len(tree.nt_ids))
    parents[n + at] = rng.choice((rng.choice(tree.nt_ids), tree.nt_ids[at], 9999))
    if rng.random() < 0.3:
        parents[rng.randrange(n)] = 9999
    return unchecked_tree(tree, parents=tuple(parents))


def random_binding(
    rng: random.Random, tree: SentenceTree, target: ElemRef, forbid: frozenset[int] = frozenset()
) -> Binding | None:
    refs = node_refs(tree)
    for _ in range(20):
        rng.shuffle(refs)
        want = 1 if rng.random() < 0.7 else 2
        included: list[NodeRef] = []
        for ref in refs:
            if len(included) == want:
                break
            if all(
                not is_ancestor(tree, ref, other) and not is_ancestor(tree, other, ref)
                for other in included
            ):
                included.append(ref)
        excluded = []
        for inc in included:
            if inc.kind == "n" and rng.random() < 0.4:
                descendants = [r for r in node_refs(tree) if is_ancestor(tree, inc, r)]
                if descendants:
                    excluded.append(rng.choice(descendants))
        binding = Binding(target, frozenset(included), frozenset(excluded))
        try:
            covered = resolve_yield(tree, binding)
        except EmptyYieldError:
            continue
        if forbid & set(covered):
            continue
        return binding
    free = [i for i in range(1, len(tree.tokens) + 1) if i not in forbid]
    if not free:
        return None
    return Binding(target, frozenset({NodeRef.parse(f"t{rng.choice(free)}")}))


def random_annotation(
    rng: random.Random,
    tree: SentenceTree,
    registry: TagRegistry = TagRegistry(),
    max_preds: int = 3,
) -> MonolingualAnnotation:
    predicates = []
    arguments = []
    bindings = []
    for i in range(rng.randint(0, max_preds)):
        pid = f"p{i + 1}"
        predicates.append(
            Predicate(pid, rng.choice(LEMMAS), rng.choice("vna"), rng.choice(GROUPS))
        )
        tags = frozenset()
        if registry.binding_tags and rng.random() < 0.3:
            tags = frozenset({rng.choice(sorted(registry.binding_tags))})
        pred_binding = random_binding(rng, tree, ElemRef(pid))
        pred_binding = Binding(
            pred_binding.target, pred_binding.included, pred_binding.excluded, tags
        )
        bindings.append(pred_binding)
        pred_yield = frozenset(resolve_yield(tree, pred_binding))
        for role in rng.sample(ROLES, rng.randint(0, 3)):
            arg_binding = random_binding(rng, tree, ElemRef(pid, role), forbid=pred_yield)
            if arg_binding is None:
                continue
            arguments.append(Argument(pid, role))
            bindings.append(arg_binding)
    return MonolingualAnnotation(tree, tuple(predicates), tuple(arguments), tuple(bindings))


def random_corpus(
    rng: random.Random,
    langs: tuple[str, str] = ("en", "de"),
    max_sents: int = 3,
    registry: TagRegistry = TagRegistry(),
    check: bool = True,
) -> ParallelCorpus:
    n_sents = rng.randint(1, max_sents)
    sids = [f"s{i + 1}" for i in range(n_sents)]
    treebanks = {
        lang: tuple(
            random_annotation(rng, random_tree(rng, sid), registry) for sid in sids
        )
        for lang in langs
    }
    left_lang, right_lang = langs
    by_sid = {lang: {a.sentence_id: a for a in anns} for lang, anns in treebanks.items()}
    pairs = []
    for sid in sids:
        if rng.random() > 0.85:
            continue
        left_ann = by_sid[left_lang][sid]
        right_ann = by_sid[right_lang][sid]
        left_preds = list(left_ann.predicates)
        right_preds = list(right_ann.predicates)
        rng.shuffle(left_preds)
        rng.shuffle(right_preds)
        alignments = []
        for lp, rp in list(zip(left_preds, right_preds))[: rng.randint(0, 3)]:
            alignments.append(
                Alignment("pred", ElemRef(lp.pred_id), ElemRef(rp.pred_id), _maybe_tag(rng, registry))
            )
            left_args = [a for a in left_ann.arguments if a.pred_id == lp.pred_id]
            right_args = [a for a in right_ann.arguments if a.pred_id == rp.pred_id]
            rng.shuffle(left_args)
            rng.shuffle(right_args)
            for la, ra in list(zip(left_args, right_args))[: rng.randint(0, 3)]:
                alignments.append(
                    Alignment(
                        "arg",
                        ElemRef(la.pred_id, la.role),
                        ElemRef(ra.pred_id, ra.role),
                        _maybe_tag(rng, registry),
                    )
                )
        pairs.append(
            SentencePairAlignment(f"{left_lang}:{sid}", f"{right_lang}:{sid}", tuple(alignments))
        )
    corpus = ParallelCorpus(
        treebanks, (PairSet(left_lang, right_lang, tuple(pairs)),), registry
    )
    if not check:
        return corpus
    corpus, diags = validate_corpus(corpus)
    errors = [d for d in diags if d.is_error]
    assert not errors, "generator produced an invalid corpus: " + "; ".join(
        d.render() for d in errors
    )
    return corpus


def _maybe_tag(rng: random.Random, registry: TagRegistry) -> str | None:
    if registry.alignment_tags and rng.random() < 0.25:
        return rng.choice(sorted(registry.alignment_tags))
    return None


def write_corpus_files(corpus: ParallelCorpus, directory) -> str:
    """Serialize a corpus into directory; returns the manifest path."""
    entries = []
    for lang in corpus.languages:
        annotations = corpus.treebanks[lang]
        (directory / f"{lang}.tb").write_text(
            serialize_trees(ann.tree for ann in annotations), encoding="utf-8"
        )
        predarg = {
            ann.sentence_id: PredArg(ann.predicates, ann.arguments, ann.bindings)
            for ann in annotations
        }
        (directory / f"{lang}.pa").write_text(serialize_predarg(predarg), encoding="utf-8")
        entries.append(LanguageEntry(lang, f"{lang}.tb", f"{lang}.pa"))
    aligns = []
    for i, pair_set in enumerate(corpus.pair_sets):
        name = f"{pair_set.left_lang}-{pair_set.right_lang}-{i}.al"
        (directory / name).write_text(serialize_alignments(pair_set.pairs), encoding="utf-8")
        aligns.append(AlignEntry(pair_set.left_lang, pair_set.right_lang, name))
    manifest = Manifest(tuple(entries), tuple(aligns), corpus.tag_registry)
    path = directory / "corpus.manifest"
    path.write_text(serialize_manifest(manifest), encoding="utf-8")
    return str(path)
