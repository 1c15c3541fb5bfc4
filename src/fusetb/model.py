"""In-memory model of layered parallel-treebank annotation.

README.md ("Library") is the contract: immutability, canonical order, shared leaves and
derived indexes.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from .corpus import Manifest

PRED_CLASSES = ("v", "n", "a")

DEFAULT_BINDING_TAGS = frozenset(("pv", "imp"))
DEFAULT_ALIGNMENT_TAGS = frozenset(("abs-opp", "incomp"))

# Nonterminal node ids live in a disjoint range from terminal indices,
# following the NEGRA/TIGER export convention; 0 addresses the virtual root.
VIRTUAL_ROOT = 0
MIN_NONTERMINAL_ID = 500

_NODE_REF_RE = re.compile(r"^([tn])([0-9]+)$")
_PRED_ID_RE = re.compile(r"^[a-z][a-z0-9_]*$")

# Every empty Binding.excluded and Binding.tags is this one frozenset.
EMPTY_FROZENSET: frozenset = frozenset()


@lru_cache(maxsize=4096)
def _shared_node_ref(kind: str, num: int) -> "NodeRef":
    """One NodeRef per (kind, num); the fixed bound keeps unusual node numbering from growing it."""
    return NodeRef(kind, num)


@lru_cache(maxsize=4096)
def _shared_elem_ref(pred_id: str, role: str | None) -> "ElemRef":
    """One ElemRef per (pred_id, role); bounded like _shared_node_ref."""
    return ElemRef(pred_id, role)


@lru_cache(maxsize=4096)
def _shared_key(pred_id: str, role: str | None) -> tuple[str, str | None]:
    """One (pred_id, role) tuple per element, the key of the per-sentence indexes; bounded likewise."""
    return (pred_id, role)


class ResolutionError(LookupError):
    """An identifier (node, predicate, argument, sentence, language) does not resolve."""


class EmptyYieldError(ValueError):
    """A binding's included-minus-excluded token set is empty."""


@lru_cache(maxsize=4096)  # names come from small inventories; each is checked once
def is_uppercase_name(text: str) -> bool:
    """True if text is a valid lemma/role/group name: uppercase letters, _ or -."""
    if not text:
        return False
    return all(c in "_-" or unicodedata.category(c) == "Lu" for c in text)


def is_pred_id(text: str) -> bool:
    return bool(_PRED_ID_RE.match(text))


@dataclass(frozen=True, slots=True)
class NodeRef:
    """Reference to a tree node: kind 't' + surface index, or 'n' + nonterminal id."""

    kind: str
    num: int

    @classmethod
    def parse(cls, text: str) -> "NodeRef":
        m = _NODE_REF_RE.match(text)
        if not m:
            raise ValueError(f"malformed node reference {text!r} (expected t<k> or n<id>)")
        return _shared_node_ref(m.group(1), int(m.group(2)))

    @property
    def sort_key(self) -> tuple[int, int]:
        # terminals before nonterminals, each ascending
        return (0 if self.kind == "t" else 1, self.num)

    def __str__(self) -> str:
        return f"{self.kind}{self.num}"


@dataclass(frozen=True, slots=True)
class ElemRef:
    """Reference to a predicate (pred_id) or one of its arguments (pred_id + role)."""

    pred_id: str
    role: str | None = None

    @classmethod
    def parse(cls, text: str) -> "ElemRef":
        pred_id, dot, role = text.partition(".")
        if not is_pred_id(pred_id):
            raise ValueError(f"malformed element reference {text!r}: bad predicate id")
        if dot and not is_uppercase_name(role):
            raise ValueError(f"malformed element reference {text!r}: bad role name")
        return _shared_elem_ref(pred_id, role if dot else None)

    @classmethod
    def of(cls, pred_id: str, role: str | None = None) -> "ElemRef":
        """The shared ElemRef of a predicate, or of its argument with the given role."""
        return _shared_elem_ref(pred_id, role)

    @property
    def sort_key(self) -> tuple[str, str]:
        return (self.pred_id, self.role or "")

    def __str__(self) -> str:
        return self.pred_id if self.role is None else f"{self.pred_id}.{self.role}"


@dataclass(frozen=True, slots=True)
class SentenceTree:
    """One sentence's constituent tree, stored as tuples of atoms.

    `tokens` holds the word forms t1..tn. `labels`, `edges` and `parents`
    hold one entry per node: the n terminals in surface order, then the
    nonterminals in the order of `nt_ids`, which ascend. A label is a POS
    for a terminal and a category for a nonterminal; an absent edge is
    None; a parent is a nonterminal id or the virtual root (0). There is
    no stored child index: yields are read from `parents` on each call.
    The parsers guarantee structural invariants (unique ids, acyclicity,
    no childless nonterminals) for loaded data.
    """

    sentence_id: str
    tokens: tuple[str, ...]
    labels: tuple[str, ...]
    edges: tuple[str | None, ...]
    parents: tuple[int, ...]
    nt_ids: tuple[int, ...] = ()

    def has_node(self, ref: NodeRef) -> bool:
        if ref.kind == "t":
            return 1 <= ref.num <= len(self.tokens)
        return ref.num in self.nt_ids

    def parent_of(self, ref: NodeRef) -> int:
        """The parent id of a node of this tree: a nonterminal id or 0 for the virtual root."""
        if ref.kind == "t":
            if 1 <= ref.num <= len(self.tokens):
                return self.parents[ref.num - 1]
        elif ref.num in self.nt_ids:
            return self.parents[len(self.tokens) + self.nt_ids.index(ref.num)]
        raise ResolutionError(f"sentence {self.sentence_id}: unknown node {ref}")


def _below(tree: SentenceTree, node_id: int) -> set[int]:
    """node_id and every nonterminal whose chain of parents reaches it, one level more per pass."""
    nt_parents = tuple(zip(tree.nt_ids, tree.parents[len(tree.tokens) :]))
    below = {node_id}
    size = 0
    while size != len(below):
        size = len(below)
        below.update([nt_id for nt_id, parent in nt_parents if parent in below])
    return below


def node_yield(tree: SentenceTree, ref: NodeRef) -> list[int]:
    """All terminal indices dominated by ref (descendant-or-self), ascending.

    A terminal yields itself; a nonterminal yields every terminal whose
    chain of parents reaches it.
    """
    tree.parent_of(ref)  # a node not in the tree raises ResolutionError
    if ref.kind == "t":
        return [ref.num]
    below = _below(tree, ref.num)
    return [index for index, parent in enumerate(tree.parents[: len(tree.tokens)], 1) if parent in below]


def is_ancestor(tree: SentenceTree, ancestor: NodeRef, descendant: NodeRef) -> bool:
    """True if ancestor properly dominates descendant: descendant's parent is in ancestor's closure."""
    return ancestor.kind == "n" and tree.parent_of(descendant) in _below(tree, ancestor.num)


@dataclass(frozen=True, slots=True)
class Predicate:
    pred_id: str
    lemma: str
    syn_class: str
    group: str


@dataclass(frozen=True, slots=True)
class Argument:
    pred_id: str
    role: str


@dataclass(frozen=True, slots=True)
class Binding:
    """Attachment of one predicate/argument to tree nodes.

    included: non-empty, pairwise dominance-incomparable node set.
    excluded: nodes pruned out of the yield; each must be a proper
    descendant of an included node. tags are only legal on predicate
    bindings (they explain arguments missing from the surface, e.g.
    passives and imperatives).
    """

    target: ElemRef
    included: frozenset[NodeRef]
    excluded: frozenset[NodeRef] = EMPTY_FROZENSET
    tags: frozenset[str] = EMPTY_FROZENSET

    def __post_init__(self):
        object.__setattr__(self, "included", frozenset(self.included))
        object.__setattr__(self, "excluded", frozenset(self.excluded) or EMPTY_FROZENSET)
        object.__setattr__(self, "tags", frozenset(self.tags) or EMPTY_FROZENSET)


def resolve_yield(tree: SentenceTree, binding: Binding) -> list[int]:
    """Union of included-node yields minus union of excluded-node yields, ascending.

    Raises EmptyYieldError when nothing remains; an empty yield is a data
    error, never a silent empty result.
    """
    covered: set[int] = set()
    for ref in binding.included:
        covered.update(node_yield(tree, ref))
    for ref in binding.excluded:
        covered.difference_update(node_yield(tree, ref))
    if not covered:
        raise EmptyYieldError(
            f"sentence {tree.sentence_id}: empty binding yield for {binding.target}"
        )
    return sorted(covered)


def sort_elements(obj) -> None:
    """Put a frozen object's predicates, arguments and bindings in canonical order."""
    object.__setattr__(obj, "predicates", tuple(sorted(obj.predicates, key=lambda p: p.pred_id)))
    object.__setattr__(obj, "arguments", tuple(sorted(obj.arguments, key=lambda a: (a.pred_id, a.role))))
    object.__setattr__(obj, "bindings", tuple(sorted(obj.bindings, key=lambda b: b.target.sort_key)))


@dataclass(frozen=True, slots=True)
class MonolingualAnnotation:
    """One sentence's tree plus predicate-argument structure and bindings."""

    tree: SentenceTree
    predicates: tuple[Predicate, ...] = ()
    arguments: tuple[Argument, ...] = ()
    bindings: tuple[Binding, ...] = ()
    _preds: dict = field(init=False, repr=False, compare=False)
    _args: dict = field(init=False, repr=False, compare=False)
    _bindings: dict = field(init=False, repr=False, compare=False)
    _refs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sort_elements(self)
        preds, args = self.predicates, self.arguments
        object.__setattr__(self, "_preds", {p.pred_id: p for p in preds})
        object.__setattr__(self, "_args", {_shared_key(a.pred_id, a.role): a for a in args})
        # keyed by (pred_id, role), which hashes in C, like _args; an element's one
        # binding is stored bare, and only duplicates (invalid data) as a tuple
        by_target: dict[tuple[str, str | None], Binding | tuple[Binding, ...]] = {}
        for b in self.bindings:
            key = _shared_key(b.target.pred_id, b.target.role)
            found = by_target.get(key)
            if found is None:
                by_target[key] = b
            else:
                by_target[key] = (*found, b) if isinstance(found, tuple) else (found, b)
        object.__setattr__(self, "_bindings", by_target)
        keys = [(p.pred_id, None) for p in preds] + [(a.pred_id, a.role) for a in args]
        object.__setattr__(self, "_refs", tuple(_shared_elem_ref(*key) for key in keys))

    @property
    def sentence_id(self) -> str:
        return self.tree.sentence_id

    def predicate(self, pred_id: str) -> Predicate | None:
        return self._preds.get(pred_id)

    def has_element(self, ref: ElemRef) -> bool:
        if ref.role is None:
            return ref.pred_id in self._preds
        return (ref.pred_id, ref.role) in self._args

    def _declared_among(self, refs: Iterable[ElemRef]) -> tuple[int, int]:
        """How many predicates and how many arguments of this sentence refs name."""
        n_preds = n_args = 0
        for ref in refs:
            if ref.role is None:
                n_preds += ref.pred_id in self._preds
            else:
                n_args += (ref.pred_id, ref.role) in self._args
        return n_preds, n_args

    def element_refs(self) -> tuple[ElemRef, ...]:
        """Every declared element: predicates first, then arguments, each sorted."""
        return self._refs

    def bindings_for(self, ref: ElemRef) -> tuple[Binding, ...]:
        found = self._bindings.get((ref.pred_id, ref.role), ())
        return found if isinstance(found, tuple) else (found,)

    def binding_for(self, ref: ElemRef) -> Binding:
        """The element's unique binding; validated data has exactly one."""
        found = self._bindings.get((ref.pred_id, ref.role))
        if found is None:
            raise ResolutionError(f"sentence {self.sentence_id}: no binding for {ref}")
        return found[0] if isinstance(found, tuple) else found


def group_roles(annotations: Iterable[MonolingualAnnotation]) -> Iterator[tuple[str, str]]:
    """(group, role) of every argument whose predicate is declared, in annotation order."""
    for ann in annotations:
        for arg in ann.arguments:
            pred = ann.predicate(arg.pred_id)
            if pred is not None:
                yield pred.group, arg.role


@dataclass(frozen=True, slots=True)
class Alignment:
    """Cross-lingual link between two predicates or two arguments."""

    kind: str  # "pred" | "arg"
    left: ElemRef
    right: ElemRef
    tag: str | None = None

    @property
    def sort_key(self):
        return (self.left.sort_key, self.right.sort_key, self.kind, self.tag or "")


@dataclass(frozen=True)
class SentencePairAlignment:
    """All alignments between one sentence pair; ids are lang-qualified keys (en:s1)."""

    left_sentence: str
    right_sentence: str
    alignments: tuple[Alignment, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.alignments, key=lambda a: a.sort_key))
        object.__setattr__(self, "alignments", ordered)


@dataclass(frozen=True)
class PairSet:
    """One alignment set between two languages (one .al file's worth)."""

    left_lang: str
    right_lang: str
    pairs: tuple[SentencePairAlignment, ...] = ()

    def __post_init__(self):
        ordered = tuple(
            sorted(self.pairs, key=lambda p: (p.left_sentence, p.right_sentence))
        )
        object.__setattr__(self, "pairs", ordered)

    @cached_property
    def aligned(self) -> Mapping[str, frozenset[ElemRef]]:
        """Sentence key -> the elements of that sentence aligned in this set.

        Built on first read; sentences with no alignment in the set are absent.
        """
        found: dict[str, set[ElemRef]] = {}
        for pair in self.pairs:
            for a in pair.alignments:
                found.setdefault(pair.left_sentence, set()).add(a.left)
                found.setdefault(pair.right_sentence, set()).add(a.right)
        return MappingProxyType({key: frozenset(refs) for key, refs in found.items()})


@dataclass(frozen=True)
class TagRegistry:
    """Closed inventories of binding tags and alignment tags."""

    binding_tags: frozenset[str] = DEFAULT_BINDING_TAGS
    alignment_tags: frozenset[str] = DEFAULT_ALIGNMENT_TAGS


def sentence_key(lang: str, sentence_id: str) -> str:
    return f"{lang}:{sentence_id}"


def split_sentence_key(key: str) -> tuple[str, str]:
    lang, sep, sid = key.partition(":")
    if not sep or not lang or not sid:
        raise ValueError(f"malformed sentence key {key!r} (expected <lang>:<id>)")
    return lang, sid


@dataclass(frozen=True)
class ParallelCorpus:
    """Union of per-language treebanks plus pair sets of alignments.

    `validated` marks a corpus that passed full validation with no ERROR
    diagnostics; query evaluation requires it. `manifest` is the parsed
    manifest a loaded corpus came from, with the registry it was loaded
    with. Neither participates in equality.
    """

    treebanks: dict[str, tuple[MonolingualAnnotation, ...]]
    pair_sets: tuple[PairSet, ...] = ()
    tag_registry: TagRegistry = TagRegistry()
    validated: bool = field(default=False, compare=False)
    manifest: Manifest | None = field(default=None, compare=False, repr=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        banks = {
            lang: tuple(sorted(anns, key=lambda a: a.sentence_id))
            for lang, anns in self.treebanks.items()
        }
        object.__setattr__(self, "treebanks", banks)
        object.__setattr__(self, "pair_sets", tuple(self.pair_sets))
        index = {}
        for lang, anns in banks.items():
            for ann in anns:
                index[sentence_key(lang, ann.sentence_id)] = ann
        object.__setattr__(self, "_index", index)

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.treebanks))

    def has_sentence(self, key: str) -> bool:
        return key in self._index

    def sentence(self, key: str) -> MonolingualAnnotation:
        ann = self._index.get(key)
        if ann is None:
            raise ResolutionError(f"unknown sentence {key}")
        return ann

    @cached_property
    def aligned(self) -> Mapping[str, frozenset[ElemRef]]:
        """Sentence key -> the elements of that sentence aligned in any pair set."""
        found: dict[str, frozenset[ElemRef]] = {}
        for pair_set in self.pair_sets:
            for key, refs in pair_set.aligned.items():
                found[key] = found[key] | refs if key in found else refs
        return MappingProxyType(found)
