"""In-memory model of layered parallel-treebank annotation.

README.md ("Library") is the contract: immutability, canonical order, shared leaves,
derived indexes and the field rules, whose one owner this module is.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import repeat, starmap
from operator import attrgetter, lt
from types import MappingProxyType
from typing import TYPE_CHECKING, Collection, Container, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from .corpus import Manifest

PRED_CLASSES = ("v", "n", "a")

DEFAULT_BINDING_TAGS = frozenset(("pv", "imp"))
DEFAULT_ALIGNMENT_TAGS = frozenset(("abs-opp", "incomp"))

# Nonterminal node ids live in a disjoint range from terminal indices,
# following the NEGRA/TIGER export convention; 0 addresses the virtual root.
VIRTUAL_ROOT = 0
MIN_NONTERMINAL_ID = 500

_NODE_REF_RE = re.compile(r"([tn])([0-9]+)")
_PRED_ID_RE = re.compile(r"[a-z][a-z0-9_]*")
_SID_RE = re.compile(r"[A-Za-z0-9_.-]+")
_LANG_RE = re.compile(r"[a-z][a-z0-9_-]*")
_TAG_RE = re.compile(r"[a-z][a-z0-9-]*")
_LABEL_RE = re.compile(r"\S+")  # word forms and POS, category and edge labels: no whitespace

# Every empty Binding.excluded and Binding.tags is this one frozenset.
EMPTY_FROZENSET: frozenset = frozenset()


class ResolutionError(LookupError):
    """An identifier (node, predicate, argument, sentence, language) does not resolve."""


class EmptyYieldError(ValueError):
    """A binding's included-minus-excluded token set is empty."""


class FieldError(ValueError):
    """A value the file grammar (README, "Corpus layout") rejects: the code a file gets, and its tree node."""

    def __init__(self, code: str, message: str, node: int | None = None):
        super().__init__(message)
        self.code, self.node = code, node


@lru_cache(maxsize=4096)  # names come from small inventories; each is checked once
def is_uppercase_name(text: str) -> bool:
    """True if text is a valid lemma/role/group name: uppercase letters, _ or -, in NFC as parsed files are."""
    if not text or not unicodedata.is_normalized("NFC", text):
        return False
    return all(c in "_-" or unicodedata.category(c) == "Lu" for c in text)


def _check_name(value: str, what: str) -> None:
    if not is_uppercase_name(value):
        raise FieldError("E-CASE", f"{what} {value!r} must be uppercase letters, _ or -")


def _match(pattern: re.Pattern, code: str, message: str, value: str) -> str:
    """value, when pattern matches it whole and it is in NFC, as parsed files are; else a FieldError naming it."""
    if pattern.fullmatch(value) is None:
        raise FieldError(code, message.format(value))
    if not unicodedata.is_normalized("NFC", value):
        raise FieldError(code, f"{value!r} is not in Unicode NFC")
    return value


# The field rules: the constructors below check their fields with them, and the parsers call
# them where a file gives a field before its value is built. Predicate ids and tags come from
# small inventories, so their rules cache what passed.
_check_pred_id = lru_cache(4096)(partial(_match, _PRED_ID_RE, "E-REF-SYNTAX", "malformed predicate id {!r}"))
_check_sentence_id = partial(_match, _SID_RE, "E-SYNTAX", "malformed sentence id {!r}")
_check_language = partial(_match, _LANG_RE, "E-MANIFEST-SYNTAX", "malformed language code {!r}")
_check_label = partial(_match, _LABEL_RE, "E-SYNTAX", "empty or malformed label field")
_check_tag = lru_cache(4096)(partial(_match, _TAG_RE, "E-SYNTAX", "malformed tag {!r}"))


def _check_form(form: str) -> str:
    _match(_LABEL_RE, "E-SYNTAX", "empty token form or whitespace in form", form)
    if form.startswith(("#", "%%")):  # its line would be a nonterminal or a comment
        raise FieldError("E-SYNTAX", f"token form {form!r} starts with # or %%")
    return form


def _check_edge(edge: str | None) -> str | None:
    """An edge label, or None for an absent edge, which a file writes as --."""
    if edge == "--":
        raise FieldError("E-SYNTAX", "empty or malformed edge field")
    return edge if edge is None else _match(_LABEL_RE, "E-SYNTAX", "empty or malformed edge field", edge)


# The number rule: NodeRef and SentenceTree check their numbers with it; a parsed number passes it.
def _writable(num: int) -> bool:
    """True if str() writes num: like int(), it converts at most sys.get_int_max_str_digits() digits."""
    try:
        return bool(str(num))
    except ValueError:
        return False


def _check_number(num: int, what: str, node: int | None = None, code: str = "E-SYNTAX") -> int:
    if not _writable(num):  # the message does not format num, which str() cannot write
        raise FieldError(code, f"{what} has more digits than a file can hold", node)
    return num


# The per-node tree rules: SentenceTree checks each node with them, and parse_trees each node at its line.
def _check_parent(parent: int, node: int | None = None) -> int:
    if parent != VIRTUAL_ROOT and parent < MIN_NONTERMINAL_ID:
        raise FieldError("E-SYNTAX", f"parent must be 0 or a nonterminal id, got {parent}", node)
    return parent


def _check_nt_id(node_id: int, before: Sequence[int], node: int | None = None) -> int:
    if node_id < MIN_NONTERMINAL_ID:
        raise FieldError("E-NODE-ID-RANGE", f"nonterminal id {node_id} below {MIN_NONTERMINAL_ID}", node)
    if node_id in before:
        raise FieldError("E-NODE-DUP", f"duplicate nonterminal id {node_id}", node)
    if before and node_id < before[-1]:
        raise FieldError("E-SYNTAX", "nonterminal ids must be ascending", node)
    return node_id


# The rules of a tree's forms, labels and edges, and the values that passed each, so that a
# tree whose values all did costs three C-level superset tests; a set past 4096 is emptied.
_COLUMN_RULES = (_check_form, _check_label, _check_edge)
_PASSED: tuple[set, set, set] = (set(), set(), set())


def split_sentence_key(key: str) -> tuple[str, str]:
    """(language code, sentence id) of a lang-qualified sentence key such as en:s1."""
    lang, sep, sid = key.partition(":")
    if not sep or _LANG_RE.fullmatch(lang) is None or _SID_RE.fullmatch(sid) is None:
        raise FieldError("E-SYNTAX", f"malformed sentence reference {key!r}")
    return lang, sid


@dataclass(frozen=True, slots=True)
class NodeRef:
    """Reference to a tree node: kind 't' + surface index, or 'n' + nonterminal id."""

    kind: str
    num: int

    def __post_init__(self):
        _check_number(self.num, "node number", None, "E-REF-SYNTAX")
        if self.kind not in ("t", "n"):
            raise FieldError("E-REF-SYNTAX", f"malformed node reference {str(self)!r} (expected t<k> or n<id>)")

    @classmethod
    def parse(cls, text: str) -> "NodeRef":
        m = _NODE_REF_RE.fullmatch(text)
        if not m:
            raise FieldError("E-REF-SYNTAX", f"malformed node reference {text!r} (expected t<k> or n<id>)")
        try:
            num = int(m.group(2))
        except ValueError as exc:  # more digits than int() converts
            raise FieldError("E-REF-SYNTAX", str(exc)) from None
        return _shared_node_ref(m.group(1), num)

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

    def __post_init__(self):
        if _PRED_ID_RE.fullmatch(self.pred_id) is None:
            raise FieldError("E-REF-SYNTAX", f"malformed element reference {str(self)!r}: bad predicate id")
        if self.role is not None and not is_uppercase_name(self.role):
            raise FieldError("E-REF-SYNTAX", f"malformed element reference {str(self)!r}: bad role name")

    @classmethod
    def parse(cls, text: str) -> "ElemRef":
        pred_id, dot, role = text.partition(".")
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


# One NodeRef per (kind, num), one ElemRef per (pred_id, role) and one (pred_id, role) tuple per element,
# the key of the per-sentence indexes: a fixed bound keeps unusual numbering or naming from growing them.
_shared_node_ref = lru_cache(maxsize=4096)(NodeRef)
_shared_elem_ref = lru_cache(maxsize=4096)(ElemRef)
_shared_key = lru_cache(maxsize=4096)(lambda pred_id, role: (pred_id, role))


@dataclass(frozen=True, slots=True)
class SentenceTree:
    """One sentence's constituent tree, stored as tuples of atoms.

    `tokens` holds the word forms t1..tn. `labels`, `edges` and `parents` hold one entry per node:
    the n terminals in surface order, then the nonterminals in the order of `nt_ids`, which ascend.
    A label is a POS for a terminal and a category for a nonterminal; an absent edge is None; a
    parent is a nonterminal id or the virtual root (0). There is no stored child index: yields are
    read from `parents` on each call. The constructor checks the field rules, then the tree rules.
    """

    sentence_id: str
    tokens: tuple[str, ...]
    labels: tuple[str, ...]
    edges: tuple[str | None, ...]
    parents: tuple[int, ...]
    nt_ids: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("tokens", "labels", "edges", "parents", "nt_ids"):  # tuples, whatever they were given as
            object.__setattr__(self, name, tuple(getattr(self, name)))
        _check_sentence_id(self.sentence_id)
        columns = (self.tokens, self.labels, self.edges)
        if not all(map(set.issuperset, _PASSED, columns)):
            for check, passed, values in zip(_COLUMN_RULES, _PASSED, columns):
                if len(passed) > 4096:
                    passed.clear()
                passed.update(map(check, values))
        sid, n, nt_ids, parents = self.sentence_id, len(self.tokens), self.nt_ids, self.parents
        if not len(self.labels) == len(self.edges) == len(parents) == n + len(nt_ids):
            raise FieldError("E-SYNTAX", f"sentence {sid}: labels, edges and parents need one entry per node")
        if not n:
            raise FieldError("E-SYNTAX", f"sentence {sid} has no terminals")
        known, with_children = {VIRTUAL_ROOT, *nt_ids}, set(parents)
        # ids ascend, so when the last is writable every id is, and so is every known parent
        if not (all(map(lt, (MIN_NONTERMINAL_ID - 1, *nt_ids), nt_ids)) and known.issuperset(parents)
                and _writable(nt_ids[-1] if nt_ids else 0)):
            for k, parent in enumerate(parents):  # some node breaks a rule: find the first, in column order
                _check_parent(_check_number(parent, "parent", k), k)
                if k >= n:
                    _check_nt_id(_check_number(nt_ids[k - n], "nonterminal id", k), nt_ids[: k - n], k)
            k, parent = next((k, p) for k, p in enumerate(parents) if p not in known)  # so a parent is unknown
            node = f"token {k + 1}" if k < n else f"node {nt_ids[k - n]}"
            raise FieldError("E-PARENT-UNKNOWN", f"sentence {sid}: {node} attached to unknown node {parent}", k)
        parent_of, cleared = dict(zip(nt_ids, parents[n:])), {VIRTUAL_ROOT}
        for node_id in nt_ids:
            path: set[int] = set()
            while node_id not in cleared:
                if node_id in path:
                    k = n + nt_ids.index(node_id)
                    raise FieldError("E-TREE-CYCLE", f"sentence {sid}: cycle through node {node_id}", k)
                path.add(node_id)
                node_id = parent_of[node_id]
            cleared |= path
        for k, node_id in enumerate(nt_ids, n):
            if node_id not in with_children:
                raise FieldError("E-NT-EMPTY", f"sentence {sid}: node {node_id} has no children", k)

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

    def __post_init__(self):
        _check_pred_id(self.pred_id)
        if self.syn_class not in PRED_CLASSES:
            raise FieldError("E-CLASS", f"predicate class {self.syn_class!r} not in {{v,n,a}}")
        _check_name(self.lemma, "lemma")
        _check_name(self.group, "group")


@dataclass(frozen=True, slots=True)
class Argument:
    pred_id: str
    role: str

    def __post_init__(self):
        _check_pred_id(self.pred_id)
        _check_name(self.role, "role")


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
        for tag in self.tags:
            _check_tag(tag)


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


# The declared-once rules: the constructors below check their collections with them, and the
# parsers each block or line against the ones before it: a sentence id once per treebank, a
# sentence pair once per pair set, a predicate id once per sentence and a role once per predicate;
# and the corpus rules, which ParallelCorpus and parse_manifest check: a language, and each a pair set names.
def _sentence_once(table: Container[str], sid: str) -> str:
    if sid in table:
        raise FieldError("E-SENT-DUP", f"duplicate sentence id {sid}")
    return sid


def _pair_once(table: Container[tuple[str, str]], left: str, right: str) -> tuple[str, str]:
    if (left, right) in table:
        raise FieldError("E-PAIR-DUP", f"duplicate pair {left} {right}")
    return left, right


def _some_language(languages: Collection[str]) -> None:
    if not languages:
        raise FieldError("E-MANIFEST-SYNTAX", "manifest declares no languages")


def _languages_declared(languages: Container[str], *codes: str) -> None:
    for code in codes:
        if code not in languages:
            raise FieldError("E-MANIFEST-LANG", f"ALIGN references undeclared language {code}")


def _declared_once(table: Mapping, pred_id: str, role: str | None = None) -> str | tuple[str, str]:
    """Table key of a predicate (role None) or argument, once the rule passes it."""
    key = pred_id if role is None else _shared_key(pred_id, role)
    if key in table:
        raise (FieldError("E-PRED-DUP", f"duplicate predicate id {pred_id}") if role is None else
               FieldError("E-ROLE-DUP", f"duplicate role {role} for predicate {pred_id}"))
    return key


def _owner_declared(preds: Mapping[str, Predicate], pred_id: str) -> None:
    """An argument's predicate is declared: in a file, on a PRED line before the ARG line."""
    if pred_id not in preds:
        raise FieldError("E-ORDER", f"ARG before PRED line for {pred_id}")


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

    def __post_init__(self):
        preds, args = {}, {}  # the element tables, in canonical order
        for p in sorted(self.predicates, key=attrgetter("pred_id")):
            preds[_declared_once(preds, p.pred_id)] = p
        for a in sorted(self.arguments, key=attrgetter("pred_id", "role")):
            _owner_declared(preds, a.pred_id)
            args[_declared_once(args, a.pred_id, a.role)] = a
        object.__setattr__(self, "predicates", tuple(preds.values()))
        object.__setattr__(self, "arguments", tuple(args.values()))
        object.__setattr__(self, "bindings", tuple(sorted(self.bindings, key=attrgetter("target.sort_key"))))
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_args", args)
        by_target: dict[tuple[str, str | None], Binding] = {}  # keyed by (pred_id, role), like _args
        for b in self.bindings:  # a .pa line binds its own element, once
            if not self.has_element(b.target):
                raise FieldError("E-BIND-DANGLE", f"sentence {self.sentence_id}, binding of {b.target}:"
                                                  " target is not a declared element")
            key = _shared_key(b.target.pred_id, b.target.role)
            if key in by_target:
                n = sum(c.target == b.target for c in self.bindings)
                raise FieldError("E-BIND-MISSING", f"sentence {self.sentence_id}: element {b.target} has {n}"
                                                   " bindings, expected exactly one")
            by_target[key] = b
        object.__setattr__(self, "_bindings", by_target)

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
        return (*map(_shared_elem_ref, self._preds, repeat(None)), *starmap(_shared_elem_ref, self._args))

    def binding_for(self, ref: ElemRef) -> Binding:
        """The element's one binding."""
        found = self._bindings.get((ref.pred_id, ref.role))
        if found is None:
            raise ResolutionError(f"sentence {self.sentence_id}: no binding for {ref}")
        return found


def group_roles(annotations: Iterable[MonolingualAnnotation]) -> Iterator[tuple[str, str]]:
    """(group, role) of every argument, in annotation order."""
    for ann in annotations:
        for arg in ann.arguments:
            yield ann.predicate(arg.pred_id).group, arg.role


@dataclass(frozen=True, slots=True)
class Alignment:
    """Cross-lingual link between two predicates or two arguments."""

    kind: str  # "pred" | "arg"
    left: ElemRef
    right: ElemRef
    tag: str | None = None

    def __post_init__(self):
        if self.kind not in ("pred", "arg"):
            raise FieldError("E-SYNTAX", f"alignment kind {self.kind!r} not in {{pred,arg}}")
        if self.tag is not None:
            _check_tag(self.tag)

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
        split_sentence_key(self.left_sentence)
        split_sentence_key(self.right_sentence)
        object.__setattr__(self, "alignments", tuple(sorted(self.alignments, key=attrgetter("sort_key"))))


@dataclass(frozen=True)
class PairSet:
    """One alignment set between two languages (one .al file's worth)."""

    left_lang: str
    right_lang: str
    pairs: tuple[SentencePairAlignment, ...] = ()

    def __post_init__(self):
        _check_language(self.left_lang)
        _check_language(self.right_lang)
        pairs = sorted(self.pairs, key=attrgetter("left_sentence", "right_sentence"))
        seen: set[tuple[str, str]] = set()
        for pair in pairs:
            seen.add(_pair_once(seen, pair.left_sentence, pair.right_sentence))
        object.__setattr__(self, "pairs", tuple(pairs))

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

    def __post_init__(self):
        if not (self.binding_tags and self.alignment_tags):  # a manifest tag line lists at least one tag
            raise FieldError("E-MANIFEST-SYNTAX", "empty tag inventory")
        for tag in self.binding_tags | self.alignment_tags:
            _check_tag(tag)


def sentence_key(lang: str, sentence_id: str) -> str:
    return f"{lang}:{sentence_id}"


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
        object.__setattr__(self, "pair_sets", tuple(self.pair_sets))
        for lang in self.treebanks:
            _check_language(lang)
        _some_language(self.treebanks)
        for pair_set in self.pair_sets:
            _languages_declared(self.treebanks, pair_set.left_lang, pair_set.right_lang)
        banks = {lang: tuple(sorted(anns, key=attrgetter("sentence_id"))) for lang, anns in self.treebanks.items()}
        object.__setattr__(self, "treebanks", banks)
        index = {}
        for lang, anns in banks.items():
            seen: set[str] = set()
            for ann in anns:
                seen.add(_sentence_once(seen, ann.sentence_id))
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
