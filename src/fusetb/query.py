"""Query language over a validated corpus.

Grammar: ``command (key[!]=value)*`` with ``!=`` negating a filter.
Multiple filters conjoin; a positive and a negated filter on the same key
are contradictory and simply yield no rows.

Commands and their filter keys:

``preds``
    One row per predicate-predicate alignment. Keys: ``class``,
    ``aligned-class``, ``tag``, ``aligned-tag`` (binding tags, set
    membership), ``lemma``, ``group`` (left side), ``atag`` (alignment
    tag), and the shorthand ``voice=diverge`` which keeps rows where
    exactly one binding carries the passive tag.
``aligns``
    One row per alignment. Keys: ``kind`` (pred|arg), ``atag``.
``unaligned``
    Elements that occur in no alignment of any pair set. Keys: ``kind``
    (pred|arg, required), ``lang``.
``realizations``
    Surface realization (bound yield) of a role across every predicate of
    a group, one row per argument instance. Keys: ``group`` and ``role``
    (required), ``lang``.
``frames``
    Observed valency patterns: one row per distinct (lang, lemma, class,
    group, binding tags, role set) with a count. Keys: ``lemma`` or
    ``group`` (at least one required), ``lang``.

Row yields render as space-joined token forms with ``…`` marking
discontinuity gaps. Evaluation never mutates the corpus and is
deterministic: rows follow pair-set/pair/left-element order (alignment
commands) or language/sentence/element order (monolingual commands).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

from .model import ElemRef, ParallelCorpus, SentenceTree, resolve_yield

__all__ = [
    "COLUMNS",
    "CorpusNotValidatedError",
    "Filter",
    "Query",
    "QueryError",
    "parse_query",
    "render_covered",
    "run_query",
]

FILTER_KEYS = {
    "preds": ("class", "aligned-class", "tag", "aligned-tag", "lemma", "group", "atag", "voice"),
    "aligns": ("kind", "atag"),
    "unaligned": ("kind", "lang"),
    "realizations": ("lang", "group", "role"),
    "frames": ("lang", "lemma", "group"),
}

COLUMNS = {
    "preds": (
        "left_sent", "right_sent", "left_pred", "left_lemma", "left_class", "left_tags",
        "right_pred", "right_lemma", "right_class", "right_tags", "atag",
    ),
    "aligns": (
        "kind", "left_sent", "right_sent", "left", "left_label", "right", "right_label", "atag",
    ),
    "unaligned": ("lang", "sent", "ref", "kind", "label"),
    "realizations": ("lang", "sent", "pred", "lemma", "class", "role", "realization"),
    "frames": ("lang", "lemma", "class", "group", "tags", "frame", "count"),
}

_FILTER_RE = re.compile(r"^([a-z][a-z-]*)(!?=)(.*)$")


class QueryError(Exception):
    """Query rejected; code is E-Q-SYNTAX (grammar) or E-Q-KEY (bad key/value)."""

    def __init__(self, code: str, message: str, pos: int | None = None):
        self.code = code
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(f"{code}: {message}")


class CorpusNotValidatedError(RuntimeError):
    """Refusal to query a corpus that has not passed ERROR-free validation."""


@dataclass(frozen=True)
class Filter:
    key: str
    negated: bool
    value: str


@dataclass(frozen=True)
class Query:
    """A checked query: building one with a bad key, value or command raises QueryError."""

    command: str
    filters: tuple[Filter, ...] = ()

    def __post_init__(self):
        check_query(self)


def parse_query(text: str) -> Query:
    tokens = [(m.start(), m.group(0)) for m in re.finditer(r"\S+", text)]
    if not tokens:
        raise QueryError("E-Q-SYNTAX", "empty query")
    pos, command = tokens[0]
    if command not in FILTER_KEYS:
        raise QueryError("E-Q-SYNTAX", f"unknown command {command!r}", pos)
    filters = []
    for pos, token in tokens[1:]:
        m = _FILTER_RE.match(token)
        if not m:
            raise QueryError("E-Q-SYNTAX", f"malformed filter {token!r}", pos)
        key, op, value = m.groups()
        if not value:
            raise QueryError("E-Q-SYNTAX", f"empty value for {key}", pos)
        filters.append(Filter(key, op == "!=", value))
    return Query(command, tuple(filters))


def check_query(query: Query) -> None:
    """Validate keys/values and required filters for the command."""
    allowed = FILTER_KEYS.get(query.command)
    if allowed is None:
        raise QueryError("E-Q-SYNTAX", f"unknown command {query.command!r}")
    positive = set()
    for f in query.filters:
        if f.key not in allowed:
            raise QueryError(
                "E-Q-KEY", f"filter {f.key!r} is not valid for {query.command}"
            )
        if f.key == "kind" and f.value not in ("pred", "arg"):
            raise QueryError("E-Q-KEY", f"kind must be pred or arg, got {f.value!r}")
        if f.key == "voice" and f.value != "diverge":
            raise QueryError("E-Q-KEY", f"voice supports only diverge, got {f.value!r}")
        if not f.negated:
            positive.add(f.key)
    if query.command == "unaligned" and "kind" not in positive:
        raise QueryError("E-Q-KEY", "unaligned requires kind=pred or kind=arg")
    if query.command == "realizations" and not {"group", "role"} <= positive:
        raise QueryError("E-Q-KEY", "realizations requires group= and role=")
    if query.command == "frames" and not ({"lemma", "group"} & positive):
        raise QueryError("E-Q-KEY", "frames requires lemma= or group=")


def _matches(attrs: dict, filters: tuple[Filter, ...]) -> bool:
    """Whether attrs pass every filter on one of their keys; filters on other keys are skipped.

    A runner checks each filter at the scope that fixes its key (lang once per
    treebank, kind once per language), so every allowed key is checked exactly once.
    """
    for f in filters:
        if f.key not in attrs:
            continue
        raw = attrs[f.key]
        if isinstance(raw, frozenset):
            hit = f.value in raw
        elif isinstance(raw, bool):
            hit = raw
        else:
            hit = raw is not None and raw == f.value
        if hit == f.negated:
            return False
    return True


def _tags_text(tags: frozenset[str]) -> str:
    return ",".join(sorted(tags)) if tags else "-"


def render_covered(tree: SentenceTree, covered: list[int]) -> str:
    """Space-joined token forms, with … standing in for index gaps."""
    parts: list[str] = []
    prev = None
    for index in covered:
        if prev is not None and index > prev + 1:
            parts.append("…")
        parts.append(tree.tokens[index - 1])
        prev = index
    return " ".join(parts)


def run_query(corpus: ParallelCorpus, query: Query) -> list[dict[str, str]]:
    """Evaluate a query; returns one column-name -> text dict per row."""
    if not corpus.validated:
        raise CorpusNotValidatedError(
            "corpus has not been validated; load it through load_corpus or validate_corpus"
        )
    runner = {
        "preds": _run_preds,
        "aligns": _run_aligns,
        "unaligned": _run_unaligned,
        "realizations": _run_realizations,
        "frames": _run_frames,
    }[query.command]
    return runner(corpus, query.filters)


def _alignments(corpus: ParallelCorpus):
    """(pair, alignment) for every alignment; the sentences are looked up by the rows that need them."""
    for pair_set in corpus.pair_sets:
        for pair in pair_set.pairs:
            for a in pair.alignments:
                yield pair, a


def _run_preds(corpus, filters):
    # each key is checked once, as soon as it is known, so no binding is resolved for an early miss
    rows = []
    for pair, a in _alignments(corpus):
        if a.kind != "pred" or not _matches({"atag": a.tag}, filters):
            continue
        left_ann = corpus.sentence(pair.left_sentence)
        left = left_ann.element(a.left)
        if not _matches({"class": left.syn_class, "lemma": left.lemma, "group": left.group}, filters):
            continue
        right_ann = corpus.sentence(pair.right_sentence)
        right = right_ann.element(a.right)
        if not _matches({"aligned-class": right.syn_class}, filters):
            continue
        left_tags = left_ann.binding_for(a.left).tags
        right_tags = right_ann.binding_for(a.right).tags
        voice = ("pv" in left_tags) != ("pv" in right_tags)
        if not _matches({"tag": left_tags, "aligned-tag": right_tags, "voice": voice}, filters):
            continue
        rows.append({
            "left_sent": pair.left_sentence,
            "right_sent": pair.right_sentence,
            "left_pred": str(a.left),
            "left_lemma": left.lemma,
            "left_class": left.syn_class,
            "left_tags": _tags_text(left_tags),
            "right_pred": str(a.right),
            "right_lemma": right.lemma,
            "right_class": right.syn_class,
            "right_tags": _tags_text(right_tags),
            "atag": a.tag or "-",
        })
    return rows


def _run_aligns(corpus, filters):
    rows = []
    for pair, a in _alignments(corpus):
        if not _matches({"kind": a.kind, "atag": a.tag}, filters):
            continue
        if a.kind == "pred":
            left_label = corpus.sentence(pair.left_sentence).element(a.left).lemma
            right_label = corpus.sentence(pair.right_sentence).element(a.right).lemma
        else:
            left_label = a.left.role
            right_label = a.right.role
        rows.append({
            "kind": a.kind,
            "left_sent": pair.left_sentence,
            "right_sent": pair.right_sentence,
            "left": str(a.left),
            "left_label": left_label,
            "right": str(a.right),
            "right_label": right_label,
            "atag": a.tag or "-",
        })
    return rows


def _run_unaligned(corpus, filters):
    index = corpus.aligned
    rows = []
    for lang in corpus.languages:
        if not _matches({"lang": lang}, filters):
            continue
        want_preds = _matches({"kind": "pred"}, filters)
        want_args = _matches({"kind": "arg"}, filters)
        for ann in corpus.treebanks[lang]:
            sid = ann.sentence_id
            aligned = index.get(f"{lang}:{sid}", frozenset())
            # element_refs() lists the predicates' refs, then the arguments'
            refs = ann.element_refs()
            if want_preds:
                rows += [
                    {"lang": lang, "sent": sid, "ref": p.pred_id, "kind": "pred", "label": p.lemma}
                    for ref, p in zip(refs, ann.predicates)
                    if ref not in aligned
                ]
            if want_args:
                rows += [
                    {"lang": lang, "sent": sid, "ref": f"{a.pred_id}.{a.role}", "kind": "arg",
                     "label": a.role}
                    for ref, a in zip(refs[len(ann.predicates):], ann.arguments)
                    if ref not in aligned
                ]
    return rows


def _run_realizations(corpus, filters):
    rows = []
    for lang in corpus.languages:
        if not _matches({"lang": lang}, filters):
            continue
        for ann in corpus.treebanks[lang]:
            for arg in ann.arguments:
                pred = ann.predicate(arg.pred_id)
                if not _matches({"group": pred.group, "role": arg.role}, filters):
                    continue
                binding = ann.binding_for(ElemRef.of(arg.pred_id, arg.role))
                covered = resolve_yield(ann.tree, binding)
                rows.append({
                    "lang": lang,
                    "sent": ann.sentence_id,
                    "pred": arg.pred_id,
                    "lemma": pred.lemma,
                    "class": pred.syn_class,
                    "role": arg.role,
                    "realization": render_covered(ann.tree, covered),
                })
    return rows


def _run_frames(corpus, filters):
    counts: dict[tuple, int] = {}
    for lang in corpus.languages:
        if not _matches({"lang": lang}, filters):
            continue
        for ann in corpus.treebanks[lang]:
            frames = None  # pred_id -> its roles joined, built at the first kept predicate
            for pred in ann.predicates:
                if not _matches({"lemma": pred.lemma, "group": pred.group}, filters):
                    continue
                if frames is None:  # arguments are sorted by (pred_id, role)
                    frames = {pid: "+".join(a.role for a in args)
                              for pid, args in groupby(ann.arguments, attrgetter("pred_id"))}
                tags = ann.binding_for(ElemRef.of(pred.pred_id)).tags
                key = (lang, pred.lemma, pred.syn_class, pred.group, _tags_text(tags),
                       frames.get(pred.pred_id, "-"))
                counts[key] = counts.get(key, 0) + 1
    rows = []
    for key in sorted(counts):
        lang, lemma, syn_class, group, tags, frame = key
        rows.append({
            "lang": lang,
            "lemma": lemma,
            "class": syn_class,
            "group": group,
            "tags": tags,
            "frame": frame,
            "count": str(counts[key]),
        })
    return rows
