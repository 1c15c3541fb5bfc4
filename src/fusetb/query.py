"""Query language over a validated corpus.

README.md ("Query language") is the contract: the grammar, each command's filter keys and
required filters, and its row order. COLUMNS below names each command's columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, groupby
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
        """Check the keys and values of the filters, and the filters the command requires."""
        allowed = FILTER_KEYS.get(self.command)
        if allowed is None:
            raise QueryError("E-Q-SYNTAX", f"unknown command {self.command!r}")
        positive = set()
        for f in self.filters:
            if f.key not in allowed:
                raise QueryError("E-Q-KEY", f"filter {f.key!r} is not valid for {self.command}")
            if f.key == "kind" and f.value not in ("pred", "arg"):
                raise QueryError("E-Q-KEY", f"kind must be pred or arg, got {f.value!r}")
            if f.key == "voice" and f.value != "diverge":
                raise QueryError("E-Q-KEY", f"voice supports only diverge, got {f.value!r}")
            if not f.negated:
                positive.add(f.key)
        if self.command == "unaligned" and "kind" not in positive:
            raise QueryError("E-Q-KEY", "unaligned requires kind=pred or kind=arg")
        if self.command == "realizations" and not {"group", "role"} <= positive:
            raise QueryError("E-Q-KEY", "realizations requires group= and role=")
        if self.command == "frames" and not ({"lemma", "group"} & positive):
            raise QueryError("E-Q-KEY", "frames requires lemma= or group=")


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


def _compile(filters: tuple[Filter, ...], *keys: str):
    """The filters on keys as one test of the values of keys, given in that order; None when
    no filter names one. A runner compiles once per query the keys that one scope fixes."""
    tests = [(keys.index(f.key), not f.negated, bool if f.key == "voice"
              else frozenset((f.value,)).issubset if f.key in ("tag", "aligned-tag")
              else frozenset((f.value,)).__contains__) for f in filters if f.key in keys]
    if not tests:
        return None
    if len(keys) == len(tests) == 1 and tests[0][1]:
        return tests[0][2]  # one positive filter on one key: its C-level test

    def passes(*values) -> bool:
        for i, want, hit in tests:
            if hit(values[i]) is not want:
                return False
        return True

    return passes


def _languages(corpus: ParallelCorpus, filters: tuple[Filter, ...]) -> list[str]:
    """The corpus languages the lang filters keep; no other treebank is read."""
    keep = _compile(filters, "lang")
    return [lang for lang in corpus.languages if keep is None or keep(lang)]


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


def _run_preds(corpus, filters):
    # each scope's filters are checked once its values are known: no binding is resolved for an early miss
    keep_alignment = _compile(filters, "atag")
    keep_left = _compile(filters, "class", "lemma", "group")
    keep_right = _compile(filters, "aligned-class")
    keep_tags = _compile(filters, "tag", "aligned-tag", "voice")
    rows = []
    for pair in chain.from_iterable(pair_set.pairs for pair_set in corpus.pair_sets):
        left_ann, right_ann = corpus.sentence(pair.left_sentence), corpus.sentence(pair.right_sentence)
        for a in pair.alignments:
            if a.kind != "pred" or keep_alignment and not keep_alignment(a.tag):
                continue
            left = left_ann.predicate(a.left.pred_id)
            if keep_left and not keep_left(left.syn_class, left.lemma, left.group):
                continue
            right = right_ann.predicate(a.right.pred_id)
            if keep_right and not keep_right(right.syn_class):
                continue
            left_tags = left_ann.binding_for(a.left).tags
            right_tags = right_ann.binding_for(a.right).tags
            voice = ("pv" in left_tags) != ("pv" in right_tags)
            if keep_tags and not keep_tags(left_tags, right_tags, voice):
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
    keep = _compile(filters, "kind", "atag")
    rows = []
    for pair in chain.from_iterable(pair_set.pairs for pair_set in corpus.pair_sets):
        anns = None  # only pred rows read the sentences: looked up at the pair's first one
        for a in pair.alignments:
            if keep and not keep(a.kind, a.tag):
                continue
            if a.kind == "pred":
                anns = anns or (corpus.sentence(pair.left_sentence), corpus.sentence(pair.right_sentence))
                left_label = anns[0].predicate(a.left.pred_id).lemma
                right_label = anns[1].predicate(a.right.pred_id).lemma
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
    keep_kind = _compile(filters, "kind")  # never None: kind is required
    want_preds, want_args = keep_kind("pred"), keep_kind("arg")
    rows = []
    for lang in _languages(corpus, filters):
        for ann in corpus.treebanks[lang]:
            sid = ann.sentence_id
            aligned = index.get(f"{lang}:{sid}", ())
            # pred ids and (pred_id, role) tuples hash in C, an ElemRef in Python
            if want_preds:
                ids = {ref.pred_id for ref in aligned if ref.role is None}
                rows += [
                    {"lang": lang, "sent": sid, "ref": p.pred_id, "kind": "pred", "label": p.lemma}
                    for p in ann.predicates
                    if p.pred_id not in ids
                ]
            if want_args:
                keys = {(ref.pred_id, ref.role) for ref in aligned}
                rows += [
                    {"lang": lang, "sent": sid, "ref": f"{a.pred_id}.{a.role}", "kind": "arg",
                     "label": a.role}
                    for a in ann.arguments
                    if (a.pred_id, a.role) not in keys
                ]
    return rows


def _run_realizations(corpus, filters):
    keep_role = _compile(filters, "role")  # never None: role and group are required
    keep_group = _compile(filters, "group")
    rows = []
    for lang in _languages(corpus, filters):
        for ann in corpus.treebanks[lang]:
            for arg in ann.arguments:
                if not keep_role(arg.role):
                    continue
                pred = ann.predicate(arg.pred_id)
                if not keep_group(pred.group):
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
    keep = _compile(filters, "lemma", "group")  # never None: lemma or group is required
    for lang in _languages(corpus, filters):
        for ann in corpus.treebanks[lang]:
            frames = None  # pred_id -> its roles joined, built at the first kept predicate
            for pred in ann.predicates:
                if not keep(pred.lemma, pred.group):
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
