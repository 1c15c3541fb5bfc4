"""Manifest handling, corpus assembly and corpus statistics.

README.md ("Corpus layout") is the contract for the manifest grammar.
"""

from __future__ import annotations

import gc
import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .formats import (
    Diagnostic,
    ParseError,
    PredArg,
    _err,
    _lines,
    parse_alignments,
    parse_predarg,
    parse_trees,
)
from .model import (
    DEFAULT_ALIGNMENT_TAGS,
    DEFAULT_BINDING_TAGS,
    PRED_CLASSES,
    FieldError,
    MonolingualAnnotation,
    PairSet,
    ParallelCorpus,
    ResolutionError,
    TagRegistry,
    _check_language,
    _check_tag,
)
from .validate import _sorted_unique, validate_corpus

__all__ = [
    "Manifest",
    "LanguageEntry",
    "AlignEntry",
    "CorpusStats",
    "LanguageStats",
    "PairSetStats",
    "parse_manifest",
    "serialize_manifest",
    "parse_tag_registry",
    "load_corpus",
    "compute_stats",
]

# Tag-list directive -> TagRegistry field; a field not given keeps its default.
_TAG_FIELDS = {"BINDTAGS": "binding_tags", "ALIGNTAGS": "alignment_tags"}


@dataclass(frozen=True)
class LanguageEntry:
    code: str
    trees_path: str
    predarg_path: str


@dataclass(frozen=True)
class AlignEntry:
    left_lang: str
    right_lang: str
    path: str


@dataclass(frozen=True)
class Manifest:
    languages: tuple[LanguageEntry, ...]
    align_sets: tuple[AlignEntry, ...] = ()
    registry: TagRegistry = TagRegistry()


def _checked(check, values: list[str], file: str, lineno: int) -> list[str]:
    """values, once each passes check, a model field rule; its FieldError is E-MANIFEST-SYNTAX at lineno."""
    try:
        return [check(value) for value in values]
    except FieldError as exc:
        _err("E-MANIFEST-SYNTAX", file, lineno, str(exc))


def parse_manifest(text: str, filename: str = "<string>") -> Manifest:
    """Parse manifest text; paths are returned as written (not resolved)."""
    languages: list[LanguageEntry] = []
    aligns: list[tuple[int, AlignEntry]] = []
    tags: dict[str, frozenset[str]] = {}
    for lineno, line in _lines(text, filename, strict=False):
        if not line.strip():
            continue
        fields = line.split()
        directive = fields[0]
        if directive == "LANG":
            if len(fields) != 6 or fields[2] != "TREES" or fields[4] != "PREDARG":
                _err("E-MANIFEST-SYNTAX", filename, lineno, "expected LANG <code> TREES <path> PREDARG <path>")
            code = fields[1]
            _checked(_check_language, [code], filename, lineno)
            if any(entry.code == code for entry in languages):
                _err("E-MANIFEST-DUP", filename, lineno, f"duplicate language {code}")
            languages.append(LanguageEntry(code, fields[3], fields[5]))
        elif directive == "ALIGN":
            if len(fields) != 4:
                _err("E-MANIFEST-SYNTAX", filename, lineno, "expected ALIGN <codeA> <codeB> <path>")
            _checked(_check_language, fields[1:3], filename, lineno)
            aligns.append((lineno, AlignEntry(fields[1], fields[2], fields[3])))
        elif directive in _TAG_FIELDS:
            if len(fields) != 2 or _TAG_FIELDS[directive] in tags:
                _err("E-MANIFEST-SYNTAX", filename, lineno, f"malformed or repeated {directive} line")
            tag_list = _checked(_check_tag, fields[1].split(","), filename, lineno)
            tags[_TAG_FIELDS[directive]] = frozenset(tag_list)
        else:
            _err("E-MANIFEST-SYNTAX", filename, lineno, f"unknown directive {directive!r}")
    if not languages:
        _err("E-MANIFEST-SYNTAX", filename, None, "manifest declares no languages")
    declared = {entry.code for entry in languages}
    for lineno, entry in aligns:
        for code in (entry.left_lang, entry.right_lang):
            if code not in declared:
                _err("E-MANIFEST-LANG", filename, lineno, f"ALIGN references undeclared language {code}")
    return Manifest(tuple(languages), tuple(entry for _, entry in aligns), TagRegistry(**tags))


def serialize_manifest(manifest: Manifest) -> str:
    """Canonical manifest text; tag lines only when they differ from defaults."""
    out = [
        f"LANG {entry.code} TREES {entry.trees_path} PREDARG {entry.predarg_path}"
        for entry in manifest.languages
    ]
    out.extend(
        f"ALIGN {entry.left_lang} {entry.right_lang} {entry.path}"
        for entry in manifest.align_sets
    )
    if manifest.registry.binding_tags != DEFAULT_BINDING_TAGS:
        out.append("BINDTAGS " + ",".join(sorted(manifest.registry.binding_tags)))
    if manifest.registry.alignment_tags != DEFAULT_ALIGNMENT_TAGS:
        out.append("ALIGNTAGS " + ",".join(sorted(manifest.registry.alignment_tags)))
    return "".join(line + "\n" for line in out)


def parse_tag_registry(text: str, filename: str = "<string>") -> TagRegistry:
    """Parse a standalone tag-registry file (BINDTAGS/ALIGNTAGS lines only; the last one wins)."""
    tags: dict[str, frozenset[str]] = {}
    for lineno, line in _lines(text, filename, strict=False):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 2 or fields[0] not in _TAG_FIELDS:
            _err("E-MANIFEST-SYNTAX", filename, lineno, f"expected BINDTAGS or ALIGNTAGS line, got {line!r}")
        tags[_TAG_FIELDS[fields[0]]] = frozenset(_checked(_check_tag, fields[1].split(","), filename, lineno))
    return TagRegistry(**tags)


def _read(path: str | Path, diags: list[Diagnostic]) -> str | None:
    """The one file reader: the file's text, or None after adding an E-IO diagnostic.

    Line endings are kept as they are, so the parsers see (and reject) CR.
    A NUL byte in the path and text that is not UTF-8 both raise ValueError.
    """
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, ValueError) as exc:
        diags.append(Diagnostic.error("E-IO", str(path), f"cannot read file: {exc}"))
        return None


# Loads that hold cyclic GC paused, and whether GC was enabled when the
# first of them paused it. gc.disable() is process-wide, so the last load
# to finish restores the state the first one found.
_gc_lock = threading.Lock()
_gc_holds = 0
_gc_was_enabled = False


def load_corpus(
    manifest_path, registry: TagRegistry | None = None
) -> tuple[ParallelCorpus | None, list[Diagnostic]]:
    """Load and fully validate the corpus a manifest defines.

    Returns (corpus, diagnostics); the corpus is None whenever any ERROR
    diagnostic was produced. A registry argument overrides the manifest's
    tag registry; the corpus keeps the parsed manifest, with the registry
    it was loaded with, as its `manifest`. When any file fails to parse,
    semantic validation is skipped: only the parse diagnostics are reported.

    Cyclic GC is paused process-wide while loads run: the corpus is an
    acyclic graph of new objects, so collections during a load free
    nothing and only walk it. The caller's GC state is restored when the
    last concurrent load returns or raises.
    """
    global _gc_holds, _gc_was_enabled
    with _gc_lock:
        if _gc_holds == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_holds += 1
    try:
        return _load_corpus(Path(manifest_path), registry)
    finally:
        with _gc_lock:
            _gc_holds -= 1
            if _gc_holds == 0 and _gc_was_enabled:
                gc.enable()


def _load_corpus(
    manifest_path: Path, registry: TagRegistry | None
) -> tuple[ParallelCorpus | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    text = _read(manifest_path, diags)
    if text is None:
        return None, diags
    try:
        manifest = parse_manifest(text, str(manifest_path))
    except ParseError as exc:
        return None, [exc.diagnostic]
    if registry is None:
        registry = manifest.registry
    manifest = replace(manifest, registry=registry)
    base = manifest_path.parent

    treebanks: dict[str, tuple[MonolingualAnnotation, ...]] = {}
    lang_files: dict[str, str] = {}
    for entry in manifest.languages:
        trees_path = base / entry.trees_path
        pa_path = base / entry.predarg_path
        lang_files[entry.code] = str(pa_path)
        trees_text = _read(trees_path, diags)
        pa_text = _read(pa_path, diags)
        if trees_text is None or pa_text is None:
            continue
        try:
            trees = parse_trees(trees_text, str(trees_path))
            predarg = parse_predarg(pa_text, registry, str(pa_path))
        except ParseError as exc:
            diags.append(exc.diagnostic)
            continue
        known = {tree.sentence_id for tree in trees}
        diags += [Diagnostic.error("E-SENT-UNKNOWN", str(pa_path), f"sentence {sid} has annotations but no tree")
                  for sid in predarg if sid not in known]
        annotations = []
        empty = PredArg()  # the default of a tree with no annotations, built once
        for tree in trees:
            pa = predarg.get(tree.sentence_id, empty)
            annotations.append(
                MonolingualAnnotation(tree, pa.predicates, pa.arguments, pa.bindings)
            )
        treebanks[entry.code] = tuple(annotations)

    pair_sets: list[PairSet] = []
    pair_files: list[str] = []
    for entry in manifest.align_sets:
        al_path = base / entry.path
        al_text = _read(al_path, diags)
        if al_text is None:
            continue
        try:
            pairs = parse_alignments(al_text, registry, str(al_path))
        except ParseError as exc:
            diags.append(exc.diagnostic)
            continue
        pair_sets.append(PairSet(entry.left_lang, entry.right_lang, tuple(pairs)))
        pair_files.append(str(al_path))

    if any(d.is_error for d in diags):
        return None, _sorted_unique(diags)
    corpus = ParallelCorpus(treebanks, tuple(pair_sets), registry, manifest=manifest)
    corpus, diags = validate_corpus(corpus, lang_files, pair_files)
    return corpus if corpus.validated else None, diags


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class LanguageStats:
    sentences: int
    tokens: int
    predicates: int
    arguments: int
    by_class: dict[str, int] = field(default_factory=dict)
    binding_tags: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class PairSetStats:
    left_lang: str
    right_lang: str
    pairs: int
    pred_alignments: int
    arg_alignments: int
    pred_tags: dict[str, int] = field(default_factory=dict)
    arg_tags: dict[str, int] = field(default_factory=dict)
    unaligned_predicates: dict[str, int] = field(default_factory=dict)
    unaligned_arguments: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CorpusStats:
    languages: dict[str, LanguageStats]
    pair_sets: tuple[PairSetStats, ...]


def compute_stats(corpus: ParallelCorpus) -> CorpusStats:
    """Deterministic per-language and per-pair-set counts.

    Per pair set, unaligned counts cover elements of sentences that occur
    in that set's pairs (corpus-wide unalignment is a query concern).
    """
    languages: dict[str, LanguageStats] = {}
    for lang in corpus.languages:
        anns = corpus.treebanks[lang]
        classes = Counter([pred.syn_class for ann in anns for pred in ann.predicates])
        tags: Counter[str] = Counter()
        for tag_set, n in Counter([b.tags for ann in anns for b in ann.bindings if b.tags]).items():
            tags.update(dict.fromkeys(tag_set, n))  # the parsers share equal tags= sets
        languages[lang] = LanguageStats(
            sentences=len(anns),
            tokens=sum([len(ann.tree.tokens) for ann in anns]),
            predicates=classes.total(),
            arguments=sum([len(ann.arguments) for ann in anns]),
            by_class={c: classes[c] for c in PRED_CLASSES},
            binding_tags=dict(sorted(tags.items())),
        )
    set_stats = []
    for pair_set in corpus.pair_sets:
        left_lang, right_lang = pair_set.left_lang, pair_set.right_lang
        kinds = Counter([a.kind == "pred" for pair in pair_set.pairs for a in pair.alignments])
        tagged = Counter([(a.kind == "pred", a.tag) for pair in pair_set.pairs
                          for a in pair.alignments if a.tag is not None])
        # each sentence once, under the side of the set where it first occurs
        sides: dict[str, str] = {}
        for pair in pair_set.pairs:
            sides.setdefault(pair.left_sentence, left_lang)
            sides.setdefault(pair.right_sentence, right_lang)
        unaligned_preds = {left_lang: 0, right_lang: 0}
        unaligned_args = {left_lang: 0, right_lang: 0}
        for key, lang in sides.items():
            try:
                ann = corpus.sentence(key)
            except ResolutionError:  # a sentence of an unvalidated corpus that does not resolve
                continue
            # unaligned = declared - aligned; an alignment to an undeclared element counts for nothing
            n_preds, n_args = ann._declared_among(pair_set.aligned.get(key, ()))
            unaligned_preds[lang] += len(ann.predicates) - n_preds
            unaligned_args[lang] += len(ann.arguments) - n_args
        set_stats.append(
            PairSetStats(
                left_lang=left_lang,
                right_lang=right_lang,
                pairs=len(pair_set.pairs),
                pred_alignments=kinds[True],
                arg_alignments=kinds[False],
                pred_tags=dict(sorted((tag, n) for (is_pred, tag), n in tagged.items() if is_pred)),
                arg_tags=dict(sorted((tag, n) for (is_pred, tag), n in tagged.items() if not is_pred)),
                unaligned_predicates=unaligned_preds,
                unaligned_arguments=unaligned_args,
            )
        )
    return CorpusStats(languages, tuple(set_stats))
