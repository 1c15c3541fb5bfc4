"""Spans and per-layer measurements for the traced run.

Spans are recorded only around calls the benchmark itself makes into
fusetb's public functions; nothing inside ``src/`` is instrumented. Each
span is (name, start, end, parent span index, op id), kept in memory and
written as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: span() costs one call and records nothing."""

    def begin_op(self, kind):
        pass

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ops = 0
        self._stack = []

    def begin_op(self, kind):
        """Spans from here on belong to a new op, with an id starting with kind."""
        self._ops += 1
        self.op = f"{kind}{self._ops}"

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def per_op(self, name, kind) -> list[float]:
        """Milliseconds spent in spans called name, summed per op of that kind."""
        sums = {}
        for span_name, start, end, _, op in self.spans:
            if span_name == name and op.rstrip("0123456789") == kind:
                sums[op] = sums.get(op, 0.0) + (end - start) * 1e3
        return list(sums.values())

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")


def child_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def import_ms(repeats: int = 5) -> float:
    """Median time a fresh interpreter takes to import fusetb.cli."""
    code = "import time; t = time.perf_counter(); import fusetb.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout) * 1e3)
    return statistics.median(times)


def rss_mb() -> float:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_parts(manifest_path: Path, tr):
    """load_corpus step by step through public functions, one span per step.

    Returns (corpus, diagnostics, line count); the result equals
    load_corpus's on a valid corpus, which the caller checks.
    """
    from fusetb.corpus import parse_manifest
    from fusetb.formats import PredArg, parse_alignments, parse_predarg, parse_trees
    from fusetb.model import MonolingualAnnotation, PairSet, ParallelCorpus
    from fusetb.validate import check_group_roles, validate_monolingual, validate_pair

    base = manifest_path.parent
    with tr.span("corpus.read"):
        manifest = parse_manifest(manifest_path.read_text(encoding="utf-8"), str(manifest_path))
        texts = {}
        for entry in manifest.languages:
            for name in (entry.trees_path, entry.predarg_path):
                texts[name] = (base / name).read_text(encoding="utf-8")
        for entry in manifest.align_sets:
            texts[entry.path] = (base / entry.path).read_text(encoding="utf-8")
    treebanks = {}
    lang_files = {}
    for entry in manifest.languages:
        lang_files[entry.code] = str(base / entry.predarg_path)
        with tr.span("formats.parse_trees"):
            trees = parse_trees(texts[entry.trees_path], str(base / entry.trees_path))
        with tr.span("formats.parse_predarg"):
            predarg = parse_predarg(texts[entry.predarg_path], manifest.registry, lang_files[entry.code])
        with tr.span("model.build"):
            empty = PredArg()
            treebanks[entry.code] = tuple(
                MonolingualAnnotation(t, pa.predicates, pa.arguments, pa.bindings)
                for t in trees
                for pa in (predarg.get(t.sentence_id, empty),)
            )
    pair_sets = []
    pair_files = {}
    for entry in manifest.align_sets:
        pair_files[(entry.left_lang, entry.right_lang)] = str(base / entry.path)
        with tr.span("formats.parse_alignments"):
            pairs = parse_alignments(texts[entry.path], manifest.registry, str(base / entry.path))
        with tr.span("model.build"):
            pair_sets.append(PairSet(entry.left_lang, entry.right_lang, tuple(pairs)))
    with tr.span("model.build"):
        corpus = ParallelCorpus(treebanks, tuple(pair_sets), manifest.registry)
    # One span per language or pair set rather than per call: a span costs
    # microseconds, which over thousands of sentences would inflate the parts.
    diags = []
    for lang in corpus.languages:
        with tr.span("validate.monolingual"):
            for ann in corpus.treebanks[lang]:
                diags.extend(validate_monolingual(ann, file=lang_files[lang]))
        with tr.span("validate.group_roles"):
            diags.extend(check_group_roles(corpus.treebanks[lang], file=lang_files[lang]))
    for pair_set in corpus.pair_sets:
        label = pair_files[(pair_set.left_lang, pair_set.right_lang)]
        with tr.span("validate.pairs"):
            for pair in pair_set.pairs:
                diags.extend(validate_pair(corpus, pair, file=label))
    diags = sorted(set(diags), key=lambda d: d.sort_key)
    corpus = dataclasses.replace(corpus, validated=not any(d.is_error for d in diags))
    return corpus, diags, sum(text.count("\n") for text in texts.values())


PART_SPANS = (
    "corpus.read", "formats.parse_trees", "formats.parse_predarg", "formats.parse_alignments",
    "model.build", "validate.monolingual", "validate.group_roles", "validate.pairs",
)


class GcWatch:
    """Cyclic-GC pauses and full collections, recorded through gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.full = 0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.full += info["generation"] == 2
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def load_layers(manifest_path: Path, tr, repeats: int = 3):
    """Per-layer metrics of loading one corpus.

    Returns (metrics, loaded corpus, whether the step-by-step load gave the
    same corpus and diagnostics as load_corpus).

    Every timed load starts with no corpus alive: the previous result is
    dropped and collected first, so it does not slow the next load. RSS
    growth is that of the first load, on a heap no load has grown yet. The
    step-by-step load is checked against load_corpus afterwards.
    """
    from fusetb import load_corpus

    loads, pauses, fulls = [], [], []
    for i in range(repeats):
        corpus = diags = None
        gc.collect()
        tr.begin_op("load")
        before = rss_mb()
        with GcWatch() as watch, tr.span("corpus.load"):
            corpus, diags = load_corpus(manifest_path)
        if i == 0:
            growth = rss_mb() - before
        loads.append(tr.spans[-1][2] - tr.spans[-1][1])
        pauses.append(watch.pause_s)
        fulls.append(watch.full)
    corpus = diags = None
    for _ in range(repeats):
        gc.collect()
        tr.begin_op("parts")
        n_lines = load_parts(manifest_path, tr)[2]
    corpus, diags = load_corpus(manifest_path)
    same = load_parts(manifest_path, NullTracer())[:2] == (corpus, diags)
    medians = {name: statistics.median(tr.per_op(name, "parts")) for name in PART_SPANS}
    metrics = {f"{name}_ms": value for name, value in medians.items()}
    metrics.update({
        "corpus.load_ms": statistics.median(loads) * 1e3,
        "gc.pause_ms": statistics.median(pauses) * 1e3,
        "gc.full_collections": statistics.median(fulls),
        "corpus.rss_mb": growth,
        "formats.lines": n_lines,
        "validate.bindings": sum(len(a.bindings) for anns in corpus.treebanks.values() for a in anns),
        "validate.diagnostics": len(diags),
    })
    return metrics, corpus, same
