"""The benchmark's entry points run against src/: bench/ calls the library directly.

A change to src/ that breaks those calls fails here rather than in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys

import pytest

from fusetb.cli import main
from fusetb.corpus import load_corpus

from .conftest import FIXTURES, REPO_ROOT

BENCH = REPO_ROOT / "bench"
MANIFEST = FIXTURES / "corpus.manifest"


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module; the sys.path entries and bench/ modules its import adds are undone."""
    path, modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH)):
                del sys.modules[name]


def test_load_parts_matches_load_corpus(bench_run):
    corpus, diags = load_corpus(MANIFEST)
    parts, part_diags, lines = bench_run.load_parts(MANIFEST, bench_run.NullTracer())
    assert parts == corpus and repr(parts) == repr(corpus)
    assert parts.validated == corpus.validated
    assert part_diags == diags
    assert lines == sum(
        path.read_text(encoding="utf-8").count("\n")
        for path in FIXTURES.iterdir()
        if path.suffix in (".tb", ".pa", ".al")
    )


def test_export_op_writes_what_fuse_export_writes(bench_run, tmp_path, capsys):
    assert main(["export", str(MANIFEST), "--out", str(tmp_path / "cli")]) == 0
    corpus, _ = load_corpus(MANIFEST)
    out = tmp_path / "bench"
    out.mkdir()
    _, written = bench_run.export_op(
        corpus, corpus.manifest, MANIFEST.name, out, bench_run.NullTracer()
    )
    expected = sorted((tmp_path / "cli").iterdir())
    assert [p.name for p in expected] == sorted(p.name for p in out.iterdir())
    for path in expected:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    assert written == sum(path.stat().st_size for path in expected)
