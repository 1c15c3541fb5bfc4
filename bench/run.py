"""Layered benchmark of fusetb: read path, query path and write path.

Usage (from the repository root; stdlib only, runs fusetb from ``src/``)::

    python3 bench/run.py --workload cli-validate --seed 1 --seconds 30 --trace 0

Workloads, each a closed loop with one client:

``cli-validate``
    One ``python -m fusetb.cli validate <manifest>`` child process per op,
    cycling through nine corpora of 40 to 200 sentence pairs: the read path
    exactly as a user meets it.
``query-mix``
    One parse_query + run_query per op in a fixed cyclic mix of all five
    commands plus compute_stats and suggest_roles, on a larger corpus
    loaded once; each cycle of the mix ends with one export op, which
    serializes the loaded corpus and writes the files, the same steps as
    ``fuse export``.

Inputs come from gen.py in a child process, seeded by ``--seed``; expected
outputs come from oracle.py in that child, so generator and oracle data stay
out of this process. Every op's output is checked outside the timed region.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see README.md). Lines before it starting with ``#`` are
informational.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

from layers import NullTracer, Tracer, child_env, import_ms, load_layers, load_parts  # noqa: E402
from oracle import PLAN_NAME, digest, size  # noqa: E402

# Corpus sizes (sentence pairs) per workload. cli-validate cycles through
# nine small corpora in this order: small enough that a run holds well over
# 100 processes (so op_p90_ms has at least ten samples beyond it), and
# spread in size so that op latencies form a continuum, whose median moves
# smoothly, not in one jump, when the host runs part of a run in a slow
# phase. Its set-up and traced run use the first, middle-sized one.
PAIRS = {
    "cli-validate": (120, 40, 180, 80, 200, 60, 140, 100, 160),
    "query-mix": (1000,),
}
SETUP_REPEATS = 9
MIN_OPS = 110  # a run keeps going past --seconds until it has this many ops
KEEP_RUNS = 4  # generated inputs of this many recent workload/seed pairs stay cached
TRACE_QUERY_ROUNDS = 6
TRACE_EXPORT_OPS = 8


def probe_ms() -> float:
    """A fixed pure-Python loop, timed between ops to show slow host phases."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def prepare(workload: str, seed: int) -> list[tuple[Path, dict]]:
    """Generate (or reuse) the workload's corpora; returns (relative dir, plan) per corpus."""
    code = hashlib.sha256((BENCH / "gen.py").read_bytes() + (BENCH / "oracle.py").read_bytes())
    run_dir = WORK.relative_to(ROOT) / f"{workload}-s{seed}-{code.hexdigest()[:10]}"
    corpora = []
    for pairs in PAIRS[workload]:
        rel = run_dir / f"p{pairs}"
        if not (ROOT / rel / PLAN_NAME).exists():
            subprocess.run(
                [sys.executable, str(BENCH / "oracle.py"), "--seed", str(seed),
                 "--pairs", str(pairs), "--out", rel.as_posix()],
                cwd=ROOT, check=True, timeout=120,
            )
        corpora.append((rel, json.loads((ROOT / rel / PLAN_NAME).read_text(encoding="utf-8"))))
    (ROOT / run_dir).touch()
    runs = sorted((p for p in WORK.iterdir() if p.is_dir()), key=lambda p: p.stat().st_mtime)
    for old in runs[:-KEEP_RUNS]:
        shutil.rmtree(old, ignore_errors=True)
    return corpora


@dataclasses.dataclass
class Run:
    setup_s: float = 0.0
    latencies_ms: list = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    probes_ms: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)  # first few failed ops
    round_ends: list = dataclasses.field(default_factory=list)  # len(latencies_ms) per round
    problems: list = dataclasses.field(default_factory=list)  # run-level checks that failed

    def record(self, elapsed_s: float, ok: bool, failure: str = "") -> None:
        self.attempted += 1
        if ok:
            self.latencies_ms.append(elapsed_s * 1e3)
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(failure)


def timed_loop(run: Run, seconds: float, one_round) -> None:
    """Whole rounds until --seconds have passed and at least MIN_OPS ops ran."""
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or run.attempted < MIN_OPS:
        one_round(n)
        run.round_ends.append(len(run.latencies_ms))
        run.probes_ms.append(probe_ms())
        n += 1


# ---------------------------------------------------------------------------
# cli-validate


LAUNCHER = r"""
import os, sys
for line in sys.stdin:
    out, err, *argv = line.rstrip("\n").split("\0")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fout, ferr = os.open(out, flags, 0o644), os.open(err, flags, 0o644)
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, fout, 1), (os.POSIX_SPAWN_DUP2, ferr, 2)])
    os.close(fout)
    os.close(ferr)
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, flush=True)
"""


class Launcher:
    """A small helper process that starts each `fuse validate` child.

    The max-RSS the kernel reports for a child includes the resident size of
    the process that spawned it. This helper runs with -S and imports only
    os and sys, so that floor stays near 8 MB, below any fuse validate
    process; spawned from the measuring process it would be 20 MB or more.
    """

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)

    def validate(self, manifest: str, tr):
        """One `fuse validate` child; returns (seconds, exit code, stdout, stderr, max RSS MB).

        Output goes to files, so a child that writes much cannot block on a pipe.
        """
        out, err = WORK / f"cli-{os.getpid()}.out", WORK / f"cli-{os.getpid()}.err"
        request = "\0".join([str(out), str(err), sys.executable, "-m", "fusetb.cli", "validate", manifest])
        try:
            with tr.span("cli.validate"):
                start = time.perf_counter()
                self.proc.stdin.write(request + "\n")
                self.proc.stdin.flush()
                code, maxrss = self.proc.stdout.readline().split()
                elapsed = time.perf_counter() - start
            return (elapsed, int(code), out.read_text(encoding="utf-8"),
                    err.read_text(encoding="utf-8"), int(maxrss) / 1024)
        finally:
            out.unlink(missing_ok=True)
            err.unlink(missing_ok=True)


def run_cli_validate(seed: int, seconds: float, tr_for_round) -> Run:
    corpora = prepare("cli-validate", seed)
    run = Run()

    def one(n, tr):
        tr.begin_op("v")
        rel, plan = corpora[n % len(corpora)]
        elapsed, code, stdout, stderr, rss = launcher.validate((rel / plan["manifest"]).as_posix(), tr)
        run.peak_rss_mb = max(run.peak_rss_mb, rss)
        ok = code == 0 and stdout == "" and stderr == "".join(w + "\n" for w in plan["warnings"])
        return elapsed, ok, f"{rel}: exit {code}, stdout {stdout[:80]!r}, stderr {stderr[:200]!r}"

    with Launcher() as launcher:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, ok, problem = one(0, NullTracer())
            setups.append(elapsed)
            if not ok:
                run.problems.append("setup: " + problem)
        run.setup_s = statistics.median(setups)
        timed_loop(run, seconds, lambda n: run.record(*one(n, tr_for_round(n))))
    from fusetb import load_corpus

    for rel, plan in corpora:
        corpus, _ = load_corpus(rel / plan["manifest"])
        if corpus is None or loaded_counts(corpus) != plan["counts"]:
            run.problems.append(f"{rel}: loaded counts differ from the generator's record")
    return run


def loaded_counts(corpus) -> dict:
    counts = {
        lang: {"sentences": len(anns), "tokens": sum(len(a.tree.tokens) for a in anns),
               "predicates": sum(len(a.predicates) for a in anns),
               "arguments": sum(len(a.arguments) for a in anns)}
        for lang, anns in corpus.treebanks.items()
    }
    counts["alignments"] = sum(len(p.alignments) for s in corpus.pair_sets for p in s.pairs)
    return counts


def setup_corpus(rel: Path, plan: dict, run: Run):
    """Import fusetb and load the corpus SETUP_REPEATS times; keeps the last load."""
    start = time.perf_counter()
    import fusetb  # noqa: F401

    import_s = time.perf_counter() - start
    from fusetb import load_corpus

    loads = []
    corpus = diags = None
    for _ in range(SETUP_REPEATS):
        corpus = diags = None
        gc.collect()
        start = time.perf_counter()
        corpus, diags = load_corpus(rel / plan["manifest"])
        loads.append(time.perf_counter() - start)
    run.setup_s = import_s + statistics.median(loads)
    if [d.render() for d in diags] != plan["warnings"]:
        run.problems.append("load diagnostics differ from the planted warnings")
    return corpus


# ---------------------------------------------------------------------------
# query-mix


def query_op(corpus, op: dict, tr):
    """One op of the mix; returns (seconds, result in JSON form)."""
    from fusetb import compute_stats, parse_query, run_query, suggest_roles

    start = time.perf_counter()
    if op["kind"] == "query":
        with tr.span("query.parse"):
            query = parse_query(op["text"])
        with tr.span(f"query.{query.command}"):
            result = run_query(corpus, query)
    elif op["kind"] == "stats":
        with tr.span("corpus.stats"):
            result = compute_stats(corpus)
    else:
        with tr.span("suggest.roles"):
            result = suggest_roles(corpus, op["lang"], op["group"], op["used"])
    elapsed = time.perf_counter() - start
    if op["kind"] == "stats":
        result = dataclasses.asdict(result)
    elif op["kind"] == "suggest":
        result = [dataclasses.asdict(s) for s in result]
    return elapsed, result


def query_round(corpus, plan, run: Run, n: int, tr) -> None:
    ops = plan["rounds"][n % len(plan["rounds"])]
    for op in ops:
        tr.begin_op("q")
        elapsed, result = query_op(corpus, op, tr)
        rows = size(result)
        ok = rows == op["rows"] and digest(result) == op["digest"]
        run.record(elapsed, ok, f"{op}: got {rows} rows, expected {op['rows']}")


def ends_cycle(plan, n: int) -> bool:
    """Whether round n is the last of a cycle of the mix, which ends with an export."""
    return n % len(plan["rounds"]) == len(plan["rounds"]) - 1


def run_query_mix(seed: int, seconds: float, tr_for_round, plan=None) -> Run:
    [(rel, fresh_plan)] = prepare("query-mix", seed)
    plan = plan or fresh_plan
    run = Run()
    corpus = setup_corpus(rel, plan, run)
    manifest = read_manifest(rel, plan)
    out_dir = WORK / f"export-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)

    def one_round(n: int, run: Run, tr) -> None:
        query_round(corpus, plan, run, n, tr)
        if ends_cycle(plan, n):
            export_round(corpus, manifest, plan, out_dir, run, tr)

    try:
        for n in range(len(plan["rounds"])):  # one untimed cycle to warm up
            one_round(n, Run(), NullTracer())
        timed_loop(run, seconds, lambda n: one_round(n, run, tr_for_round(n)))
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        from fusetb import load_corpus

        reloaded, _ = load_corpus(out_dir / plan["manifest"])
        if reloaded != corpus:
            run.problems.append("reloading the exported files gives a different corpus")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return run


# ---------------------------------------------------------------------------
# export, one op of each query-mix cycle


def export_op(corpus, manifest, manifest_name: str, out_dir: Path, tr):
    """`fuse export` minus the load: serialize everything, write it; returns (seconds, bytes)."""
    from fusetb.corpus import serialize_manifest
    from fusetb.formats import PredArg, serialize_alignments, serialize_predarg, serialize_trees

    start = time.perf_counter()
    texts = {}
    for entry, pair_set in zip(manifest.align_sets, corpus.pair_sets):
        with tr.span("formats.serialize_alignments"):
            texts[Path(entry.path).name] = serialize_alignments(pair_set.pairs)
    for entry in manifest.languages:
        annotations = corpus.treebanks[entry.code]
        with tr.span("formats.serialize_trees"):
            texts[Path(entry.trees_path).name] = serialize_trees(ann.tree for ann in annotations)
        with tr.span("formats.serialize_predarg"):
            predarg = {ann.sentence_id: PredArg(ann.predicates, ann.arguments, ann.bindings)
                       for ann in annotations}
            texts[Path(entry.predarg_path).name] = serialize_predarg(predarg)
    with tr.span("corpus.serialize_manifest"):
        exported = dataclasses.replace(
            manifest,
            languages=tuple(
                dataclasses.replace(e, trees_path=Path(e.trees_path).name,
                                    predarg_path=Path(e.predarg_path).name)
                for e in manifest.languages
            ),
            align_sets=tuple(dataclasses.replace(e, path=Path(e.path).name)
                             for e in manifest.align_sets),
        )
        texts[manifest_name] = serialize_manifest(exported)
    written = 0
    with tr.span("export.write"):
        for name, text in texts.items():
            data = text.encode("utf-8")
            (out_dir / name).write_bytes(data)
            written += len(data)
    return time.perf_counter() - start, written


def read_manifest(rel: Path, plan: dict):
    from fusetb.corpus import parse_manifest

    path = rel / plan["manifest"]
    return parse_manifest(path.read_text(encoding="utf-8"), str(path))


def export_round(corpus, manifest, plan, out_dir: Path, run: Run, tr) -> int:
    tr.begin_op("e")
    elapsed, written = export_op(corpus, manifest, plan["manifest"], out_dir, tr)
    wrong = [name for name, want in plan["files"].items()
             if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != want]
    run.record(elapsed, not wrong, f"export: bytes differ from the generator's in {wrong}")
    return written


WORKLOADS = {"cli-validate": run_cli_validate, "query-mix": run_query_mix}


# ---------------------------------------------------------------------------
# metrics


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(run: Run) -> dict:
    lat = run.latencies_ms
    return {
        "setup_s": {"value": run.setup_s, "unit": "s"},
        "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "op_p90_ms": {"value": p90(lat), "unit": "ms"},
        "ops_per_s": {"value": len(lat) / (sum(lat) / 1e3), "unit": "ops/s"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
    }


def small_corpus_ms(seed: int, repeats: int = 31) -> tuple[float, float]:
    """cli.overhead_ms and corpus.self_ms, from the smallest (40-pair) cli-validate corpus.

    cli.overhead_ms is one `fuse validate` process minus an in-process
    load_corpus of the same files; corpus.self_ms is that load_corpus minus
    the sum of its steps run one by one (load_parts). Both are measured on
    the small corpus whatever the workload: on a large corpus each side
    takes seconds, and host noise of a few percent swamps a difference of a
    few percent. Each repeat runs the process, the load and the step-by-step
    load back to back, so all three see the same host phase, with the two
    loads in alternating order; each metric is the median of the
    per-repeat differences.
    """
    from fusetb import load_corpus

    rel, plan = prepare("cli-validate", seed)[PAIRS["cli-validate"].index(40)]
    manifest = rel / plan["manifest"]

    def load_s() -> float:
        gc.collect()
        start = time.perf_counter()
        load_corpus(manifest)
        return time.perf_counter() - start

    def parts_s() -> float:
        gc.collect()
        parts = Tracer()
        load_parts(manifest, parts)
        return sum(end - start for _, start, end, _, _ in parts.spans)

    overheads, selfs = [], []
    with Launcher() as launcher:
        for i in range(repeats):
            process = launcher.validate(manifest.as_posix(), NullTracer())[0]
            if i % 2:
                load, parts = load_s(), parts_s()
            else:
                parts, load = parts_s(), load_s()
            overheads.append(process - load)
            selfs.append(load - parts)
    return statistics.median(overheads) * 1e3, statistics.median(selfs) * 1e3


def traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    """Per-layer metrics: `fuse validate` processes paired with in-process
    loads, a step-by-step load, query and export passes with spans, then the
    workload's own loop alternating traced and untraced rounds to measure
    the tracing overhead."""
    tr = Tracer()
    null = NullTracer()
    metrics = {"cli.import_ms": import_ms()}
    metrics["cli.overhead_ms"], metrics["corpus.self_ms"] = small_corpus_ms(seed)
    rel, plan = prepare(workload, seed)[0]
    corpus_metrics, corpus, same = load_layers(ROOT / rel / plan["manifest"], tr)
    metrics.update(corpus_metrics)

    layer_run = Run()
    for n in range(TRACE_QUERY_ROUNDS):
        query_round(corpus, plan, layer_run, n, tr)
    export_manifest = read_manifest(rel, plan)
    out_dir = WORK / f"export-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        written = [export_round(corpus, export_manifest, plan, out_dir, layer_run, tr)
                   for _ in range(TRACE_EXPORT_OPS)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    corpus = None

    overhead_run = WORKLOADS[workload](seed, seconds, lambda n: tr if n % 2 else null)
    split = ([], [])
    lat = overhead_run.latencies_ms
    for n, (start, end) in enumerate(zip([0] + overhead_run.round_ends, overhead_run.round_ends)):
        split[n % 2].extend(lat[start:end])

    for prefix, names in (
        ("q", ("query.parse", "query.preds", "query.aligns", "query.realizations",
               "query.frames", "query.unaligned", "corpus.stats", "suggest.roles")),
        ("e", ("formats.serialize_trees", "formats.serialize_predarg",
               "formats.serialize_alignments", "corpus.serialize_manifest", "export.write")),
    ):
        for name in names:
            metrics[f"{name}_ms"] = statistics.median(tr.per_op(name, prefix))
    query_ops = [op for ops in plan["rounds"] for op in ops if op["kind"] == "query"]
    metrics["query.rows"] = statistics.mean(op["rows"] for op in query_ops)
    metrics["export.bytes"] = statistics.median(written)
    metrics["trace.overhead_pct"] = (statistics.median(split[1]) / statistics.median(split[0]) - 1) * 100
    tr.write(WORK / f"spans-{workload}-s{seed}.jsonl")

    total = Run(attempted=layer_run.attempted + overhead_run.attempted,
                failed=layer_run.failed + overhead_run.failed,
                failures=layer_run.failures + overhead_run.failures,
                problems=layer_run.problems + overhead_run.problems
                + ([] if same else ["the step-by-step load differs from load_corpus"]),
                probes_ms=overhead_run.probes_ms)
    return total, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of fusetb.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fusetb" / "__init__.py").is_file():
        print(f"error: fusetb sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.trace:
        run, metrics = traced(args.workload, args.seed, args.seconds)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        run = WORKLOADS[args.workload](args.seed, args.seconds, lambda n: NullTracer())
        metrics = end_to_end(run)
    beyond = "" if args.trace else \
        f" samples_beyond_p90={sum(v > metrics['op_p90_ms']['value'] for v in run.latencies_ms)}"
    print(f"# {args.workload} seed={args.seed}: attempted={run.attempted} failed={run.failed}"
          f"{beyond} probe_ms_median={statistics.median(run.probes_ms):.3f}")
    for failure in run.failures:
        print(f"# failed op: {failure}")
    for problem in run.problems:
        print(f"# failed check: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name == "export.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
