"""Reference figures measured once, outside the benchmark's workloads.

    python3 bench/reference.py fixture               # fuse validate on fixtures/
    python3 bench/reference.py load --pairs 20000    # load a generated corpus

``fixture`` runs 11 ``fuse validate`` processes on the hand-built fixture
corpus and prints their median wall time and highest max-RSS. ``load``
generates a corpus with oracle.py (into bench/.work/), loads it once with
load_corpus in a fresh process and prints the load time and that process's
peak RSS, the figures ROADMAP item 2's targets are stated in.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from layers import NullTracer, child_env  # noqa: E402

ROOT = bench.ROOT
LOAD = """
import resource, sys, time
from fusetb import load_corpus
start = time.perf_counter()
corpus, diags = load_corpus(sys.argv[1])
elapsed = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"load_corpus {elapsed:.2f} s, peak RSS {peak:.0f} MB, loaded: {corpus is not None},"
      f" diagnostics: {len(diags)}")
"""


def fixture() -> None:
    bench.WORK.mkdir(exist_ok=True)
    times, rss = [], []
    with bench.Launcher() as launcher:
        for _ in range(11):
            elapsed, code, _, stderr, peak = launcher.validate("fixtures/corpus.manifest", NullTracer())
            if code != 0:
                sys.exit(f"fuse validate exited {code}: {stderr}")
            times.append(elapsed)
            rss.append(peak)
    print(f"fuse validate fixtures/: median {statistics.median(times):.3f} s"
          f" (min {min(times):.3f}, max {max(times):.3f}) over 11 processes,"
          f" max RSS {max(rss):.1f} MB")


def load(pairs: int, seed: int) -> None:
    out = f"bench/.work/ref-{pairs}-s{seed}"
    subprocess.run([sys.executable, "bench/oracle.py", "--seed", str(seed), "--pairs", str(pairs),
                    "--out", out], cwd=ROOT, check=True)
    size = sum(p.stat().st_size for p in (ROOT / out).iterdir() if p.suffix in (".tb", ".pa", ".al"))
    print(f"{pairs} sentence pairs, {size / 2**20:.1f} MB of .tb/.pa/.al files")
    subprocess.run([sys.executable, "-c", LOAD, f"{out}/corpus.manifest"], cwd=ROOT,
                   env=child_env(), check=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("fixture")
    p = sub.add_parser("load")
    p.add_argument("--pairs", type=int, default=20000)
    p.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench.os.chdir(ROOT)
    if args.what == "fixture":
        fixture()
    else:
        load(args.pairs, args.seed)


if __name__ == "__main__":
    main()
