"""Shows that the benchmark's checks catch wrong answers.

Plants one wrong row in the expected result of one query of the mix, and
apart from it one wrong byte in the expected ``en.tb`` of the export that
ends each cycle, runs the query-mix workload against those expectations and
requires that exactly the ops touching the planted fault are counted as
failed, while the same run against the true expectations fails none.
Exits 0 when all of that holds.

    python3 bench/selftest.py [--seed 1]
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from layers import NullTracer  # noqa: E402
from oracle import digest, query_rows  # noqa: E402

SECONDS = 2.0


def plant_row(seed: int) -> tuple[dict, str]:
    [(rel, plan)] = bench.prepare("query-mix", seed)
    record = json.loads((bench.ROOT / rel / "record.json").read_text(encoding="utf-8"))
    op = next(op for op in plan["rounds"][0] if op["kind"] == "query" and op["rows"])
    rows = query_rows(record, op["text"])
    rows[0] = dict(rows[0], **{key: value + "x" for key, value in list(rows[0].items())[-1:]})
    tampered = copy.deepcopy(plan)
    tampered["rounds"][0][plan["rounds"][0].index(op)]["digest"] = digest(rows)
    return tampered, op["text"]


def plant_byte(seed: int) -> dict:
    [(rel, plan)] = bench.prepare("query-mix", seed)
    data = bytearray((bench.ROOT / rel / "en.tb").read_bytes())
    data[len(data) // 2] ^= 1
    tampered = copy.deepcopy(plan)
    tampered["files"]["en.tb"] = hashlib.sha256(bytes(data)).hexdigest()
    return tampered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    bench.os.chdir(bench.ROOT)
    null = lambda n: NullTracer()  # noqa: E731
    ok = True

    row_plan, text = plant_row(seed)
    byte_plan = plant_byte(seed)
    for label, plan in (("true", None), ("one wrong row", row_plan), ("one wrong byte", byte_plan)):
        run = bench.run_query_mix(seed, SECONDS, null, plan)
        cycle = len(row_plan["rounds"])
        rounds = len(run.round_ends)
        if plan is row_plan:  # the tampered query is in the first round of each cycle
            want, where = (rounds + cycle - 1) // cycle, text
        elif plan is byte_plan:  # the last round of each cycle ends with an export
            want, where = rounds // cycle, "en.tb"
        else:
            want, where = 0, ""
        hit = run.failed == want and all(where in f for f in run.failures)
        ok &= hit and not run.problems
        print(f"query-mix, {label} expectations: attempted={run.attempted} failed={run.failed}"
              f" (expected {want}{f', every op touching {where!r}' if where else ''})"
              f" -> {'ok' if hit else 'MISSED'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
