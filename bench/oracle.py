"""Expected outputs computed from the generator's record, apart from the program.

Given ``record.json`` (see gen.py) this module derives, by plain scans over
the record's fact tables and the documented semantics in README.md, what
the program must answer: the rows of every query in the benchmark's mix,
``compute_stats``, ``suggest_roles``, the warnings ``fuse validate``
prints, and the bytes ``fuse export`` writes. It never imports ``fusetb``.

Results are compared through ``digest``: a SHA-256 of canonical JSON, so
the measuring process holds one short string per distinct query instead
of the expected rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path

from gen import LANGS, MANIFEST_NAME, generate, near_duplicate

PLAN_NAME = "plan.json"
QUERY_VARIANTS = 3


def digest(obj) -> str:
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _filters(query: str):
    command, *items = query.split()
    out = []
    for item in items:
        key, _, value = item.partition("=")
        negated = key.endswith("!")
        out.append((key.rstrip("!"), negated, value))
    return command, out


def _keep(attrs: dict, filters) -> bool:
    for key, negated, value in filters:
        raw = attrs[key]
        if isinstance(raw, (list, tuple)):
            hit = value in raw
        elif isinstance(raw, bool):
            hit = raw
        else:
            hit = raw == value
        if hit == negated:
            return False
    return True


def _tags(tags) -> str:
    return ",".join(sorted(tags)) if tags else "-"


def query_rows(record: dict, query: str) -> list[dict]:
    """Rows of one query string, in the order and column form README documents."""
    command, filters = _filters(query)
    rows = []
    if command == "preds":
        for a in record["alignments"]:
            if a["kind"] != "pred":
                continue
            attrs = {
                "class": a["left_class"], "aligned-class": a["right_class"],
                "tag": a["left_tags"], "aligned-tag": a["right_tags"],
                "lemma": a["left_lemma"], "group": a["left_group"], "atag": a["atag"],
                "voice": ("pv" in a["left_tags"]) != ("pv" in a["right_tags"]),
            }
            if _keep(attrs, filters):
                rows.append({
                    "left_sent": a["left_sent"], "right_sent": a["right_sent"],
                    "left_pred": a["left"], "left_lemma": a["left_lemma"],
                    "left_class": a["left_class"], "left_tags": _tags(a["left_tags"]),
                    "right_pred": a["right"], "right_lemma": a["right_lemma"],
                    "right_class": a["right_class"], "right_tags": _tags(a["right_tags"]),
                    "atag": a["atag"] or "-",
                })
    elif command == "aligns":
        for a in record["alignments"]:
            if _keep({"kind": a["kind"], "atag": a["atag"]}, filters):
                rows.append({
                    "kind": a["kind"], "left_sent": a["left_sent"], "right_sent": a["right_sent"],
                    "left": a["left"], "left_label": a["left_label"],
                    "right": a["right"], "right_label": a["right_label"], "atag": a["atag"] or "-",
                })
    elif command == "unaligned":
        for lang, sid, ref, kind, label in record["unaligned"]:
            if _keep({"kind": kind, "lang": lang}, filters):
                rows.append({"lang": lang, "sent": sid, "ref": ref, "kind": kind, "label": label})
    elif command == "realizations":
        for lang, sid, pid, lemma, cls, group, role, text in record["realizations"]:
            if _keep({"lang": lang, "group": group, "role": role}, filters):
                rows.append({"lang": lang, "sent": sid, "pred": pid, "lemma": lemma,
                             "class": cls, "role": role, "realization": text})
    elif command == "frames":
        for lang, lemma, cls, group, tags, frame, count in record["frames"]:
            if _keep({"lang": lang, "lemma": lemma, "group": group}, filters):
                rows.append({"lang": lang, "lemma": lemma, "class": cls, "group": group,
                             "tags": tags, "frame": frame, "count": str(count)})
    else:
        raise ValueError(f"unknown command {command!r}")
    return rows


def stats(record: dict) -> dict:
    """compute_stats as dataclasses.asdict would render it."""
    languages = {}
    for lang, c in record["languages"].items():
        languages[lang] = {key: c[key] for key in
                           ("sentences", "tokens", "predicates", "arguments", "by_class", "binding_tags")}
    pred_tags, arg_tags = {}, {}
    n_pred = n_arg = 0
    paired = set()
    for a in record["alignments"]:
        paired.update((a["left_sent"], a["right_sent"]))
        if a["kind"] == "pred":
            n_pred += 1
        else:
            n_arg += 1
        if a["atag"]:
            counts = pred_tags if a["kind"] == "pred" else arg_tags
            counts[a["atag"]] = counts.get(a["atag"], 0) + 1
    unaligned = {"pred": {lang: 0 for lang in LANGS}, "arg": {lang: 0 for lang in LANGS}}
    for lang, sid, _, kind, _ in record["unaligned"]:
        if f"{lang}:{sid}" in paired:
            unaligned[kind][lang] += 1
    pair_set = {
        "left_lang": "en", "right_lang": "de",
        "pairs": len({(a["left_sent"], a["right_sent"]) for a in record["alignments"]}),
        "pred_alignments": n_pred, "arg_alignments": n_arg,
        "pred_tags": dict(sorted(pred_tags.items())), "arg_tags": dict(sorted(arg_tags.items())),
        "unaligned_predicates": unaligned["pred"], "unaligned_arguments": unaligned["arg"],
    }
    return {"languages": languages, "pair_sets": [pair_set]}


def suggestions(record: dict, lang: str, group: str, used=()) -> list[dict]:
    counts = record["role_counts"][lang].get(group, {})
    total = sum(counts.values())
    out = [{"role": role, "frequency": n, "share": n / total}
           for role, n in counts.items() if role not in used]
    out.sort(key=lambda s: (-s["frequency"], s["role"]))
    return out


def warnings(record: dict, corpus_label: str) -> list[str]:
    """The stderr lines of ``fuse validate`` on a corpus whose manifest sits in corpus_label."""
    lines = []
    for lang, groups in record["role_counts"].items():
        file = f"{corpus_label}/{lang}.pa"
        for group in sorted(groups):
            roles = sorted(groups[group])
            for i, a in enumerate(roles):
                for b in roles[i + 1 :]:
                    if near_duplicate(a, b):
                        message = f"group {group}: roles {a} and {b} look like near-duplicates"
                        lines.append((file, message))
    return [f"WARNING\tW-ROLE-NEAR-DUP\t{file}\t{message}" for file, message in sorted(lines)]


def query_mix(record: dict) -> list[list[dict]]:
    """The query-mix workload's rounds: 7 ops each, cycled in this order.

    Every op is {"kind": "query"|"stats"|"suggest", ...}. Parameters are the
    record's most used groups, roles and lemmas by rank, so every seed runs
    the same kinds of queries over the same share of the corpus.
    """
    rc = record["role_counts"]

    def ranked(counts: dict) -> list:
        return sorted(counts, key=lambda k: (-counts[k], k))

    def top_role(lang, group):
        return ranked(rc[lang][group])[0]

    en = ranked({g: sum(r.values()) for g, r in rc["en"].items()})
    de = ranked({g: sum(r.values()) for g, r in rc["de"].items()})
    picks = [("en", en[0]), ("de", de[0]), ("en", en[1])]
    lemma_counts = {}
    for lang, lemma, *_, count in record["frames"]:
        if lang == "de":
            lemma_counts[lemma] = lemma_counts.get(lemma, 0) + count
    variants = [
        ["preds class=v aligned-class=n", "preds voice=diverge",
         f"preds group={en[1]} atag!=incomp"],
        ["aligns kind=arg atag=incomp", "aligns kind=pred", "aligns atag!=abs-opp"],
        ["unaligned kind=pred", "unaligned kind=arg lang=de", "unaligned kind=pred lang!=en"],
        [f"realizations group={g} role={top_role(lang, g)} lang={lang}" for lang, g in picks],
        [f"frames group={en[0]}", f"frames lemma={ranked(lemma_counts)[0]} lang=de",
         f"frames group={de[1]} lang!=en"],
    ]
    rounds = []
    for v in range(QUERY_VARIANTS):
        ops = [{"kind": "query", "text": slot[v]} for slot in variants]
        ops.append({"kind": "stats"})
        lang, group = picks[v]
        used = [top_role(lang, group)] if v == 2 else []
        ops.append({"kind": "suggest", "lang": lang, "group": group, "used": used})
        rounds.append(ops)
    return rounds


def expected(record: dict, op: dict):
    if op["kind"] == "query":
        return query_rows(record, op["text"])
    if op["kind"] == "stats":
        return stats(record)
    return suggestions(record, op["lang"], op["group"], op["used"])


def size(result) -> int:
    """Row count of an op's result (stats count as one row per scope)."""
    if isinstance(result, dict):
        return len(result["languages"]) + len(result["pair_sets"])
    return len(result)


def write_plan(corpus_dir: Path, record: dict, corpus_label: str) -> dict:
    """Everything the measuring process checks against, small enough to hold."""
    rounds = query_mix(record)
    for ops in rounds:
        for op in ops:
            result = expected(record, op)
            op["rows"] = size(result)
            op["digest"] = digest(result)
    files = {name: hashlib.sha256((corpus_dir / name).read_bytes()).hexdigest()
             for name in record["files"]}
    counts = {lang: {k: c[k] for k in ("sentences", "tokens", "predicates", "arguments")}
              for lang, c in record["languages"].items()}
    counts["alignments"] = len(record["alignments"])
    plan = {
        "rounds": rounds,
        "files": files,
        "manifest": MANIFEST_NAME,
        "warnings": warnings(record, corpus_label),
        "counts": counts,
        "lines": record["lines"],
        "bytes": record["bytes"],
    }
    tmp = corpus_dir / (PLAN_NAME + ".tmp")
    tmp.write_text(json.dumps(plan, ensure_ascii=False), encoding="utf-8")
    return plan


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Generate a seeded corpus with its record.json and plan.json."
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, help="corpus directory to write")
    args = parser.parse_args(argv)
    out = Path(args.out)
    record = generate(args.seed, args.pairs, out)
    (out / "record.json").write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
    write_plan(out, record, args.out)
    os.replace(out / (PLAN_NAME + ".tmp"), out / PLAN_NAME)


if __name__ == "__main__":
    main()
