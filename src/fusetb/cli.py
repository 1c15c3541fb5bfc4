"""Command-line front end: fuse <subcommand> <manifest> [args].

Subcommands: validate, query, stats, suggest, export. Exit status is 0 on
success (validate: no ERROR diagnostics), 1 on validation/query errors,
2 on I/O failure. Diagnostics go to stderr; stdout carries only data.
The FUSE_TAGS environment variable may name a tag-registry file
(BINDTAGS/ALIGNTAGS lines) overriding the manifest's registry.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .corpus import _read, compute_stats, load_corpus, parse_tag_registry, serialize_manifest
from .formats import Diagnostic, ParseError, serialize_alignments, serialize_predarg, serialize_trees
from .model import ResolutionError

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_IO = 2


def _exit_code(diags: list[Diagnostic]) -> int:
    if any(d.code == "E-IO" for d in diags):
        return EXIT_IO
    if any(d.is_error for d in diags):
        return EXIT_ERRORS
    return EXIT_OK


def _print_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(d.render(), file=sys.stderr)


def _load(manifest_path: str):
    """Shared load step; returns (corpus, exit_code). Diagnostics are printed."""
    registry = None
    tags_path = os.environ.get("FUSE_TAGS")
    if tags_path:
        diags: list[Diagnostic] = []
        text = _read(tags_path, diags)
        try:
            registry = None if text is None else parse_tag_registry(text, tags_path)
        except ParseError as exc:
            diags.append(exc.diagnostic)
        if diags:
            _print_diags(diags)
            return None, _exit_code(diags)
    corpus, diags = load_corpus(manifest_path, registry)
    _print_diags(diags)
    return corpus, _exit_code(diags)


def cmd_validate(corpus, args) -> int:
    return EXIT_OK


def _print_rows(columns, rows, as_json: bool) -> None:
    if as_json:
        import json
        for row in rows:
            print(json.dumps(row, ensure_ascii=False))
        return
    print("\t".join(columns))
    for row in rows:
        print("\t".join(row[c] for c in columns))


def cmd_query(corpus, args) -> int:
    from .query import COLUMNS, QueryError, parse_query, run_query
    try:
        query = parse_query(args.query)
        rows = run_query(corpus, query)
    except QueryError as exc:
        message = str(exc).removeprefix(f"{exc.code}: ")
        _print_diags([Diagnostic.error(exc.code, args.manifest, message)])
        return EXIT_ERRORS
    _print_rows(COLUMNS[query.command], rows, args.json)
    return EXIT_OK


# TSV metric prefix of each counts-by-key stats field; the unaligned
# counts by language are written by cmd_stats itself
_STATS_PREFIXES = {
    "by_class": "class:",
    "binding_tags": "bindtag:",
    "pred_tags": "atag:pred:",
    "arg_tags": "atag:arg:",
}


def _print_stats_rows(scope: str, stats) -> None:
    """One row per int field and per key of a prefixed dict field, in declaration order."""
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name in _STATS_PREFIXES:
            for key, count in value.items():
                print(f"{scope}\t{_STATS_PREFIXES[f.name]}{key}\t{count}")
        elif isinstance(value, int):
            print(f"{scope}\t{f.name}\t{value}")


def cmd_stats(corpus, args) -> int:
    stats = compute_stats(corpus)
    if args.json:
        import json
        print(json.dumps(dataclasses.asdict(stats), ensure_ascii=False, indent=2))
        return EXIT_OK
    print("scope\tmetric\tvalue")
    for lang, s in stats.languages.items():
        _print_stats_rows(f"lang:{lang}", s)
    for s in stats.pair_sets:
        scope = f"pair:{s.left_lang}-{s.right_lang}"
        _print_stats_rows(scope, s)
        for lang in dict.fromkeys((s.left_lang, s.right_lang)):
            print(f"{scope}\tunaligned_preds:{lang}\t{s.unaligned_predicates[lang]}")
            print(f"{scope}\tunaligned_args:{lang}\t{s.unaligned_arguments[lang]}")
    return EXIT_OK


def cmd_suggest(corpus, args) -> int:
    from .suggest import suggest_roles
    used = [r for r in (args.used.split(",") if args.used else []) if r]
    try:
        suggestions = suggest_roles(corpus, args.lang, args.group, used)
    except ResolutionError as exc:  # an unknown --lang
        _print_diags([Diagnostic.error("E-Q-KEY", args.manifest, str(exc))])
        return EXIT_ERRORS
    if args.json:
        import json
        for s in suggestions:
            print(json.dumps(dataclasses.asdict(s), ensure_ascii=False))
    else:
        for s in suggestions:
            print(f"{s.role}\t{s.frequency}\t{s.share:.4f}")
    return EXIT_OK


def cmd_export(corpus, args) -> int:
    manifest = corpus.manifest
    out_dir = Path(args.out)
    # every output file is named after one input file: two inputs with one name would overwrite
    base = Path(args.manifest).parent
    sources = {Path(args.manifest).name: Path(args.manifest)}
    paths = [p for e in manifest.languages for p in (e.trees_path, e.predarg_path)]
    for path in paths + [e.path for e in manifest.align_sets]:
        name, source = Path(path).name, base / path
        first = sources.setdefault(name, source)
        if first != source:
            message = f"cannot export: {first} and {source} would both be written as {name}"
            _print_diags([Diagnostic.error("E-IO", str(out_dir / name), message)])
            return EXIT_IO
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry, pair_set in zip(manifest.align_sets, corpus.pair_sets):
            text = serialize_alignments(pair_set.pairs)
            (out_dir / Path(entry.path).name).write_text(text, encoding="utf-8")
        for entry in manifest.languages:
            annotations = corpus.treebanks[entry.code]
            trees_text = serialize_trees(ann.tree for ann in annotations)
            (out_dir / Path(entry.trees_path).name).write_text(trees_text, encoding="utf-8")
            pa_text = serialize_predarg({ann.sentence_id: ann for ann in annotations})
            (out_dir / Path(entry.predarg_path).name).write_text(pa_text, encoding="utf-8")
        exported = dataclasses.replace(
            manifest,
            languages=tuple(
                dataclasses.replace(
                    e, trees_path=Path(e.trees_path).name, predarg_path=Path(e.predarg_path).name
                )
                for e in manifest.languages
            ),
            align_sets=tuple(
                dataclasses.replace(e, path=Path(e.path).name) for e in manifest.align_sets
            ),
        )
        (out_dir / Path(args.manifest).name).write_text(
            serialize_manifest(exported), encoding="utf-8"
        )
    except OSError as exc:
        _print_diags([Diagnostic.error("E-IO", str(out_dir), f"cannot write: {exc}")])
        return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuse",
        description="Validate, query and export parallel treebanks with "
        "predicate-argument alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a corpus and report diagnostics")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("query", help="run a corpus query")
    p.add_argument("manifest")
    p.add_argument("query")
    p.add_argument("--json", action="store_true", help="one JSON object per row")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("suggest", help="rank role names for a predicate group")
    p.add_argument("manifest")
    p.add_argument("--lang", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--used", default="", help="comma-separated roles already assigned")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("export", help="write the corpus back in canonical form")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    corpus, code = _load(args.manifest)
    return code if corpus is None else args.func(corpus, args)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:  # the reader closed stdout, as `fuse stats | head -1` does
        # point stdout at devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _print_diags([Diagnostic.error("E-IO", "<stdout>", f"cannot write: {exc}")])
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    run()
