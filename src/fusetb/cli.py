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
import json
import os
import sys
from pathlib import Path

from .corpus import (
    _read,
    compute_stats,
    load_corpus,
    parse_manifest,
    parse_tag_registry,
    serialize_manifest,
)
from .formats import (
    Diagnostic,
    ParseError,
    serialize_alignments,
    serialize_predarg,
    serialize_trees,
)
from .model import ResolutionError
from .query import COLUMNS, QueryError, parse_query, run_query
from .suggest import suggest_roles

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


def cmd_validate(args) -> int:
    _, code = _load(args.manifest)
    return code


def _print_rows(columns, rows, as_json: bool) -> None:
    if as_json:
        for row in rows:
            print(json.dumps(row, ensure_ascii=False))
        return
    print("\t".join(columns))
    for row in rows:
        print("\t".join(row[c] for c in columns))


def cmd_query(args) -> int:
    corpus, code = _load(args.manifest)
    if corpus is None:
        return code
    try:
        query = parse_query(args.query)
        rows = run_query(corpus, query)
    except QueryError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERRORS
    _print_rows(COLUMNS[query.command], rows, args.json)
    return EXIT_OK


def cmd_stats(args) -> int:
    corpus, code = _load(args.manifest)
    if corpus is None:
        return code
    stats = compute_stats(corpus)
    if args.json:
        payload = {
            "languages": {
                lang: dataclasses.asdict(s) for lang, s in stats.languages.items()
            },
            "pair_sets": [dataclasses.asdict(s) for s in stats.pair_sets],
        }
        print(json.dumps(payload, ensure_ascii=False, indent=2))
        return EXIT_OK
    print("scope\tmetric\tvalue")
    for lang in sorted(stats.languages):
        s = stats.languages[lang]
        scope = f"lang:{lang}"
        for metric, value in (
            ("sentences", s.sentences),
            ("tokens", s.tokens),
            ("predicates", s.predicates),
            ("arguments", s.arguments),
        ):
            print(f"{scope}\t{metric}\t{value}")
        for cls in ("v", "n", "a"):
            print(f"{scope}\tclass:{cls}\t{s.by_class.get(cls, 0)}")
        for tag in sorted(s.binding_tags):
            print(f"{scope}\tbindtag:{tag}\t{s.binding_tags[tag]}")
    for s in stats.pair_sets:
        scope = f"pair:{s.left_lang}-{s.right_lang}"
        print(f"{scope}\tpairs\t{s.pairs}")
        print(f"{scope}\tpred_alignments\t{s.pred_alignments}")
        print(f"{scope}\targ_alignments\t{s.arg_alignments}")
        for tag in sorted(s.pred_tags):
            print(f"{scope}\tatag:pred:{tag}\t{s.pred_tags[tag]}")
        for tag in sorted(s.arg_tags):
            print(f"{scope}\tatag:arg:{tag}\t{s.arg_tags[tag]}")
        for lang in (s.left_lang, s.right_lang):
            print(f"{scope}\tunaligned_preds:{lang}\t{s.unaligned_predicates[lang]}")
            print(f"{scope}\tunaligned_args:{lang}\t{s.unaligned_arguments[lang]}")
    return EXIT_OK


def cmd_suggest(args) -> int:
    corpus, code = _load(args.manifest)
    if corpus is None:
        return code
    used = [r for r in (args.used.split(",") if args.used else []) if r]
    try:
        suggestions = suggest_roles(corpus, args.lang, args.group, used)
    except ResolutionError as exc:
        print(f"ERROR\t{exc}", file=sys.stderr)
        return EXIT_ERRORS
    if args.json:
        for s in suggestions:
            print(json.dumps(dataclasses.asdict(s), ensure_ascii=False))
    else:
        for s in suggestions:
            print(f"{s.role}\t{s.frequency}\t{s.share:.4f}")
    return EXIT_OK


def cmd_export(args) -> int:
    corpus, code = _load(args.manifest)
    if corpus is None:
        return code
    diags: list[Diagnostic] = []
    text = _read(args.manifest, diags)
    if text is None:
        _print_diags(diags)
        return EXIT_IO
    try:
        manifest = parse_manifest(text, args.manifest)
    except ParseError as exc:
        _print_diags([exc.diagnostic])
        return EXIT_ERRORS
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
            registry=corpus.tag_registry,
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
    return args.func(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
