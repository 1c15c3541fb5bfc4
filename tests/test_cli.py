from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fusetb.cli
from fusetb.cli import main
from fusetb.corpus import load_corpus, parse_manifest, parse_tag_registry
from fusetb.formats import parse_predarg
from fusetb.model import TagRegistry

from .conftest import FIXTURES, FIXTURE_FILES, REPO_ROOT, mutate_file
from .generators import random_corpus, write_corpus_files

MANIFEST = str(FIXTURES / "corpus.manifest")


def test_validate_fixture_exits_zero(capsys):
    assert main(["validate", MANIFEST]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""


def test_validate_error_exits_one(corpus_copy, capsys):
    mutate_file(corpus_copy, "en.pa", " excl=n517", "")
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = [l for l in err.splitlines() if l.startswith("ERROR")]
    assert len(lines) == 1 and "E-RECURSION" in lines[0]


def test_validate_warning_exits_zero(corpus_copy, capsys):
    mutate_file(
        corpus_copy,
        "en.pa",
        "ARG p1 role=ENT_HARMONISED nodes=n501",
        "ARG p1 role=ENT_HARMONISED nodes=n501\nARG p1 role=ENT_HARMONIZED nodes=t1",
    )
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 0
    _, err = capsys.readouterr()
    assert "W-ROLE-NEAR-DUP" in err


SUBCOMMAND_ARGS = {
    "validate": [],
    "query": ["preds"],
    "stats": [],
    "suggest": ["--lang", "en", "--group", "GIVE"],
    "export": ["--out", "exported"],
}


@pytest.mark.parametrize("command", SUBCOMMAND_ARGS)
def test_missing_manifest_exits_two(tmp_path, capsys, command):
    manifest = tmp_path / "nope.manifest"
    assert main([command, str(manifest), *SUBCOMMAND_ARGS[command]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"ERROR\tE-IO\t{manifest}\tcannot read file: ")


@pytest.mark.parametrize("name", ["en.pa", "tags.registry"])
def test_undecodable_file_is_one_io_error(corpus_copy, monkeypatch, capsys, name):
    path = corpus_copy / name
    if name == "tags.registry":
        path.write_text("ALIGNTAGS abs-opp,incomp\n", encoding="utf-8")
        monkeypatch.setenv("FUSE_TAGS", str(path))
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and "Traceback" not in err
    assert len(lines) == 1 and lines[0].startswith(f"ERROR\tE-IO\t{path}\tcannot read file: ")


def test_nul_byte_in_a_path_is_one_io_error(corpus_copy, capsys):
    mutate_file(corpus_copy, "corpus.manifest", "PREDARG de.pa", "PREDARG de\0.pa")
    path = corpus_copy / "de\0.pa"
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and "Traceback" not in err
    assert len(lines) == 1 and lines[0].startswith(f"ERROR\tE-IO\t{path}\tcannot read file: ")


def test_loaded_corpus_keeps_its_manifest_with_the_effective_registry(
    corpus_copy, monkeypatch, capsys
):
    registry = corpus_copy / "tags.registry"
    registry.write_text("ALIGNTAGS abs-opp,incomp,near-syn\n", encoding="utf-8")
    monkeypatch.setenv("FUSE_TAGS", str(registry))
    loaded = []

    def load_and_keep(path, registry=None):
        loaded.append(load_corpus(path, registry))
        return loaded[-1]

    monkeypatch.setattr(fusetb.cli, "load_corpus", load_and_keep)
    path = corpus_copy / "corpus.manifest"
    assert main(["validate", str(path)]) == 0
    parsed = parse_manifest(path.read_text(encoding="utf-8"), str(path))
    tags = parse_tag_registry(registry.read_text(encoding="utf-8"))
    [(corpus, _)] = loaded
    assert corpus.manifest == dataclasses.replace(parsed, registry=tags)
    assert corpus.manifest.registry == corpus.tag_registry != parsed.registry
    # the manifest takes no part in equality
    assert dataclasses.replace(corpus, manifest=None) == corpus


def test_query_tsv_output(capsys):
    assert main(["query", MANIFEST, "aligns kind=pred atag=abs-opp"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("kind\tleft_sent")
    assert len(lines) == 2
    assert "INAPPLICABLE" in lines[1] and "ANWENDBAR" in lines[1]


def test_query_empty_result_is_header_only_exit_zero(capsys):
    assert main(["query", MANIFEST, "preds lemma=NOSUCH"]) == 0
    out, _ = capsys.readouterr()
    assert len(out.splitlines()) == 1


def test_query_json_output(capsys):
    assert main(["query", MANIFEST, "--json", "preds voice=diverge"]) == 0
    out, _ = capsys.readouterr()
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1
    assert rows[0]["left_lemma"] == "SAFEGUARD"
    assert rows[0]["right_tags"] == "pv"


def test_malformed_query_exits_one(capsys):
    assert main(["query", MANIFEST, "preds class"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "E-Q-SYNTAX" in err
    assert main(["query", MANIFEST, "preds bogus=x"]) == 1
    _, err = capsys.readouterr()
    assert "E-Q-KEY" in err


def test_stats_tsv(capsys):
    assert main(["stats", MANIFEST]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "scope\tmetric\tvalue"
    assert "lang:de\tbindtag:pv\t2" in lines
    assert "pair:en-de\tpred_alignments\t4" in lines
    assert "pair:en-de\tatag:arg:incomp\t1" in lines


def test_stats_same_language_pair_set_prints_each_language_once(corpus_copy, capsys):
    (corpus_copy / "en-en.al").write_text("#PAIR en:s1 en:s2\n", encoding="utf-8")
    with (corpus_copy / "corpus.manifest").open("a", encoding="utf-8") as f:
        f.write("ALIGN en en en-en.al\n")
    manifest = str(corpus_copy / "corpus.manifest")
    assert main(["stats", manifest, "--json"]) == 0
    [pair_set] = json.loads(capsys.readouterr()[0])["pair_sets"][1:]
    assert main(["stats", manifest]) == 0
    lines = [l for l in capsys.readouterr()[0].splitlines() if "unaligned" in l and "en-en" in l]
    assert lines == [
        f"pair:en-en\tunaligned_preds:en\t{pair_set['unaligned_predicates']['en']}",
        f"pair:en-en\tunaligned_args:en\t{pair_set['unaligned_arguments']['en']}",
    ]


def test_stats_json(capsys):
    assert main(["stats", MANIFEST, "--json"]) == 0
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert payload["languages"]["en"]["predicates"] == 6
    assert payload["pair_sets"][0]["arg_alignments"] == 8


def test_suggest_output(capsys):
    assert main(["suggest", MANIFEST, "--lang", "en", "--group", "HARMONISE"]) == 0
    out, _ = capsys.readouterr()
    assert out == "ENT_HARMONISED\t1\t1.0000\n"


def test_suggest_used_and_unknown_lang(capsys):
    assert main(
        ["suggest", MANIFEST, "--lang", "en", "--group", "GIVE", "--used", "GIVER"]
    ) == 0
    out, _ = capsys.readouterr()
    assert [line.split("\t")[0] for line in out.splitlines()] == ["ENT_GIVEN", "RECIPIENT"]
    assert main(["suggest", MANIFEST, "--lang", "fr", "--group", "GIVE"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "fr" in err


def test_export_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "exported"
    assert main(["export", MANIFEST, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    for name in FIXTURE_FILES:
        assert (out_dir / name).read_bytes() == (FIXTURES / name).read_bytes()
    assert main(["validate", str(out_dir / "corpus.manifest")]) == 0


def test_export_writes_the_loaded_registry(corpus_copy, tmp_path, monkeypatch, capsys):
    mutate_file(corpus_copy, "en.pa", "group=HARMONISE nodes=t7", "group=HARMONISE nodes=t7 tags=foo")
    registry = corpus_copy / "tags.registry"
    registry.write_text("BINDTAGS pv,imp,foo\n", encoding="utf-8")
    monkeypatch.setenv("FUSE_TAGS", str(registry))
    out_dir = tmp_path / "exported"
    assert main(["export", str(corpus_copy / "corpus.manifest"), "--out", str(out_dir)]) == 0
    monkeypatch.delenv("FUSE_TAGS")
    assert "BINDTAGS foo,imp,pv\n" in (out_dir / "corpus.manifest").read_text(encoding="utf-8")
    assert main(["validate", str(out_dir / "corpus.manifest")]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""


def test_export_refuses_files_sharing_a_name(corpus_copy, tmp_path, capsys):
    for lang in ("en", "de"):
        (corpus_copy / lang).mkdir()
        (corpus_copy / f"{lang}.tb").rename(corpus_copy / lang / "t.tb")
        mutate_file(corpus_copy, "corpus.manifest", f"TREES {lang}.tb", f"TREES {lang}/t.tb")
    out_dir = tmp_path / "exported"
    assert main(["export", str(corpus_copy / "corpus.manifest"), "--out", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    assert lines[0].startswith(f"ERROR\tE-IO\t{out_dir / 't.tb'}\t")
    for lang in ("en", "de"):
        assert str(corpus_copy / lang / "t.tb") in lines[0]
    assert not out_dir.exists()


def _reordered_pa(text: str) -> str:
    """A .pa text with each block's PRED groups in reverse order and each group's ARG lines reversed."""
    blocks = []
    for block in text.split("#SENT ")[1:]:
        header, *lines = block.splitlines()
        groups: list[list[str]] = []
        for line in lines:
            if line.startswith("PRED "):
                groups.append([line])
            else:
                groups[-1].append(line)
        reordered = [line for pred, *args in groups[::-1] for line in (pred, *args[::-1])]
        blocks.append("".join(f"{line}\n" for line in (f"#SENT {header}", *reordered)))
    return "".join(blocks)


def test_a_reordered_pa_file_loads_equal_and_exports_canonical(corpus_copy, tmp_path, capsys):
    for lang in ("en", "de"):
        path = corpus_copy / f"{lang}.pa"
        text = path.read_text(encoding="utf-8")
        reordered = _reordered_pa(text)
        assert reordered != text and sorted(reordered.splitlines()) == sorted(text.splitlines())
        path.write_text(reordered, encoding="utf-8")
        # parse_predarg keeps each block in file order
        for block in reordered.split("#SENT ")[1:]:
            sid, *lines = block.splitlines()
            pa = parse_predarg(f"#SENT {block}")[sid]
            fields = [line.split() for line in lines]
            assert [p.pred_id for p in pa.predicates] == [f[1] for f in fields if f[0] == "PRED"]
            assert [(a.pred_id, f"role={a.role}") for a in pa.arguments] == [
                (f[1], f[2]) for f in fields if f[0] == "ARG"]
            assert [str(b.target) for b in pa.bindings] == [
                f[1] if f[0] == "PRED" else f"{f[1]}.{f[2][5:]}" for f in fields]
    assert load_corpus(str(corpus_copy / "corpus.manifest"))[0] == load_corpus(MANIFEST)[0]
    out_dir = tmp_path / "exported"
    assert main(["export", str(corpus_copy / "corpus.manifest"), "--out", str(out_dir)]) == 0
    assert capsys.readouterr() == ("", "")
    for name in FIXTURE_FILES:
        assert (out_dir / name).read_bytes() == (FIXTURES / name).read_bytes()


@pytest.mark.parametrize("change", ["delete", "spoil"])
def test_export_writes_the_loaded_manifest(corpus_copy, tmp_path, monkeypatch, capsys, change):
    # the manifest vanishes or turns invalid after the load; export writes what was loaded
    manifest = corpus_copy / "corpus.manifest"

    def load_then_change(path, registry=None):
        loaded = load_corpus(path, registry)
        if change == "delete":
            manifest.unlink()
        else:
            manifest.write_text("BOGUS\n", encoding="utf-8")
        return loaded

    monkeypatch.setattr(fusetb.cli, "load_corpus", load_then_change)
    out_dir = tmp_path / "exported"
    assert main(["export", str(manifest), "--out", str(out_dir)]) == 0
    assert capsys.readouterr() == ("", "")
    for name in FIXTURE_FILES:
        assert (out_dir / name).read_bytes() == (FIXTURES / name).read_bytes()


def test_validate_rejects_crlf_tree_file(corpus_copy, capsys):
    path = corpus_copy / "en.tb"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"ERROR\tE-SYNTAX\t{path}:1\tcarriage-return line ending (files must be LF)"
    ]


def test_non_ascii_digit_parent_is_a_syntax_error(corpus_copy, capsys):
    mutate_file(corpus_copy, "en.tb", "The\tDT\tNK\t501", "The\tDT\tNK\t\u00b2")
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"ERROR\tE-SYNTAX\t{corpus_copy / 'en.tb'}:2\tmalformed parent reference '\u00b2'"
    ]


def test_crlf_tag_registry_is_accepted(corpus_copy, monkeypatch, capsys):
    mutate_file(corpus_copy, "en-de.al", "tag=incomp", "tag=near-syn")
    registry = corpus_copy / "tags.registry"
    registry.write_bytes(b"ALIGNTAGS abs-opp,incomp,near-syn\r\n")
    monkeypatch.setenv("FUSE_TAGS", str(registry))
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 0
    out, err = capsys.readouterr()
    assert out == "" and err == ""


def test_fuse_tags_env_narrows_registry(corpus_copy, monkeypatch, capsys):
    registry = corpus_copy / "tags.registry"
    registry.write_text("ALIGNTAGS incomp\n", encoding="utf-8")
    monkeypatch.setenv("FUSE_TAGS", str(registry))
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 1
    _, err = capsys.readouterr()
    assert "E-TAG-UNKNOWN" in err and "abs-opp" in err


def test_fuse_tags_env_extends_registry(corpus_copy, monkeypatch, capsys):
    mutate_file(corpus_copy, "en-de.al", "tag=incomp", "tag=near-syn")
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 1
    capsys.readouterr()
    registry = corpus_copy / "tags.registry"
    registry.write_text("ALIGNTAGS abs-opp,incomp,near-syn\n", encoding="utf-8")
    monkeypatch.setenv("FUSE_TAGS", str(registry))
    assert main(["validate", str(corpus_copy / "corpus.manifest")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["query", MANIFEST, "bogus x=1"],
            f"ERROR\tE-Q-SYNTAX\t{MANIFEST}\tunknown command 'bogus' (at position 0)",
        ),
        (
            ["query", MANIFEST, "preds class"],
            f"ERROR\tE-Q-SYNTAX\t{MANIFEST}\tmalformed filter 'class' (at position 6)",
        ),
        (
            ["query", MANIFEST, "unaligned lang=en"],
            f"ERROR\tE-Q-KEY\t{MANIFEST}\tunaligned requires kind=pred or kind=arg",
        ),
        (
            ["suggest", MANIFEST, "--lang", "xx", "--group", "GIVE"],
            f"ERROR\tE-Q-KEY\t{MANIFEST}\tunknown language 'xx'",
        ),
    ],
)
def test_query_and_suggest_errors_are_diagnostic_lines(argv, line, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", line + "\n")


def _export_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_export_is_lossless_and_canonical(tmp_path, capsys):
    """The export validates like its source, reloads equal to it, and exports to the same bytes."""
    rng = random.Random(64)
    sources = [(MANIFEST, load_corpus(MANIFEST)[0])]
    wider = TagRegistry(frozenset({"pv", "imp", "caus"}), frozenset({"abs-opp", "incomp", "lit"}))
    for i in range(24):
        corpus = random_corpus(rng, max_sents=4, registry=wider if i % 2 else TagRegistry())
        directory = tmp_path / f"src{i}"
        directory.mkdir()
        sources.append((write_corpus_files(corpus, directory), corpus))
    for i, (manifest, corpus) in enumerate(sources):
        first, second = tmp_path / f"first{i}", tmp_path / f"second{i}"
        assert main(["export", manifest, "--out", str(first)]) == 0
        exported = str(first / Path(manifest).name)
        assert main(["validate", exported]) == main(["validate", manifest])
        assert load_corpus(exported)[0] == corpus
        assert main(["export", exported, "--out", str(second)]) == 0
        assert _export_files(second) == _export_files(first)
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", MANIFEST, "--json"],
        ["query", MANIFEST, "preds"],
        ["suggest", MANIFEST, "--lang", "en", "--group", "HARMONISE"],
    ],
    ids=["stats", "query", "suggest"],
)
def test_closed_stdout_is_an_io_diagnostic(argv):
    # stdout is a pipe whose reader has gone, as in `fuse stats ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "fusetb.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [
        "ERROR\tE-IO\t<stdout>\tcannot write: [Errno 32] Broken pipe"
    ]


def _run_python(code: str) -> str:
    """Stdout of code run in a fresh interpreter from the repository root."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    return done.stdout


def test_validate_imports_neither_query_nor_suggest_nor_json():
    out = _run_python(
        "import sys, fusetb.cli\n"
        "code = fusetb.cli.main(['validate', 'fixtures/corpus.manifest'])\n"
        "print(code, [m for m in ('fusetb.query', 'fusetb.suggest', 'json') if m in sys.modules])\n"
    )
    assert out == "0 []\n"


PACKAGE_NAMES = (
    "Alignment", "Argument", "Binding", "CorpusStats", "Diagnostic", "ElemRef", "EmptyYieldError",
    "FieldError", "Manifest", "MonolingualAnnotation", "NodeRef", "PairSet", "ParallelCorpus", "ParseError",
    "PredArg", "Predicate", "Query", "QueryError", "ResolutionError", "RoleSuggestion",
    "SentencePairAlignment", "SentenceTree", "TagRegistry", "compute_stats", "corpus", "formats",
    "load_corpus", "model", "node_yield", "parse_alignments", "parse_manifest", "parse_predarg",
    "parse_query", "parse_trees", "query", "resolve_yield", "run_query", "serialize_alignments",
    "serialize_predarg", "serialize_trees", "suggest", "suggest_roles", "validate",
    "validate_corpus", "validate_monolingual", "validate_pair",
)


def test_every_package_name_resolves_and_star_imports():
    out = _run_python(
        "import fusetb\n"
        f"names = {PACKAGE_NAMES!r}\n"
        "missing = [n for n in names if not hasattr(fusetb, n)]\n"
        "star = {}\n"
        "exec('from fusetb import *', star)\n"
        "print(missing, sorted(set(names) ^ set(star) - {'__builtins__'}), hasattr(fusetb, 'nosuch'))\n"
    )
    assert out == "[] [] False\n"

