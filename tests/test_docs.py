"""README.md and the code agree: the same diagnostic codes, and command lines that run."""

from __future__ import annotations

import re
import shlex

import pytest

from fusetb.cli import main

from .conftest import REPO_ROOT

# a quoted code literal in the source; a backquoted code in README
_SRC_CODE_RE = re.compile(r"""["']([EW]-[A-Z][A-Z-]*[A-Z])["']""")
_README_CODE_RE = re.compile(r"`([EW]-[A-Z][A-Z-]*[A-Z])`")
_README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def test_diagnostic_codes_match_readme():
    src = set()
    for path in sorted((REPO_ROOT / "src" / "fusetb").glob("*.py")):
        src.update(_SRC_CODE_RE.findall(path.read_text(encoding="utf-8")))
    readme = set(_README_CODE_RE.findall(_README))
    assert "E-IO" in src and "W-ROLE-NEAR-DUP" in src
    assert src - readme == set(), "codes used in src/ but not documented in README.md"
    assert readme - src == set(), "codes documented in README.md but not used in src/"


def _command_line_examples() -> list[str]:
    section = _README.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("fuse ")]


def test_readme_has_one_example_per_subcommand():
    assert sorted({shlex.split(line)[1] for line in _command_line_examples()}) == [
        "export", "query", "stats", "suggest", "validate",
    ]


@pytest.mark.parametrize("line", _command_line_examples())
def test_readme_command_line_example_runs(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path / "exported")
    monkeypatch.chdir(REPO_ROOT)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if argv[0] in ("query", "stats", "suggest"):
        assert out != ""
    if argv[0] == "export":
        assert (tmp_path / "exported" / "corpus.manifest").is_file()


def test_readme_library_example_runs():
    import os
    import subprocess
    import sys

    section = _README.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    check = "assert diagnostics == [] and rows and suggestions\n"
    subprocess.run(
        [sys.executable, "-c", example + check],
        cwd=REPO_ROOT,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )

