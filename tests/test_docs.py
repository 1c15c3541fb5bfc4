"""README.md and the code agree: the same diagnostic codes, and command lines that run."""

from __future__ import annotations

import builtins
import importlib
import inspect
import pkgutil
import re
import shlex

import pytest

import fusetb
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
    # each code sits in the README part of the layer that raises it
    validate_py = (REPO_ROOT / "src" / "fusetb" / "validate.py").read_text(encoding="utf-8")
    validation = set(_SRC_CODE_RE.findall(validate_py))
    section = _README.split("\n## Diagnostic codes\n", 1)[1].split("\n## ", 1)[0]
    parts = re.split(r"\n(?=Validation reports |Query errors )", section)
    assert [part.split()[0] for part in parts] == ["Parsing", "Validation", "Query"]
    placed = [(code, layer) for layer, part in zip(("parsing", "validation", "query"), parts)
              for code in set(_README_CODE_RE.findall(part))]
    documented = dict(placed)
    assert len(documented) == len(placed), "a code documented in two layers"
    assert documented == {
        code: "validation" if code in validation else "query" if code.startswith("E-Q-") else "parsing"
        for code in src
    }


def test_rule_owner_table_names_only_parsing_codes():
    library = _README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in library.splitlines() if line.startswith("|") and not line.startswith("|---")]
    header, *body = next(rows[i:] for i, row in enumerate(rows) if "code in a file" in row)
    column = header.index("code in a file")
    named = set(_README_CODE_RE.findall(" ".join(row[column] for row in body)))
    diagnostics = _README.split("\n## Diagnostic codes\n", 1)[1]
    parsing = set(_README_CODE_RE.findall(diagnostics.split("\nValidation reports ", 1)[0]))
    assert {"E-TREE-CYCLE", "E-NT-EMPTY", "E-CASE"} <= named
    assert named - parsing == set(), "a rule-owner code a file gets is not in the Parsing table"


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



# a backquoted lowercase identifier, or a dotted name such as `PairSet.aligned`
_README_NAME_RE = re.compile(r"`([a-z_][a-z0-9_]*|[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
_MISSING = object()


def _attribute(value, name):
    """value.name, or the dataclass field of that name when it has no class attribute."""
    fields = getattr(value, "__dataclass_fields__", {})
    return getattr(value, name, fields.get(name, _MISSING))


def _documented_names() -> dict[str, object]:
    """fusetb, its attributes, its modules' attributes, their classes' attributes and the builtins."""
    names = {**vars(builtins), "fusetb": fusetb}
    modules = [importlib.import_module(f"fusetb.{m.name}") for m in pkgutil.iter_modules(fusetb.__path__)]
    for module in (fusetb, *modules):
        names.update({name: getattr(module, name) for name in dir(module)})
    for cls in [value for value in names.values() if inspect.isclass(value)]:
        if cls.__module__.startswith("fusetb"):
            attrs = [*dir(cls), *getattr(cls, "__dataclass_fields__", {})]
            names.update({name: _attribute(cls, name) for name in attrs})
    return names


def _unresolved_names(text: str) -> list[str]:
    """Each backquoted name in text, dunders aside, that resolves to nothing in _documented_names."""
    names = _documented_names()
    missing = []
    for name in _README_NAME_RE.findall(text):
        if name.startswith("__") and name.endswith("__"):
            continue
        head, *attrs = name.split(".")
        value = names.get(head, _MISSING)
        for attr in attrs:
            value = _attribute(value, attr)
        if value is _MISSING:
            missing.append(name)
    return missing


def test_readme_library_names_resolve():
    section = _README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert _unresolved_names(section) == []
    removed = ("`children_of`, `SentenceTree.children_of`, `node_refs`, `sort_elements`, `bindings_for`"
               " and `fusetb.model.is_ancestor`")
    assert _unresolved_names(removed) == ["children_of", "SentenceTree.children_of", "node_refs", "sort_elements",
                                          "bindings_for"]
