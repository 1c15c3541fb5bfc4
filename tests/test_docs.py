"""README.md and the code name the same diagnostic codes."""

from __future__ import annotations

import re

from .conftest import REPO_ROOT

# a quoted code literal in the source; a backquoted code in README
_SRC_CODE_RE = re.compile(r"""["']([EW]-[A-Z][A-Z-]*[A-Z])["']""")
_README_CODE_RE = re.compile(r"`([EW]-[A-Z][A-Z-]*[A-Z])`")


def test_diagnostic_codes_match_readme():
    src = set()
    for path in sorted((REPO_ROOT / "src" / "fusetb").glob("*.py")):
        src.update(_SRC_CODE_RE.findall(path.read_text(encoding="utf-8")))
    readme = set(_README_CODE_RE.findall((REPO_ROOT / "README.md").read_text(encoding="utf-8")))
    assert "E-IO" in src and "W-ROLE-NEAR-DUP" in src
    assert src - readme == set(), "codes used in src/ but not documented in README.md"
    assert readme - src == set(), "codes documented in README.md but not used in src/"
