"""Seeded fuzzing of the read/write contract on mutated fixture copies.

Each case copies the fixture corpus plus a FUSE_TAGS registry, applies
one seeded mutation to one of the files and runs `fuse validate`,
`fuse stats` (TSV and JSON), `fuse suggest`, one `fuse query` of a
command the case picks and `fuse export`. No exception may escape, the
exit code is 0, 1 or 2, a failing subcommand writes nothing to stdout,
every diagnostic code is one README documents, every diagnostic names a
file of the corpus or the export with a line inside that file, and an
export that succeeds must validate and reload equal to the corpus it was
written from.
Raise CASES, LATER_CASES or FIELD_CASES for a longer seed sweep.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

import fusetb.cli
from fusetb.cli import main
from fusetb.corpus import load_corpus

from .conftest import FIXTURE_FILES, REPO_ROOT
from .test_docs import _README_CODE_RE

CASES = 100
# Cases numbered from CASES on draw from LATER_MUTATIONS, kinds added after
# the first seeds were fixed, so every case below CASES keeps its mutation;
# the FIELD_CASES after those draw from FIELD_MUTATIONS, a third tier.
LATER_CASES = 30
FIELD_CASES = 12
README_CODES = set(_README_CODE_RE.findall((REPO_ROOT / "README.md").read_text(encoding="utf-8")))
TAGS_FILE = "tags.registry"
TARGETS = FIXTURE_FILES + (TAGS_FILE,)
# one query per command, each with rows on the unmutated fixture
QUERIES = {
    "preds": "preds class=v",
    "aligns": "aligns kind=arg atag!=incomp",
    "unaligned": "unaligned kind=arg lang=en",
    "realizations": "realizations group=GIVE role=GIVER",
    "frames": "frames group=GIVE lang!=de",
}


def _lines_mutation(op):
    def mutate(rng: random.Random, data: bytes) -> bytes:
        lines = data.split(b"\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "blank":
            lines.insert(i, b"")
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)

    return mutate


def _insert(piece: bytes):
    def mutate(rng: random.Random, data: bytes) -> bytes:
        at = rng.randrange(len(data) + 1)
        return data[:at] + piece + data[at:]

    return mutate


def _flip(rng: random.Random, data: bytes) -> bytes:
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1 :]


def _tab_space(rng: random.Random, data: bytes) -> bytes:
    old, new = rng.choice(((b"\t", b" "), (b" ", b"\t")))
    places = [i for i, byte in enumerate(data) if byte == old[0]]
    if not places:
        return data
    at = rng.choice(places)
    return data[:at] + new + data[at + 1 :]


MUTATIONS = {
    "flip": _flip,
    "truncate": lambda rng, data: data[: rng.randrange(len(data))],
    "delete-line": _lines_mutation("delete"),
    "duplicate-line": _lines_mutation("duplicate"),
    "swap-lines": _lines_mutation("swap"),
    "nul": _insert(b"\0"),
    "cr": _insert(b"\r"),
    "bom": lambda rng, data: b"\xef\xbb\xbf" + data,
    "xff": _insert(b"\xff"),
    "tab-space": _tab_space,
}


def _non_ascii_digit(rng: random.Random, data: bytes) -> bytes:
    places = [i for i, byte in enumerate(data) if 0x30 <= byte <= 0x39]
    if not places:
        return data
    at = rng.choice(places)
    return data[:at] + rng.choice(("\u00b2", "\u0663")).encode("utf-8") + data[at + 1 :]


def _header_suffix(rng: random.Random, data: bytes) -> bytes:
    """Lengthen the keyword of one #BOS, #EOS, #SENT or #PAIR line, as in #SENTENCE."""
    lines = data.split(b"\n")
    places = [i for i, line in enumerate(lines) if line[:1] == b"#" and line[1:2].isalpha()]
    if not places:
        return data
    i = rng.choice(places)
    keyword, sep, rest = lines[i].partition(b" ")
    lines[i] = keyword + rng.choice((b"S", b"X", b"ENCE")) + sep + rest
    return b"\n".join(lines)


def _inner_whitespace(rng: random.Random, data: bytes) -> bytes:
    """Put another whitespace character, such as a CR or a no-break space, in place of a space or tab."""
    places = [i for i, byte in enumerate(data) if byte in b" \t"]
    if not places:
        return data
    at = rng.choice(places)
    other = rng.choice(("\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2003", "\u3000"))
    return data[:at] + other.encode("utf-8") + data[at + 1 :]


LATER_MUTATIONS = {
    "blank-line": _lines_mutation("blank"),
    "header-suffix": _header_suffix,
    "non-ascii-digit": _non_ascii_digit,
    "inner-whitespace": _inner_whitespace,
}


# (pattern of the values one field rule owns, the value broken): a lemma, group or role
# lowercased, a class set to x, a tag swapped for an unregistered one, a space in a .tb label
_FIELD_RULES = (
    (rb"(?:lemma|group|role)=(\S+)", bytes.lower),
    (rb"\.([A-Z]\S*)", bytes.lower),  # the role of an .al argument reference
    (rb"class=(\S+)", lambda value: b"x"),
    (rb"(?:tags?=|TAGS )([a-z-]+)", lambda value: b"zzz"),
    (rb"\t([^\t\n]+)(?=\t)", lambda value: value[:1] + b" " + value[1:]),
)


def _field_rule(rng: random.Random, data: bytes) -> bytes:
    """Break one field rule the model owns, at a place of the file where it applies."""
    places = [(m.span(1), broken) for pattern, broken in _FIELD_RULES for m in re.finditer(pattern, data)]
    if not places:
        return data
    (start, end), broken = rng.choice(places)
    return data[:start] + broken(data[start:end]) + data[end:]


FIELD_MUTATIONS = {"field-rule": _field_rule}


@pytest.mark.parametrize("seed", range(CASES + LATER_CASES + FIELD_CASES))
def test_mutated_corpus_keeps_the_contract(seed, corpus_copy, tmp_path, monkeypatch, capsys):
    rng = random.Random(seed)
    (corpus_copy / TAGS_FILE).write_bytes(b"BINDTAGS imp,pv\nALIGNTAGS abs-opp,incomp\n")
    tiers = (MUTATIONS, LATER_MUTATIONS, FIELD_MUTATIONS)
    mutations = tiers[(seed >= CASES) + (seed >= CASES + LATER_CASES)]
    target, kind = rng.choice(TARGETS), rng.choice(sorted(mutations))
    path = corpus_copy / target
    path.write_bytes(mutations[kind](rng, path.read_bytes()))
    monkeypatch.setenv("FUSE_TAGS", str(corpus_copy / TAGS_FILE))
    loaded = []

    def load_and_keep(manifest_path, registry=None):
        loaded.append(load_corpus(manifest_path, registry))
        return loaded[-1]

    monkeypatch.setattr(fusetb.cli, "load_corpus", load_and_keep)
    manifest = str(corpus_copy / "corpus.manifest")
    out_dir = tmp_path / "exported"
    runs = (
        ["validate", manifest],
        ["stats", manifest],
        ["stats", manifest, "--json"],
        ["suggest", manifest, "--lang", "en", "--group", "GIVE"],
        ["query", manifest, QUERIES[rng.choice(sorted(QUERIES))]],
        ["export", manifest, "--out", str(out_dir)],
    )
    for argv in runs:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (target, kind, argv)
        if code or argv[0] in ("validate", "export"):
            assert out == "", (target, kind, argv)
        for line in filter(None, err.split("\n")):  # LF only: a message may hold other line breaks
            _, diag_code, location, _ = line.split("\t", 3)
            assert diag_code in README_CODES, (target, kind, line)
            assert location.startswith((str(corpus_copy), str(out_dir))), (target, kind, line)
            file, _, lineno = location.rpartition(":")
            if lineno.isdigit():
                assert 1 <= int(lineno) <= Path(file).read_bytes().count(b"\n") + 1, (target, kind, line)
    if code == 0:
        monkeypatch.delenv("FUSE_TAGS")
        exported, diags = load_corpus(out_dir / "corpus.manifest")
        assert exported == loaded[-1][0], (target, kind, [d.render() for d in diags])
