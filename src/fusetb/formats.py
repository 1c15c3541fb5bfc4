"""Parsers and canonical serializers for the ``.tb``, ``.pa`` and ``.al`` annotation files.

README.md ("Corpus layout") is the contract for the three formats and their framing.
Parsing is fail-fast: the first ERROR aborts the file with a ParseError carrying a
Diagnostic (file + line). Serializers write the order they are given; a loaded corpus holds the
canonical order, so a canonical file exports as read, and serialize -> parse is structural identity.
"""

from __future__ import annotations

import re
import sys
import unicodedata
from dataclasses import dataclass
from functools import lru_cache

from .model import (
    EMPTY_FROZENSET,
    Alignment,
    Argument,
    Binding,
    ElemRef,
    FieldError,
    NodeRef,
    Predicate,
    SentencePairAlignment,
    SentenceTree,
    TagRegistry,
    _check_edge,
    _check_form,
    _check_label,
    _check_nt_id,
    _check_parent,
    _check_pred_id,
    _check_sentence_id,
    _check_tag,
    _declared_once,
    _owner_declared,
    _pair_once,
    _sentence_once,
    split_sentence_key,
)

__all__ = [
    "Diagnostic",
    "ParseError",
    "PredArg",
    "TagRegistry",
    "parse_alignments",
    "parse_predarg",
    "parse_trees",
    "serialize_alignments",
    "serialize_predarg",
    "serialize_trees",
]

ERROR = "ERROR"
WARNING = "WARNING"


@dataclass(frozen=True)
class Diagnostic:
    """One machine-readable finding: severity, stable code, location, message."""

    severity: str
    code: str
    file: str
    line: int | None
    message: str

    @classmethod
    def error(cls, code: str, file: str, message: str, line: int | None = None) -> "Diagnostic":
        """The one constructor of ERROR diagnostics; line stays None where none applies."""
        return cls(ERROR, code, file, line, message)

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    @property
    def sort_key(self):
        return (self.file, self.line if self.line is not None else 0, self.code, self.message)

    def render(self) -> str:
        loc = self.file if self.line is None else f"{self.file}:{self.line}"
        return f"{self.severity}\t{self.code}\t{loc}\t{self.message}"


class ParseError(Exception):
    """Fail-fast parse abort; carries the Diagnostic for the first error."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


def _err(code: str, file: str, line: int | None, message: str):
    raise ParseError(Diagnostic.error(code, file, message, line))


def _field_fault(exc: FieldError, file: str, line: int):
    """The one mapping of a model field rule's FieldError to a ParseError at the line of the field."""
    _err(exc.code, file, line, str(exc))


# Every character str.split() splits on but space, tab and LF: none may be inside a line.
_OTHER_SPACE = "".join(map(chr, (*range(0x0B, 0x0E), *range(0x1C, 0x20), 0x85, 0xA0, 0x1680,
                                 *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)))
_OTHER_SPACE_RE = re.compile(f"[{_OTHER_SPACE}]")


def _lines(text: str, filename: str, strict: bool = True):
    """(line_number, line) for each line of an input file that is not a %% comment.

    Strict (the annotation formats) NFC-normalizes and rejects a byte-order mark and CR endings.
    A line holding other whitespace than space and tab (README, "Corpus layout") is E-SYNTAX, or
    E-MANIFEST-SYNTAX when not strict; lines are searched for it only in a text that holds some.
    """
    if strict:
        text = unicodedata.normalize("NFC", text)
        if text.startswith("\ufeff"):
            _err("E-SYNTAX", filename, 1, "byte-order mark at start of file (files must not have one)")
    raw = text.split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    spaced = any(c in text for c in _OTHER_SPACE)
    for lineno, line in enumerate(raw, 1):
        if spaced and strict and line.endswith("\r"):
            _err("E-SYNTAX", filename, lineno, "carriage-return line ending (files must be LF)")
        other = spaced and not line.startswith("%%") and _OTHER_SPACE_RE.search(line.removesuffix("\r"))
        if other:
            _err("E-SYNTAX" if strict else "E-MANIFEST-SYNTAX", filename, lineno,
                 f"whitespace U+{ord(other.group()):04X} in a line (only spaces and tabs separate fields)")
        if not line.startswith("%%"):
            yield lineno, line


@lru_cache(maxsize=4096)
def _shared_number(text: str) -> int | None:
    """One shared int per parent or nonterminal id written in ASCII digits, else None."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


# One shared string per POS, category or edge label (small inventories), once the model's rule passes it.
_shared_label = lru_cache(maxsize=4096)(_check_label)
_shared_edge = lru_cache(maxsize=4096)(_check_edge)


@lru_cache(maxsize=4096)
def _shared_parent(text: str) -> int:
    """One shared int per parent reference, once it is written in ASCII digits and the model's rule passes it."""
    if _shared_number(text) is None:
        raise FieldError("E-SYNTAX", f"malformed parent reference {text!r}")
    return _check_parent(_shared_number(text))


def _fail_after(lines, diagnostic: Diagnostic):
    """A cut-short block's data lines, then the framing fault that cut it short."""
    yield from lines
    raise ParseError(diagnostic)


def _blocks(text: str, filename: str, header: str, n_fields: int, closer: str | None = None):
    """(header fields, header line, end line, data lines) of each block of an annotation file.

    The one reader of the block framing README gives the three formats; data lines are
    ``(line number, line)`` pairs. A fault inside a block is raised by its data lines after
    the lines before it, so parsers report faults in file order and finish only whole
    blocks, whose data lines are a list.
    """
    keywords = (header, closer) if closer else (header,)
    blank_inside = f"blank line inside {header} block"
    fields = None  # the open block's header fields
    start = blank = 0  # the open block's header line and its first blank line
    lines: list[tuple[int, str]] = []
    try:
        for row in _lines(text, filename):
            lineno, line = row
            if not line.strip():
                if fields is not None and not blank:
                    blank = lineno
                continue
            parts = line.split() if line.startswith(keywords) else ()
            keyword = parts[0] if parts and parts[0] in keywords else None
            if keyword == header and fields is not None and not closer:
                yield fields, start, lines[-1][0] if lines else start, lines
                fields = None
            if fields is None:
                if keyword != header:
                    _err("E-SYNTAX", filename, lineno, f"{keyword or 'data line'} outside {header} block")
                if len(parts) != n_fields + 1:
                    _err("E-SYNTAX", filename, lineno, f"malformed {header} line")
                fields, start, blank, lines = parts[1:], lineno, 0, []
                continue
            if blank:
                _err("E-SYNTAX", filename, blank, blank_inside)
            if keyword is None:
                lines.append(row)
                continue
            if keyword == header:
                _err("E-SYNTAX", filename, lineno, f"{header} before {closer} {' '.join(fields)}")
            if parts[1:] != fields:
                _err("E-SYNTAX", filename, lineno, f"{closer} does not close {header} {' '.join(fields)}")
            yield fields, start, lineno, lines
            fields = None
        if fields is not None and closer:
            if blank:
                _err("E-SYNTAX", filename, blank, blank_inside)
            _err("E-SYNTAX", filename, start, f"{header} {' '.join(fields)} not closed by {closer}")
    except ParseError as exc:  # a fault in an open block, a CR line ending from _lines too
        if fields is None:
            raise
        yield fields, start, exc.diagnostic.line, _fail_after(lines, exc.diagnostic)
        return
    if fields is not None:
        yield fields, start, lines[-1][0] if lines else start, lines


# ---------------------------------------------------------------------------
# .tb — constituent trees


def parse_trees(text: str, filename: str = "<string>") -> list[SentenceTree]:
    """Parse a .tb document into SentenceTrees, in file order; a tree rule's fault is at its node's line."""
    trees: dict[str, SentenceTree] = {}  # by sentence id, in file order
    shared_forms: dict[str, str] = {}  # one string per distinct form in this file
    for (sid,), start, end, block in _blocks(text, filename, "#BOS", 1, "#EOS"):
        lineno = start  # the line of the field a FieldError names
        try:
            _sentence_once(trees, _check_sentence_id(sid))
            # one entry per node in column order (terminals, then nonterminals): node k is block[k]
            forms, nt_ids, labels, edges, parents = [], [], [], [], []
            for lineno, line in block:
                fields = line.split("\t")
                if len(fields) != 4:
                    _err("E-SYNTAX", filename, lineno, f"expected 4 tab-separated fields, got {len(fields)}")
                name, label, edge, parent_text = fields
                parents.append(_shared_parent(parent_text))
                labels.append(_shared_label(label))
                edges.append(None if edge == "--" else _shared_edge(edge))
                if name.startswith("#"):
                    node_id = _shared_number(name[1:])
                    if node_id is None:
                        _err("E-SYNTAX", filename, lineno, f"malformed nonterminal id {name!r}")
                    nt_ids.append(_check_nt_id(node_id, nt_ids))
                elif nt_ids:
                    _err("E-SYNTAX", filename, lineno, "terminal line after nonterminal lines")
                else:
                    form = shared_forms.get(name)
                    if form is None:
                        form = shared_forms[name] = _check_form(name)
                    forms.append(form)
            lineno = end  # a tree rule's FieldError without a node: no terminals
            trees[sid] = SentenceTree(sid, *map(tuple, (forms, labels, edges, parents, nt_ids)))
        except FieldError as exc:
            _field_fault(exc, filename, lineno if exc.node is None else block[exc.node][0])
    return list(trees.values())


def serialize_trees(trees) -> str:
    """Canonical .tb text: one block per tree, in the given order; an absent edge is ``--``.

    Each block is joined into one string before the next is built, so the
    text is held as one string per sentence rather than one per line.
    """
    blocks: list[str] = []
    for tree in trees:
        sid = tree.sentence_id
        names = tree.tokens + tuple(f"#{node_id}" for node_id in tree.nt_ids)
        rows = "".join([
            f"{name}\t{label}\t{'--' if edge is None else edge}\t{parent}\n"
            for name, label, edge, parent in zip(names, tree.labels, tree.edges, tree.parents)
        ])
        blocks.append(f"#BOS {sid}\n{rows}#EOS {sid}\n")
    return "".join(blocks)


# ---------------------------------------------------------------------------
# .pa — predicate-argument structures with bindings


@dataclass(frozen=True)
class PredArg:
    """One sentence's parsed predicate-argument block, in file order."""

    predicates: tuple[Predicate, ...] = ()
    arguments: tuple[Argument, ...] = ()
    bindings: tuple[Binding, ...] = ()


def _split_kv(fields: list[str], allowed: tuple[str, ...], filename: str, lineno: int) -> dict:
    kv: dict[str, str] = {}
    for item in fields:
        key, sep, value = item.partition("=")
        if not sep or key not in allowed:
            _err("E-SYNTAX", filename, lineno, f"unexpected field {item!r}")
        if key in kv:
            _err("E-SYNTAX", filename, lineno, f"duplicate key {key}=")
        if not value:
            _err("E-SYNTAX", filename, lineno, f"empty value for {key}=")
        kv[key] = value
    return kv


@lru_cache(maxsize=4096)
def _shared_node_set(value: str) -> frozenset[NodeRef]:
    """One shared frozenset per distinct nodes=/excl= value; FieldError names a malformed ref."""
    return frozenset(map(NodeRef.parse, value.split(",")))


@lru_cache(maxsize=4096)
def _shared_tag_set(value: str) -> frozenset[str]:
    """One shared frozenset per distinct tags= value; the caller checks its tags."""
    return frozenset(value.split(","))


def parse_predarg(
    text: str, registry: TagRegistry | None = None, filename: str = "<string>"
) -> dict[str, PredArg]:
    """Parse a .pa document into sentence-id -> PredArg, in block order and each block in line order.

    Tags are validated against the registry; node references are checked
    syntactically only (resolution against the tree is the validator's job).
    """
    registry = registry or TagRegistry()
    result: dict[str, PredArg] = {}
    for (sid,), start, _, block in _blocks(text, filename, "#SENT", 1):
        lineno = start  # the line of the field a FieldError names
        try:
            _sentence_once(result, _check_sentence_id(sid))
            preds, args, bindings = {}, {}, []  # preds and args by the model's declared-once key
            for lineno, line in block:
                fields = line.split()
                if len(fields) < 2 or fields[0] not in ("PRED", "ARG"):
                    _err("E-SYNTAX", filename, lineno, f"expected PRED or ARG line, got {line!r}")
                pid = sys.intern(fields[1])
                _check_pred_id(pid)
                # lemmas, classes, groups and roles come from small inventories: intern them
                if fields[0] == "PRED":
                    keys = ("lemma", "class", "group", "nodes", "excl", "tags")
                    kv = _split_kv(fields[2:], keys, filename, lineno)
                    for required in ("lemma", "class", "group"):
                        if required not in kv:
                            _err("E-SYNTAX", filename, lineno, f"PRED line missing {required}=")
                    key = _declared_once(preds, pid)  # before the Predicate checks its fields
                    preds[key] = Predicate(pid, sys.intern(kv["lemma"]), sys.intern(kv["class"]),
                                           sys.intern(kv["group"]))
                    target = ElemRef.of(pid)
                else:
                    kv = _split_kv(fields[2:], ("role", "nodes", "excl", "tags"), filename, lineno)
                    if "role" not in kv:
                        _err("E-SYNTAX", filename, lineno, "ARG line missing role=")
                    _owner_declared(preds, pid)
                    arg = Argument(pid, sys.intern(kv["role"]))
                    args[_declared_once(args, pid, arg.role)] = arg
                    target = ElemRef.of(pid, arg.role)
                if "excl" in kv and "nodes" not in kv:
                    _err("E-SYNTAX", filename, lineno, "excl= requires nodes=")
                if "nodes" in kv:
                    included = _shared_node_set(kv["nodes"])
                    excluded = _shared_node_set(kv["excl"]) if "excl" in kv else EMPTY_FROZENSET
                    tags = EMPTY_FROZENSET
                    if "tags" in kv:  # each tag in file order: its shape, then this call's registry
                        for tag in kv["tags"].split(","):
                            if _check_tag(tag) not in registry.binding_tags:
                                _err("E-TAG-UNKNOWN", filename, lineno, f"unknown binding tag {tag!r}")
                        tags = _shared_tag_set(kv["tags"])
                    bindings.append(Binding(target, included, excluded, tags))
                elif "tags" in kv:
                    _err("E-SYNTAX", filename, lineno, "tags= requires nodes=")
        except FieldError as exc:
            _field_fault(exc, filename, lineno)
        result[sid] = PredArg(tuple(preds.values()), tuple(args.values()), tuple(bindings))
    return result


def _refs_text(refs: frozenset[NodeRef]) -> str:
    if len(refs) == 1:
        [ref] = refs
        return f"{ref.kind}{ref.num}"
    return ",".join(f"{r.kind}{r.num}" for r in sorted(refs, key=lambda r: r.sort_key))


def _binding_suffix(binding: Binding | None) -> str:
    if binding is None:
        return ""
    text = f" nodes={_refs_text(binding.included)}"
    if binding.excluded:
        text += f" excl={_refs_text(binding.excluded)}"
    if binding.tags:
        text += f" tags={','.join(sorted(binding.tags))}"
    return text


def serialize_predarg(annotations) -> str:
    """.pa text from an ordered mapping of sentence id -> PredArg or MonolingualAnnotation.

    Blocks, and the predicates of a block, each followed by its arguments, are written in the
    order given. Each block is joined into one string before the next is built.
    """
    blocks: list[str] = []
    for sid, pa in annotations.items():
        out = [f"#SENT {sid}"]
        # keyed by (pred_id, role), which hashes in C, as MonolingualAnnotation does
        by_target = {(b.target.pred_id, b.target.role): b for b in pa.bindings}
        args_of: dict[str, list[str]] = {}
        for arg in pa.arguments:
            suffix = _binding_suffix(by_target.get((arg.pred_id, arg.role)))
            args_of.setdefault(arg.pred_id, []).append(f"ARG {arg.pred_id} role={arg.role}{suffix}")
        for pred in pa.predicates:
            suffix = _binding_suffix(by_target.get((pred.pred_id, None)))
            out.append(
                f"PRED {pred.pred_id} lemma={pred.lemma} class={pred.syn_class}"
                f" group={pred.group}{suffix}"
            )
            out += args_of.get(pred.pred_id, ())
        out.append("")
        blocks.append("\n".join(out))
    return "".join(blocks)


# ---------------------------------------------------------------------------
# .al — alignments


def parse_alignments(
    text: str, registry: TagRegistry | None = None, filename: str = "<string>"
) -> list[SentencePairAlignment]:
    """Parse an .al document; sentence keys keep the lang prefix (en:s1).

    Endpoint element refs are syntax-checked only; whether they resolve,
    and whether their shape matches the PALIGN/AALIGN kind, is validated
    against the corpus later.
    """
    registry = registry or TagRegistry()
    pairs: list[SentencePairAlignment] = []
    seen: set[tuple[str, str]] = set()
    for (left, right), start, _, block in _blocks(text, filename, "#PAIR", 2):
        lineno = start  # the line of the field a FieldError names
        try:
            split_sentence_key(left)
            split_sentence_key(right)
            seen.add(_pair_once(seen, left, right))
            alignments: list[Alignment] = []
            for lineno, line in block:
                fields = line.split()
                if len(fields) not in (3, 4) or fields[0] not in ("PALIGN", "AALIGN"):
                    _err("E-SYNTAX", filename, lineno, f"expected PALIGN or AALIGN line, got {line!r}")
                kind = "pred" if fields[0] == "PALIGN" else "arg"
                left_ref, right_ref = ElemRef.parse(fields[1]), ElemRef.parse(fields[2])
                tag = None
                if len(fields) == 4:
                    tag = _check_tag(_split_kv(fields[3:], ("tag",), filename, lineno)["tag"])
                    if tag not in registry.alignment_tags:
                        _err("E-TAG-UNKNOWN", filename, lineno, f"unknown alignment tag {tag!r}")
                alignments.append(Alignment(kind, left_ref, right_ref, tag))
        except FieldError as exc:
            _field_fault(exc, filename, lineno)
        pairs.append(SentencePairAlignment(left, right, tuple(alignments)))
    return pairs


def serialize_alignments(pairs) -> str:
    """Canonical .al text: pair blocks in given order, lines sorted by left ref."""
    out: list[str] = []
    for pair in pairs:
        out.append(f"#PAIR {pair.left_sentence} {pair.right_sentence}")
        for a in pair.alignments:
            keyword = "PALIGN" if a.kind == "pred" else "AALIGN"
            tag = f" tag={a.tag}" if a.tag is not None else ""
            out.append(f"{keyword} {a.left} {a.right}{tag}")
    return "".join(line + "\n" for line in out)
