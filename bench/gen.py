"""Seeded, linear-time generator of benchmark corpora and their ground truth.

Writes a two-language (en/de) corpus in canonical form -- ``en.tb``,
``en.pa``, ``de.tb``, ``de.pa``, ``en-de.al`` and ``corpus.manifest`` --
plus ``record.json``, the facts the generator knows from its own tree
representation: per-language counts, every alignment with the attributes
of its endpoints, the unaligned elements, every argument's rendered yield,
frame counts and role counts per group. It never imports ``fusetb``, so
the record is ground truth computed apart from the program.

``oracle.py`` runs it in a process of its own (see its ``main``).

What the generated corpora vary (the properties load and query cost
depend on): sentence length from 3 to 40 tokens and tree depth (flat
and unary-chain constituents); 0-4 predicates per sentence with 0-3
arguments each; multi-node and ``excl=`` (discontinuous) bindings;
``pv``/``imp`` binding tags; about 85% of sentence pairs aligned, with
some predicates and arguments left unaligned; ``abs-opp``/``incomp``
alignment tags; non-ASCII NFC word forms; a Zipf-skewed lemma/group/role
inventory with planted near-duplicate role pairs, so every load emits a
known set of W-ROLE-NEAR-DUP warnings and still succeeds.
"""

from __future__ import annotations

import random
import unicodedata
from pathlib import Path

LANGS = ("en", "de")
MANIFEST_NAME = "corpus.manifest"

FORMS = {
    "en": (
        "the a of to and in that is for it with as was on be by this are not "
        "Commission report Member States directive proposal measures citizens "
        "Parliament Council funding market rules protection framework policy "
        "naïve café façade résumé coöperation déjà-vu Zürich Ångström São "
        "laws racism questions conclusions safeguard harmonised discussed "
        "must should will can would could have has had been"
    ).split(),
    "de": (
        "die der das und in zu den nicht von mit sich des auf für ist im dem "
        "Kommission Bericht Mitgliedstaaten Richtlinie Vorschlag Maßnahmen "
        "Bürger Parlament Rat Finanzierung Markt Regeln Schutz Rahmen Politik "
        "über Öffentlichkeit Prüfung Straße Größe Gewährleistung Übersetzung "
        "müssen sollen werden können würde hätte wurde gewesen harmonisiert "
        "Gesetze Fragen Schlussfolgerungen bewahren erörtert Änderungsantrag"
    ).split(),
}
POS = ("NN", "NNS", "DT", "IN", "JJ", "VB", "VBZ", "VBN", "MD", "RB", "PRP", "NE", "ART", "APPR")
EDGES = ("SB", "OA", "DA", "HD", "NK", "MO", "AC", "OC", "MNR", "PD", "CJ", "CD")
CATS = ("S", "VP", "NP", "PP", "AP", "AVP", "CNP", "CS")

# Group inventories: (group, ((lemma, class), ...), roles). Role names are
# chosen so that no two roles of one group are near-duplicates (edit
# distance 1 or case-insensitively equal), except the planted pairs below.
ROLE_POOL = {
    "en": (
        "AGENT", "THEME", "PATIENT", "GOAL", "SOURCE", "LOCATION", "RECIPIENT",
        "BENEFICIARY", "INSTRUMENT", "TIME", "MANNER", "CAUSE", "RESULT",
        "EXPERIENCER", "STIMULUS", "TOPIC", "PURPOSE", "EXTENT", "ATTRIBUTE",
        "PATH", "ENT_GIVEN", "GIVER", "ENT_HARMONISED", "SAFEGUARDER",
    ),
    "de": (
        "AGENS", "THEMA", "PATIENS", "ZIEL", "QUELLE", "ORT", "EMPFÄNGER",
        "NUTZNIESSER", "WERKZEUG", "ZEITPUNKT", "ART_UND_WEISE", "GRUND",
        "ERGEBNIS", "ERFAHRENDER", "REIZ", "GEGENSTAND", "ZWECK", "UMFANG",
        "EIGENSCHAFT", "WEG", "GEGEBENES", "GEBER", "HARMONISIERTES", "BEWAHRER",
    ),
}
GROUP_LEMMAS = {
    "en": (
        ("GIVE", (("GIVE", "v"), ("GIFT", "n"))),
        ("HARMONISE", (("HARMONISE", "v"), ("HARMONISATION", "n"), ("HARMONISED", "a"))),
        ("APPLY", (("APPLY", "v"), ("APPLICATION", "n"), ("INAPPLICABLE", "a"))),
        ("SAFEGUARD", (("SAFEGUARD", "v"), ("SAFEGUARDING", "n"))),
        ("TRANSLATE", (("TRANSLATE", "v"), ("TRANSLATION", "n"))),
        ("DECIDE", (("DECIDE", "v"), ("DECISION", "n"), ("DECISIVE", "a"))),
        ("SUPPORT", (("SUPPORT", "v"), ("SUPPORTIVE", "a"))),
        ("PROTECT", (("PROTECT", "v"), ("PROTECTION", "n"), ("PROTECTIVE", "a"))),
        ("REPORT", (("REPORT", "v"),)),
        ("ADOPT", (("ADOPT", "v"), ("ADOPTION", "n"))),
        ("PROPOSE", (("PROPOSE", "v"), ("PROPOSAL", "n"))),
        ("FUND", (("FUND", "v"), ("FUNDING", "n"))),
        ("IMPLEMENT", (("IMPLEMENT", "v"), ("IMPLEMENTATION", "n"))),
        ("REVIEW", (("REVIEW", "v"),)),
        ("REQUIRE", (("REQUIRE", "v"), ("REQUIREMENT", "n"))),
        ("ENSURE", (("ENSURE", "v"),)),
        ("REDUCE", (("REDUCE", "v"), ("REDUCTION", "n"))),
        ("ACCEPT", (("ACCEPT", "v"), ("ACCEPTANCE", "n"), ("ACCEPTABLE", "a"))),
        ("DISCUSS", (("DISCUSS", "v"), ("DISCUSSION", "n"))),
        ("CONSIDER", (("CONSIDER", "v"), ("CONSIDERATION", "n"))),
    ),
    "de": (
        ("GEBEN", (("GEBEN", "v"), ("GABE", "n"))),
        ("HARMONISIEREN", (("HARMONISIEREN", "v"), ("HARMONISIERUNG", "n"))),
        ("ANWENDEN", (("ANWENDEN", "v"), ("ANWENDUNG", "n"), ("ANWENDBAR", "a"))),
        ("BEWAHREN", (("BEWAHREN", "v"), ("BEWAHRUNG", "n"))),
        ("ÜBERSETZEN", (("ÜBERSETZEN", "v"), ("ÜBERSETZUNG", "n"), ("DOLMETSCHEN", "v"))),
        ("ENTSCHEIDEN", (("ENTSCHEIDEN", "v"), ("ENTSCHEIDUNG", "n"))),
        ("UNTERSTÜTZEN", (("UNTERSTÜTZEN", "v"), ("UNTERSTÜTZUNG", "n"))),
        ("SCHÜTZEN", (("SCHÜTZEN", "v"), ("SCHUTZ", "n"), ("GESCHÜTZT", "a"))),
        ("BERICHTEN", (("BERICHTEN", "v"), ("BERICHT", "n"))),
        ("ANNEHMEN", (("ANNEHMEN", "v"), ("ANNAHME", "n"))),
        ("VORSCHLAGEN", (("VORSCHLAGEN", "v"), ("VORSCHLAG", "n"))),
        ("FINANZIEREN", (("FINANZIEREN", "v"), ("FINANZIERUNG", "n"))),
        ("UMSETZEN", (("UMSETZEN", "v"), ("UMSETZUNG", "n"))),
        ("PRÜFEN", (("PRÜFEN", "v"), ("PRÜFUNG", "n"))),
        ("VERLANGEN", (("VERLANGEN", "v"),)),
        ("GEWÄHRLEISTEN", (("GEWÄHRLEISTEN", "v"), ("GEWÄHRLEISTUNG", "n"))),
        ("VERRINGERN", (("VERRINGERN", "v"), ("VERRINGERUNG", "n"))),
        ("AKZEPTIEREN", (("AKZEPTIEREN", "v"), ("AKZEPTABEL", "a"))),
        ("ERÖRTERN", (("ERÖRTERN", "v"), ("ERÖRTERUNG", "n"))),
        ("BERÜCKSICHTIGEN", (("BERÜCKSICHTIGEN", "v"), ("BERÜCKSICHTIGUNG", "n"))),
    ),
}
# Planted typos: (group, role, near-duplicate spelling). The misspelt role
# is drawn rarely, like a real annotation slip.
PLANTED = {
    "en": (("GIVE", "RECIPIENT", "RECIPIENTS"), ("PROTECT", "BENEFICIARY", "BENEFICARY")),
    "de": (("GEBEN", "EMPFÄNGER", "EMPFANGER"), ("SCHÜTZEN", "NUTZNIESSER", "NUTZNIESER")),
}


def near_duplicate(a: str, b: str) -> bool:
    """Distinct names of length >= 4 that are case-insensitively equal or one edit apart."""
    if a == b or min(len(a), len(b)) < 4:
        return False
    if a.casefold() == b.casefold():
        return True
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1] <= 1


def build_inventory(lang: str):
    """Fixed (seed-independent) groups: name -> (lemmas, roles, role weights)."""
    rng = random.Random(f"inventory-{lang}")
    pool = ROLE_POOL[lang]
    planted = {group: (role, typo) for group, role, typo in PLANTED[lang]}
    groups = {}
    for group, lemmas in GROUP_LEMMAS[lang]:
        roles = rng.sample(pool, rng.randint(3, 5))
        weights = [1.0] * len(roles)
        if group in planted:
            role, typo = planted[group]
            if role not in roles:
                roles.append(role)
                weights.append(1.0)
            roles.append(typo)
            weights.append(0.25)
        groups[group] = (lemmas, tuple(roles), tuple(weights))
    for group, (_, roles, _) in groups.items():
        typos = {typo for g, _, typo in PLANTED[lang] if g == group}
        for i, a in enumerate(roles):
            for b in roles[i + 1 :]:
                if near_duplicate(a, b) and not typos & {a, b}:
                    raise ValueError(f"unplanted near-duplicate roles {a}/{b} in {lang} {group}")
    return groups


class Sentence:
    """One generated sentence: tree, yields and predicate-argument content."""

    __slots__ = ("sid", "tokens", "nts", "span", "children", "preds", "args")

    def __init__(self, sid):
        self.sid = sid
        self.tokens = []  # (form, pos, edge, parent)
        self.nts = []  # (id, cat, edge, parent)
        self.span = {}  # nonterminal id -> (lo, hi), token indices lo..hi-1
        self.children = {}  # nonterminal id -> [("t", k) | ("n", id)]
        self.preds = []  # (pid, lemma, cls, group, inc, exc, tags)
        self.args = []  # (pid, role, inc, exc)

    def node_yield(self, ref) -> set[int]:
        kind, num = ref
        if kind == "t":
            return {num}
        lo, hi = self.span[num]
        return set(range(lo, hi))

    def resolve(self, inc, exc) -> list[int]:
        covered = set()
        for ref in inc:
            covered |= self.node_yield(ref)
        for ref in exc:
            covered -= self.node_yield(ref)
        return sorted(covered)

    def render(self, covered) -> str:
        parts = []
        prev = None
        for index in covered:
            if prev is not None and index > prev + 1:
                parts.append("…")
            parts.append(self.tokens[index - 1][0])
            prev = index
        return " ".join(parts)


def _tree(rng: random.Random, sent: Sentence, forms, n_tokens: int) -> None:
    """Random constituent tree; nonterminal yields are contiguous ranges."""
    parent_of = [0] * (n_tokens + 1)
    next_id = [500]

    def new_nt(lo, hi, parent, edge):
        node_id = next_id[0]
        next_id[0] += 1 if rng.random() < 0.8 else 2
        sent.nts.append((node_id, rng.choice(CATS), edge, parent))
        sent.span[node_id] = (lo, hi)
        sent.children.setdefault(parent, []).append(("n", node_id))
        fill(node_id, lo, hi, unary_ok=True)

    def fill(node_id, lo, hi, unary_ok):
        length = hi - lo
        if length > 1 and unary_ok and rng.random() < 0.08:
            new_nt(lo, hi, node_id, rng.choice(EDGES))
            return
        if length == 1:
            attach(lo, node_id)
            return
        k = rng.randint(2, min(4, length))
        cuts = sorted(rng.sample(range(lo + 1, hi), k - 1))
        bounds = [lo, *cuts, hi]
        for a, b in zip(bounds, bounds[1:]):
            if b - a == 1:
                attach(a, node_id)
            elif rng.random() < 0.85:
                new_nt(a, b, node_id, rng.choice(EDGES))
            else:
                for index in range(a, b):
                    attach(index, node_id)

    def attach(index, node_id):
        parent_of[index] = node_id
        sent.children.setdefault(node_id, []).append(("t", index))

    core = n_tokens - 1 if n_tokens >= 4 and rng.random() < 0.7 else n_tokens
    root = next_id[0]
    next_id[0] += 1
    sent.nts.append((root, "S", None, 0))
    sent.span[root] = (1, core + 1)
    fill(root, 1, core + 1, unary_ok=False)
    for index in range(1, n_tokens + 1):
        if index > core:
            sent.tokens.append((".", "$.", None, 0))
        else:
            sent.tokens.append((rng.choice(forms), rng.choice(POS), rng.choice(EDGES), parent_of[index]))
    sent.nts.sort()


def _annotate(rng: random.Random, sent: Sentence, inventory, group_names, group_weights) -> None:
    """0-4 predicates with 0-3 arguments each; bindings valid by construction."""
    n_tokens = len(sent.tokens)
    n_preds = min(rng.choices((0, 1, 2, 3, 4), (4, 36, 34, 18, 8))[0], n_tokens // 3)
    pred_tokens = rng.sample(range(1, n_tokens + 1), n_preds)
    nodes = [("t", k) for k in range(1, n_tokens + 1)] + [("n", nt[0]) for nt in sent.nts]
    for i, tok in enumerate(pred_tokens, 1):
        pid = f"p{i}"
        group = rng.choices(group_names, group_weights)[0]
        lemmas, roles, weights = inventory[group]
        lemma, cls = rng.choice(lemmas)
        inc = [("t", tok)]
        if rng.random() < 0.1:
            other = rng.randint(1, n_tokens)
            if other != tok:
                inc.append(("t", other))
        r = rng.random()
        tags = ("pv",) if r < 0.12 else ("imp",) if r < 0.16 else ("imp", "pv") if r < 0.17 else ()
        sent.preds.append((pid, lemma, cls, group, inc, [], tags))
        blocked = set(sent.resolve(inc, ()))
        n_args = rng.choices((0, 1, 2, 3), (15, 35, 35, 15))[0]
        free_roles = list(roles)
        free_weights = list(weights)
        for _ in range(n_args):
            candidates = [ref for ref in rng.sample(nodes, min(8, len(nodes)))
                          if not sent.node_yield(ref) & blocked]
            if not candidates or not free_roles:
                break
            pick = rng.choices(range(len(free_roles)), free_weights)[0]
            role = free_roles.pop(pick)
            free_weights.pop(pick)
            inc = [candidates[0]]
            for ref in candidates[1:]:
                if rng.random() < 0.1 and not sent.node_yield(ref) & sent.node_yield(inc[0]):
                    inc.append(ref)
                    break
            exc = []
            head = inc[0]
            if head[0] == "n" and len(sent.children[head[1]]) >= 2 and rng.random() < 0.2:
                exc.append(rng.choice(sent.children[head[1]]))
            covered = sent.resolve(inc, exc)
            blocked.update(covered)
            sent.args.append((pid, role, inc, exc))


def _ref_text(refs) -> str:
    ordered = sorted(refs, key=lambda r: (0 if r[0] == "t" else 1, r[1]))
    return ",".join(f"{kind}{num}" for kind, num in ordered)


def _binding_text(inc, exc, tags) -> str:
    out = f" nodes={_ref_text(inc)}"
    if exc:
        out += f" excl={_ref_text(exc)}"
    if tags:
        out += f" tags={','.join(sorted(tags))}"
    return out


def _tb_text(sentences) -> str:
    out = []
    for sent in sentences:
        out.append(f"#BOS {sent.sid}")
        for form, pos, edge, parent in sent.tokens:
            out.append(f"{form}\t{pos}\t{edge or '--'}\t{parent}")
        for node_id, cat, edge, parent in sent.nts:
            out.append(f"#{node_id}\t{cat}\t{edge or '--'}\t{parent}")
        out.append(f"#EOS {sent.sid}")
    return "".join(line + "\n" for line in out)


def _pa_text(sentences) -> str:
    out = []
    for sent in sentences:
        out.append(f"#SENT {sent.sid}")
        args = sorted(sent.args, key=lambda a: (a[0], a[1]))
        for pid, lemma, cls, group, inc, exc, tags in sorted(sent.preds):
            out.append(f"PRED {pid} lemma={lemma} class={cls} group={group}{_binding_text(inc, exc, tags)}")
            for apid, role, ainc, aexc in args:
                if apid == pid:
                    out.append(f"ARG {pid} role={role}{_binding_text(ainc, aexc, ())}")
    return "".join(line + "\n" for line in out)


def _align(rng: random.Random, left: Sentence, right: Sentence):
    """Alignments of one sentence pair, or None when the pair stays unaligned."""
    if not left.preds or not right.preds or rng.random() >= 0.98:
        return None
    links = []
    free = [p[0] for p in right.preds]
    rng.shuffle(free)
    for pred in left.preds:
        if not free or rng.random() >= 0.85:
            continue
        rpid = free.pop()
        r = rng.random()
        tag = "abs-opp" if r < 0.05 else "incomp" if r < 0.09 else None
        links.append(("pred", pred[0], None, rpid, None, tag))
        right_roles = [a[1] for a in right.args if a[0] == rpid]
        rng.shuffle(right_roles)
        for arg in left.args:
            if arg[0] != pred[0] or not right_roles or rng.random() >= 0.75:
                continue
            tag = "incomp" if rng.random() < 0.05 else None
            links.append(("arg", pred[0], arg[1], rpid, right_roles.pop(), tag))
    if not links:
        return None
    links.sort(key=lambda l: ((l[1], l[2] or ""), (l[3], l[4] or ""), l[0], l[5] or ""))
    return links


def _elem(pid, role):
    return pid if role is None else f"{pid}.{role}"


def generate(seed: int, n_pairs: int, out: Path) -> dict:
    """Write the corpus files under out and return the ground-truth record."""
    rng = random.Random(seed)
    sids = sorted(f"s{i}" for i in range(1, n_pairs + 1))
    banks = {}
    for lang in LANGS:
        inventory = build_inventory(lang)
        names = [g for g, _ in GROUP_LEMMAS[lang]]
        weights = [1.0 / (rank + 1) for rank in range(len(names))]
        forms = [unicodedata.normalize("NFC", f) for f in FORMS[lang]]
        sents = []
        for sid in sids:
            sent = Sentence(sid)
            n_tokens = max(3, min(40, round(rng.gauss(19, 8))))
            _tree(rng, sent, forms, n_tokens)
            _annotate(rng, sent, inventory, names, weights)
            sents.append(sent)
        banks[lang] = sents
    pairs = []
    for left, right in zip(banks["en"], banks["de"]):
        links = _align(rng, left, right)
        if links is not None:
            pairs.append((f"en:{left.sid}", f"de:{right.sid}", left, right, links))
    pairs.sort(key=lambda p: (p[0], p[1]))

    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for lang in LANGS:
        files[f"{lang}.tb"] = _tb_text(banks[lang])
        files[f"{lang}.pa"] = _pa_text(banks[lang])
    al = []
    for lkey, rkey, _, _, links in pairs:
        al.append(f"#PAIR {lkey} {rkey}")
        for kind, lpid, lrole, rpid, rrole, tag in links:
            keyword = "PALIGN" if kind == "pred" else "AALIGN"
            suffix = f" tag={tag}" if tag else ""
            al.append(f"{keyword} {_elem(lpid, lrole)} {_elem(rpid, rrole)}{suffix}")
    files["en-de.al"] = "".join(line + "\n" for line in al)
    files[MANIFEST_NAME] = (
        "LANG en TREES en.tb PREDARG en.pa\n"
        "LANG de TREES de.tb PREDARG de.pa\n"
        "ALIGN en de en-de.al\n"
    )
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return _record(seed, banks, pairs, files)


def _record(seed, banks, pairs, files) -> dict:
    aligned = set()
    alignments = []
    for lkey, rkey, left, right, links in pairs:
        lpreds = {p[0]: p for p in left.preds}
        rpreds = {p[0]: p for p in right.preds}
        for kind, lpid, lrole, rpid, rrole, tag in links:
            lp, rp = lpreds[lpid], rpreds[rpid]
            aligned.add((lkey, lpid, lrole))
            aligned.add((rkey, rpid, rrole))
            alignments.append({
                "kind": kind, "left_sent": lkey, "right_sent": rkey,
                "left": _elem(lpid, lrole), "right": _elem(rpid, rrole),
                "left_label": lp[1] if kind == "pred" else lrole,
                "right_label": rp[1] if kind == "pred" else rrole,
                "left_lemma": lp[1], "right_lemma": rp[1],
                "left_class": lp[2], "right_class": rp[2],
                "left_group": lp[3],
                "left_tags": sorted(lp[6]), "right_tags": sorted(rp[6]),
                "atag": tag,
            })
    langs = {}
    unaligned = []
    realizations = []
    frames = {}
    role_counts = {}
    for lang in sorted(banks):
        by_class = {"v": 0, "n": 0, "a": 0}
        tags = {}
        counts = {"sentences": 0, "tokens": 0, "predicates": 0, "arguments": 0, "bindings": 0}
        groups = role_counts.setdefault(lang, {})
        for sent in banks[lang]:
            key = f"{lang}:{sent.sid}"
            counts["sentences"] += 1
            counts["tokens"] += len(sent.tokens)
            counts["predicates"] += len(sent.preds)
            counts["arguments"] += len(sent.args)
            counts["bindings"] += len(sent.preds) + len(sent.args)
            preds = {p[0]: p for p in sent.preds}
            args = sorted(sent.args, key=lambda a: (a[0], a[1]))
            for pid, lemma, cls, group, _, _, ptags in sorted(sent.preds):
                by_class[cls] += 1
                for tag in ptags:
                    tags[tag] = tags.get(tag, 0) + 1
                roles = sorted(a[1] for a in sent.args if a[0] == pid)
                fkey = (lang, lemma, cls, group, ",".join(sorted(ptags)) or "-", "+".join(roles) or "-")
                frames[fkey] = frames.get(fkey, 0) + 1
                if (key, pid, None) not in aligned:
                    unaligned.append([lang, sent.sid, pid, "pred", lemma])
            for pid, role, inc, exc in args:
                if (key, pid, role) not in aligned:
                    unaligned.append([lang, sent.sid, f"{pid}.{role}", "arg", role])
                lemma, cls, group = preds[pid][1:4]
                groups.setdefault(group, {})
                groups[group][role] = groups[group].get(role, 0) + 1
                realizations.append([lang, sent.sid, pid, lemma, cls, group, role,
                                     sent.render(sent.resolve(inc, exc))])
        langs[lang] = dict(counts, by_class=by_class, binding_tags=dict(sorted(tags.items())))
    return {
        "seed": seed,
        "languages": langs,
        "alignments": alignments,
        "unaligned": unaligned,
        "realizations": realizations,
        "frames": [list(k) + [n] for k, n in sorted(frames.items())],
        "role_counts": role_counts,
        "planted": {lang: [list(p) for p in PLANTED[lang]] for lang in LANGS},
        "files": sorted(files),
        "lines": sum(text.count("\n") for text in files.values()),
        "bytes": sum(len(text.encode("utf-8")) for text in files.values()),
    }
