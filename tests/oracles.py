"""Independent brute-force reference implementations used as test oracles.

These deliberately avoid the library's own yield/filter machinery: yields
and dominance are computed by walking raw parent links, and
validation/queries/stats/suggestions by exhaustive re-scans applying the
documented semantics directly.
"""

from __future__ import annotations

from fusetb.model import Binding, ElemRef, ParallelCorpus, SentenceTree


def brute_yield(tree: SentenceTree, ref) -> list[int]:
    """Terminals under ref, found by testing ancestorship of every terminal."""
    n = len(tree.tokens)
    nt_parent = dict(zip(tree.nt_ids, tree.parents[n:]))
    out = []
    for index, parent in enumerate(tree.parents[:n], 1):
        if ref.kind == "t":
            if index == ref.num:
                out.append(index)
            continue
        seen = set()
        while parent != 0 and parent not in seen:
            if parent == ref.num:
                out.append(index)
                break
            seen.add(parent)
            if parent not in nt_parent:
                break
            parent = nt_parent[parent]
    return sorted(out)


def brute_dominates(tree: SentenceTree, ancestor, descendant) -> bool:
    """True if ancestor is on descendant's chain of parents, read from the raw columns.

    The walk starts at descendant's parent and stops at the virtual root, at an id
    that is no nonterminal of the tree, or at an id it has already seen (a cycle).
    """
    n = len(tree.tokens)
    nt_parent = dict(zip(tree.nt_ids, tree.parents[n:]))
    if descendant.kind == "t":
        parent = tree.parents[descendant.num - 1]
    else:
        parent = nt_parent[descendant.num]
    seen = set()
    while ancestor.kind == "n" and parent != 0 and parent not in seen:
        if parent == ancestor.num:
            return True
        seen.add(parent)
        if parent not in nt_parent:
            return False
        parent = nt_parent[parent]
    return False


def brute_is_tree(tree: SentenceTree) -> bool:
    """True if every chain of parents reaches the virtual root through known nonterminals,
    without a repeat, and every nonterminal is some node's parent."""
    nt_parent = dict(zip(tree.nt_ids, tree.parents[len(tree.tokens):]))
    for parent in tree.parents:
        seen = set()
        while parent != 0:
            if parent in seen or parent not in nt_parent:
                return False
            seen.add(parent)
            parent = nt_parent[parent]
    return set(tree.nt_ids) <= set(tree.parents)


def brute_resolve(tree: SentenceTree, binding: Binding) -> list[int]:
    included: set[int] = set()
    for ref in binding.included:
        included.update(brute_yield(tree, ref))
    excluded: set[int] = set()
    for ref in binding.excluded:
        excluded.update(brute_yield(tree, ref))
    return sorted(included - excluded)


def _name(pred_id: str, role: str | None) -> str:
    return pred_id if role is None else f"{pred_id}.{role}"


def _sentence_faults(ann, binding_tags):
    """(code, subject) of each fault of ann, from its raw records; binding_tags is the registry's."""
    tree = ann.tree
    preds = {p.pred_id for p in ann.predicates}
    args = {(a.pred_id, a.role) for a in ann.arguments}
    targets = [(b.target.pred_id, b.target.role) for b in ann.bindings]
    for key in {(pred_id, None) for pred_id in preds} | args:
        if targets.count(key) != 1:
            yield "E-BIND-MISSING", (_name(*key), str(targets.count(key)))
    yields: dict[tuple, list] = {}
    for b in ann.bindings:
        key = (b.target.pred_id, b.target.role)
        target = _name(*key)
        if key not in args and (key[1] is not None or key[0] not in preds):
            yield "E-BIND-DANGLE", (target, None, None)
        if b.tags and key[1] is not None:
            yield "E-TAG-ON-ARG", (target, str(sorted(b.tags)))
        for tag in b.tags:
            if tag not in binding_tags:
                yield "E-BIND-TAG", (target, repr(tag))
        dangling = [
            ref for ref in b.included | b.excluded
            if not (1 <= ref.num <= len(tree.tokens) if ref.kind == "t" else ref.num in tree.nt_ids)
        ]
        for ref in dangling:
            yield "E-BIND-DANGLE", (target, str(ref), None)
        covered = None
        if not dangling:
            included = sorted(b.included, key=lambda r: (r.kind != "t", r.num))
            for i, ref_a in enumerate(included):
                for ref_b in included[i + 1 :]:
                    if brute_dominates(tree, ref_a, ref_b) or brute_dominates(tree, ref_b, ref_a):
                        yield "E-INCL-NESTED", (target, str(ref_a), str(ref_b))
            for ref in b.excluded:
                if not any(brute_dominates(tree, inc, ref) for inc in b.included):
                    yield "E-EXCL-NOT-DESC", (target, str(ref))
            covered = brute_resolve(tree, b)
            if not covered:
                yield "E-YIELD-EMPTY", (target,)
        yields.setdefault(key, []).append(covered)
    # an element's yield counts only when it has exactly one binding
    sole = {key: found[0] for key, found in yields.items() if len(found) == 1 and found[0]}
    for a in ann.arguments:
        if a.pred_id not in preds:
            yield "E-BIND-DANGLE", (None, None, _name(a.pred_id, a.role))
            continue
        overlap = sorted(set(sole.get((a.pred_id, a.role), ())) & set(sole.get((a.pred_id, None), ())))
        if overlap:
            yield "E-RECURSION", (_name(a.pred_id, a.role), str(overlap))


def _pair_faults(declared: dict[str, set], alignment_tags, pair):
    """(code, subject) of each fault of one sentence pair, from the raw records.

    declared maps each sentence key to the (pred_id, role) of every element declared in it.
    """
    keys = (pair.left_sentence, pair.right_sentence)
    unknown = [key for key in keys if key not in declared]
    for key in unknown:
        yield "E-ALIGN-DANGLE", (key, None, None, None)
    if unknown:
        return
    pred_links = {(a.left.pred_id, a.right.pred_id) for a in pair.alignments if a.kind == "pred"}
    endpoints = []
    for a in pair.alignments:
        link = f"{_name(a.left.pred_id, a.left.role)} ~ {_name(a.right.pred_id, a.right.role)}"
        if (a.left.role is None, a.right.role is None) != (a.kind == "pred",) * 2:
            yield "E-ALIGN-KIND", (link, a.kind)
            continue
        for key, ref in zip(keys, (a.left, a.right)):
            if (ref.pred_id, ref.role) not in declared[key]:
                yield "E-ALIGN-DANGLE", (None, link, key, _name(ref.pred_id, ref.role))
            endpoints.append((_name(ref.pred_id, ref.role), key))
        if a.tag is not None and a.tag not in alignment_tags:
            yield "E-ALIGN-TAG", (link, repr(a.tag))
        if a.kind == "arg" and (a.left.pred_id, a.right.pred_id) not in pred_links:
            yield "E-ALIGN-ORPHAN-ARG", (link, a.left.pred_id, a.right.pred_id)
    for endpoint in set(endpoints):
        if endpoints.count(endpoint) > 1:
            yield "E-ALIGN-DUP", (*endpoint, str(endpoints.count(endpoint)))


def _edit_distance(a: str, b: str) -> int:
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, y in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (x != y))
    return row[-1]


def oracle_diagnostics(corpus: ParallelCorpus) -> set[tuple]:
    """(code, file, scope, subject) of every diagnostic validate_corpus reports with its
    default file labels, derived from the raw records.

    scope is the sentence id, the pair's two sentence keys or the predicate group; subject
    holds the elements, nodes, counts and tags the message names, None where it names none.
    """
    expected = set()
    for lang, anns in corpus.treebanks.items():
        roles: dict[str, set[str]] = {}
        for ann in anns:
            expected.update(
                (code, f"<{lang}>", ann.sentence_id, subject)
                for code, subject in _sentence_faults(ann, corpus.tag_registry.binding_tags)
            )
            group_of = {p.pred_id: p.group for p in ann.predicates}
            for a in ann.arguments:
                if a.pred_id in group_of:
                    roles.setdefault(group_of[a.pred_id], set()).add(a.role)
        for group, names in roles.items():
            for a in names:
                for b in names:
                    if a < b and min(len(a), len(b)) >= 4 and (
                        a.casefold() == b.casefold() or _edit_distance(a, b) <= 1
                    ):
                        expected.add(("W-ROLE-NEAR-DUP", f"<{lang}>", group, (a, b)))
    declared = {
        f"{lang}:{ann.sentence_id}": {(p.pred_id, None) for p in ann.predicates}
        | {(a.pred_id, a.role) for a in ann.arguments}
        for lang, anns in corpus.treebanks.items()
        for ann in anns
    }
    tags = corpus.tag_registry.alignment_tags
    for pair_set in corpus.pair_sets:
        file = f"<{pair_set.left_lang}-{pair_set.right_lang}>"
        for pair in pair_set.pairs:
            scope = f"{pair.left_sentence} {pair.right_sentence}"
            key_langs = (pair.left_sentence.partition(":")[0], pair.right_sentence.partition(":")[0])
            if key_langs != (pair_set.left_lang, pair_set.right_lang):
                expected.add(("E-PAIR-LANG", file, scope, (pair_set.left_lang, pair_set.right_lang)))
            expected.update((code, file, scope, subject) for code, subject in _pair_faults(declared, tags, pair))
    return expected


def _apply(filters, hit_for_key) -> bool:
    for f in filters:
        hit = hit_for_key(f.key, f.value)
        if f.negated:
            hit = not hit
        if not hit:
            return False
    return True


def _pred_of(ann, pred_id):
    return {p.pred_id: p for p in ann.predicates}[pred_id]


def oracle_preds(corpus: ParallelCorpus, filters):
    rows = []
    for pair_set in corpus.pair_sets:
        for pair in pair_set.pairs:
            left_ann = corpus.sentence(pair.left_sentence)
            right_ann = corpus.sentence(pair.right_sentence)
            for a in pair.alignments:
                if a.kind != "pred":
                    continue
                lp = _pred_of(left_ann, a.left.pred_id)
                rp = _pred_of(right_ann, a.right.pred_id)
                ltags = left_ann.binding_for(a.left).tags
                rtags = right_ann.binding_for(a.right).tags

                def hit(key, value):
                    if key == "class":
                        return lp.syn_class == value
                    if key == "aligned-class":
                        return rp.syn_class == value
                    if key == "tag":
                        return value in ltags
                    if key == "aligned-tag":
                        return value in rtags
                    if key == "lemma":
                        return lp.lemma == value
                    if key == "group":
                        return lp.group == value
                    if key == "atag":
                        return a.tag == value
                    if key == "voice":
                        return ("pv" in ltags) != ("pv" in rtags)
                    raise AssertionError(key)

                if _apply(filters, hit):
                    rows.append(
                        (pair.left_sentence, pair.right_sentence, str(a.left), str(a.right))
                    )
    return rows


def oracle_aligns(corpus: ParallelCorpus, filters):
    rows = []
    for pair_set in corpus.pair_sets:
        for pair in pair_set.pairs:
            for a in pair.alignments:

                def hit(key, value):
                    if key == "kind":
                        return a.kind == value
                    if key == "atag":
                        return a.tag == value
                    raise AssertionError(key)

                if _apply(filters, hit):
                    rows.append(
                        (a.kind, pair.left_sentence, pair.right_sentence, str(a.left), str(a.right))
                    )
    return rows


def oracle_unaligned(corpus: ParallelCorpus, filters):
    aligned = set()
    for pair_set in corpus.pair_sets:
        for pair in pair_set.pairs:
            for a in pair.alignments:
                aligned.add((pair.left_sentence, a.left))
                aligned.add((pair.right_sentence, a.right))
    rows = []
    for lang in sorted(corpus.treebanks):
        for ann in corpus.treebanks[lang]:
            key = f"{lang}:{ann.sentence_id}"
            refs = [ElemRef(p.pred_id) for p in ann.predicates]
            refs += [ElemRef(a.pred_id, a.role) for a in ann.arguments]
            for ref in refs:
                if (key, ref) in aligned:
                    continue
                kind = "pred" if ref.role is None else "arg"

                def hit(k, value):
                    if k == "kind":
                        return kind == value
                    if k == "lang":
                        return lang == value
                    raise AssertionError(k)

                if _apply(filters, hit):
                    rows.append((lang, ann.sentence_id, str(ref)))
    return rows


def oracle_realizations(corpus: ParallelCorpus, filters):
    rows = []
    for lang in sorted(corpus.treebanks):
        for ann in corpus.treebanks[lang]:
            for arg in ann.arguments:
                pred = _pred_of(ann, arg.pred_id)

                def hit(key, value):
                    if key == "lang":
                        return lang == value
                    if key == "group":
                        return pred.group == value
                    if key == "role":
                        return arg.role == value
                    raise AssertionError(key)

                if _apply(filters, hit):
                    binding = ann.binding_for(ElemRef(arg.pred_id, arg.role))
                    rows.append(
                        (lang, ann.sentence_id, arg.pred_id, arg.role,
                         tuple(brute_resolve(ann.tree, binding)))
                    )
    return rows


def oracle_frames(corpus: ParallelCorpus, filters):
    counts: dict[tuple, int] = {}
    for lang in sorted(corpus.treebanks):
        for ann in corpus.treebanks[lang]:
            for pred in ann.predicates:

                def hit(key, value):
                    if key == "lang":
                        return lang == value
                    if key == "lemma":
                        return pred.lemma == value
                    if key == "group":
                        return pred.group == value
                    raise AssertionError(key)

                if not _apply(filters, hit):
                    continue
                tags = ann.binding_for(ElemRef(pred.pred_id)).tags
                roles = tuple(sorted(a.role for a in ann.arguments if a.pred_id == pred.pred_id))
                key = (lang, pred.lemma, pred.syn_class, pred.group, tuple(sorted(tags)), roles)
                counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_suggest(corpus: ParallelCorpus, lang: str, group: str, already_used=()):
    counts: dict[str, int] = {}
    total = 0
    for ann in corpus.treebanks[lang]:
        preds = {p.pred_id: p for p in ann.predicates}
        for arg in ann.arguments:
            pred = preds.get(arg.pred_id)
            if pred is not None and pred.group == group:
                counts[arg.role] = counts.get(arg.role, 0) + 1
                total += 1
    items = [
        (role, n, n / total)
        for role, n in counts.items()
        if role not in set(already_used)
    ]
    items.sort(key=lambda it: (-it[1], it[0]))
    return items


QUERY_OPTIONAL_KEYS = {
    "preds": ("class", "aligned-class", "tag", "aligned-tag", "lemma", "group", "atag", "voice"),
    "aligns": ("kind", "atag"),
    "unaligned": ("lang",),
    "realizations": ("lang",),
    "frames": ("lang",),
}


def value_pools(corpus: ParallelCorpus) -> dict[str, list[str]]:
    """Candidate values of every filter key, drawn from the corpus where it has them."""
    lemmas = sorted(
        {p.lemma for anns in corpus.treebanks.values() for a in anns for p in a.predicates}
    )
    groups = sorted(
        {p.group for anns in corpus.treebanks.values() for a in anns for p in a.predicates}
    )
    roles = sorted(
        {a.role for anns in corpus.treebanks.values() for ann in anns for a in ann.arguments}
    )
    return {
        "class": ["v", "n", "a"],
        "aligned-class": ["v", "n", "a"],
        "tag": ["pv", "imp"],
        "aligned-tag": ["pv", "imp"],
        "lemma": lemmas or ["GEBEN"],
        "group": groups or ["GEBEN"],
        "atag": ["abs-opp", "incomp"],
        "voice": ["diverge"],
        "kind": ["pred", "arg"],
        "lang": list(corpus.treebanks),
        "role": roles or ["AGENT"],
    }


def required_filters(command: str, corpus: ParallelCorpus):
    """Each set of positive filters the command requires, with values from the corpus."""
    from fusetb.model import group_roles
    from fusetb.query import Filter

    pools = value_pools(corpus)
    if command == "unaligned":
        return [(Filter("kind", False, kind),) for kind in pools["kind"]]
    if command == "realizations":
        pairs = sorted({pair for anns in corpus.treebanks.values() for pair in group_roles(anns)})
        pairs = pairs[:3] or [("GEBEN", "AGENT")]
        return [(Filter("group", False, g), Filter("role", False, r)) for g, r in pairs]
    if command == "frames":
        return [(Filter(key, False, pools[key][0]),) for key in ("lemma", "group")]
    return [()]


def random_query_filters(rng, command: str, corpus: ParallelCorpus):
    """Random filter tuple for a command, drawing values from the corpus."""
    from fusetb.query import Filter

    pools = value_pools(corpus)
    filters = []
    if command == "unaligned":
        filters.append(Filter("kind", False, rng.choice(pools["kind"])))
    if command == "realizations":
        filters.append(Filter("group", False, rng.choice(pools["group"])))
        filters.append(Filter("role", False, rng.choice(pools["role"])))
    if command == "frames":
        key = rng.choice(["lemma", "group"])
        filters.append(Filter(key, False, rng.choice(pools[key])))
    for key in QUERY_OPTIONAL_KEYS[command]:
        if rng.random() < 0.3:
            filters.append(Filter(key, rng.random() < 0.3, rng.choice(pools[key])))
    return tuple(filters)


def assert_query_matches_oracle(corpus: ParallelCorpus, command: str, filters):
    """run_query vs the exhaustive scan, compared on row identities in order."""
    from fusetb.query import Query, run_query

    got = run_query(corpus, Query(command, tuple(filters)))
    if command == "preds":
        assert [
            (r["left_sent"], r["right_sent"], r["left_pred"], r["right_pred"]) for r in got
        ] == oracle_preds(corpus, filters)
    elif command == "aligns":
        assert [
            (r["kind"], r["left_sent"], r["right_sent"], r["left"], r["right"]) for r in got
        ] == oracle_aligns(corpus, filters)
    elif command == "unaligned":
        assert [(r["lang"], r["sent"], r["ref"]) for r in got] == oracle_unaligned(
            corpus, filters
        )
    elif command == "realizations":
        assert [(r["lang"], r["sent"], r["pred"], r["role"]) for r in got] == [
            (lang, sid, pid, role)
            for lang, sid, pid, role, _ in oracle_realizations(corpus, filters)
        ]
    elif command == "frames":
        got_counts = {
            (
                r["lang"],
                r["lemma"],
                r["class"],
                r["group"],
                tuple(t for t in r["tags"].split(",") if t != "-"),
                tuple(x for x in r["frame"].split("+") if x != "-"),
            ): int(r["count"])
            for r in got
        }
        assert got_counts == oracle_frames(corpus, filters)
    else:
        raise AssertionError(command)


def oracle_stats_recount(corpus: ParallelCorpus):
    """Flat recount of the per-language totals."""
    out = {}
    for lang, anns in corpus.treebanks.items():
        sentences = tokens = predicates = arguments = 0
        by_class: dict[str, int] = {}
        tags: dict[str, int] = {}
        for ann in anns:
            sentences += 1
            tokens += len(ann.tree.tokens)
            predicates += len(ann.predicates)
            arguments += len(ann.arguments)
            for p in ann.predicates:
                by_class[p.syn_class] = by_class.get(p.syn_class, 0) + 1
            for b in ann.bindings:
                for tag in b.tags:
                    tags[tag] = tags.get(tag, 0) + 1
        out[lang] = (sentences, tokens, predicates, arguments, by_class, tags)
    return out


def oracle_unaligned_counts(corpus: ParallelCorpus, pair_set):
    """Per-language (unaligned predicates, unaligned arguments) of one pair set.

    Counts every element of each sentence that occurs in the set's pairs and
    is an endpoint of no alignment in that set, by scanning the raw records.
    """
    endpoints = []
    for pair in pair_set.pairs:
        for a in pair.alignments:
            endpoints.append((pair.left_sentence, a.left.pred_id, a.left.role))
            endpoints.append((pair.right_sentence, a.right.pred_id, a.right.role))
    preds = {pair_set.left_lang: 0, pair_set.right_lang: 0}
    args = {pair_set.left_lang: 0, pair_set.right_lang: 0}
    keys = {p.left_sentence for p in pair_set.pairs} | {p.right_sentence for p in pair_set.pairs}
    for key in sorted(keys):
        lang = key.partition(":")[0]
        if not corpus.has_sentence(key):
            continue
        ann = corpus.sentence(key)
        for p in ann.predicates:
            if (key, p.pred_id, None) not in endpoints:
                preds[lang] += 1
        for a in ann.arguments:
            if (key, a.pred_id, a.role) not in endpoints:
                args[lang] += 1
    return preds, args
