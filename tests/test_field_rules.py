"""The model owns the field grammar: a value the file grammar rejects cannot be built,
and a corpus that validates can be written out and read back equal.
"""

from __future__ import annotations

import dataclasses
import random
from functools import lru_cache
from itertools import product
from operator import lt

import pytest

from fusetb.corpus import load_corpus
from fusetb.formats import ParseError, parse_alignments, parse_predarg, parse_trees, serialize_trees
from fusetb.model import (
    Alignment,
    Argument,
    Binding,
    ElemRef,
    FieldError,
    MonolingualAnnotation,
    NodeRef,
    PairSet,
    ParallelCorpus,
    Predicate,
    SentencePairAlignment,
    SentenceTree,
    TagRegistry,
    split_sentence_key,
)
from fusetb.validate import validate_corpus

from .generators import random_corpus, random_tree, unchecked_tree, write_corpus_files
from .oracles import brute_is_tree

SEEDS = range(6)


@lru_cache(maxsize=None)
def _corpus(seed: int) -> ParallelCorpus:
    return random_corpus(random.Random(seed), max_sents=4)


def _first(corpus, wanted):
    """(lang, index, annotation) of the first annotation for which wanted holds, else None."""
    for lang in corpus.languages:
        for index, ann in enumerate(corpus.treebanks[lang]):
            if wanted(ann):
                return lang, index, ann
    return None


def _with_annotation(corpus, lang, index, ann):
    anns = list(corpus.treebanks[lang])
    anns[index] = ann
    return dataclasses.replace(corpus, treebanks={**corpus.treebanks, lang: tuple(anns)})


def _edit_annotation(wanted, edit):
    """An edit of the first annotation for which wanted holds: edit(ann) gives its new fields."""
    def apply(corpus):
        found = _first(corpus, wanted)
        if found is None:
            return None
        lang, index, ann = found
        return _with_annotation(corpus, lang, index, dataclasses.replace(ann, **edit(ann)))
    return apply


def _change_tree(wanted, change):
    """Replace columns of the first tree for which wanted holds: change(tree) gives them."""
    return _edit_annotation(lambda ann: wanted(ann.tree),
                            lambda ann: {"tree": dataclasses.replace(ann.tree, **change(ann.tree))})


def _edit_tree(**columns):
    """Set the first entry of each named tree column of the first tree."""
    return _change_tree(lambda tree: True, lambda tree: {
        name: (value, *getattr(tree, name)[1:]) for name, value in columns.items()})


# Tree faults a .tb file can hold: each planter(tree, rng) gives the changed columns.
def _with_parent(tree, rng, parent):
    parents = list(tree.parents)
    parents[rng.randrange(len(parents))] = parent
    return {"parents": tuple(parents)}


def _cycle(tree, rng):
    """A nonterminal made its own parent, or its parent nonterminal made its child."""
    n = len(tree.tokens)
    parents = list(tree.parents)
    at = rng.randrange(len(tree.nt_ids))
    above = parents[n + at]
    if above and rng.random() < 0.5:
        parents[n + tree.nt_ids.index(above)] = tree.nt_ids[at]
    else:
        parents[n + at] = tree.nt_ids[at]
    return {"parents": tuple(parents)}


def _add_childless(tree, rng):
    node_id = rng.choice(sorted(set(range(500, 540)) - set(tree.nt_ids)))
    at = len(tree.tokens) + sum(i < node_id for i in tree.nt_ids)
    return {"nt_ids": tuple(sorted((*tree.nt_ids, node_id))),
            "labels": (*tree.labels[:at], "NP", *tree.labels[at:]),
            "edges": (*tree.edges[:at], None, *tree.edges[at:]),
            "parents": (*tree.parents[:at], rng.choice((0, *tree.nt_ids)), *tree.parents[at:])}


def _add_root(tree, node_id):
    """A nonterminal node_id, last in column order, above the first node attached to the virtual root."""
    parents = list(tree.parents)
    parents[parents.index(0)] = node_id
    return {"nt_ids": (*tree.nt_ids, node_id), "labels": (*tree.labels, "NP"), "edges": (*tree.edges, None),
            "parents": (*parents, 0)}


def _reid(tree, rng, new_id):
    """One nonterminal's id set to new_id(ids, index); its children keep the old id."""
    ids = list(tree.nt_ids)
    at = rng.randrange(1, len(ids)) if len(ids) > 1 else 0
    ids[at] = new_id(ids, at)
    return {"nt_ids": tuple(ids)}


def _map_alignments(corpus, change):
    """corpus with change(pair, alignment) in place of each alignment."""
    pair_sets = tuple(
        dataclasses.replace(ps, pairs=tuple(
            dataclasses.replace(pair, alignments=tuple(change(pair, a) for a in pair.alignments))
            for pair in ps.pairs
        ))
        for ps in corpus.pair_sets
    )
    return dataclasses.replace(corpus, pair_sets=pair_sets)


def _edit_first_alignment(**fields):
    def apply(corpus):
        first = next((a for ps in corpus.pair_sets for pair in ps.pairs for a in pair.alignments), None)
        if first is None:
            return None
        return _map_alignments(corpus, lambda pair, a: dataclasses.replace(a, **fields) if a is first else a)
    return apply


def _rename_elements(wanted, renaming):
    """Rename the elements of the first annotation for which wanted holds, by the function
    renaming(ann) gives from (pred_id, role) to (pred_id, role), wherever that annotation
    and the alignments of its sentence name them."""
    def apply(corpus):
        found = _first(corpus, wanted)
        if found is None:
            return None
        lang, index, ann = found
        rename = renaming(ann)
        key = f"{lang}:{ann.sentence_id}"
        ann = dataclasses.replace(
            ann,
            predicates=tuple(dataclasses.replace(p, pred_id=rename(p.pred_id, None)[0]) for p in ann.predicates),
            arguments=tuple(Argument(*rename(a.pred_id, a.role)) for a in ann.arguments),
            bindings=tuple(dataclasses.replace(b, target=ElemRef(*rename(b.target.pred_id, b.target.role)))
                           for b in ann.bindings),
        )

        def ref(sentence, r):
            return ElemRef(*rename(r.pred_id, r.role)) if sentence == key else r

        corpus = _with_annotation(corpus, lang, index, ann)
        return _map_alignments(corpus, lambda pair, a: dataclasses.replace(
            a, left=ref(pair.left_sentence, a.left), right=ref(pair.right_sentence, a.right)))
    return apply


def _rename_keys(corpus, rename_key):
    pair_sets = tuple(
        dataclasses.replace(ps, pairs=tuple(
            dataclasses.replace(pair, left_sentence=rename_key(pair.left_sentence),
                                right_sentence=rename_key(pair.right_sentence))
            for pair in ps.pairs
        ))
        for ps in corpus.pair_sets
    )
    return dataclasses.replace(corpus, pair_sets=pair_sets)


def _rename_sentence(corpus):
    lang, index, ann = _first(corpus, lambda ann: True)
    old = f"{lang}:{ann.sentence_id}"
    corpus = _with_annotation(corpus, lang, index,
                              dataclasses.replace(ann, tree=dataclasses.replace(ann.tree, sentence_id="s 1")))
    return _rename_keys(corpus, lambda key: f"{lang}:s 1" if key == old else key)


def _rename_language(corpus):
    treebanks = {("EN" if lang == "en" else lang): anns for lang, anns in corpus.treebanks.items()}
    corpus = ParallelCorpus(treebanks, tuple(
        dataclasses.replace(ps, left_lang="EN") for ps in corpus.pair_sets), corpus.tag_registry)
    return _rename_keys(corpus, lambda key: "EN" + key[2:] if key.startswith("en:") else key)


def _rebind_to_kind_x(corpus):
    def wanted(ann):
        return any(r.kind == "n" for b in ann.bindings for r in b.included)

    def edit(ann):
        i = next(i for i, b in enumerate(ann.bindings) if any(r.kind == "n" for r in b.included))
        b = ann.bindings[i]
        ref = next(r for r in b.included if r.kind == "n")
        included = (b.included - {ref}) | {NodeRef("x", ref.num)}
        return {"bindings": (*ann.bindings[:i], dataclasses.replace(b, included=included), *ann.bindings[i + 1:])}
    return _edit_annotation(wanted, edit)(corpus)


def _retag_predicate_binding(tag):
    def edit(ann):
        i = next(i for i, b in enumerate(ann.bindings) if b.target.role is None)
        binding = dataclasses.replace(ann.bindings[i], tags=frozenset({tag}))
        return {"bindings": (*ann.bindings[:i], binding, *ann.bindings[i + 1:])}
    return _edit_annotation(lambda ann: ann.predicates, edit)


def _edit_first_predicate(**fields):
    def edit(ann):
        return {"predicates": (dataclasses.replace(ann.predicates[0], **fields), *ann.predicates[1:])}
    return _edit_annotation(lambda ann: ann.predicates, edit)


def _register_alignment_tag_bad(corpus):
    registry = TagRegistry(corpus.tag_registry.binding_tags, corpus.tag_registry.alignment_tags | {"Bad"})
    corpus = _edit_first_alignment(tag="Bad")(corpus)
    return None if corpus is None else dataclasses.replace(corpus, tag_registry=registry)


def _drop_all_tags(corpus):
    """corpus with no tag on a binding or alignment, and an empty tag inventory."""
    corpus = _map_alignments(corpus, lambda pair, a: dataclasses.replace(a, tag=None))
    treebanks = {lang: tuple(dataclasses.replace(ann, bindings=tuple(
        dataclasses.replace(b, tags=frozenset()) for b in ann.bindings)) for ann in anns)
        for lang, anns in corpus.treebanks.items()}
    return dataclasses.replace(corpus, treebanks=treebanks, tag_registry=TagRegistry(frozenset(), frozenset()))


def _drop_an_owner(ann):
    """The fields of ann without the predicate of its first argument, nor that predicate's binding."""
    owner = ann.arguments[0].pred_id
    return {"predicates": tuple(p for p in ann.predicates if p.pred_id != owner),
            "bindings": tuple(b for b in ann.bindings if b.target != ElemRef(owner))}


def _bind_first_to(ref):
    """The first binding of the first annotation with one also includes the node ref() builds."""
    def edit(ann):
        binding = dataclasses.replace(ann.bindings[0], included=ann.bindings[0].included | {ref()})
        return {"bindings": (binding, *ann.bindings[1:])}
    return _edit_annotation(lambda ann: ann.bindings, edit)


def _swap_pair_set_languages(corpus):
    if not any(ps.pairs for ps in corpus.pair_sets):
        return None
    return dataclasses.replace(corpus, pair_sets=tuple(
        dataclasses.replace(ps, left_lang=ps.right_lang, right_lang=ps.left_lang) for ps in corpus.pair_sets))


EDITS = {
    "lemma harmonise": _edit_first_predicate(lemma="harmonise"),
    "group A=B": _edit_first_predicate(group="A=B"),
    "role agent": _rename_elements(lambda ann: ann.arguments, lambda ann: lambda pred_id, role: (
        pred_id, "agent" if (pred_id, role) == (ann.arguments[0].pred_id, ann.arguments[0].role) else role)),
    "class x": _edit_first_predicate(syn_class="x"),
    "pred id P1": _rename_elements(lambda ann: ann.predicates, lambda ann: lambda pred_id, role: (
        pred_id.upper() if pred_id == ann.predicates[0].pred_id else pred_id, role)),
    "binding tag zzz": _retag_predicate_binding("zzz"),
    "binding tag Bad": _retag_predicate_binding("Bad"),
    "alignment kind foo": _edit_first_alignment(kind="foo"),
    "alignment tag Bad": _register_alignment_tag_bad,
    "token form 'a b'": _edit_tree(tokens="a b"),
    "empty POS label": _edit_tree(labels=""),
    "edge 'A B'": _edit_tree(edges="A B"),
    "sentence id 's 1'": _rename_sentence,
    "node-ref kind x": _rebind_to_kind_x,
    "language code EN": _rename_language,
    "registry tag 'Bad Tag'": lambda corpus: dataclasses.replace(corpus, tag_registry=TagRegistry(
        corpus.tag_registry.binding_tags | {"Bad Tag"}, corpus.tag_registry.alignment_tags)),
    "pair set languages swapped": _swap_pair_set_languages,
    # tree rules, and forms in NFC
    "parent cycle": _change_tree(lambda tree: tree.nt_ids, lambda tree: _cycle(tree, random.Random(0))),
    "terminal parent 9999": _edit_tree(parents=9999),
    "childless nonterminal": _change_tree(lambda tree: True, lambda tree: _add_childless(tree, random.Random(0))),
    "nt_ids reversed": _change_tree(lambda tree: len(tree.nt_ids) > 1, lambda tree: {"nt_ids": tree.nt_ids[::-1]}),
    "nonterminal id 400": _change_tree(lambda tree: tree.nt_ids, lambda tree: {"nt_ids": (400, *tree.nt_ids[1:])}),
    "terminal parent 3": _edit_tree(parents=3),
    "labels one short": _change_tree(lambda tree: True, lambda tree: {"labels": tree.labels[:-1]}),
    "form e + U+0301": _edit_tree(tokens="e\u0301"),
    # elements declared once, and tree columns given as lists
    "predicate declared twice": _edit_annotation(lambda ann: ann.predicates, lambda ann: {
        "predicates": (*ann.predicates, ann.predicates[0])}),
    "argument declared twice": _edit_annotation(lambda ann: ann.arguments, lambda ann: {
        "arguments": (*ann.arguments, ann.arguments[0])}),
    "tree columns as lists": _change_tree(lambda tree: True, lambda tree: {
        name: list(getattr(tree, name)) for name in ("tokens", "labels", "edges", "parents", "nt_ids")}),
    # sentences and pairs declared once, and tag inventories a manifest can hold
    "sentence declared twice": lambda corpus: dataclasses.replace(corpus, treebanks={
        **corpus.treebanks, "en": (*corpus.treebanks["en"], corpus.treebanks["en"][0])}),
    "pair declared twice": lambda corpus: dataclasses.replace(corpus, pair_sets=tuple(
        dataclasses.replace(ps, pairs=(*ps.pairs, *ps.pairs[:1])) for ps in corpus.pair_sets)),
    "empty tag inventory": _drop_all_tags,
    # the binding rules: one binding per element, of a declared element, and an argument's predicate declared
    "element bound twice": _edit_annotation(lambda ann: ann.bindings, lambda ann: {
        "bindings": (*ann.bindings, ann.bindings[0])}),
    "binding of an undeclared element": _edit_annotation(lambda ann: ann.bindings, lambda ann: {
        "bindings": (*ann.bindings, Binding(ElemRef("undeclared"), ann.bindings[0].included))}),
    "argument of an undeclared predicate": _edit_annotation(lambda ann: ann.arguments, _drop_an_owner),
    # the corpus rules a manifest holds: a language, and every language a pair set names
    "no language": lambda corpus: dataclasses.replace(corpus, treebanks={}, pair_sets=()),
    "pair set over an undeclared language": lambda corpus: dataclasses.replace(
        corpus, pair_sets=(*corpus.pair_sets, PairSet("en", "fr"))),
    # names in NFC, and node numbers that str() can write
    "lemma KELVIN SIGN + ISS": _edit_first_predicate(lemma="\u212aISS"),
    "terminal parent 10**5000": _edit_tree(parents=10**5000),
    "binding of node n10**5000": _bind_first_to(lambda: NodeRef("n", 10**5000)),
    "nonterminal id 10**5000": _change_tree(lambda tree: True, lambda tree: _add_root(tree, 10**5000)),
}


@pytest.mark.parametrize("kind", EDITS)
def test_an_edited_corpus_is_rejected_or_invalid_or_writes_back(kind, tmp_path):
    applied = 0
    for seed in SEEDS:
        try:
            edited = EDITS[kind](_corpus(seed))
        except FieldError:
            applied += 1
            continue
        if edited is None:
            continue
        applied += 1
        validated, diags = validate_corpus(edited)
        if any(d.is_error for d in diags):
            continue
        directory = tmp_path / str(seed)
        directory.mkdir()
        loaded, reload_diags = load_corpus(write_corpus_files(validated, directory))
        assert loaded == validated, (seed, [d.render() for d in reload_diags])
    assert applied, "the edit found no place in any seed's corpus"


# Each constructor's FieldError: the code and message the parsers give for the field.
_REF = ElemRef("p1")
_TREE = SentenceTree("s1", ("a",), ("NN",), (None,), (0,))
_PRED = Predicate("p1", "GIVE", "v", "GIVE")


@pytest.mark.parametrize("build,code,message", [
    (lambda: NodeRef("x", 1), "E-REF-SYNTAX", "malformed node reference 'x1' (expected t<k> or n<id>)"),
    (lambda: ElemRef("P1"), "E-REF-SYNTAX", "malformed element reference 'P1': bad predicate id"),
    (lambda: ElemRef("p1", "agent"), "E-REF-SYNTAX", "malformed element reference 'p1.agent': bad role name"),
    (lambda: Predicate("P1", "GIVE", "v", "GIVE"), "E-REF-SYNTAX", "malformed predicate id 'P1'"),
    (lambda: Predicate("p1", "give", "x", "GIVE"), "E-CLASS", "predicate class 'x' not in {v,n,a}"),
    (lambda: Predicate("p1", "give", "v", "GIVE"), "E-CASE", "lemma 'give' must be uppercase letters, _ or -"),
    (lambda: Predicate("p1", "GIVE", "v", "A=B"), "E-CASE", "group 'A=B' must be uppercase letters, _ or -"),
    (lambda: Argument("p1", "agent"), "E-CASE", "role 'agent' must be uppercase letters, _ or -"),
    (lambda: Binding(_REF, {NodeRef("t", 1)}, tags={"Bad"}), "E-SYNTAX", "malformed tag 'Bad'"),
    (lambda: Alignment("foo", _REF, _REF), "E-SYNTAX", "alignment kind 'foo' not in {pred,arg}"),
    (lambda: Alignment("pred", _REF, _REF, "Bad"), "E-SYNTAX", "malformed tag 'Bad'"),
    (lambda: SentenceTree("s 1", ("a",), ("NN",), (None,), (0,)), "E-SYNTAX", "malformed sentence id 's 1'"),
    (lambda: SentenceTree("s1", ("a b",), ("NN",), (None,), (0,)), "E-SYNTAX",
     "empty token form or whitespace in form"),
    (lambda: SentenceTree("s1", ("#a",), ("NN",), (None,), (0,)), "E-SYNTAX", "token form '#a' starts with # or %%"),
    (lambda: SentenceTree("s1", ("a",), ("",), (None,), (0,)), "E-SYNTAX", "empty or malformed label field"),
    (lambda: SentenceTree("s1", ("a",), ("NN",), ("--",), (0,)), "E-SYNTAX", "empty or malformed edge field"),
    (lambda: MonolingualAnnotation(_TREE, (_PRED, _PRED)), "E-PRED-DUP", "duplicate predicate id p1"),
    (lambda: MonolingualAnnotation(_TREE, (_PRED,), (Argument("p1", "A"),) * 2), "E-ROLE-DUP",
     "duplicate role A for predicate p1"),
    (lambda: MonolingualAnnotation(_TREE, (), (Argument("p1", "A"),)), "E-ORDER", "ARG before PRED line for p1"),
    (lambda: ParallelCorpus({"en": (MonolingualAnnotation(_TREE),) * 2}), "E-SENT-DUP", "duplicate sentence id s1"),
    (lambda: PairSet("en", "de", (SentencePairAlignment("en:s1", "de:s1"),) * 2), "E-PAIR-DUP",
     "duplicate pair en:s1 de:s1"),
    (lambda: TagRegistry(binding_tags=frozenset()), "E-MANIFEST-SYNTAX", "empty tag inventory"),
    (lambda: SentencePairAlignment("en:s1", "de:s 1"), "E-SYNTAX", "malformed sentence reference 'de:s 1'"),
    (lambda: split_sentence_key("en-s1"), "E-SYNTAX", "malformed sentence reference 'en-s1'"),
    (lambda: TagRegistry(frozenset({"pv", "Bad Tag"})), "E-SYNTAX", "malformed tag 'Bad Tag'"),
    (lambda: PairSet("en", "DE"), "E-MANIFEST-SYNTAX", "malformed language code 'DE'"),
    (lambda: ParallelCorpus({"EN": ()}), "E-MANIFEST-SYNTAX", "malformed language code 'EN'"),
    (lambda: ParallelCorpus({}), "E-MANIFEST-SYNTAX", "manifest declares no languages"),
    (lambda: ParallelCorpus({"en": ()}, (PairSet("en", "fr"),)), "E-MANIFEST-LANG",
     "ALIGN references undeclared language fr"),
    (lambda: Predicate("p1", "\u212aISS", "v", "GIVE"), "E-CASE",
     "lemma '\u212aISS' must be uppercase letters, _ or -"),
    (lambda: ElemRef("p1", "\u212b"), "E-REF-SYNTAX", "malformed element reference 'p1.\u212b': bad role name"),
    (lambda: NodeRef("n", 10**5000), "E-REF-SYNTAX", "node number has more digits than a file can hold"),
    (lambda: SentenceTree("s1", ("a",), ("NN",), (None,), (10**5000,)), "E-SYNTAX",
     "parent has more digits than a file can hold"),
    (lambda: SentenceTree("s1", ("a",), ("NN", "NP"), (None, None), (-10**5000, 0), (-10**5000,)), "E-SYNTAX",
     "parent has more digits than a file can hold"),
    (lambda: SentenceTree("s1", ("a",), ("NN", "NP"), (None, None), (0, 0), (10**5000,)), "E-SYNTAX",
     "nonterminal id has more digits than a file can hold"),
])
def test_constructors_reject_what_the_file_grammar_rejects(build, code, message):
    with pytest.raises(FieldError) as excinfo:
        build()
    assert (excinfo.value.code, str(excinfo.value)) == (code, message)


@pytest.mark.parametrize("parse,text,line", [
    (parse_trees, "#BOS s1\na b\tNN\t--\t0\n#EOS s1\n", 2),
    (parse_predarg, "#SENT s1\nPRED p1 lemma=GIVE class=v group=GIVE nodes=t1\nARG p1 role=agent\n", 3),
    (parse_alignments, "#PAIR en:s1 de:s1\nPALIGN p1 p1\nAALIGN p1.A p1.agent\n", 3),
    (parse_alignments, "#PAIR en:s1 de:s!1\nPALIGN p1 p1\n", 1),
])
def test_a_field_error_is_reported_at_the_line_of_its_field(parse, text, line):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.diagnostic.line == line


# (name, the fewest nonterminals it needs, planter(tree, rng) -> changed columns)
_TREE_FAULTS = (
    ("cycle", 1, _cycle),
    ("unknown parent", 0, lambda tree, rng: _with_parent(tree, rng, rng.randint(540, 600))),
    ("childless nonterminal", 0, _add_childless),
    ("id below 500", 1, lambda tree, rng: _reid(tree, rng, lambda ids, at: rng.randint(0, 499))),
    ("duplicate id", 2, lambda tree, rng: _reid(tree, rng, lambda ids, at: ids[at - 1])),
    ("descending id", 2, lambda tree, rng: _reid(tree, rng, lambda ids, at: ids[at - 1] - 1)),
    ("parent 3", 0, lambda tree, rng: _with_parent(tree, rng, 3)),
)


def test_parse_trees_and_sentence_tree_report_a_tree_fault_alike():
    rng = random.Random(23)
    codes, trees = set(), 0
    while trees < 560:
        tree = random_tree(rng, "s1")
        name, needs, plant = _TREE_FAULTS[trees % len(_TREE_FAULTS)]
        if len(tree.nt_ids) < needs:
            continue
        faulty = unchecked_tree(tree, **plant(tree, rng))
        with pytest.raises(FieldError) as built:
            SentenceTree(*(getattr(faulty, column) for column in SentenceTree.__slots__))
        with pytest.raises(ParseError) as parsed:
            parse_trees(serialize_trees([faulty]))
        fault, diag = built.value, parsed.value.diagnostic
        assert (diag.code, diag.message, diag.line) == (fault.code, str(fault), fault.node + 2), name
        codes.add(fault.code)
        trees += 1
    assert codes == {"E-TREE-CYCLE", "E-PARENT-UNKNOWN", "E-NT-EMPTY", "E-NODE-ID-RANGE", "E-NODE-DUP", "E-SYNTAX"}


def _built_tree(columns):
    """The SentenceTree of columns, or its fault as (code, message, line of its node in a .tb block)."""
    try:
        return SentenceTree("s1", *columns)
    except FieldError as fault:
        return fault.code, str(fault), fault.node + 2


def _parsed_tree(tree):
    """The one tree parse_trees reads from tree's text, or its fault as (code, message, line)."""
    try:
        [parsed] = parse_trees(serialize_trees([tree]))
        return parsed
    except ParseError as exc:
        return exc.diagnostic.code, exc.diagnostic.message, exc.diagnostic.line


def test_every_small_tree_is_built_as_it_is_parsed():
    """Every tree of 1-2 terminals and 0-2 nonterminals, ids drawn from {499, 500, 501} and parents
    from {0, 499, 500, 501, 502, 7}: the constructor and the parser give one fault or one tree, and
    brute_is_tree, which checks no id rule, agrees wherever the ids pass them."""
    base = SentenceTree("s1", ("a",), ("NN",), (None,), (0,))
    codes, trees = set(), 0
    for n, n_nts in product((1, 2), (0, 1, 2)):
        for nt_ids in product((499, 500, 501), repeat=n_nts):
            ids_pass = all(map(lt, (499, *nt_ids), nt_ids))
            for parents in product((0, 499, 500, 501, 502, 7), repeat=n + n_nts):
                columns = (("a", "b")[:n], ("NN",) * n + ("NP",) * n_nts, (None,) * (n + n_nts), parents, nt_ids)
                built = _built_tree(columns)
                tree = unchecked_tree(base, **dict(zip(("tokens", "labels", "edges", "parents", "nt_ids"), columns)))
                assert built == _parsed_tree(tree), columns
                if isinstance(built, tuple):
                    codes.add(built[0])
                if ids_pass:
                    assert brute_is_tree(tree) == isinstance(built, SentenceTree), columns
                trees += 1
    assert trees == 14406
    assert codes == {"E-TREE-CYCLE", "E-PARENT-UNKNOWN", "E-NT-EMPTY", "E-NODE-ID-RANGE", "E-NODE-DUP", "E-SYNTAX"}
