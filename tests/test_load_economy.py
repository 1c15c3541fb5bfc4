"""load_corpus pauses cyclic GC and shares the equal immutable leaves it builds."""

from __future__ import annotations

import gc
import random
import sys
import threading

import pytest

import fusetb.corpus
import fusetb.model
from fusetb.cli import main
from fusetb.corpus import load_corpus
from fusetb.model import (
    Binding,
    ElemRef,
    FieldError,
    MonolingualAnnotation,
    NodeRef,
    Predicate,
    SentenceTree,
)

from .conftest import FIXTURES
from .generators import node_refs, random_corpus, write_corpus_files

FIXTURE_MANIFEST = FIXTURES / "corpus.manifest"


@pytest.fixture()
def generated(tmp_path):
    """(in-memory corpus, manifest path) of a generated corpus written to files."""
    corpus = random_corpus(random.Random(7), max_sents=40)
    directory = tmp_path / "generated"
    directory.mkdir()
    return corpus, write_corpus_files(corpus, directory)


@pytest.fixture()
def gc_enabled():
    """Run the test with GC enabled, and enable it again afterwards whatever the test did."""
    gc.enable()
    yield
    gc.enable()


def test_no_collection_runs_during_a_load(generated, gc_enabled, monkeypatch):
    # The collection GC owes once it is enabled again may start as soon as
    # the load body returns, so the hook counts collections inside the body.
    _, manifest = generated
    real_body = fusetb.corpus._load_corpus
    inside = []
    collections = []

    def body(*args):
        inside.append(True)
        try:
            return real_body(*args)
        finally:
            inside.pop()

    def hook(phase, info):
        if phase == "start" and inside:
            collections.append(info["generation"])

    monkeypatch.setattr(fusetb.corpus, "_load_corpus", body)
    gc.callbacks.append(hook)
    try:
        corpus, diags = load_corpus(manifest)
    finally:
        gc.callbacks.remove(hook)
    assert corpus is not None, [d.render() for d in diags]
    assert collections == []


@pytest.mark.parametrize("enabled", [True, False])
def test_load_keeps_the_callers_gc_state(enabled, gc_enabled):
    if not enabled:
        gc.disable()
    corpus, _ = load_corpus(FIXTURE_MANIFEST)
    assert corpus is not None
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_is_restored_when_a_parser_raises(enabled, gc_enabled, monkeypatch):
    def broken(*args, **kwargs):
        assert not gc.isenabled()
        raise RuntimeError("parser failed")

    monkeypatch.setattr(fusetb.corpus, "parse_trees", broken)
    if not enabled:
        gc.disable()
    with pytest.raises(RuntimeError, match="parser failed"):
        load_corpus(FIXTURE_MANIFEST)
    assert gc.isenabled() is enabled


def test_overlapping_loads_keep_gc_paused_until_the_last_returns(
    fixture_corpus, gc_enabled, monkeypatch
):
    # Thread a finishes its load while thread b is still inside its own;
    # b must still run with GC paused, and GC is enabled once both are done.
    real_parse_trees = fusetb.corpus.parse_trees
    both_inside = threading.Barrier(2, timeout=10)
    a_done = threading.Event()
    seen_by_b = []
    results = {}

    def parse_trees(text, filename):
        if filename.endswith("en.tb"):
            both_inside.wait()
            if threading.current_thread().name == "b":
                assert a_done.wait(timeout=10)
                seen_by_b.append(gc.isenabled())
        return real_parse_trees(text, filename)

    def load(name):
        results[name] = load_corpus(FIXTURE_MANIFEST)[0]

    monkeypatch.setattr(fusetb.corpus, "parse_trees", parse_trees)
    threads = {name: threading.Thread(target=load, args=(name,), name=name) for name in "ab"}
    for thread in threads.values():
        thread.start()
    threads["a"].join(timeout=10)
    assert not threads["a"].is_alive()
    a_done.set()
    threads["b"].join(timeout=10)
    assert not threads["b"].is_alive()
    assert seen_by_b == [False]
    assert gc.isenabled()
    assert results == {"a": fixture_corpus, "b": fixture_corpus}


def test_many_concurrent_loads_restore_gc(fixture_corpus, gc_enabled):
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda: results.extend(load_corpus(FIXTURE_MANIFEST)[0] for _ in range(3))
            )
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [fixture_corpus] * 18
    assert gc.isenabled()


def loaded_corpora(generated):
    fixture, _ = load_corpus(FIXTURE_MANIFEST)
    corpus, _ = load_corpus(generated[1])
    return fixture, corpus


def all_annotations(corpus):
    return [ann for anns in corpus.treebanks.values() for ann in anns]


def test_element_refs_are_the_binding_targets(generated):
    for corpus in loaded_corpora(generated):
        checked = 0
        for ann in all_annotations(corpus):
            for ref in ann.element_refs():
                assert ref is ann.binding_for(ref).target
                checked += 1
        assert checked == sum(len(ann.bindings) for ann in all_annotations(corpus))


def test_equal_node_refs_are_one_object(generated):
    fixture, corpus = loaded_corpora(generated)
    by_value = {}
    checked = 0
    for ann in all_annotations(fixture) + all_annotations(corpus):
        tree = ann.tree
        refs = node_refs(tree)
        for binding in ann.bindings:
            refs.extend(binding.included | binding.excluded)
        for ref in refs:
            assert by_value.setdefault(ref, ref) is ref
        checked += len(refs)
    assert checked > 10 * len(by_value)


def test_empty_excluded_and_tags_are_one_object(generated):
    empties = set()
    for corpus in loaded_corpora(generated):
        for ann in all_annotations(corpus):
            for binding in ann.bindings:
                empties.update(id(s) for s in (binding.excluded, binding.tags) if not s)
    assert len(empties) == 1


def test_shared_leaves_change_no_value_repr_or_export(generated, tmp_path):
    source, manifest = generated
    corpus, _ = load_corpus(manifest)
    fresh, _ = load_corpus(manifest)
    assert corpus == fresh == source
    assert repr(corpus) == repr(fresh)
    out = tmp_path / "exported"
    assert main(["export", manifest, "--out", str(out)]) == 0
    inputs = sorted(p for p in (tmp_path / "generated").iterdir())
    assert [p.name for p in inputs] == sorted(p.name for p in out.iterdir())
    for path in inputs:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    reloaded, _ = load_corpus(out / "corpus.manifest")
    assert reloaded == corpus and repr(reloaded) == repr(corpus)


def test_node_ref_table_stops_growing_at_its_bound():
    bound = fusetb.model._shared_node_ref.cache_info().maxsize
    refs = [NodeRef.parse(f"n{500 + i}") for i in range(bound + 100)]
    assert fusetb.model._shared_node_ref.cache_info().currsize == bound
    assert [ref.num for ref in refs] == list(range(500, 600 + bound))
    assert NodeRef.parse("n500") == refs[0]


def test_tree_columns_are_not_tracked_by_gc(generated):
    for corpus in loaded_corpora(generated):
        gc.collect()
        for ann in all_annotations(corpus):
            tree = ann.tree
            for column in (tree.tokens, tree.labels, tree.edges, tree.parents, tree.nt_ids):
                assert not gc.is_tracked(column), (tree.sentence_id, column)


def test_equal_node_sets_and_forms_in_a_file_are_one_object(generated):
    for corpus in loaded_corpora(generated):
        node_sets = {}
        set_uses = form_uses = 0
        for anns in corpus.treebanks.values():
            forms = {}  # forms are shared within one .tb file
            for ann in anns:
                for form in ann.tree.tokens:
                    assert forms.setdefault(form, form) is form
                form_uses += len(ann.tree.tokens)
                for binding in ann.bindings:
                    for node_set in (binding.included, binding.excluded):
                        assert node_sets.setdefault(node_set, node_set) is node_set
                    set_uses += 2
            assert form_uses > len(forms)
        assert set_uses > len(node_sets)


def test_a_tree_has_no_instance_dict_and_no_child_index(generated):
    fields = ("sentence_id", "tokens", "labels", "edges", "parents", "nt_ids")
    assert SentenceTree.__slots__ == fields
    for corpus in loaded_corpora(generated):
        for ann in all_annotations(corpus):
            assert not hasattr(ann.tree, "__dict__")


def test_equal_elem_refs_are_one_object(generated):
    # .pa targets, element refs and .al endpoints, across sentences and files
    fixture, corpus = loaded_corpora(generated)
    by_value = {}
    checked = 0
    for loaded in (fixture, corpus):
        refs = []
        for ann in all_annotations(loaded):
            refs.extend(ann.element_refs())
            refs.extend(b.target for b in ann.bindings)
        for pair_set in loaded.pair_sets:
            for pair in pair_set.pairs:
                refs.extend(end for a in pair.alignments for end in (a.left, a.right))
        for ref in refs:
            assert by_value.setdefault(ref, ref) is ref, ref
        checked += len(refs)
    assert checked > 5 * len(by_value)


def test_equal_predicate_ids_and_names_are_one_string(generated):
    for loaded in loaded_corpora(generated):
        strings = {}
        uses = 0
        for ann in all_annotations(loaded):
            names = [s for p in ann.predicates for s in (p.pred_id, p.lemma, p.group, p.syn_class)]
            names += [s for a in ann.arguments for s in (a.pred_id, a.role)]
            for name in names:
                assert strings.setdefault(name, name) is name, name
            uses += len(names)
        assert uses > 2 * len(strings)


def test_an_annotation_has_no_instance_dict(generated):
    for corpus in loaded_corpora(generated):
        for ann in all_annotations(corpus):
            assert not hasattr(ann, "__dict__")


def test_equal_tag_sets_are_one_object(generated):
    by_value = {}
    uses = 0
    for corpus in loaded_corpora(generated):
        for ann in all_annotations(corpus):
            for binding in ann.bindings:
                if binding.tags:
                    assert by_value.setdefault(binding.tags, binding.tags) is binding.tags
                    uses += 1
    assert uses > 2 * len(by_value)


def test_a_lone_binding_is_stored_bare(generated):
    for corpus in loaded_corpora(generated):
        for ann in all_annotations(corpus):
            assert list(ann._bindings.values()) == list(ann.bindings)


@pytest.mark.parametrize("copies", [2, 3])
def test_every_duplicate_binding_is_counted(copies):
    tree = SentenceTree("s1", ("a", "b"), ("NN", "NN"), (None, None), (0, 0))
    target = ElemRef.of("p1")
    binds = tuple(Binding(target, frozenset({NodeRef.parse(f"t{1 + i % 2}")})) for i in range(copies))
    with pytest.raises(FieldError) as excinfo:
        MonolingualAnnotation(tree, (Predicate("p1", "GEBEN", "v", "GEBEN"),), (), binds)
    assert (excinfo.value.code, str(excinfo.value)) == (
        "E-BIND-MISSING", f"sentence s1: element p1 has {copies} bindings, expected exactly one")


# Measured 635 on this corpus (792 with a tuple per bound element and an instance
# dict per annotation, 1,151 with a stored child index and one ElemRef per element,
# 1,687 with one object per tree node), plus a margin under 10%.
TRACKED_GROWTH_BOUND = 695


def test_a_load_adds_a_bounded_number_of_tracked_objects(generated):
    # The first load fills the shared-leaf tables, so the second counts the corpus alone.
    _, manifest = generated
    assert load_corpus(manifest)[0] is not None
    gc.collect()
    before = len(gc.get_objects())
    corpus, _ = load_corpus(manifest)
    gc.collect()
    growth = len(gc.get_objects()) - before
    assert corpus is not None
    assert growth < TRACKED_GROWTH_BOUND
