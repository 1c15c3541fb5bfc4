from __future__ import annotations

import random

import pytest

from fusetb.query import (
    FILTER_KEYS,
    CorpusNotValidatedError,
    Filter,
    Query,
    QueryError,
    parse_query,
    run_query,
)

from .generators import random_corpus
from .oracles import (
    QUERY_OPTIONAL_KEYS,
    assert_query_matches_oracle,
    random_query_filters,
    required_filters,
    value_pools,
)


def query_error_code(text):
    with pytest.raises(QueryError) as excinfo:
        parse_query(text)
    return excinfo.value.code


def test_parse_query_positive_filters():
    q = parse_query("preds class=v aligned-class=n")
    assert q == Query(
        "preds", (Filter("class", False, "v"), Filter("aligned-class", False, "n"))
    )


def test_parse_query_negated_filter():
    q = parse_query("preds tag=pv aligned-tag!=pv")
    assert q.filters == (Filter("tag", False, "pv"), Filter("aligned-tag", True, "pv"))


@pytest.mark.parametrize(
    "text,code",
    [
        ("frames lemma=", "E-Q-SYNTAX"),
        ("", "E-Q-SYNTAX"),
        ("bogus class=v", "E-Q-SYNTAX"),
        ("preds class", "E-Q-SYNTAX"),
        ("preds bogus=v", "E-Q-KEY"),
        ("aligns class=v", "E-Q-KEY"),
        ("aligns kind=bogus", "E-Q-KEY"),
        ("preds voice=active", "E-Q-KEY"),
        ("unaligned lang=de", "E-Q-KEY"),
        ("realizations group=GIVE", "E-Q-KEY"),
        ("frames lang=en", "E-Q-KEY"),
    ],
)
def test_parse_query_errors(text, code):
    assert query_error_code(text) == code


def rows(corpus, text):
    return run_query(corpus, parse_query(text))


def test_nominalization_query(fixture_corpus):
    got = rows(fixture_corpus, "preds class=v aligned-class=n")
    assert len(got) == 1
    row = got[0]
    assert (row["left_lemma"], row["right_lemma"]) == ("HARMONISE", "HARMONISIERUNG")
    assert (row["left_class"], row["right_class"]) == ("v", "n")


def test_voice_divergence_query(fixture_corpus):
    got = rows(fixture_corpus, "preds voice=diverge")
    assert [(r["left_lemma"], r["right_lemma"], r["right_tags"]) for r in got] == [
        ("SAFEGUARD", "BEWAHREN", "pv")
    ]
    assert got[0]["left_tags"] == "-"
    # the explicit two-query formulation finds the same pair
    explicit = rows(fixture_corpus, "preds tag!=pv aligned-tag=pv")
    assert [(r["left_lemma"], r["right_lemma"]) for r in explicit] == [
        ("SAFEGUARD", "BEWAHREN")
    ]
    assert rows(fixture_corpus, "preds tag=pv aligned-tag!=pv") == []


def test_tagged_alignment_queries(fixture_corpus):
    opp = rows(fixture_corpus, "aligns kind=pred atag=abs-opp")
    assert [(r["left_label"], r["right_label"]) for r in opp] == [
        ("INAPPLICABLE", "ANWENDBAR")
    ]
    incomp = rows(fixture_corpus, "aligns kind=arg atag=incomp")
    assert [(r["left_label"], r["right_label"]) for r in incomp] == [
        ("GIVER", "MITGEBER")
    ]


def test_unaligned_query(fixture_corpus):
    got = rows(fixture_corpus, "unaligned kind=pred lang=de")
    assert [(r["sent"], r["label"]) for r in got] == [
        ("s1", "ERFORDERLICH"),
        ("s5", "DOLMETSCHEN"),
    ]
    args = rows(fixture_corpus, "unaligned kind=arg lang=de")
    assert [(r["sent"], r["label"]) for r in args] == [("s1", "ERFORDERTES"), ("s4", "MITTEL")]


def test_realizations_query(fixture_corpus):
    got = rows(fixture_corpus, "realizations lang=en group=RAISE role=ENT_RAISED")
    assert [r["realization"] for r in got] == ["the questions … about funding"]
    giver = rows(fixture_corpus, "realizations lang=en group=GIVE role=GIVER")
    assert [r["realization"] for r in giver] == ["Our motion"]


def test_frames_query(fixture_corpus):
    got = rows(fixture_corpus, "frames group=MITGEBEN lang=de")
    assert got == [
        {
            "lang": "de",
            "lemma": "MITGEBEN",
            "class": "v",
            "group": "MITGEBEN",
            "tags": "-",
            "frame": "EMPFÄNGER+MITGEBER+MITGEGEBENES+MITTEL",
            "count": "1",
        }
    ]
    tagged = rows(fixture_corpus, "frames lemma=DOLMETSCHEN")
    assert [(r["tags"], r["frame"]) for r in tagged] == [("pv", "-")]


def test_contradictory_filters_yield_empty_result(fixture_corpus):
    assert rows(fixture_corpus, "preds class=v class!=v") == []
    assert rows(fixture_corpus, "aligns kind=pred kind!=pred") == []


def test_no_match_is_empty_not_error(fixture_corpus):
    assert rows(fixture_corpus, "preds lemma=NOSUCH") == []


def test_unvalidated_corpus_is_refused():
    import dataclasses

    rng = random.Random(1)
    corpus = random_corpus(rng)
    unvalidated = dataclasses.replace(corpus, validated=False)
    with pytest.raises(CorpusNotValidatedError):
        run_query(unvalidated, parse_query("aligns kind=pred"))


def test_run_query_rechecks_hand_built_queries(fixture_corpus):
    with pytest.raises(QueryError):
        run_query(fixture_corpus, Query("preds", (Filter("bogus", False, "x"),)))
    # the check runs when the Query is built, so no invalid Query exists
    for command, filters, message in (
        ("unaligned", (), "E-Q-KEY: unaligned requires kind=pred or kind=arg"),
        ("preds", (Filter("bogus", False, "x"),), "E-Q-KEY: filter 'bogus' is not valid for preds"),
    ):
        with pytest.raises(QueryError) as excinfo:
            Query(command, filters)
        assert (excinfo.value.code, str(excinfo.value)) == ("E-Q-KEY", message)


def test_query_is_pure_and_deterministic(fixture_corpus):
    first = rows(fixture_corpus, "aligns kind=arg")
    second = rows(fixture_corpus, "aligns kind=arg")
    assert first == second


def test_query_results_match_exhaustive_scan():
    rng = random.Random(55)
    for _ in range(40):
        corpus = random_corpus(rng)
        for command in QUERY_OPTIONAL_KEYS:
            filters = random_query_filters(rng, command, corpus)
            assert_query_matches_oracle(corpus, command, filters)


def filter_key_cases(corpus):
    """(command, filters) for every key of every command: a positive filter, a negated
    one and a contradictory pair, each added to every required filter set."""
    pools = value_pools(corpus)
    for command, keys in FILTER_KEYS.items():
        for base in required_filters(command, corpus):
            for key in keys:
                for value in pools[key]:
                    positive, negated = Filter(key, False, value), Filter(key, True, value)
                    for extra in ((positive,), (negated,), (positive, negated)):
                        yield command, base + extra


def test_every_filter_key_matches_the_oracle_at_its_scope(fixture_corpus):
    rng = random.Random(91)
    corpora = [fixture_corpus] + [random_corpus(rng) for _ in range(8)]
    n_cases = n_contradictory = 0
    for corpus in corpora:
        for command, filters in filter_key_cases(corpus):
            assert_query_matches_oracle(corpus, command, filters)
            n_cases += 1
            last = filters[-1]
            if last.negated and Filter(last.key, False, last.value) in filters:
                assert run_query(corpus, Query(command, filters)) == [], (command, filters)
                n_contradictory += 1
    assert n_cases > 2000 and n_contradictory > 700, (n_cases, n_contradictory)


class _Tripwire:
    """Stands in for an annotation that a query must not read."""

    def __getattribute__(self, name):
        raise AssertionError(f"read {name} of an annotation outside the lang filter")


@pytest.mark.parametrize(
    "text",
    [
        "unaligned kind=arg lang=en",
        "unaligned kind=pred lang!=de",
        "realizations group=GIVE role=GIVER lang=en",
        "realizations group=SAFEGUARD role=SAFEGUARDER lang!=de",
        "frames group=GIVE lang=en",
        "frames lemma=DISCUSS lang!=de",
    ],
)
def test_lang_filter_reads_no_annotation_of_another_language(fixture_corpus, text):
    import dataclasses

    expected = run_query(fixture_corpus, parse_query(text))
    guarded = dataclasses.replace(fixture_corpus)
    guarded.treebanks["de"] = tuple(_Tripwire() for _ in guarded.treebanks["de"])
    assert run_query(guarded, parse_query(text)) == expected != []


def repeated_key_cases(corpus):
    """(command, filters) where one key's filters repeat, each added to every required filter
    set: two different positive values, one negated value twice, and a negation before its
    positive."""
    pools = value_pools(corpus)
    for command, keys in FILTER_KEYS.items():
        for base in required_filters(command, corpus):
            for key in keys:
                first, last = pools[key][0], pools[key][-1]
                for repeated in (
                    (Filter(key, False, first), Filter(key, False, last)),
                    (Filter(key, True, first), Filter(key, True, first)),
                    (Filter(key, True, first), Filter(key, False, first)),
                ):
                    yield command, base + repeated


def test_filters_that_repeat_a_key_match_the_oracle(fixture_corpus):
    rng = random.Random(17)
    corpora = [fixture_corpus] + [random_corpus(rng) for _ in range(6)]
    n_cases = n_rows = 0
    for corpus in corpora:
        for command, filters in repeated_key_cases(corpus):
            assert_query_matches_oracle(corpus, command, filters)
            n_cases += 1
            n_rows += run_query(corpus, Query(command, filters)) != []
            last = filters[-1]
            if not last.negated and filters[-2] == Filter(last.key, True, last.value):
                assert run_query(corpus, Query(command, filters)) == [], (command, filters)
    assert n_cases > 500 and n_rows > 60, (n_cases, n_rows)


@pytest.mark.parametrize("command", ["unaligned kind=arg", "realizations group=GIVE role=GIVER",
                                     "frames group=GIVE"])
@pytest.mark.parametrize("langs", ["lang!=de lang!=de", "lang=en lang!=de", "lang=en lang=en"])
def test_repeated_lang_filters_read_no_annotation_of_another_language(fixture_corpus, command, langs):
    import dataclasses

    query = parse_query(f"{command} {langs}")
    expected = run_query(fixture_corpus, query)
    guarded = dataclasses.replace(fixture_corpus)
    guarded.treebanks["de"] = tuple(_Tripwire() for _ in guarded.treebanks["de"])
    assert run_query(guarded, query) == expected != []
