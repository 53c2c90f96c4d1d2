"""The acceptance battery, one test per criterion.

Each test prints its criterion line, asserts the verdict, and holds the
run to the stated time budget where one is stated.
"""

import dataclasses
import typing
from collections import Counter

import pytest

from langlab import acceptance, corpus
from langlab.grammars import to_cnf
from langlab.swaplab import Slice, bound_report, build_slice
from langlab.words import Word


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"{i + 1:02d}-{fn.__name__}" for i, fn in enumerate(acceptance.CRITERIA)],
)
def test_criterion(criterion):
    assert typing.get_type_hints(criterion)["return"] is acceptance.CriterionResult
    result = criterion(acceptance.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.details
    if result.budget_s is not None:
        assert result.elapsed_s <= result.budget_s, (
            f"criterion {result.number} took {result.elapsed_s:.1f}s, "
            f"budget {result.budget_s:.0f}s"
        )


def test_battery_is_green_end_to_end():
    results = acceptance.run_all()
    for result in results:
        print(result.line())
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.passed for r in results)


def test_advice_equivalences_build_each_table_word_once(monkeypatch):
    # 20 random tables of 9 advice words are built once each; rebuilding a
    # table's word on every decision built 20,220 more (44,894 in all)
    inits = []
    checked_init = Word.__init__

    def counted_init(self, letters=()):
        inits.append(letters)
        checked_init(self, letters)

    monkeypatch.setattr(Word, "__init__", counted_init)
    result = acceptance.advice_equivalences(1729)
    assert result.passed
    assert result.details == "parallel mismatches: 0, conversion mismatches: 0"
    assert len(inits) <= 44_894 - 20_000


def test_partition_identity_generates_each_slice_once(monkeypatch):
    # 200 draws over 37 distinct (name, n): regenerating a slice per draw
    # built L2_1's slice at n = 8, 9,344 words, every time it was drawn
    calls = Counter()
    for name, lang in list(corpus.LANGUAGES.items()):

        def counted(n, name=name, generator=lang.generator):
            calls[name, n] += 1
            return generator(n)

        monkeypatch.setitem(corpus.LANGUAGES, name, dataclasses.replace(lang, generator=counted))
    result = acceptance.partition_identity(1729)
    assert result.passed
    assert result.details == "200 slices, all (i, j) checked, 0 failures"
    assert len(calls) == 37 and set(calls.values()) == {1}


def test_intersection_identity_enumerates_once(monkeypatch):
    # the criterion runs corpus.intersection_check, which enumerates L2_2
    # and filters it through CYK on L2_1, rather than enumerating both
    calls = []
    enumerate_language = corpus.enumerate_language

    def counted(g, max_len):
        calls.append(max_len)
        return enumerate_language(g, max_len)

    monkeypatch.setattr(corpus, "enumerate_language", counted)
    # also counts a route that enumerates from the battery module itself
    monkeypatch.setattr(acceptance, "enumerate_language", counted, raising=False)
    result = acceptance.intersection_identity(1729)
    assert result.passed
    assert result.details == "cardinalities n=1..8: [0, 0, 0, 2, 0, 0, 0, 4]"
    assert calls == [8]


def test_intersection_identity_replays_only_through_the_second_grammar(monkeypatch):
    # one word-parallel filter call takes the 340 L2_2 candidates through
    # CYK on L2_1, then the 6 members found are replayed once each, through
    # CYK on L2_2
    filtered = []
    replayed = []
    cyk_filter = corpus.cyk_filter
    cyk_member = corpus.cyk_member

    def counted_filter(g, words):
        filtered.append((g, len(words)))
        return cyk_filter(g, words)

    def counted_member(g, w):
        replayed.append(g)
        return cyk_member(g, w)

    monkeypatch.setattr(corpus, "cyk_filter", counted_filter)
    monkeypatch.setattr(corpus, "cyk_member", counted_member)
    assert acceptance.intersection_identity(1729).passed
    cnf_1 = to_cnf(corpus.grammar_l2_1())
    cnf_2 = to_cnf(corpus.grammar_l2_2())
    assert filtered == [(cnf_1, 340)]
    assert replayed == [cnf_2] * 6


def test_binding_bound_reports_a_planted_violation(monkeypatch):
    # at n=8, j=2 the bound is 2: the slice plus a word that repeats its most
    # common factor, on letters of its own elsewhere, must fail the
    # criterion and be named in its details
    slice_stats = acceptance.slice_stats
    planted = []

    def planted_stats(s, j):
        if (s.n, j) == (8, 2):
            i, u, _ = slice_stats(s, j).max_entry()
            s = Slice(8, s.members + (Word((0,) * i + u.letters + (0,) * (6 - i)),))
            planted.append(slice_stats(s, j))
        return slice_stats(s, j)

    monkeypatch.setattr(acceptance, "slice_stats", planted_stats)
    result = acceptance.binding_bound(1729)
    (stats,) = planted
    violation = bound_report(stats).violation
    assert violation == (1, Word.of(1, 3), 3)
    checked = 1842 - len(slice_stats(build_slice(corpus.LANGUAGES["L2"], 8), 2).counts) + len(stats.counts)
    assert not result.passed
    assert result.details == f"{checked} counts checked; violation at n=8, j=2: {violation}"
