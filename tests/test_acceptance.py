"""The acceptance battery, one test per criterion.

Each test prints its criterion line, asserts the verdict, and holds the
run to the stated time budget where one is stated.
"""

import dataclasses
import itertools
import random
import typing
from collections import Counter

import pytest

from langlab import acceptance, corpus
from langlab.advice import (
    AdviceFunction,
    AdvisedLanguage,
    leq_parallel,
    parallel_member,
    prefix_pair_decode,
    prefix_pair_encode,
    serial_to_parallel_reg,
    table_advice,
)
from langlab.grammars import Dfa, dfa_accepts, to_cnf
from langlab.swaplab import Slice, bound_report, build_slice
from langlab.words import Word, split_letter

SEEDS = (1729, 1)


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
    # 200 draws over 37 distinct (name, n): each pool is built once, off its
    # position maps, and no draw runs a generator (rebuilding a pool per
    # draw built L2_1's slice at n = 8, 9,344 words, every time it was drawn)
    calls = Counter()

    def counted(language, n):
        calls[language.name, n] += 1
        return build_slice(language, n)

    def refuse(n):
        raise AssertionError("the criterion ran a generator")

    monkeypatch.setattr(acceptance, "build_slice", counted)
    for name, lang in list(corpus.LANGUAGES.items()):
        monkeypatch.setitem(corpus.LANGUAGES, name, dataclasses.replace(lang, generator=refuse))
    result = acceptance.partition_identity(1729)
    assert result.passed
    assert result.details == "200 slices, all (i, j) checked, 0 failures"
    assert len(calls) == 37 and set(calls.values()) == {1}


def generator_draws(seed):
    """The sub-slices of the partition criterion drawn from the generators'
    Word tuples: the per-word reference for its packed draws."""
    rng = random.Random(seed)
    generated, drawn = {}, []
    while len(drawn) < 200:
        name = rng.choice(sorted(acceptance._PARTITION_POOL))
        n = rng.choice(acceptance._PARTITION_POOL[name])
        if (name, n) not in generated:
            generated[name, n] = corpus.LANGUAGES[name].generator(n)
        members = generated[name, n]
        if not members:
            continue
        take = rng.randint(1, min(len(members), 64))
        drawn.append((f"{name}[n={n}] sample", tuple(rng.sample(members, take))))
    return drawn


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_identity_draws_the_generator_route_sub_slices(monkeypatch, seed):
    drawn = []

    def recorded(n, members, origin=""):
        drawn.append((origin, members))
        return Slice(n, members, origin)

    monkeypatch.setattr(acceptance, "Slice", recorded)
    assert acceptance.partition_identity(seed).passed
    assert drawn == generator_draws(seed)


def per_word_advice_mismatches(seed):
    """Criterion 9 one decision at a time: ``parallel_member`` against
    ``is_leq``, and against ``dfa_accepts(m, g(ln) + x)`` after the
    conversion that ``acceptance.serial_to_parallel_reg`` names."""
    mismatches_a = 0
    leq = leq_parallel()
    for n in range(0, 11):
        for t in itertools.product((0, 1), repeat=n):
            x = Word._trusted(t)
            mismatches_a += parallel_member(leq, x) != corpus.is_leq(x)
    rng = random.Random(seed)
    mismatches_b = 0
    for _ in range(20):
        m = acceptance._random_dfa(rng)
        table = {n: [rng.choice((0, 1)) for _ in range(n)] for n in range(0, 9)}
        g = table_advice(table, "random-table")
        h, m2 = acceptance.serial_to_parallel_reg(m, g)
        converted = AdvisedLanguage("parallel", m2, h)
        for ln in range(1, 9):
            for t in itertools.product((0, 1), repeat=ln):
                x = Word._trusted(t)
                mismatches_b += parallel_member(converted, x) != dfa_accepts(m, g(ln) + x)
    return f"parallel mismatches: {mismatches_a}, conversion mismatches: {mismatches_b}"


def shifted_head(m, g):
    # the first advice letter, which carries the state, is one too high
    h, m2 = serial_to_parallel_reg(m, g)
    shifted = AdviceFunction(lambda n: Word._trusted(tuple(a + (p == 0) for p, a in enumerate(h(n).letters))))
    return shifted, m2


def start_row_ignores_the_state(m, g):
    # the new start state reads every first letter as if g had left m in m.start
    h, m2 = serial_to_parallel_reg(m, g)
    transitions = dict(m2.transitions)
    for code in m2.alphabet:
        transitions[m2.start, code] = m.transitions[m.start, split_letter(code)[0]]
    return h, Dfa(m2.states, m2.alphabet, transitions, m2.start, m2.accepting)


@pytest.mark.parametrize(
    "convert,mismatches",
    [
        (serial_to_parallel_reg, {1729: 0, 1: 0}),
        (shifted_head, {1729: 2896, 1: 2485}),
        (start_row_ignores_the_state, {1729: 970, 1: 748}),
    ],
    ids=["conversion", "shifted-head", "start-row-ignores-the-state"],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_advice_equivalences_walk_matches_the_per_word_route(monkeypatch, seed, convert, mismatches):
    monkeypatch.setattr(acceptance, "serial_to_parallel_reg", convert)
    result = acceptance.advice_equivalences(seed)
    expected = f"parallel mismatches: 0, conversion mismatches: {mismatches[seed]}"
    assert result.details == per_word_advice_mismatches(seed) == expected
    assert result.passed == (mismatches[seed] == 0)


def test_prefix_collisions_count_as_the_cut_slicing_does(monkeypatch):
    # a planted encoder drops the second word's closing 0, 1, so a codeword
    # is a prefix of every codeword of the same u and a longer v
    def planted(u, v):
        return Word._trusted(prefix_pair_encode(u, v).letters[:-2])

    monkeypatch.setattr(acceptance, "prefix_pair_encode", planted)
    monkeypatch.setattr(acceptance, "prefix_pair_decode", lambda w: prefix_pair_decode(w + Word.of(0, 1)))
    words = [Word(t) for k in range(6) for t in itertools.product((0, 1), repeat=k)]
    codeset = {planted(u, v).letters for u in words for v in words}
    sliced = sum(code[:cut] in codeset for code in codeset for cut in range(1, len(code)))
    result = acceptance.prefix_free_coding(1729)
    assert sliced > 0 and not result.passed
    assert result.details == f"{len(codeset)} codewords, {sliced} prefix collisions, 0 bad roundtrips"


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
