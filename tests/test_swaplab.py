"""Slices, midsection statistics, the swap scan, and the parameter chain."""

import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langlab.advice import AdviceError, AdviceFunction, leq_advice, table_advice, zero_advice
from langlab.corpus import LANGUAGES, CorpusLanguage, is_l2, is_pal_sharp, l2_members
from langlab import cli, corpus, swaplab
from langlab.guards import CostGuardError, InvariantError
from langlab.swaplab import (
    BoundReport,
    Slice,
    SliceStats,
    SwapParams,
    SwapWitness,
    advised_oracle,
    bound_report,
    build_slice,
    ceil_log2,
    density_condition,
    l2_bound_check,
    slice_stats,
    swap_scan,
    witness_listing,
)
from langlab.words import MapRuns, PositionMap, TrackedWord, Word, fuse_letter, fuse_tracks, nest_l2
from test_words import position_maps, runs_of

L2 = LANGUAGES["L2"]


def is_even_palindrome(w):
    return (
        len(w) >= 2
        and len(w) % 2 == 0
        and all(a in (0, 1) for a in w.letters)
        and w.letters == w.letters[::-1]
    )


EVEN_PALINDROMES = CorpusLanguage("even_pal", frozenset({0, 1}), is_even_palindrome, None)


def brute_counts(members, j):
    # independent recount of every (i, u) pair by nested loops
    counts = {}
    for w in members:
        n = len(w)
        for i in range(n - j + 1):
            key = (i, w.letters[i : i + j])
            counts[key] = counts.get(key, 0) + 1
    return counts


# -- slices ---------------------------------------------------------------------


def test_l2_slice_sizes():
    assert len(build_slice(L2, 8)) == 4
    assert len(build_slice(L2, 10)) == 0
    for n in (4, 8, 16, 24, 32):
        assert len(build_slice(L2, n)) == 2 ** (n // 4)


def test_brute_force_slice_of_palindromes():
    s = build_slice(EVEN_PALINDROMES, 4)
    assert [w.letters for w in s.members] == [
        (0, 0, 0, 0),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 1, 1, 1),
    ]
    # fused, it packs what the public constructor packs for the fused Words
    for n in (4, 5, 6):
        plain = [w for w in map(Word, product((0, 1), repeat=n)) if is_even_palindrome(w)]
        for advice in (leq_advice(), zero_advice()):
            want = Slice(n, [Word(fuse_tracks(x.letters, advice(n).letters)) for x in plain])
            got = build_slice(EVEN_PALINDROMES, n, advice)
            assert (got.letters, got.packed) == (want.letters, want.packed) and len(got) == len(plain)
            assert got.origin == f"even_pal[n={n}]+{advice.name}"


def test_brute_force_slice_cost_guard(monkeypatch):
    big = CorpusLanguage("big", frozenset(range(10)), lambda w: True, None)
    with pytest.raises(CostGuardError):
        build_slice(big, 8)
    monkeypatch.setattr(swaplab, "SLICE_LIMIT", 1)
    assert len(build_slice(EVEN_PALINDROMES, 4, force=True)) == 4


def test_a_generated_slice_is_charged_its_exact_size(monkeypatch):
    # 2^100 members at n = 400: the guard trips before any is generated
    with pytest.raises(CostGuardError, match=str(2**100)):
        build_slice(L2, 400)
    monkeypatch.setattr(swaplab, "SLICE_LIMIT", 1023)
    with pytest.raises(CostGuardError, match="1024"):
        build_slice(L2, 40)
    monkeypatch.setattr(swaplab, "SLICE_LIMIT", 1024)
    assert len(build_slice(L2, 40)) == 1024
    monkeypatch.setattr(swaplab, "SLICE_LIMIT", 1)
    assert len(build_slice(L2, 8, force=True)) == 4


def test_slice_validation():
    with pytest.raises(ValueError):
        Slice(3, (Word.of(1, 2),))


def test_a_slice_read_off_the_map_is_the_generated_slice():
    # the packed map route against the generator, in the same order
    for name, lengths in (("L2", (4, 8, 12, 16, 20, 24, 7)), ("L2_2", (2, 4, 6, 8, 10, 7))):
        lang = LANGUAGES[name]
        for n in lengths:
            s = build_slice(lang, n)
            assert s.complete and s.members == lang.generator(n), (name, n)
            assert s.packed == sorted(set(s.packed))
    # every corpus language, plain and fused, against the generated Words
    # packed by the public constructor, on and off each length grid
    for name, lang in LANGUAGES.items():
        for n in range(1, 13):
            if lang.size(n) > 10**4:
                continue
            for advice in (None, leq_advice(), zero_advice()):
                s = build_slice(lang, n, advice)
                generated = lang.generator(n)
                origin = f"{name}[n={n}]"
                if advice is not None:
                    generated = [Word(fuse_tracks(x.letters, advice(n).letters)) for x in generated]
                    origin += f"+{advice.name}"
                want = Slice(n, generated)
                assert (s.letters, s.packed) == (want.letters, want.packed), (name, n, advice)
                assert s.origin == origin and s.complete and s.members == want.members
    # the advice word is asked for even where the slice is empty
    for n in (8, 10):
        with pytest.raises(AdviceError, match=f"no entry for length {n}"):
            build_slice(L2, n, table_advice({}, "none"))


# (language, lengths, advice): slices whose members are packed from Words
ROUND_TRIP_CASES = [
    ("Pal_sharp", (1, 3, 5, 7, 9), None),
    ("Pal_sharp", (3, 5, 7), "leq"),
    ("L2", (4, 8, 12), "leq"),
    ("L2_1", (3, 4, 5), None),
    ("L_eq", (2, 4, 6), "leq"),
]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_packing_round_trips_in_canonical_order(data):
    # pack, then decode: the same Words in the same order, on drawn slices
    # over arbitrary letters, on corpus slices and on fused slices
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 6))
        alphabet = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=20, unique=True))
        letters = st.tuples(*[st.sampled_from(alphabet)] * n)
        words = [Word(t) for t in data.draw(st.lists(letters, max_size=30))]
        s = Slice(n, tuple(words))
    else:
        name, lengths, advice = data.draw(st.sampled_from(ROUND_TRIP_CASES))
        n = data.draw(st.sampled_from(lengths))
        full = build_slice(LANGUAGES[name], n, leq_advice() if advice else None)
        words = data.draw(st.lists(st.sampled_from(full.members), max_size=40))
        s = Slice(n, tuple(words))
    assert s.members == tuple(sorted(set(words)))
    assert [s.word(v) for v in s.packed] == list(s.members)
    assert s.packed == sorted(set(s.packed)) and len(s) == len(s.members)
    assert s.letters == tuple(sorted({a for w in words for a in w.letters}))
    assert all(v < 2 ** (s.width * n) for v in s.packed)


def test_tracked_slice_members_carry_the_advice():
    s = build_slice(L2, 8, advice=leq_advice())
    assert len(s) == 4
    for w in s.members:
        tracked = TrackedWord.from_fused(w)
        assert tracked.bottom == leq_advice()(8)
        assert is_l2(tracked.top)


# -- statistics -----------------------------------------------------------------


def test_l2_stats_match_brute_recount_at_8():
    s = build_slice(L2, 8)
    for j in (1, 2):
        stats = slice_stats(s, j)
        assert {(i, u.letters): c for (i, u), c in stats.counts.items()} == brute_counts(
            s.members, j
        )


def test_l2_stats_shared_midsection():
    # the nestings of 11 and 12 share letters 4..5 = (3, 15)
    stats = slice_stats(build_slice(L2, 8), 2)
    assert stats.counts[3, Word.of(3, 15)] == 2


def test_l2_stats_offset_zero_is_all_distinct():
    # the first two letters are the choice word itself, unique per member
    stats = slice_stats(build_slice(L2, 8), 2)
    for (i, _), c in stats.counts.items():
        if i == 0:
            assert c == 1


def reference_counts(s, j):
    counts = {}
    for w in s.members:
        for i in range(s.n - j + 1):
            key = (i, w[i : i + j])
            counts[key] = counts.get(key, 0) + 1
    return counts


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.data())
def test_slice_stats_match_a_reference_counter(n, data):
    letters = st.tuples(*[st.sampled_from((0, 1, 2, 5))] * n)
    members = data.draw(st.sets(letters, min_size=1, max_size=30))
    s = Slice(n, tuple(Word(t) for t in members))
    j = data.draw(st.integers(1, n))
    stats = slice_stats(s, j)
    assert stats.counts == reference_counts(s, j)
    for _, u in stats.counts:
        assert all(type(a) is int and a >= 0 for a in u.letters) and u == Word(u.letters)


def test_nesting_scans_and_bounds_build_no_checked_words(monkeypatch):
    # every word on these paths comes from trusted letters: a regression
    # that re-validates them shows here as a nonzero count
    inits = []
    checked_init = Word.__init__

    def counted_init(self, letters=()):
        inits.append(letters)
        checked_init(self, letters)

    monkeypatch.setattr(Word, "__init__", counted_init)
    assert l2_bound_check(32, 4).ok
    assert swap_scan(is_l2, build_slice(L2, 16), (1, 4)) == []
    assert len(inits) == 0


def test_partition_identity_on_l2_slices():
    for n in (4, 8, 12):
        s = build_slice(L2, n)
        for j in range(1, n + 1):
            assert slice_stats(s, j).partition_ok()


@settings(max_examples=60)
@given(
    st.integers(2, 6),
    st.sets(st.tuples(st.sampled_from((0, 1, 2)), st.sampled_from((0, 1, 2))), min_size=1),
    st.data(),
)
def test_partition_identity_on_arbitrary_slices(n, seeds, data):
    members = sorted({Word((a, b) * (n // 2) + (a,) * (n % 2)) for a, b in seeds})
    s = Slice(n, tuple(members))
    j = data.draw(st.integers(1, n))
    stats = slice_stats(s, j)
    assert stats.partition_ok()
    assert stats.size == len(members)


class EditedStats(SliceStats):
    """Stats whose table read hands each offset's packed counts to
    ``edit(i, table)`` first, to plant a fault no real slice holds."""

    def __init__(self, s, j, edit):
        super().__init__(s, j)
        self.edit = edit

    def _tables(self):
        for i, table in super()._tables():
            self.edit(i, table)
            yield i, table


@pytest.mark.parametrize("delta", (1, -1))
def test_partition_identity_fails_on_one_planted_count(delta):
    # every single count at every offset of the n = 8, j = 2 slice, off by one
    s = build_slice(L2, 8)
    assert slice_stats(s, 2).partition_ok()
    keys = [(i, key) for i, table in slice_stats(s, 2)._tables() for key in table]
    assert len(keys) == len(slice_stats(s, 2).counts)

    def plant(at, key, edit):
        return lambda i, table: i == at and edit(table, key)

    for at, key in keys:
        moved = EditedStats(s, 2, plant(at, key, lambda table, key: table.update({key: delta})))
        assert not moved.partition_ok(), (at, key)
        # a dropped key breaks the identity too
        assert not EditedStats(s, 2, plant(at, key, dict.pop)).partition_ok(), (at, key)
    # and so does an offset with no counts at all
    assert not EditedStats(s, 2, lambda i, table: i == 3 and table.clear()).partition_ok()


def test_stats_rejects_bad_j():
    s = build_slice(L2, 8)
    with pytest.raises(ValueError):
        slice_stats(s, 0)
    with pytest.raises(ValueError):
        slice_stats(s, 9)


# -- the pinning bound ------------------------------------------------------------


def test_bound_check_is_tight_at_8_2():
    report = l2_bound_check(8, 2)
    assert report.ok and report.bound == 2 and report.max_count == 2


def test_bound_check_16_4():
    report = l2_bound_check(16, 4)
    assert report.ok and report.bound == 4 and report.max_count <= 4


def test_bound_check_8_1():
    report = l2_bound_check(8, 1)
    assert report.ok and report.bound == 2 and report.max_count <= 2


def test_bound_check_against_independent_recount():
    for n in (8, 16):
        members = l2_members(n)
        for j in range(1, n // 4 + 1):
            counts = brute_counts(members, j)
            report = l2_bound_check(n, j)
            assert report.max_count == max(counts.values())
            assert all(c <= 2 ** (n // 4 - (j + 1) // 2) for c in counts.values())
            assert report.ok


def test_bound_check_rejects_bad_arguments(monkeypatch):
    # before any map is built: on the grid, j = n leaves one window to
    # charge and j > n a negative count, so only the j check stops them
    built = []
    monkeypatch.setattr(PositionMap, "l2", classmethod(lambda cls, n: built.append(n)))
    with pytest.raises(ValueError, match="positive multiple of 4"):
        l2_bound_check(10, 1)
    for n, j in ((8, 3), (4 * 10**8, 4 * 10**8), (4 * 10**8, 5 * 10**8)):
        with pytest.raises(ValueError, match=f"j must be in 1..{n // 4}, got {j}"):
            l2_bound_check(n, j)
    assert built == []


def test_bound_check_at_48_matches_the_enumerated_slice():
    s = build_slice(L2, 48)
    for j in range(1, 13):
        report = l2_bound_check(48, j)
        assert report == bound_report(slice_stats(s, j))
        assert report.ok and report.max_count == report.bound


def test_bound_check_at_64_matches_the_packed_slice_stats():
    # 65,536 members: the packed counts agree with the closed form at every j
    s = build_slice(L2, 64)
    for j in range(1, 17):
        report = l2_bound_check(64, j)
        assert report == bound_report(slice_stats(s, j))
        assert report.ok and report.max_count == report.bound


def reference_report(counts, n, j, size):
    # the bound report recounted over decoded counts: the largest entry with
    # ties towards the smallest (i, u), and the first one above the bound
    bound = 2 ** (n // 4 - (j + 1) // 2)
    top = min(counts.items(), key=lambda kv: (-kv[1], kv[0]), default=None)
    over = min(((i, u, c) for (i, u), c in counts.items() if c > bound), default=None)
    return BoundReport(
        n=n,
        j=j,
        size=size,
        bound=bound,
        max_count=0 if top is None else top[1],
        max_at=None if top is None else top[0],
        ok=over is None,
        violation=over,
    )


def test_bound_report_agrees_with_its_decoded_counts():
    # the packed tables and a recount over the decoded ``counts`` give one report
    for n, j in ((16, 3), (24, 6), (32, 8)):
        stats = slice_stats(build_slice(L2, n), j)
        report = reference_report(stats.counts, n, j, stats.size)
        assert bound_report(stats) == report
        assert stats.max_entry() == (*report.max_at, report.max_count)


def test_stats_reads_agree_in_every_order():
    # each read counts the slice afresh, or, for ``counts``, decodes it once:
    # no read changes what a later one sees
    rng = random.Random(1729)
    sample = Slice(10, [Word(rng.choice((0, 1, 2)) for _ in range(10)) for _ in range(60)])
    reads = {
        "counts": lambda stats: dict(stats.counts),
        "max_entry": SliceStats.max_entry,
        "bound_report": bound_report,
        "partition_ok": SliceStats.partition_ok,
    }
    for s, j in ((build_slice(L2, 8), 2), (build_slice(L2, 12), 3), (build_slice(L2, 16), 4), (sample, 3)):
        first = {name: read(slice_stats(s, j)) for name, read in reads.items()}
        assert first["bound_report"] == reference_report(first["counts"], s.n, j, len(s))
        assert first["partition_ok"]
        # the sample breaks its bound (1 at n = 10, j = 3), so a violation is read too
        assert (first["bound_report"].violation is not None) == (s is sample)
        for order in permutations(reads):
            stats = slice_stats(s, j)
            got = [(name, reads[name](stats)) for name in order * 2]
            assert got == [(name, first[name]) for name in order * 2], order


def test_len_counts_the_entries_without_decoding(monkeypatch):
    rng = random.Random(7)
    sample = Slice(10, [Word(rng.choice((0, 1, 2)) for _ in range(10)) for _ in range(60)])
    cases = [(build_slice(L2, n), j) for n in (8, 16, 24) for j in range(1, n // 4 + 1)]
    cases += [(sample, 3), (Slice(8, ()), 2)]
    expected = [len(reference_counts(s, j)) for s, j in cases]

    def no_decode(*args):
        raise AssertionError("len decoded a factor")

    monkeypatch.setattr(Slice, "_decode", no_decode)
    assert [len(slice_stats(s, j)) for s, j in cases] == expected


def test_a_one_position_map_gives_a_slice_of_one_letter_words():
    lang = CorpusLanguage(
        "letters",
        frozenset({3, 6}),
        lambda w: w.letters in ((3,), (6,)),
        runs=lambda n: (MapRuns((((1, 2), 1),), ((0, 1, 1, 3),)),) if n == 1 else (),
    )
    assert lang.size(1) == 2 and lang.size(2) == 0
    s = build_slice(lang, 1)
    assert s.members == (Word.of(3), Word.of(6)) and s.complete
    assert swap_scan(lang.predicate, s, (1, 1)) == [
        SwapWitness(0, 1, Word.of(3), Word.of(6), Word.of(6), Word.of(3)),
        SwapWitness(0, 1, Word.of(6), Word.of(3), Word.of(3), Word.of(6)),
    ]


def test_bound_check_builds_no_slice(monkeypatch):
    members, slices = [], []
    read = PositionMap.members
    monkeypatch.setattr(PositionMap, "members", lambda pmap: members.append(pmap) or read(pmap))
    monkeypatch.setattr(swaplab, "build_slice", lambda *a, **k: slices.append(a))
    report = l2_bound_check(40, 10)
    assert report.ok and report.size == 1024 and report.max_count == 2**5
    assert members == [] and slices == []


def test_bound_check_charges_its_windows(monkeypatch):
    # n - j + 1 = 31 windows at (40, 10)
    monkeypatch.setattr(swaplab, "CLOSED_FORM_LIMIT", 30)
    with pytest.raises(CostGuardError, match="31"):
        l2_bound_check(40, 10)
    monkeypatch.setattr(swaplab, "CLOSED_FORM_LIMIT", 31)
    assert l2_bound_check(40, 10).ok


def test_bound_check_beyond_enumeration():
    report = l2_bound_check(400, 1)
    assert report.ok and report.size == 2**100 and report.max_count == report.bound == 2**99
    assert report.max_at == (0, Word.of(1))


def test_bound_report_gives_the_first_violation_in_i_u_order():
    # n=8, j=2: the bound is 2^(2-1) = 2; (2, 2) and (1, 1) occur three times
    # at offset 1, (1, 5) three times at offset 2 and (5, 5) four times at 3
    rows = [
        (13, 2, 2, 5, 5, 23, 23, 23),
        (14, 2, 2, 30, 31, 32, 33, 34),
        (15, 2, 2, 40, 41, 42, 43, 44),
        (10, 1, 1, 5, 5, 20, 20, 20),
        (11, 1, 1, 5, 5, 21, 21, 21),
        (12, 1, 1, 5, 5, 22, 22, 22),
    ]
    report = bound_report(slice_stats(Slice(8, [Word(r) for r in rows]), 2))
    assert report.bound == 2 and not report.ok
    assert report.violation == (1, Word.of(1, 1), 3)
    assert report.max_count == 4 and report.max_at == (3, Word.of(5, 5))


def test_bound_report_on_no_counts():
    report = bound_report(slice_stats(Slice(8, ()), 2))
    assert report.ok and report.max_count == 0 and report.max_at is None


# -- the swap scan ----------------------------------------------------------------


def test_palindrome_swap_witness_found():
    s = build_slice(EVEN_PALINDROMES, 4)
    witnesses = swap_scan(is_even_palindrome, s, (1, 4))
    target = [
        w
        for w in witnesses
        if (w.x, w.y, w.i, w.j) == (Word.of(0, 1, 1, 0), Word.of(1, 0, 0, 1), 1, 2)
    ]
    assert len(target) == 1
    assert target[0].swapped_x == Word.of(0, 0, 0, 0)
    assert target[0].swapped_y == Word.of(1, 1, 1, 1)
    assert not target[0].i_zero


def test_swap_witnesses_replay():
    s = build_slice(EVEN_PALINDROMES, 6)
    for w in swap_scan(is_even_palindrome, s, (1, 6)):
        assert is_even_palindrome(w.swapped_x) and is_even_palindrome(w.swapped_y)
        assert w.x[w.i : w.i + w.j] != w.y[w.i : w.i + w.j]


def test_swap_symmetry():
    s = build_slice(EVEN_PALINDROMES, 4)
    witnesses = swap_scan(is_even_palindrome, s, (1, 4))
    keys = {(w.x, w.y, w.i, w.j) for w in witnesses}
    assert {(y, x, i, j) for (x, y, i, j) in keys} == keys


def test_no_swap_on_l2_slices():
    for n in (8, 16):
        s = build_slice(L2, n)
        assert swap_scan(is_l2, s, (1, n // 4)) == []


def test_equal_midsections_yield_no_witness():
    s = Slice(2, (Word.of(0, 1), Word.of(0, 2)))
    assert swap_scan(lambda w: True, s, (1, 1), i_range=(0, 0)) == []


def test_swap_scan_respects_i_range_and_is_ordered():
    s = build_slice(EVEN_PALINDROMES, 4)
    witnesses = swap_scan(is_even_palindrome, s, (1, 4), i_range=(1, 2))
    assert witnesses
    assert all(1 <= w.i <= 2 for w in witnesses)
    keys = [(w.x, w.y, w.i, w.j) for w in witnesses]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2], k[3]))


def test_swap_scan_cost_guard():
    s = build_slice(EVEN_PALINDROMES, 4)
    with pytest.raises(CostGuardError):
        swap_scan(is_even_palindrome, s, (1, 4), call_limit=10)
    assert swap_scan(is_even_palindrome, s, (1, 4), call_limit=10, force=True)


def test_each_route_is_charged_its_own_estimate():
    # 4 members: the complete slice visits 8 of its 10 spots (two shorter
    # spots are skipped once their offsets settle), 32 grouping steps, plus
    # 28 tried pairs (each one of the 28 witnesses); the incomplete copy
    # visits all 10 spots twice, 80 steps, and adds 88 (context, middle)
    # classes, the oracle calls it may make, summed over the spots
    s = build_slice(EVEN_PALINDROMES, 4)
    incomplete = Slice(s.n, s.members, s.origin)
    assert len(swap_scan(is_even_palindrome, s, (1, 4), call_limit=60)) == 28
    with pytest.raises(CostGuardError):
        swap_scan(is_even_palindrome, s, (1, 4), call_limit=59)
    assert len(swap_scan(is_even_palindrome, incomplete, (1, 4), call_limit=196)) == 28
    with pytest.raises(CostGuardError, match="196"):
        swap_scan(is_even_palindrome, incomplete, (1, 4), call_limit=195)


def test_a_witness_heavy_complete_slice_is_charged_its_pairs():
    # 8 members at 16 visited spots (of 28): 128 grouping steps, then 232
    # tried pairs; the guard trips on the pairs before any witness is built
    # or replayed
    s = build_slice(LANGUAGES["Pal_sharp"], 7)
    calls = []

    def member(w):
        calls.append(w)
        return is_pal_sharp(w)

    with pytest.raises(CostGuardError, match="context index"):
        swap_scan(member, s, (1, 7), call_limit=225)
    assert calls == []
    assert len(swap_scan(member, s, (1, 7), call_limit=360)) == 232
    with pytest.raises(CostGuardError, match="360"):
        swap_scan(member, s, (1, 7), call_limit=359)
    assert len(swap_scan(member, s, (1, 7), call_limit=225, force=True)) == 232


def test_a_complete_scan_is_charged_per_visited_spot():
    # 1024 members: every offset of the L2 slice settles at its longest
    # spot, so the 355 spots cost 40 visits, 40,960 steps; the charge grows
    # as the spots are reached, so the second visit trips a limit of 2,047
    s = build_slice(L2, 40)
    assert swap_scan(is_l2, s, (1, 10), call_limit=40_960) == []
    with pytest.raises(CostGuardError, match="40960"):
        swap_scan(is_l2, s, (1, 10), call_limit=40_959)
    with pytest.raises(CostGuardError, match="2048"):
        swap_scan(is_l2, s, (1, 10), call_limit=2_047)


def test_an_incomplete_n40_slice_trips_the_pair_loop_estimate():
    # 1024 members at 355 spots are 363,520 grouping steps in the pass that
    # counts the classes; the classes the oracle may be asked about add
    # 28,297,216, and all of it is charged before the first oracle call (the
    # plain pair loop would have been charged 2 * 1024 * 1023 * 355, about
    # 7.4e8)
    s = build_slice(L2, 40)
    calls = []

    def member(w):
        calls.append(w)
        raise AssertionError("the oracle was asked before the guard tripped")

    with pytest.raises(CostGuardError, match=str(363_520 + 28_297_216)):
        swap_scan(member, Slice(s.n, s.members, s.origin), (1, 10), call_limit=28_000_000)
    assert calls == []


def test_swapping_never_touches_the_advice_track():
    # an oracle that accepts every word does not match the complete slice,
    # so the scan runs on an incomplete copy, which asks the oracle
    h = leq_advice()
    full = build_slice(L2, 8, advice=h)
    s = Slice(full.n, full.members, full.origin)
    witnesses = swap_scan(lambda w: True, s, (1, 2))
    assert witnesses
    for w in witnesses:
        assert TrackedWord.from_fused(w.swapped_x).bottom == h(8)
        assert TrackedWord.from_fused(w.swapped_y).bottom == h(8)


def test_the_projecting_oracle_asks_for_the_advice_once():
    h = leq_advice()
    asked = []
    counted = AdviceFunction(lambda n: asked.append(n) or h(n), "counted-leq")
    member = advised_oracle(is_pal_sharp, counted, 7)
    members = build_slice(LANGUAGES["Pal_sharp"], 7, advice=h).members
    assert all(member(w) for w in members)
    assert asked == [7]


def test_index_path_with_the_projecting_oracle():
    h = leq_advice()
    s = build_slice(LANGUAGES["Pal_sharp"], 7, advice=h)
    member = advised_oracle(is_pal_sharp, h, 7)
    witnesses = swap_scan(member, s, (1, 7))
    assert witnesses
    assert witnesses == pair_loop_reference(member, s, (1, 7))
    for w in witnesses:
        for spliced in (w.swapped_x, w.swapped_y):
            assert TrackedWord.from_fused(spliced).bottom == h(7)
            assert is_pal_sharp(TrackedWord.from_fused(spliced).top)


def pair_loop_reference(member, s, j_range, i_range=None):
    """The swap scan as a plain loop: both splices of every ordered pair at
    every spot go through the (memoized) oracle, in pair, offset, length
    order."""
    n = s.n
    j_lo, j_hi = max(1, j_range[0]), min(n, j_range[1])
    i_lo, i_hi = i_range if i_range is not None else (0, n - j_lo)
    spots = [
        (i, j)
        for i in range(max(0, i_lo), min(n - j_lo, i_hi) + 1)
        for j in range(j_lo, min(j_hi, n - i) + 1)
    ]
    verdicts = {}

    def accepts(t):
        if t not in verdicts:
            verdicts[t] = bool(member(Word(t)))
        return verdicts[t]

    out = []
    for x in s.members:
        for y in s.members:
            if x == y:
                continue
            a, b = x.letters, y.letters
            for i, j in spots:
                k = i + j
                if a[i:k] == b[i:k]:
                    continue
                sx, sy = a[:i] + b[i:k] + a[k:], b[:i] + a[i:k] + b[k:]
                if accepts(sx) and accepts(sy):
                    out.append(SwapWitness(i, j, x, y, Word(sx), Word(sy)))
    return out


# the differential cases: (language, lengths, advice); the pair loop that
# checks the index path costs |S|^2 per spot, which bounds the lengths
SCAN_CASES = [
    ("Pal_sharp", range(1, 10), None),
    ("L2_2", (2, 4, 6), None),
    ("L2_1", range(3, 5), None),
    ("L_eq", range(1, 9), None),
    ("even_pal", range(1, 9), None),
    ("Pal_sharp", range(1, 8), "leq"),
    ("L2", (4, 8), "leq"),
]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_index_path_agrees_with_the_pair_loop(data):
    name, lengths, advice_name = data.draw(st.sampled_from(SCAN_CASES))
    n = data.draw(st.sampled_from(list(lengths)))
    j_lo = data.draw(st.integers(0, n + 1))
    j_hi = data.draw(st.integers(0, n + 1))
    i_range = data.draw(
        st.none() | st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1))
    )
    lang = EVEN_PALINDROMES if name == "even_pal" else LANGUAGES[name]
    if advice_name is None:
        s, member = build_slice(lang, n), lang.predicate
    else:
        advice = leq_advice()
        s, member = build_slice(lang, n, advice), advised_oracle(lang.predicate, advice, n)
    assert s.complete
    got = swap_scan(member, s, (j_lo, j_hi), i_range)
    assert got == pair_loop_reference(member, s, (j_lo, j_hi), i_range)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.data())
def test_index_path_agrees_with_the_pair_loop_on_drawn_languages(n, data):
    # an arbitrary finite language at length n, known only by its predicate:
    # its contexts may share some middles and not others
    words = st.tuples(*[st.sampled_from((0, 1, 2))] * n)
    chosen = data.draw(st.sets(words, max_size=40))
    lang = CorpusLanguage("drawn", frozenset({0, 1, 2}), lambda w: w.letters in chosen, None)
    j_range = (data.draw(st.integers(1, n)), data.draw(st.integers(1, n)))
    s = build_slice(lang, n)
    got = swap_scan(lang.predicate, s, j_range)
    assert got == pair_loop_reference(lang.predicate, s, j_range)


@pytest.mark.parametrize(
    "name,n,j_range,i_range,count",
    [("L2_2", 8, (1, 5), (0, 0), 768), ("L2_1", 6, (1, 1), (0, 1), 0)],
)
def test_index_path_agrees_with_the_pair_loop_on_larger_slices(name, n, j_range, i_range, count):
    # 256 and 576 members: a few spots keep the pair loop and the witness
    # lists small (other spots of these slices hold up to 331,200 witnesses)
    s = build_slice(LANGUAGES[name], n)
    member = LANGUAGES[name].predicate
    got = swap_scan(member, s, j_range, i_range)
    assert len(got) == count
    assert got == pair_loop_reference(member, s, j_range, i_range)


# proper samples of complete slices: (language, lengths with at least two
# members, advice); splices of the sample fall outside it, so the oracle
# and the sample disagree
SAMPLE_CASES = [
    ("L2_2", (2, 4, 6), None),
    ("L2_1", (3, 4, 5), None),
    ("Pal_sharp", (3, 5, 7), None),
    ("Pal_sharp", (3, 5, 7), "leq"),
]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_the_oracle_route_agrees_with_the_pair_loop_on_proper_samples(data):
    name, lengths, advice_name = data.draw(st.sampled_from(SAMPLE_CASES))
    n = data.draw(st.sampled_from(lengths))
    lang = LANGUAGES[name]
    if advice_name is None:
        full, member = build_slice(lang, n), lang.predicate
    else:
        advice = leq_advice()
        full, member = build_slice(lang, n, advice), advised_oracle(lang.predicate, advice, n)
    picked = data.draw(
        st.lists(st.sampled_from(full.members), unique=True, min_size=1, max_size=len(full) - 1)
    )
    s = Slice(n, tuple(picked), f"{full.origin} sample")
    j_range = (data.draw(st.integers(0, n + 1)), data.draw(st.integers(0, n + 1)))
    i_range = data.draw(st.none() | st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1)))
    got = swap_scan(member, s, j_range, i_range)
    assert got == pair_loop_reference(member, s, j_range, i_range)


def test_the_seeded_l2_2_sample_asks_each_splice_once():
    # the 64-member sample of the L2_2 slice at n = 8 drawn at seed 1729
    full = corpus.l2_2_members(8)
    s = Slice(8, tuple(random.Random(1729).sample(full, 64)), "L2_2[n=8] sample")
    calls = []

    def member(w):
        calls.append(w)
        return corpus.is_l2_2(w)

    witnesses = swap_scan(member, s, (1, 8))
    assert len(witnesses) == 21_200
    assert len(calls) == len(set(calls)) == 13_976
    assert witnesses == pair_loop_reference(corpus.is_l2_2, s, (1, 8))


def test_index_path_oracle_calls():
    calls = []

    def counted(predicate):
        return lambda w: calls.append(w) or predicate(w)

    assert swap_scan(counted(is_l2), build_slice(L2, 16), (1, 4)) == []
    assert calls == []
    witnesses = swap_scan(counted(is_pal_sharp), build_slice(LANGUAGES["Pal_sharp"], 7), (1, 7))
    splices = {w.swapped_x for w in witnesses} | {w.swapped_y for w in witnesses}
    assert witnesses and len(calls) == len(set(calls)) == len(splices)


def test_the_index_scan_searches_each_spot_once(monkeypatch):
    # Pal_sharp at n=11 has 25 spots where contexts share a middle; the scan
    # groups each of them once, and settles each of the 11 offsets at its
    # longest spot without grouping
    calls = []
    spot_classes = swaplab._spot_classes

    def counted(packed, keep, mid, accepted):
        calls.append((keep, mid))
        return spot_classes(packed, keep, mid, accepted)

    monkeypatch.setattr(swaplab, "_spot_classes", counted)
    witnesses = swap_scan(is_pal_sharp, build_slice(LANGUAGES["Pal_sharp"], 11), (1, 11))
    assert len(witnesses) == 8736
    assert len(calls) == len(set(calls)) == 25


def test_index_path_rejects_an_oracle_that_disagrees_with_the_slice():
    s = build_slice(EVEN_PALINDROMES, 4)
    with pytest.raises(InvariantError, match="even_pal"):
        swap_scan(lambda w: w != Word.of(0, 0, 0, 0), s, (1, 4))


def test_a_mismapped_slice_position_is_an_invariant_failure(monkeypatch, capsys):
    # the first accepting context of every spot maps one of its middles to
    # the next member's position: the record check must refuse the witness
    spot_classes = swaplab._spot_classes

    def mismapped(packed, keep, mid, accepted):
        mids, acc = spot_classes(packed, keep, mid, accepted)
        if acc:
            held = mids[next(iter(acc))]
            a = next(iter(held))
            held[a] = (held[a] + 1) % len(packed)
        return mids, acc

    monkeypatch.setattr(swaplab, "_spot_classes", mismapped)
    with pytest.raises(InvariantError, match=r"'Pal_sharp\[n=7\]' at spot \(\d+, \d+\), positions"):
        swap_scan(is_pal_sharp, build_slice(LANGUAGES["Pal_sharp"], 7), (1, 7))
    code = cli.main(["swap-scan", "--lang", "Pal_sharp", "--n", "7", "--j-min", "1", "--j-max", "7"])
    out = capsys.readouterr().out
    assert code == 3 and out.count("\n") == 1
    assert json.loads(out)["error"].startswith("InvariantError")


def test_only_built_slices_are_complete():
    # every route of build_slice: maps or brute force, each plain and fused
    for lang, n in ((L2, 8), (EVEN_PALINDROMES, 4)):
        assert build_slice(lang, n).complete is True
        assert build_slice(lang, n, leq_advice()).complete is True
    assert build_slice(L2, 7, leq_advice()).complete is True
    assert Slice(2, (Word.of(0, 1),)).complete is False
    # a hand-built slice cannot claim to be complete: two of the four even
    # palindromes, scanned as if they were all, would hide two witnesses
    with pytest.raises(TypeError):
        Slice(4, (Word.of(0, 1, 1, 0), Word.of(1, 0, 0, 1)), "x", complete=True)


def reference_decode(s, v, length):
    # one letter at a time: the code of each of the last ``length`` letters of v
    w = s.width
    return Word(tuple(s.letters[v >> e & (1 << w) - 1] for e in range(w * (length - 1), -1, -w)))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.integers(1, 32), st.integers(1, 48), st.data())
def test_chunked_decode_matches_the_per_letter_reference(k, n, data):
    # k letters give widths 1 to 5, so chunks of 12 down to 2 letters; every
    # length from 1 to n leaves a highest chunk of every shorter size
    alphabet = data.draw(st.lists(st.integers(0, 200), min_size=k, max_size=k, unique=True))
    words = st.lists(st.sampled_from(alphabet), min_size=n, max_size=n).map(Word)
    members = data.draw(st.lists(words, min_size=1, max_size=6))
    s = Slice(n, members)
    assert s.members == tuple(reference_decode(s, v, n) for v in s.packed)
    for v in s.packed:
        assert s.word(v) == reference_decode(s, v, n)
        for length in range(1, n + 1):
            assert s._decode(v, length) == reference_decode(s, v, length)
    assert len(s._chunks) <= 2**12


def test_chunk_tables_hold_at_most_4096_codes():
    s = build_slice(L2, 32)
    assert len(s.members) == 256 and len(s._chunks) <= 2**12
    sample = Slice(8, tuple(random.Random(1729).sample(corpus.l2_2_members(8), 64)), "sample")
    assert len(swap_scan(corpus.is_l2_2, sample, (1, 8))) == 21_200
    assert 0 < len(sample._chunks) <= 2**12


def test_swap_witness_validation():
    with pytest.raises(InvariantError):
        SwapWitness(
            i=0,
            j=1,
            x=Word.of(0, 1),
            y=Word.of(0, 2),
            swapped_x=Word.of(9, 1),
            swapped_y=Word.of(0, 2),
        )
    with pytest.raises(InvariantError):
        SwapWitness(
            i=0,
            j=1,
            x=Word.of(0, 1),
            y=Word.of(0, 2),
            swapped_x=Word.of(0, 1),
            swapped_y=Word.of(0, 2),
        )


def witness(**changes):
    # a valid witness at (1, 1): x = 0 1, y = 0 2
    fields = dict(
        i=1, j=1, x=Word.of(0, 1), y=Word.of(0, 2), swapped_x=Word.of(0, 2), swapped_y=Word.of(0, 1)
    )
    fields.update(changes)
    return SwapWitness(**fields)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"y": Word.of(0, 2, 2)}, "equal-length"),
        ({"i": -1}, "inconsistent split offsets"),
        ({"i": 1, "j": 2}, "inconsistent split offsets"),
        ({"j": 0}, "inconsistent split offsets"),
        ({"y": Word.of(0, 1)}, "midsections must differ"),
        ({"swapped_x": Word.of(9, 2)}, "swapped_x is not the midsection splice"),
        ({"swapped_y": Word.of(0, 2)}, "swapped_y is not the midsection splice"),
    ],
)
def test_swap_witness_checks_every_field(changes, message):
    with pytest.raises(InvariantError, match=message):
        witness(**changes)
    # positional construction makes the same checks
    fields = {**witness()._asdict(), **changes}
    with pytest.raises(InvariantError, match=message):
        SwapWitness(*fields.values())
    with pytest.raises(InvariantError, match=message):
        witness()._replace(**changes)


def test_swap_witness_is_an_immutable_value():
    w = witness()
    with pytest.raises(AttributeError):
        w.i = 0
    with pytest.raises(AttributeError):
        w.extra = 1
    twin = SwapWitness(1, 1, Word.of(0, 1), Word.of(0, 2), Word.of(0, 2), Word.of(0, 1))
    assert w == twin and hash(w) == hash(twin)
    assert w != witness(i=0, j=2)
    assert (w.i, w.j, w.i_zero) == (1, 1, False) and len(w) == 6
    with pytest.raises(TypeError):
        SwapWitness(*w, True)
    assert witness(i=0, y=Word.of(2, 1), swapped_x=Word.of(2, 1), swapped_y=Word.of(0, 1)).i_zero
    assert reference_row(w) == {
        "i": 1,
        "j": 1,
        "i_zero": False,
        "x": [0, 1],
        "y": [0, 2],
        "swapped_x": [0, 2],
        "swapped_y": [0, 1],
        "both_in_language": True,
    }
    assert json.loads(witness_listing([w])) == [reference_row(w)]


# -- the witness listing ------------------------------------------------------------


def reference_row(w: SwapWitness) -> dict:
    """The dict form of one witness in a listing, which ``json.dumps``
    encodes independently of :func:`witness_listing`."""
    return {
        "i": w.i,
        "j": w.j,
        "i_zero": w.i_zero,
        "x": w.x.to_json(),
        "y": w.y.to_json(),
        "swapped_x": w.swapped_x.to_json(),
        "swapped_y": w.swapped_y.to_json(),
        "both_in_language": True,
    }


# one-digit letters, multi-digit ones, and Cantor-fused letters above 255 as
# ``--advice leq`` makes them (input letters of L2 over advice bits)
LISTING_ALPHABETS = (
    tuple(range(10)),
    (7, 10, 99, 100, 4567, 123456789),
    tuple(sorted(fuse_letter(a, b) for a in (1, 2, 3, 5, 6, 10, 15, 30) for b in (0, 1))),
)


@st.composite
def witness_lists(draw):
    alphabet = draw(st.sampled_from(LISTING_ALPHABETS))
    n = draw(st.integers(1, 7))
    # a small pool of words, so that words recur across rows and fields
    pool = draw(st.lists(st.tuples(*[st.sampled_from(alphabet)] * n), min_size=1, max_size=4))
    out = []
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.sampled_from(pool)), list(draw(st.sampled_from(pool)))
        j = draw(st.integers(1, n))
        i = draw(st.integers(0, n - j))
        if x[i : i + j] == tuple(y[i : i + j]):
            y[i] = next(a for a in alphabet if a != x[i])
        y = tuple(y)
        sx, sy = x[:i] + y[i : i + j] + x[i + j :], y[:i] + x[i : i + j] + y[i + j :]
        out.append(SwapWitness(i, j, Word(x), Word(y), Word(sx), Word(sy)))
    return out


LEQ_LETTER = LISTING_ALPHABETS[2][-1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(witness_lists())
@example([])
@example([witness(i=0, y=Word.of(2, 1), swapped_x=Word.of(2, 1), swapped_y=Word.of(0, 1))])
@example([witness(), witness()])
@example(
    [
        SwapWitness(
            0, 2, Word.of(LEQ_LETTER, 300, 12), Word.of(9, 10, 12), Word.of(9, 10, 12),
            Word.of(LEQ_LETTER, 300, 12),
        )
    ]
)
def test_witness_listing_is_the_json_of_the_reference_rows(witnesses):
    assert witness_listing(witnesses) == json.dumps(
        [reference_row(w) for w in witnesses], sort_keys=True
    )


def test_witness_listing_of_the_positive_control():
    witnesses = swap_scan(is_pal_sharp, build_slice(LANGUAGES["Pal_sharp"], 11), (1, 11))
    assert witness_listing(witnesses) == json.dumps(
        [reference_row(w) for w in witnesses], sort_keys=True
    )


def test_a_scan_with_no_witness_decodes_no_member(monkeypatch):
    decoded = []
    word = Slice.word
    monkeypatch.setattr(Slice, "word", lambda s, v: decoded.append(v) or word(s, v))
    s = build_slice(L2, 24)
    assert swap_scan(is_l2, s, (1, 6)) == []
    assert decoded == []
    # a scan that finds witnesses decodes the members it builds them from
    assert len(swap_scan(is_even_palindrome, build_slice(EVEN_PALINDROMES, 4), (1, 4))) > 0
    assert decoded


def test_swap_scan_charges_witness_letters_spot_by_spot(monkeypatch):
    s = build_slice(EVEN_PALINDROMES, 6)
    witnesses = swap_scan(is_even_palindrome, s, (1, 6))
    letters = 4 * 6 * len(witnesses)
    monkeypatch.setattr(swaplab, "WITNESS_LETTER_LIMIT", letters)
    assert swap_scan(is_even_palindrome, s, (1, 6)) == witnesses
    monkeypatch.setattr(swaplab, "WITNESS_LETTER_LIMIT", letters - 1)
    with pytest.raises(CostGuardError, match=f"swap witness letters would touch about {letters} "):
        swap_scan(is_even_palindrome, s, (1, 6))
    assert swap_scan(is_even_palindrome, s, (1, 6), force=True) == witnesses
    # a zero limit trips at the first witness found
    monkeypatch.setattr(swaplab, "WITNESS_LETTER_LIMIT", 0)
    with pytest.raises(CostGuardError) as err:
        swap_scan(is_even_palindrome, s, (1, 6))
    first = int(str(err.value).split("about ")[1].split()[0])
    assert 0 < first < letters and first % 24 == 0


def test_the_witness_cap_stops_at_the_witness_that_crosses_it(monkeypatch):
    # the first spot with witnesses holds 8 of them, 192 letters; a limit of
    # 100 letters admits 4 (96 letters) and trips at the fifth, mid-spot
    s = build_slice(EVEN_PALINDROMES, 6)
    monkeypatch.setattr(swaplab, "WITNESS_LETTER_LIMIT", 100)
    with pytest.raises(CostGuardError, match="about 120 items"):
        swap_scan(is_even_palindrome, s, (1, 6))
    assert len(swap_scan(is_even_palindrome, s, (1, 6), force=True)) == 232


def test_witness_letters_of_the_pinned_scans_stay_under_the_limit():
    s = build_slice(LANGUAGES["Pal_sharp"], 11)
    assert 4 * 11 * len(swap_scan(is_pal_sharp, s, (1, 11))) == 384_384 < swaplab.WITNESS_LETTER_LIMIT


# -- the parameter chain ------------------------------------------------------------


def test_ceil_log2():
    assert [ceil_log2(v) for v in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_swap_params_m1():
    p = SwapParams(1)
    assert (p.m, p.n, p.k, p.j0) == (1, 288, 72, 36)
    assert p.k == 2 * p.j0


def reference_chain(m):
    # (n, k, j0) by a plain search: n steps over the multiples of 16 until
    # 2^(n/4) beats (2 m n^2)^4, and j0 / 2 - 1 is the least e with 2^e >= m n^2
    n = 16
    while 2 ** (n // 4) <= (2 * m * n * n) ** 4:
        n += 16
    e = 0
    while 2**e < m * n * n:
        e += 1
    return n, n // 4, 2 * (e + 1)


def test_swap_params_match_a_reference_search():
    for m in [*range(1, 2001), 10**4, 10**6, 10**9]:
        p = SwapParams(m)
        assert (p.n, p.k, p.j0) == reference_chain(m), m


def test_growth_inequality_at_the_boundary():
    # independent big-integer evaluation on both sides of the crossover
    assert 2 ** (288 // 4) > (2 * 1 * 288 * 288) ** 4
    assert 2 ** (272 // 4) <= (2 * 1 * 272 * 272) ** 4


@pytest.mark.parametrize("m", range(1, 11))
def test_params_invariants_replay(m):
    # every link of the chain, re-evaluated on the derived values
    p = SwapParams(m)
    assert p.n % 16 == 0 and p.k == p.n // 4
    assert 2 ** (p.n // 4) > (2 * m * p.n**2) ** 4
    assert p.n == 16 or 2 ** ((p.n - 16) // 4) <= (2 * m * (p.n - 16) ** 2) ** 4
    assert 2 ** (p.j0 // 2 - 1) >= m * p.n**2 > 2 ** (p.j0 // 2 - 2)
    assert p.k >= 2 * p.j0
    assert 2 ** (p.j0 // 2) >= 2 * m * p.n * p.n


@pytest.mark.parametrize("m", [0, -1])
def test_invalid_params_are_rejected(m):
    with pytest.raises(ValueError, match="the swap constant m must be >= 1"):
        SwapParams(m)


@pytest.mark.parametrize("shift", [-1, 2])
def test_a_broken_chain_link_is_an_invariant_failure(monkeypatch, capsys, shift):
    # ceil(log2) one short breaks 2^(j0/2) >= 2 m n^2; two over breaks k >= 2 j0
    real = swaplab.ceil_log2
    monkeypatch.setattr(swaplab, "ceil_log2", lambda v: real(v) + shift)
    with pytest.raises(InvariantError):
        SwapParams(1)
    assert cli.main(["paper-check", "--m", "1"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "InvariantError" in json.loads(lines[0])["error"]


# -- the position map ----------------------------------------------------------


def test_the_l2_map_reads_the_nestings():
    for n in (4, 8, 12, 16):
        pmap = PositionMap.l2(n)
        assert pmap.n == n and pmap.size == 2 ** (n // 4)
        for choice in product((1, 2), repeat=n // 4):
            assert pmap.word(choice) == nest_l2(Word(choice)).letters
    assert [x for x, _ in PositionMap.l2(12).reads] == [0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0]
    assert PositionMap.l2(6) is None and PositionMap.l2(0) is None


@lru_cache(maxsize=None)
def _l2_slice(n):
    return build_slice(L2, n)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from((4, 8, 12, 16, 20, 24)), st.data())
def test_map_counts_match_enumeration(n, data):
    # the closed forms against the enumerated slice: bound reports at
    # j <= n/4, witnesses per spot at any j
    s = _l2_slice(n)
    j = data.draw(st.integers(1, n))
    if j <= n // 4:
        assert l2_bound_check(n, j) == bound_report(slice_stats(s, j))
    scanned = Counter((w.i, w.j) for w in swap_scan(is_l2, s, (j, j)))
    counted = {(i, jj): c for i, jj, c in PositionMap.l2(n).spot_witnesses() if jj == j and c}
    assert counted == dict(scanned)


def test_map_witness_totals_at_small_n():
    for n, total in ((8, 24), (12, 168), (16, 928)):
        assert sum(c for _, _, c in PositionMap.l2(n).spot_witnesses()) == total


def test_the_l2_2_map_counts_every_enumerated_swap():
    # the closed form's positive controls: swaps abound on L2_2, Pal_sharp
    # and L2_prime, and each one's map counts the scan's witnesses at every
    # spot (L2_prime at n = 8 would hold 4,096 members, past this scan)
    cases = [("L2_2", 2, 12), ("L2_2", 4, 528), ("L2_2", 6, 14_784)]
    cases += [("Pal_sharp", n, total) for n, total in ((3, 2), (5, 28), (7, 232), (9, 1_520), (11, 8_736))]
    cases += [("L2_prime", 4, 32_576)]
    for name, n, total in cases:
        lang = LANGUAGES[name]
        s = build_slice(lang, n)
        scanned = Counter((w.i, w.j) for w in swap_scan(lang.predicate, s, (1, n)))
        (pmap,) = (runs.map() for runs in lang.runs(n))
        counted = {(i, j): c for i, j, c in pmap.spot_witnesses() if c}
        assert counted == dict(scanned), (name, n)
        assert sum(counted.values()) == total, (name, n)


# fusing each position over a fixed advice letter is injective, so a fused
# splice is a fused member exactly when the plain splice is a plain member,
# and every advice word keeps each spot's plain witness count; larger sizes
# (L2_2 at 8, Pal_sharp at 9, L2_prime at 8) hold too many witnesses here
ADVISED_MAP_CASES = [("L2", 4), ("L2", 8), ("L2", 12), ("L2_2", 4), ("L2_2", 6)]
ADVISED_MAP_CASES += [("Pal_sharp", 5), ("Pal_sharp", 7), ("L2_prime", 4)]


@pytest.mark.parametrize("name,n", ADVISED_MAP_CASES)
@settings(max_examples=4, derandomize=True, deadline=None)
@given(st.data())
def test_every_advice_word_keeps_the_map_witness_counts(name, n, data):
    advice = table_advice({n: data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))})
    lang = LANGUAGES[name]
    s, member = build_slice(lang, n, advice), advised_oracle(lang.predicate, advice, n)
    scanned = Counter((w.i, w.j) for w in swap_scan(member, s, (1, n)))
    (pmap,) = (runs.map() for runs in lang.runs(n))
    assert len(s) == pmap.size
    assert {(i, j): c for i, j, c in pmap.spot_witnesses() if c} == dict(scanned)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(position_maps())
def test_map_closed_forms_match_the_exhaustive_scan_on_drawn_maps(pmap):
    # the drawn maps' letter classes overlap (2 * 3 = 3 * 2, and 0 at every
    # scale); the closed forms still give the scan's exact counts, because
    # each position reads one index at one scale in every member
    members = pmap.members()
    words = set(members)
    n = pmap.n
    s = build_slice(CorpusLanguage("drawn", frozenset(), words.__contains__, runs=lambda _: (runs_of(pmap),)), n)
    assert s.members == members
    scanned = Counter((w.i, w.j) for w in swap_scan(words.__contains__, s, (1, n)))
    assert {(i, j): c for i, j, c in pmap.spot_witnesses() if c} == dict(scanned)
    for j in range(1, n + 1):
        for i, d in enumerate(pmap.distinct(j)):
            factors = Counter(w.letters[i : i + j] for w in members)
            assert len(factors) == d and set(factors.values()) == {pmap.size // d}, (i, j)


def test_paper_check_at_m_1():
    doc = swaplab.paper_check(1)
    assert {k: doc["params"][k] for k in ("n", "k", "j0")} == {"n": 288, "k": 72, "j0": 36}
    assert doc["bound"]["max_count"] == doc["bound"]["bound"] == 2**54
    assert doc["bound"]["max"]["i"] == 54
    assert doc["density_condition"] and doc["witnesses_up_to_k"] == 0 and doc["ok"]
    assert doc["spots"] == 288 * 289 // 2
    assert (doc["first_swap"]["i"], doc["first_swap"]["j"]) == (71, 146)


def test_paper_check_charges_its_spots(monkeypatch):
    monkeypatch.setattr(swaplab, "CLOSED_FORM_LIMIT", 288 * 289 // 2 - 1)
    with pytest.raises(CostGuardError, match="41616"):
        swaplab.paper_check(1)


def _report(p, j, size, max_count):
    # a bound report at (p.n, j) on a slice of ``size`` whose largest count is ``max_count``
    bound = 2 ** (p.n // 4 - (j + 1) // 2)
    max_at = (0, Word.of(1) * j) if max_count else None
    return BoundReport(
        n=p.n, j=j, size=size, bound=bound, max_count=max_count, max_at=max_at, ok=max_count <= bound
    )


def test_density_condition_concentrated_slice_fails():
    p = SwapParams(1)
    assert not density_condition(_report(p, p.j0, 100, 100), p)


def test_density_condition_scattered_slice_passes():
    p = SwapParams(1)
    denominator = p.m * (p.k - p.j0 + 1) * (p.n - p.j0 + 1)
    assert density_condition(_report(p, p.j0, denominator + 1, 1), p)
    assert not density_condition(_report(p, p.j0, denominator, 1), p)


def test_density_condition_requires_matching_j():
    p = SwapParams(1)
    with pytest.raises(ValueError):
        density_condition(_report(p, p.j0 - 2, 10, 0), p)


@pytest.mark.parametrize("m", range(1, 11))
def test_coarse_threshold_implies_the_fine_one(m):
    # |S|/(k m n) never exceeds |S|/(m (k - j0 + 1)(n - j0 + 1)) as rationals
    p = SwapParams(m)
    size = 2 ** (p.n // 4)
    coarse = Fraction(size, p.k * p.m * p.n)
    fine = Fraction(size, p.m * (p.k - p.j0 + 1) * (p.n - p.j0 + 1))
    assert coarse <= fine
