"""The language family: predicates against brute force, generators,
grammars, and the intersection identity."""

import hashlib
import itertools
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab.corpus import (
    L2_ALPHABET,
    LANGUAGES,
    CorpusLanguage,
    grammar_l2_1,
    grammar_l2_2,
    intersection_check,
    is_l2,
    is_l2_1,
    is_l2_2,
    is_l2_dprime,
    is_l2_prime,
    l2_members,
)
from langlab.grammars import cyk_member, enumerate_language, to_cnf
from langlab.guards import CostGuardError
from langlab.swaplab import Slice, build_slice
from langlab.words import MapRuns, Word, parse_word


def brute_members(alphabet, n, predicate):
    return sorted(
        Word(t) for t in itertools.product(sorted(alphabet), repeat=n) if predicate(Word(t))
    )


# sizes at n = 0..16, and a sha256 over the generated members of every
# length up to 16 with at most 10^5 of them, recorded when each language
# still had a hand-written generator and size
SIZES = {
    "L2": [0, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 8, 0, 0, 0, 16],
    "L2_1": [
        0, 0, 0, 8, 32, 144, 576, 2336, 9344, 37440, 149760, 599168, 2396672,
        9586944, 38347776, 153391616, 613566464,
    ],
    "L2_2": [0, 0, 4, 0, 16, 0, 64, 0, 256, 0, 1024, 0, 4096, 0, 16384, 0, 65536],
    "L2_dprime": [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    "L2_prime": [0, 0, 0, 0, 64, 0, 0, 0, 4096, 0, 0, 0, 262144, 0, 0, 0, 16777216],
    "L_3eq": [0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0],
    "L_eq": [0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    "Pal_sharp": [0, 1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 32, 0, 64, 0, 128, 0],
}
MEMBER_DIGESTS = {
    "L2": "2427e831f0c684cf9786e119c2e0f9c39e9c13bd7ef00d7302645126ac805bfa",
    "L2_1": "1b633868d44e52c9aa447ae00af87eb6d308e245f639cd759a89f300d63a8668",
    "L2_2": "5cd3eb3c07757382cd0d3478ded7c4c20a615a1fad1222b1fdeabd8d299eee4f",
    "L2_dprime": "7175b3ba55c8df6f93d8a9a0ce7ef8c03ba6fb96cf1baf9dc467ad74df335c44",
    "L2_prime": "b0c08e2db9518ec286b2947419fa345b5ca80a3981fb724dfb27aa53f87ab64a",
    "L_3eq": "f65beb7fb43cb6b218518d50b9eddfb88976030908fdd487b6a0e45616a3cdde",
    "L_eq": "8e479d4d49ec04b79c6ffd3b9edcb7e1b19bb7ed46d0ec244d96b8c4e5c87900",
    "Pal_sharp": "695121532aeaab62d575879d04b1938940f511dfff5b592c239d8a1c87f77c3c",
}


@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_sizes_count_the_generated_members(name):
    # every size up to 16 as recorded, and the members of every length
    # with at most 10^5 of them: as recorded, as many as the size says,
    # and the slice read off the maps packs them as a slice of the words
    lang = LANGUAGES[name]
    assert [lang.size(n) for n in range(17)] == SIZES[name]
    digest = hashlib.sha256()
    for n in range(17):
        if lang.size(n) > 10**5:
            continue
        members = lang.generator(n)
        assert lang.size(n) == len(members), (name, n)
        digest.update(json.dumps([n, [w.letters for w in members]], separators=(",", ":")).encode())
        if n:
            s, words = build_slice(lang, n), Slice(n, members)
            assert (s.letters, s.packed) == (words.letters, words.packed), (name, n)
    assert digest.hexdigest() == MEMBER_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_sizes_are_zero_at_negative_lengths(name):
    for n in range(-4, 0):
        size = LANGUAGES[name].size(n)
        assert size == 0 and type(size) is int, (name, n, size)


def test_a_size_with_a_limit_stops_adding_once_past_it(monkeypatch):
    # sizes are read off the run form, so no map is built to count them
    monkeypatch.setattr(MapRuns, "map", lambda runs: pytest.fail("sizing built a map"))
    # L2_1's maps come largest first, 2^(2n - 3h) members at head length h
    assert LANGUAGES["L2_1"].size(12, 10**6) == 2**21 < LANGUAGES["L2_1"].size(12)
    for name, lang in LANGUAGES.items():
        assert [lang.size(n, 10**9) for n in range(17)] == SIZES[name]


def test_a_generator_needs_a_size():
    with pytest.raises(ValueError, match="size"):
        CorpusLanguage("sizeless", frozenset({1}), lambda w: True, lambda n: ())


def test_l2_members_small_lengths():
    assert [w.letters for w in l2_members(4)] == [(1, 3, 15, 5), (2, 6, 30, 10)]
    assert l2_members(6) == ()
    assert l2_members(2) == ()
    assert len(l2_members(16)) == 16


@pytest.mark.parametrize("t", range(1, 9))
def test_l2_slice_sizes_double_per_quarter_letter(t):
    assert len(l2_members(4 * t)) == 2 ** t


def test_no_l2_member_off_the_four_grid():
    for n in range(0, 14):
        if n % 4 or n == 0:
            assert l2_members(n) == ()


@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_generators_match_predicates_exhaustively(name):
    lang = LANGUAGES[name]
    max_n = 6 if len(lang.alphabet) > 3 else 9
    for n in range(0, max_n + 1):
        assert list(lang.generator(n)) == brute_members(lang.alphabet, n, lang.predicate), (
            name,
            n,
        )


# the L2 letters plus a padding letter and the palindrome centre, which no
# L2-family member holds; L2_1's slices at lengths 11 and 12 have 0.6 and
# 2.4 million members, so its words stop at length 10
FAMILY_LETTERS = sorted(L2_ALPHABET | {0, 4})
FAMILY_LENGTHS = {"L2": 12, "L2_1": 10, "L2_2": 12, "L2_prime": 12}


@lru_cache(maxsize=None)
def _slice_letters(name, n):
    return tuple(w.letters for w in LANGUAGES[name].generator(n))


@lru_cache(maxsize=None)
def _slice_set(name, n):
    return frozenset(_slice_letters(name, n))


@st.composite
def family_words(draw, name):
    """Words of at most ``FAMILY_LENGTHS[name]`` letters over
    ``FAMILY_LETTERS``: members and random words, and blocks of one head
    over {0, 1, 2}, each scaled by 1, 3, 5 or 15 and perhaps mirrored (the
    shape of every member, with the scales and mirrors free), each with up
    to two letters changed."""
    cap = FAMILY_LENGTHS[name]
    kind = draw(st.sampled_from(("member", "member", "random", "blocks")))
    if kind == "member":
        n = draw(st.sampled_from([n for n in range(cap + 1) if LANGUAGES[name].size(n)]))
        letters = list(draw(st.sampled_from(_slice_letters(name, n))))
    elif kind == "blocks":
        head = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=cap // 2))
        letters = []
        for _ in range(draw(st.integers(1, 4))):
            block = head[::-1] if draw(st.booleans()) else head
            letters += [draw(st.sampled_from((1, 3, 5, 15))) * a for a in block]
        letters += draw(st.lists(st.sampled_from(FAMILY_LETTERS), max_size=cap))
        letters = letters[:cap]
    else:
        letters = draw(st.lists(st.sampled_from(FAMILY_LETTERS), max_size=cap))
    for _ in range(draw(st.integers(0, 2)) if letters else 0):
        letters[draw(st.integers(0, len(letters) - 1))] = draw(st.sampled_from(FAMILY_LETTERS))
    return Word(letters)


@pytest.mark.parametrize("name", sorted(FAMILY_LENGTHS))
@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_family_predicates_agree_with_their_generators(name, data):
    w = data.draw(family_words(name))
    assert LANGUAGES[name].predicate(w) == (w.letters in _slice_set(name, len(w)))


@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_generated_members_hold_valid_letters(name):
    # generators build their words without the letter check
    for n in range(0, 9):
        for m in LANGUAGES[name].generator(n):
            assert all(type(a) is int and a >= 0 for a in m.letters), (name, m)
            assert m == Word(m.letters)


@pytest.mark.parametrize("name", ["L2", "L2_1", "L2_2", "L2_prime"])
def test_eight_letter_generators_match_predicates_at_length_7(name):
    # 8^7 candidates is the largest ambient power still worth filtering
    lang = LANGUAGES[name]
    assert list(lang.generator(7)) == brute_members(lang.alphabet, 7, lang.predicate)


@pytest.mark.parametrize("name", ["L_eq", "Pal_sharp", "L2_1", "L2_2"])
def test_grammars_agree_with_generators(name):
    lang = LANGUAGES[name]
    enumerated = enumerate_language(lang.grammar, 8)
    for n in range(0, 9):
        assert sorted(w for w in enumerated if len(w) == n) == list(lang.generator(n)), n


def test_grammarless_languages_are_the_non_context_free_ones():
    assert {name for name, lang in LANGUAGES.items() if lang.grammar is None} == {
        "L_3eq",
        "L2",
        "L2_prime",
        "L2_dprime",
    }


def test_smallest_covering_members():
    assert is_l2_1(Word.of(1, 3, 5))
    assert is_l2_2(Word.of(1, 5))


def test_nesting_of_12_lies_in_both_covers():
    w = parse_word("1,2,6,3,15,30,10,5")
    assert is_l2(w) and is_l2_1(w) and is_l2_2(w)


def test_l2_is_contained_in_its_covers_up_to_length_32():
    for n in range(4, 33, 4):
        for w in l2_members(n):
            assert is_l2_1(w) and is_l2_2(w) and is_l2_prime(w)


def test_l2pp_members_and_predicate():
    assert is_l2_dprime(parse_word("a,b,c,c"))
    assert not is_l2_dprime(parse_word("a,b,c"))
    l2pp_members = LANGUAGES["L2_dprime"].generator
    assert [w.letters for w in l2pp_members(8)] == [(1, 1, 2, 2, 3, 3, 3, 3)]
    assert l2pp_members(6) == ()
    assert l2pp_members(0) == ()  # the empty word is kept out, as for L_eq


def test_every_length8_nesting_satisfies_the_block_shape():
    members = l2_members(8)
    assert len(members) == 4
    assert all(is_l2_prime(w) for w in members)


def test_intersection_check_small_levels():
    report = intersection_check(4)
    assert report.ok and report.counterexample is None
    assert [lv.count for lv in report.levels] == [0, 0, 0, 2]

    report = intersection_check(8)
    assert report.ok
    assert [lv.count for lv in report.levels][-1] == 4

    report = intersection_check(3)
    assert report.ok and all(lv.count == 0 for lv in report.levels)

    # past the length-12 guard: 2, 4 and 8 nestings at lengths 4, 8 and 12
    report = intersection_check(14, force=True)
    assert report.ok and report.counterexample is None
    assert [lv.count for lv in report.levels] == [0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 8, 0, 0]


def test_intersection_check_cost_guard():
    with pytest.raises(CostGuardError):
        intersection_check(13)


def test_intersection_members_replay_through_both_grammars():
    cnf_1, cnf_2 = to_cnf(grammar_l2_1()), to_cnf(grammar_l2_2())
    for n in (4, 8):
        for w in l2_members(n):
            assert cyk_member(cnf_1, w) and cyk_member(cnf_2, w)


def test_literal_two_sided_enumeration_intersection():
    both = set(enumerate_language(grammar_l2_1(), 8)) & set(
        enumerate_language(grammar_l2_2(), 8)
    )
    expected = {w for n in range(1, 9) for w in l2_members(n)}
    assert both == expected
