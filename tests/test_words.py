"""Letter and word primitives: scaling, reversal, nesting, position maps,
track fusion."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab.words import (
    EMPTY_WORD,
    SYMBOL_TABLE,
    PositionMap,
    TrackedWord,
    Word,
    WordError,
    fuse_letter,
    fuse_tracks,
    nest_l2,
    parse_word,
    reverse,
    scale,
    split_letter,
)

words = st.builds(Word, st.lists(st.integers(0, 40), max_size=12))
positive_words = st.builds(Word, st.lists(st.integers(1, 40), max_size=12))
choice_words = st.builds(Word, st.lists(st.sampled_from((1, 2)), min_size=1, max_size=10))


def test_scale_worked_example():
    assert scale(Word.of(1, 2, 1, 1), 3) == Word.of(3, 6, 3, 3)


def test_scale_by_one_is_identity():
    w = Word.of(2, 1, 2)
    assert scale(w, 1) == w


def test_scale_single_letter():
    assert scale(Word.of(2), 15) == Word.of(30)


def test_scale_rejects_zero_factor():
    with pytest.raises(WordError):
        scale(Word.of(1, 2), 0)


def test_scale_rejects_padding_letters():
    with pytest.raises(WordError):
        scale(Word.of(0, 1), 3)


@given(positive_words, st.integers(1, 50))
def test_scale_preserves_length(w, c):
    assert len(scale(w, c)) == len(w)


@given(positive_words, st.integers(1, 50))
def test_scale_commutes_with_reverse(w, c):
    assert scale(reverse(w), c) == reverse(scale(w, c))


def test_reverse_two_letters():
    assert reverse(Word.of(1, 2)) == Word.of(2, 1)


def test_reverse_empty():
    assert reverse(EMPTY_WORD) == EMPTY_WORD


@given(words)
def test_reverse_is_an_involution(w):
    assert reverse(reverse(w)) == w


def test_nest_single_letter():
    assert nest_l2(Word.of(1)) == Word.of(1, 3, 15, 5)


def test_nest_expansions():
    assert nest_l2(Word.of(1, 2)) == Word.of(1, 2, 6, 3, 15, 30, 10, 5)
    assert nest_l2(Word.of(2, 1)) == Word.of(2, 1, 3, 6, 30, 15, 5, 10)


def test_nest_rejects_empty_and_foreign_letters():
    with pytest.raises(WordError):
        nest_l2(EMPTY_WORD)
    with pytest.raises(WordError):
        nest_l2(Word.of(1, 3))


@given(choice_words)
def test_nest_block_structure(w):
    t = len(w)
    nested = nest_l2(w)
    assert len(nested) == 4 * t
    assert nested[:t] == w
    assert nested[t : 2 * t] == scale(reverse(w), 3)
    assert nested[2 * t : 3 * t] == scale(w, 15)
    assert nested[3 * t :] == scale(reverse(w), 5)
    assert all(a in (1, 2, 3, 6, 5, 10, 15, 30) for a in nested.letters)


def test_nest_is_injective_up_to_length_8():
    for t in range(1, 9):
        images = {nest_l2(Word(c)) for c in itertools.product((1, 2), repeat=t)}
        assert len(images) == 2 ** t


def test_zip_roundtrip_and_empty():
    x = Word.of(0, 0, 1, 1)
    t = TrackedWord(x, x)
    assert TrackedWord.from_fused(t.fused()) == t
    assert len(TrackedWord(EMPTY_WORD, EMPTY_WORD)) == 0


def test_zip_rejects_unequal_lengths():
    with pytest.raises(WordError):
        TrackedWord(Word.of(1, 2), Word.of(3, 6, 3))
    with pytest.raises(ValueError):
        fuse_tracks((1, 2), (3, 6, 3))


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=12))
def test_zip_unzip_identity(pairs):
    x = Word(p[0] for p in pairs)
    a = Word(p[1] for p in pairs)
    t = TrackedWord(x, a)
    assert TrackedWord.from_fused(t.fused()) == t


@given(st.integers(0, 500), st.integers(0, 500))
def test_letter_fusion_is_a_bijection(top, bottom):
    assert split_letter(fuse_letter(top, bottom)) == (top, bottom)


def test_fused_words_are_injective_on_pairs():
    seen = {}
    for x in itertools.product((0, 1, 2), repeat=3):
        for a in itertools.product((0, 1, 2), repeat=3):
            code = TrackedWord(Word(x), Word(a)).fused().letters
            assert code not in seen
            seen[code] = (x, a)


def test_word_total_order_is_length_then_lexicographic():
    ordering = sorted([Word.of(2), Word.of(1, 1), Word.of(1), Word.of(0, 5), EMPTY_WORD])
    assert ordering == [EMPTY_WORD, Word.of(1), Word.of(2), Word.of(0, 5), Word.of(1, 1)]


def test_word_rejects_bad_letters():
    with pytest.raises(WordError):
        Word.of(-1)
    with pytest.raises(WordError):
        Word(["x"])


def test_word_rejects_bool_letters():
    with pytest.raises(WordError):
        Word.of(True)
    with pytest.raises(WordError):
        Word((1, False))


def is_valid(w):
    return all(type(a) is int and a >= 0 for a in w.letters) and w == Word(w.letters)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(positive_words, positive_words, st.integers(0, 3), st.integers(1, 5))
def test_words_built_inside_hold_valid_letters(u, v, times, c):
    # slicing, concatenation, repetition, scaling, reversal and track fusion
    # skip the letter check, so their results must pass it anyway
    fused = TrackedWord(u, reverse(u)).fused()
    tracked = TrackedWord.from_fused(fused)
    built = [u[1:], u[::-1], u + v, u * times, scale(u, c), reverse(v)]
    assert all(is_valid(w) for w in built + [fused, tracked.top, tracked.bottom])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(choice_words)
def test_nest_l2_matches_the_four_block_reference(w):
    reference = w + scale(reverse(w), 3) + scale(w, 15) + scale(reverse(w), 5)
    got = nest_l2(w)
    assert got == reference and is_valid(got)


def test_word_slicing_and_concatenation():
    w = Word.of(1, 2, 3, 4)
    assert w[1:3] == Word.of(2, 3)
    assert w[0] == 1
    assert w[:2] + w[2:] == w
    assert Word.of(7) * 3 == Word.of(7, 7, 7)


def test_serialization():
    w = Word.of(1, 2, 6, 3)
    assert w.to_json() == [1, 2, 6, 3]
    assert w.text() == "1 2 6 3"


def test_parse_word_accepts_decimals_and_names():
    assert parse_word("1,2,6,3") == Word.of(1, 2, 6, 3)
    assert parse_word("a b c c") == Word.of(1, 2, 3, 3)
    assert parse_word("") == EMPTY_WORD
    with pytest.raises(WordError):
        parse_word("1,q")


def test_symbol_table_published_values():
    assert SYMBOL_TABLE == {"0": 0, "1": 1, "2": 2, "a": 1, "b": 2, "c": 3, "#": 4}


def test_the_l2_2_map_reads_y_then_its_mirror_times_5():
    for n in (2, 4, 6, 8):
        pmap = PositionMap.l2_2(n)
        assert pmap.n == n and pmap.size == 4 ** (n // 2)
        choices = list(itertools.product((1, 2, 3, 6), repeat=n // 2))
        reference = [Word(y) + scale(reverse(Word(y)), 5) for y in choices]
        assert [Word(pmap.word(y)) for y in choices] == reference
        assert list(pmap.members()) == reference == sorted(reference)
    assert PositionMap.l2_2(5) is None and PositionMap.l2_2(0) is None


def test_the_l2_map_lists_its_nestings_in_canonical_order():
    for n in (4, 8, 12):
        choices = map(Word, itertools.product((1, 2), repeat=n // 4))
        reference = [w + scale(reverse(w), 3) + scale(w, 15) + scale(reverse(w), 5) for w in choices]
        assert list(PositionMap.l2(n).members()) == reference == sorted(reference)


def test_a_one_position_map_gives_its_one_letter_words():
    pmap = PositionMap(1, (1, 2), ((1, False),))
    assert pmap.n == 1 and pmap.size == 2 and pmap.index == (0,)
    assert pmap.members() == (Word.of(1), Word.of(2))
    assert pmap.word((2,)) == (2,)
    assert pmap.distinct(1) == [1]
    assert list(pmap.spot_witnesses()) == [(0, 1, 2)]
    scaled = PositionMap(1, (1, 2, 3), ((5, True),))
    assert scaled.members() == (Word.of(5), Word.of(10), Word.of(15))
    # one choice letter read twice
    assert PositionMap(1, (1, 2), ((1, False), (3, True))).members() == (Word.of(1, 3), Word.of(2, 6))


@pytest.mark.parametrize(
    "t, letters, blocks",
    [
        (0, (1, 2), ((1, False),)),
        (-1, (1, 2), ((1, False),)),
        (True, (1, 2), ((1, False),)),
        (1.0, (1, 2), ((1, False),)),
        (2, (), ((1, False),)),
        (2, (2, 1), ((1, False),)),
        (2, (1, 1), ((1, False),)),
        (2, (0, 1), ((1, False),)),
        (2, (1, "2"), ((1, False),)),
        (2, 3, ((1, False),)),
        (2, (1, 2), ()),
        (2, (1, 2), ((0, False),)),
        (2, (1, 2), ((-3, True),)),
        (2, (1, 2), ((1, 0),)),
        (2, (1, 2), ((1,),)),
        (2, (1, 2), (1, 2)),
        (2, (1, 2), None),
    ],
)
def test_a_bad_position_map_is_a_word_error(t, letters, blocks):
    with pytest.raises(WordError):
        PositionMap(t, letters, blocks)


def test_the_built_in_maps_pass_the_constructor_checks():
    for n in range(1, 41):
        for pmap in (PositionMap.l2(n), PositionMap.l2_2(n)):
            if pmap is not None:
                assert PositionMap(*pmap) == pmap


def test_a_position_map_is_checked_however_it_is_built():
    pmap = PositionMap(2, [1, 2], [[1, False], (3, True)])
    assert pmap == PositionMap(2, (1, 2), ((1, False), (3, True)))
    assert PositionMap._make((2, (1, 2), ((1, False),))).members()[0] == Word.of(1, 1)
    with pytest.raises(WordError):
        PositionMap.l2(8)._replace(letters=(2, 1))
    with pytest.raises(WordError):
        PositionMap.l2(8)._replace(t=0)


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=12))
def test_fuse_tracks_fuses_letter_by_letter(pairs):
    top, bottom = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    assert fuse_tracks(top, bottom) == tuple(fuse_letter(t, b) for t, b in pairs)
