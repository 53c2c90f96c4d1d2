"""Letter and word primitives: scaling, reversal, nesting, position maps,
track fusion."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab import corpus
from langlab.words import (
    EMPTY_WORD,
    SYMBOL_TABLE,
    MapRuns,
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
    assert TrackedWord.from_fused(Word(fuse_tracks(x.letters, x.letters))) == TrackedWord(x, x)
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
    assert TrackedWord.from_fused(Word(fuse_tracks(x.letters, a.letters))) == TrackedWord(x, a)


@given(st.integers(0, 500), st.integers(0, 500))
def test_letter_fusion_is_a_bijection(top, bottom):
    assert split_letter(fuse_letter(top, bottom)) == (top, bottom)


def test_fused_words_are_injective_on_pairs():
    seen = {}
    for x in itertools.product((0, 1, 2), repeat=3):
        for a in itertools.product((0, 1, 2), repeat=3):
            code = fuse_tracks(x, a)
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
    with pytest.raises(WordError, match="got False"):
        Word((1, False))


@pytest.mark.parametrize("bad", [True, -1, 1.0, "2"])
def test_track_letters_follow_the_letter_rule(bad):
    with pytest.raises(WordError, match=f"got .*{bad!r}"):
        fuse_letter(bad, 1)
    with pytest.raises(WordError, match=f"got .*{bad!r}"):
        fuse_letter(1, bad)
    with pytest.raises(WordError, match=f"got {bad!r}"):
        split_letter(bad)


def is_valid(w):
    return all(type(a) is int and a >= 0 for a in w.letters) and w == Word(w.letters)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(positive_words, positive_words, st.integers(0, 3), st.integers(1, 5))
def test_words_built_inside_hold_valid_letters(u, v, times, c):
    # slicing, concatenation, repetition, scaling, reversal and track fusion
    # skip the letter check, so their results must pass it anyway
    fused = Word._trusted(fuse_tracks(u.letters, reverse(u).letters))
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
    # a superscript digit passes str.isdigit but is no letter int() reads
    with pytest.raises(WordError, match="unknown letter token '²'"):
        parse_word("1,²")


def test_symbol_table_published_values():
    assert SYMBOL_TABLE == {"0": 0, "1": 1, "2": 2, "a": 1, "b": 2, "c": 3, "#": 4}


def test_the_l2_2_map_reads_y_then_its_mirror_times_5():
    for n in (2, 4, 6, 8):
        (runs,) = corpus.l2_2_runs(n)
        pmap = runs.map()
        assert pmap.n == n and pmap.size == 4 ** (n // 2)
        choices = list(itertools.product((1, 2, 3, 6), repeat=n // 2))
        reference = [Word(y) + scale(reverse(Word(y)), 5) for y in choices]
        assert [Word(pmap.word(y)) for y in choices] == reference
        assert list(pmap.members()) == reference == sorted(reference)
    assert corpus.l2_2_runs(5) == corpus.l2_2_runs(0) == ()


def test_the_l2_map_lists_its_nestings_in_canonical_order():
    for n in (4, 8, 12):
        choices = map(Word, itertools.product((1, 2), repeat=n // 4))
        reference = [w + scale(reverse(w), 3) + scale(w, 15) + scale(reverse(w), 5) for w in choices]
        assert list(PositionMap.l2(n).members()) == reference == sorted(reference)


def test_a_one_position_map_gives_its_one_letter_words():
    pmap = PositionMap(((0, 1),), ((1, 2),))
    assert pmap.n == 1 and pmap.size == 2 and pmap.reads == ((0, 1),)
    assert pmap.members() == (Word.of(1), Word.of(2))
    assert pmap.word((2,)) == (2,)
    # the one window spells two distinct factors
    assert pmap.distinct(1) == [2]
    assert list(pmap.spot_witnesses()) == [(0, 1, 2)]
    scaled = PositionMap(((0, 5),), ((1, 2, 3),))
    assert scaled.members() == (Word.of(5), Word.of(10), Word.of(15))
    # one choice letter read twice
    twice = PositionMap(((0, 1), (0, 3)), ((1, 2),))
    assert twice.members() == (Word.of(1, 3), Word.of(2, 6))
    assert MapRuns((((1, 2), 1),), ((0, 1, 1, 1), (0, 1, -1, 3))).map() == twice
    # a constant letter is an index with a one-letter alphabet, letter 0 included
    constant = PositionMap(((0, 1), (1, 1), (0, 1)), ((0, 1), (4,)))
    assert constant.members() == (Word.of(0, 4, 0), Word.of(1, 4, 1))
    assert constant.distinct(2) == [2, 2] and constant.size == 2


@pytest.mark.parametrize(
    "reads, alphabets",
    [
        # the choice indices are not first read in the order 0, 1, 2, ...
        (((1, 1), (0, 1)), ((1, 2), (1, 2))),
        (((0, 1), (2, 1), (1, 1)), ((1,), (1,), (1,))),
        # an index that is never read, or a read of an index with no alphabet
        (((0, 1),), ((1, 2), (1, 2))),
        (((0, 1), (1, 1)), ((1, 2),)),
        (((-1, 1),), ((1, 2),)),
        # malformed reads
        ((), ((1, 2),)),
        ((), ()),
        (((0, 0),), ((1, 2),)),
        (((0, -3),), ((1, 2),)),
        (((0, True),), ((1, 2),)),
        (((True, 1),), ((1, 2),)),
        (((0.0, 1),), ((1, 2),)),
        (((0,),), ((1, 2),)),
        ((0, 1), ((1, 2),)),
        (None, ((1, 2),)),
        # malformed alphabets
        (((0, 1),), ((),)),
        (((0, 1),), ((2, 1),)),
        (((0, 1),), ((1, 1),)),
        (((0, 1),), ((-1, 0),)),
        (((0, 1),), ((1, "2"),)),
        (((0, 1),), ((1, 2.0),)),
        (((0, 1),), (3,)),
        (((0, 1),), None),
        # the same faults in a block layout: two indices, read in order
        (((0, 1), (1, 1)), ((), ())),
        (((0, 1), (1, 1)), ((2, 1), (2, 1))),
        (((0, 1), (1, 1)), ((1, 1), (1, 1))),
        (((0, 1), (1, 1)), ((-1, 1), (-1, 1))),
        (((0, 1), (1, 1)), ((1, "2"), (1, "2"))),
        (((0, 1), (1, 1)), (3, 3)),
        ((), ((1, 2), (1, 2))),
        (((0, 0), (1, 0)), ((1, 2), (1, 2))),
        (((0, -3), (1, -3)), ((1, 2), (1, 2))),
        # a bool is no letter, though True == 1
        (((0, 1),), ((True, 2),)),
    ],
)
def test_a_malformed_map_is_a_word_error(reads, alphabets):
    with pytest.raises(WordError):
        PositionMap(reads, alphabets)


def test_the_map_that_listed_its_members_out_of_order_is_rejected():
    # one mirrored block over two indices reads index 1 first: its choice
    # words spelled (1, 1), (2, 1), (1, 2), (2, 2), which is not canonical
    with pytest.raises(WordError, match="first read in the order"):
        PositionMap(((1, 1), (0, 1)), ((1, 2), (1, 2)))
    assert PositionMap(((0, 1), (1, 1)), ((1, 2), (1, 2))).members() == tuple(
        Word(w) for w in ((1, 1), (1, 2), (2, 1), (2, 2))
    )


@st.composite
def position_maps(draw):
    """Maps of up to 4 indices, each read 1 to 4 times at scales from
    {1, 2, 3, 5}, over 1- to 3-letter alphabets drawn from 0..4, the reads
    in any order: the indices are renumbered by their first read."""
    k = draw(st.integers(1, 4))
    reads = []
    for x in range(k):
        reads += [(x, draw(st.sampled_from((1, 2, 3, 5)))) for _ in range(draw(st.integers(1, 4)))]
    reads = draw(st.permutations(reads))
    sizes = [draw(st.sampled_from((3, 2, 1))) for _ in range(k)]
    alphabets = [tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=c, max_size=c)))) for c in sizes]
    order = list(dict.fromkeys(x for x, _ in reads))
    rank = {x: r for r, x in enumerate(order)}
    return PositionMap([(rank[x], scale) for x, scale in reads], [alphabets[x] for x in order])


def runs_of(pmap):
    """The run form of any map: a run for every index and every position."""
    indices = tuple((letters, 1) for letters in pmap.alphabets)
    return MapRuns(indices, tuple((x, 1, 1, scale) for x, scale in pmap.reads))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(position_maps())
def test_every_map_lists_its_members_in_canonical_order(pmap):
    members = pmap.members()
    assert list(members) == sorted(set(members)) and len(members) == pmap.size
    assert all(len(w) == pmap.n for w in members)
    assert runs_of(pmap).map() == pmap and runs_of(pmap).size == pmap.size


def test_the_built_in_maps_pass_the_constructor_checks():
    for n in range(1, 41):
        for runs in MapRuns.l2(n) + corpus.l2_2_runs(n):
            pmap = runs.map()
            assert PositionMap(*pmap) == pmap and pmap.size == runs.size


def test_a_run_form_is_sized_off_its_index_runs_and_spelled_out_run_by_run():
    # u over {0, 1}, a one-letter index #, then u reversed: Pal_sharp at 7
    runs = MapRuns((((0, 1), 3), ((4,), 1)), ((0, 3, 1, 1), (3, 1, 0, 1), (2, 3, -1, 1)))
    assert runs.size == 8
    assert runs.map() == PositionMap(
        [(0, 1), (1, 1), (2, 1), (3, 1), (2, 1), (1, 1), (0, 1)], [(0, 1)] * 3 + [(4,)]
    )
    # step 0 reads one index count times
    assert MapRuns((((1,), 1), ((2,), 1)), ((0, 2, 0, 1), (1, 2, 0, 1))).map().members() == (
        Word.of(1, 1, 2, 2),
    )
    # a size of thousands of digits costs nothing to read off
    (runs,) = MapRuns.l2(10**8)
    assert runs.size == 2 ** (25 * 10**6)


def test_a_position_map_is_checked_however_it_is_built():
    pmap = PositionMap([[0, 1], (1, 1), [1, 3], (0, 3)], [[1, 2], (1, 2)])
    assert pmap == PositionMap(((0, 1), (1, 1), (1, 3), (0, 3)), ((1, 2), (1, 2)))
    assert pmap == MapRuns((((1, 2), 2),), ((0, 2, 1, 1), (1, 2, -1, 3))).map()
    assert PositionMap._make((((0, 1), (1, 1)), ((1, 2), (1, 2)))).members()[0] == Word.of(1, 1)
    with pytest.raises(WordError):
        PositionMap.l2(8)._replace(alphabets=((2, 1), (1, 2)))
    with pytest.raises(WordError):
        PositionMap.l2(8)._replace(reads=())


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=12))
def test_fuse_tracks_fuses_letter_by_letter(pairs):
    top, bottom = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    assert fuse_tracks(top, bottom) == tuple(fuse_letter(t, b) for t, b in pairs)
