"""Advised membership, the serial-to-parallel conversion, pair coding."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from langlab.advice import (
    AdviceError,
    AdviceFunction,
    AdvisedLanguage,
    PairCodeError,
    advice_from_json,
    leq_advice,
    leq_parallel,
    membership_oracle,
    parallel_member,
    prefix_pair_decode,
    prefix_pair_encode,
    serial_member,
    serial_to_parallel_reg,
    table_advice,
    zero_advice,
)
from langlab.corpus import is_leq
from langlab.grammars import Dfa, dfa_accepts
from langlab.words import EMPTY_WORD, Word, fuse_tracks

binary_words = st.builds(Word, st.lists(st.sampled_from((0, 1)), max_size=10))


def parity_dfa():
    return Dfa(
        states=frozenset({"even", "odd"}),
        alphabet=frozenset({0, 1}),
        transitions={
            ("even", 0): "even",
            ("even", 1): "odd",
            ("odd", 0): "odd",
            ("odd", 1): "even",
        },
        start="even",
        accepting=frozenset({"odd"}),
    )


def constant_dfa(accept_all):
    return Dfa(
        states=frozenset({"q"}),
        alphabet=frozenset({0, 1}),
        transitions={("q", 0): "q", ("q", 1): "q"},
        start="q",
        accepting=frozenset({"q"}) if accept_all else frozenset(),
    )


# -- advice functions ----------------------------------------------------------


def test_leq_advice_shape():
    h = leq_advice()
    assert h(4) == Word.of(0, 0, 1, 1)
    assert h(3) == Word.of(2, 2, 2)
    assert h(0) == EMPTY_WORD


@pytest.mark.parametrize("make", [leq_advice, zero_advice])
def test_advice_length_law(make):
    h = make()
    for n in range(65):
        assert len(h(n)) == n


def test_advice_length_violation_is_caught():
    broken = AdviceFunction(lambda n: Word.of(0), "broken")
    with pytest.raises(AdviceError):
        broken(3)


def test_table_advice_missing_entry_is_an_error():
    h = table_advice({2: [0, 1]}, "tiny")
    assert h(2) == Word.of(0, 1)
    with pytest.raises(AdviceError):
        h(3)


def test_advice_from_json():
    h = advice_from_json({"0": [], "2": [1, 1]})
    assert h(2) == Word.of(1, 1)
    with pytest.raises(AdviceError):
        advice_from_json({"one": [1]})
    for doc in ([1, 2], "leq", 7, None):
        with pytest.raises(AdviceError, match="JSON object"):
            advice_from_json(doc)


# -- parallel and serial membership ---------------------------------------------


def test_parallel_equal_halves_examples():
    lang = leq_parallel()
    assert parallel_member(lang, Word.of(0, 0, 1, 1))
    assert not parallel_member(lang, Word.of(0, 1, 0, 1))
    assert not parallel_member(lang, Word.of(0, 0, 0))


def test_parallel_equal_halves_decides_exactly_leq_up_to_10():
    lang = leq_parallel()
    for n in range(0, 11):
        for t in itertools.product((0, 1), repeat=n):
            x = Word(t)
            assert parallel_member(lang, x) == is_leq(x)


def test_parallel_member_requires_parallel_mode():
    with pytest.raises(AdviceError):
        parallel_member(AdvisedLanguage("serial", constant_dfa(True), zero_advice()), EMPTY_WORD)


def test_serial_membership_examples():
    zeros_only = Dfa(
        states=frozenset({"ok", "dead"}),
        alphabet=frozenset({0, 1}),
        transitions={("ok", 0): "ok", ("ok", 1): "dead", ("dead", 0): "dead", ("dead", 1): "dead"},
        start="ok",
        accepting=frozenset({"ok"}),
    )
    lang = AdvisedLanguage("serial", zeros_only, zero_advice())
    assert serial_member(lang, Word.of(0, 0))

    contains_one = Dfa(
        states=frozenset({"no", "yes"}),
        alphabet=frozenset({0, 1}),
        transitions={("no", 0): "no", ("no", 1): "yes", ("yes", 0): "yes", ("yes", 1): "yes"},
        start="no",
        accepting=frozenset({"yes"}),
    )
    lang = AdvisedLanguage("serial", contains_one, zero_advice())
    assert serial_member(lang, Word.of(0, 1))
    assert not serial_member(lang, Word.of(0, 0))


# -- serial -> parallel conversion ----------------------------------------------


def assert_conversion_preserves_decisions(m, g, max_len=8):
    h, m2 = serial_to_parallel_reg(m, g)
    converted = AdvisedLanguage("parallel", m2, h)
    for n in range(1, max_len + 1):
        assert len(h(n)) == n
        for t in itertools.product(tuple(sorted(m.alphabet)), repeat=n):
            x = Word(t)
            assert parallel_member(converted, x) == dfa_accepts(m, g(n) + x), (x, g.name)


def test_conversion_on_parity_dfa_with_ones_advice():
    g = AdviceFunction(lambda n: Word((1,) * n), "ones")
    assert_conversion_preserves_decisions(parity_dfa(), g)


def test_conversion_on_constant_dfas():
    g = zero_advice()
    assert_conversion_preserves_decisions(constant_dfa(True), g, max_len=6)
    assert_conversion_preserves_decisions(constant_dfa(False), g, max_len=6)


def test_conversion_empty_input_is_wired_into_start_acceptance():
    g = zero_advice()
    for accept_all in (True, False):
        m = constant_dfa(accept_all)
        h, m2 = serial_to_parallel_reg(m, g)
        assert h(0) == EMPTY_WORD
        converted = AdvisedLanguage("parallel", m2, h)
        assert parallel_member(converted, EMPTY_WORD) == dfa_accepts(m, g(0))


def test_conversion_state_codes_avoid_the_input_alphabet():
    h, _ = serial_to_parallel_reg(parity_dfa(), zero_advice())
    head = h(5).letters[0]
    assert head not in (0, 1)
    assert h(5).letters[1:] == (0, 0, 0, 0)


# -- pair coding -----------------------------------------------------------------


def test_encode_empty_pair():
    assert prefix_pair_encode(EMPTY_WORD, EMPTY_WORD) == Word.of(0, 1, 0, 1)


def test_encode_worked_example():
    got = prefix_pair_encode(Word.of(0, 1), Word.of(1))
    assert got == Word.of(0, 0, 1, 1, 0, 1, 1, 1, 0, 1)
    assert prefix_pair_decode(got) == (Word.of(0, 1), Word.of(1))


def test_roundtrip_all_pairs_up_to_4():
    words = [Word(t) for k in range(5) for t in itertools.product((0, 1), repeat=k)]
    for u in words:
        for v in words:
            assert prefix_pair_decode(prefix_pair_encode(u, v)) == (u, v)


@given(binary_words, binary_words)
def test_roundtrip_property(u, v):
    assert prefix_pair_decode(prefix_pair_encode(u, v)) == (u, v)


def test_decode_rejects_malformed_inputs():
    with pytest.raises(PairCodeError):
        prefix_pair_decode(Word.of(0, 0, 0, 1))  # second terminator missing
    with pytest.raises(PairCodeError):
        prefix_pair_decode(Word.of(1, 0, 0, 1, 0, 1))  # the 1,0 pair
    with pytest.raises(PairCodeError):
        prefix_pair_decode(Word.of(0, 1, 0, 1, 1))  # trailing letter
    with pytest.raises(PairCodeError):
        prefix_pair_decode(Word.of(0))  # truncated
    with pytest.raises(PairCodeError):
        prefix_pair_decode(Word.of(5, 5, 0, 1, 0, 1))  # foreign letters
    with pytest.raises(PairCodeError):
        prefix_pair_encode(Word.of(2), EMPTY_WORD)


def test_decode_names_the_bad_pair():
    with pytest.raises(PairCodeError, match=r"invalid letter pair \(1, 0\)"):
        prefix_pair_decode(Word.of(1, 0, 0, 1, 0, 1))
    with pytest.raises(PairCodeError, match=r"invalid letter pair \(2, 2\)"):
        prefix_pair_decode(Word.of(0, 0, 2, 2, 0, 1, 0, 1))
    with pytest.raises(PairCodeError, match=r"invalid letter pair \(0, 2\)"):
        prefix_pair_decode(Word.of(0, 2, 0, 1))
    with pytest.raises(PairCodeError, match="truncated"):
        prefix_pair_decode(Word.of(0, 0, 1))


def test_codewords_up_to_5_are_prefix_free():
    words = [Word(t) for k in range(6) for t in itertools.product((0, 1), repeat=k)]
    codes = {prefix_pair_encode(u, v).letters for u in words for v in words}
    assert len(codes) == len(words) ** 2
    for letters in codes:
        for cut in range(1, len(letters)):
            assert letters[:cut] not in codes


# -- the advice path against independent folds -------------------------------------


def random_dfa(rng):
    # built the way acceptance._random_dfa builds the suite's automata
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    return Dfa(
        states=frozenset(states),
        alphabet=frozenset((0, 1)),
        transitions={(q, a): rng.choice(states) for q in states for a in (0, 1)},
        start="q0",
        accepting=frozenset(q for q in states if rng.random() < 0.5),
    )


def reference_accepts(m, letters):
    # a foreign letter rejects; otherwise fold the transition map
    q = m.start
    for a in letters:
        if (q, a) not in m.transitions:
            return False
        q = m.transitions[(q, a)]
    return q in m.accepting


def test_dfa_oracle_matches_a_fold_and_rejects_foreign_letters():
    rng = random.Random(18)
    for _ in range(20):
        m = random_dfa(rng)
        oracle = membership_oracle(m)
        for n in range(6):
            for t in itertools.product((0, 1, 2), repeat=n):
                assert oracle(Word(t)) == reference_accepts(m, t), t
                if 2 in t:
                    assert not oracle(Word(t))


def binary_words_up_to(max_len):
    return [Word(t) for n in range(max_len + 1) for t in itertools.product((0, 1), repeat=n)]


def assert_parallel_member_matches_tracked_fusion(lang, max_len=8):
    for x in binary_words_up_to(max_len):
        fused = fuse_tracks(x.letters, lang.advice(len(x)).letters)
        assert parallel_member(lang, x) == reference_accepts(lang.inner, fused), x


def test_parallel_member_matches_tracked_fusion_on_leq():
    assert_parallel_member_matches_tracked_fusion(leq_parallel())


def test_parallel_member_matches_tracked_fusion_on_converted_setups():
    rng = random.Random(9)
    for _ in range(5):
        m = random_dfa(rng)
        table = {n: [rng.choice((0, 1)) for _ in range(n)] for n in range(9)}
        h, m2 = serial_to_parallel_reg(m, table_advice(table, "random-table"))
        assert_parallel_member_matches_tracked_fusion(AdvisedLanguage("parallel", m2, h))


def test_parallel_member_rejects_advice_of_the_wrong_length():
    long = AdviceFunction(lambda n: Word((0,) * (n + 1)), "long")
    with pytest.raises(AdviceError, match="length 4 at n=3"):
        parallel_member(AdvisedLanguage("parallel", constant_dfa(True), long), Word.of(0, 1, 1))
    # a bare callable skips the length law, and the track fusion still refuses it
    bare = AdvisedLanguage("parallel", constant_dfa(True), lambda n: Word((0,) * (n + 1)))
    with pytest.raises(ValueError):
        parallel_member(bare, Word.of(0, 1, 1))
    with pytest.raises(ValueError):
        parallel_member(bare, EMPTY_WORD)
