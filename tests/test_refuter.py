"""Pumping decompositions and inclusion refutation."""

import pytest

from langlab import grammars, refuter
from langlab.corpus import is_l2_dprime, is_l2_prime
from langlab.grammars import cyk_member, parse_grammar, pumping_constant, to_cnf
from langlab.refuter import Inconclusive, PumpWitness, find_decomposition, refute_subset
from langlab.words import Word

AB_BALANCED = parse_grammar("S -> 'a' S 'b' | 'a' 'b'")
A_PLUS = parse_grammar("S -> S S | 'a'")
ABC_FREE_TAIL = parse_grammar(
    """
    S -> A C
    A -> 'a' A 'b' | 'a' 'b'
    C -> 'c' C | 'c'
    """
)


def test_decomposition_on_balanced_pairs():
    cnf = to_cnf(AB_BALANCED)
    p = pumping_constant(cnf)
    z = Word((1,) * (p // 2) + (2,) * (p // 2))  # a^(p/2) b^(p/2), length p
    u, v, w, x, y = find_decomposition(cnf, z)
    assert u + v + w + x + y == z
    assert 1 <= len(v) + len(x)
    assert len(v) + len(w) + len(x) <= p
    # for this language any pumpable pair must shrink/grow both blocks together
    assert len(v) == len(x) >= 1
    assert set(v.letters) <= {1} and set(x.letters) <= {2}
    for times in (0, 2, 3):
        assert cyk_member(cnf, u + v * times + w + x * times + y)


def test_decomposition_on_unary_repetition():
    cnf = to_cnf(A_PLUS)
    p = pumping_constant(cnf)
    assert p == 2
    u, v, w, x, y = find_decomposition(cnf, Word((1,) * p))
    for times in (0, 2, 3, 5):
        assert cyk_member(cnf, u + v * times + w + x * times + y)


def test_decomposition_preconditions():
    cnf = to_cnf(parse_grammar("S -> 'a'"))
    with pytest.raises(ValueError):
        find_decomposition(cnf, Word.of(1))  # below the pumping constant
    cnf = to_cnf(AB_BALANCED)
    p = pumping_constant(cnf)
    with pytest.raises(ValueError):
        find_decomposition(cnf, Word((1,) * p))  # not in the language


def test_one_chart_per_decomposition(monkeypatch):
    cnf = to_cnf(AB_BALANCED)
    p = pumping_constant(cnf)
    z = Word((1,) * (p // 2) + (2,) * (p // 2))
    charted = []
    chart = grammars.cyk_chart
    for module in (grammars, refuter):  # every binding of the chart builder
        if getattr(module, "cyk_chart", None) is chart:
            monkeypatch.setattr(module, "cyk_chart", lambda g, w: charted.append(w) or chart(g, w))
    u, v, w, x, y = find_decomposition(cnf, z)
    # z once for its derivation, then the replays at exponents 0, 2 and 3
    assert charted == [z] + [u + v * k + w + x * k + y for k in (0, 2, 3)]


def test_refutation_charts_each_word_once(monkeypatch):
    charted = []
    chart = grammars.cyk_chart
    for module in (grammars, refuter):  # every binding of the chart builder
        if getattr(module, "cyk_chart", None) is chart:
            monkeypatch.setattr(module, "cyk_chart", lambda g, w: charted.append(w) or chart(g, w))
    outcome = refute_subset(ABC_FREE_TAIL, is_l2_dprime, 132)
    assert isinstance(outcome, PumpWitness)
    # z, then its variants at exponents 0, 2, 3 (replayed by the
    # decomposition) and 4 (checked by the refutation): one chart each
    assert len(charted) == 5
    assert set(charted) == {outcome.z} | {w for _, w in outcome.pumped}


def test_decomposition_is_deterministic():
    cnf = to_cnf(AB_BALANCED)
    p = pumping_constant(cnf)
    z = Word((1,) * (p // 2) + (2,) * (p // 2))
    assert find_decomposition(cnf, z) == find_decomposition(cnf, z)


def test_refute_free_tail_against_locked_tail():
    outcome = refute_subset(ABC_FREE_TAIL, is_l2_dprime, 132)
    assert isinstance(outcome, PumpWitness)
    cnf = to_cnf(ABC_FREE_TAIL)
    for _, pumped in outcome.pumped:
        assert cyk_member(cnf, pumped)
    exponent, bad = outcome.violating
    assert cyk_member(cnf, bad)
    assert not is_l2_dprime(bad)
    assert is_l2_dprime(outcome.z)
    assert exponent in (0, 2, 3, 4)


def test_refute_parity_claim_on_unary_language():
    outcome = refute_subset(A_PLUS, lambda w: len(w) % 2 == 0, 8)
    assert isinstance(outcome, PumpWitness)
    assert len(outcome.violating[1]) % 2 == 1


def test_refute_is_inconclusive_on_short_languages():
    g = parse_grammar("S -> 'a'")
    outcome = refute_subset(g, lambda w: True, 8)
    assert outcome == Inconclusive(examined=0)


def test_refute_requires_search_room():
    with pytest.raises(ValueError):
        refute_subset(AB_BALANCED, lambda w: True, 2)


def test_refute_unary_shadow_of_the_three_block_shape():
    # unary sub-alphabet shadow: {1^k 3^k 5^r} against the 1:1:2 block ratio
    g = parse_grammar(
        """
        S -> W Y
        W -> '1' W '3' | '1' '3'
        Y -> '5' Y | '5'
        """
    )
    outcome = refute_subset(g, is_l2_prime, 132)
    assert isinstance(outcome, PumpWitness)
    assert is_l2_prime(outcome.z)
    assert not is_l2_prime(outcome.violating[1])


@pytest.mark.parametrize("grammar,high", [(A_PLUS, 6), (AB_BALANCED, 16)])
def test_every_long_member_decomposes(grammar, high):
    from langlab.grammars import enumerate_language

    cnf = to_cnf(grammar)
    p = pumping_constant(cnf)
    qualifying = [z for z in enumerate_language(grammar, high) if len(z) >= p]
    assert qualifying
    for z in qualifying:
        u, v, w, x, y = find_decomposition(cnf, z)
        assert len(v) + len(x) >= 1
        assert len(v) + len(w) + len(x) <= p
        for times in (0, 1, 2, 3):
            assert cyk_member(cnf, u + v * times + w + x * times + y)


def test_witness_validation():
    with pytest.raises(ValueError):
        PumpWitness(
            z=Word.of(1, 2),
            u=Word.of(1),
            v=Word(),
            w=Word.of(2),
            x=Word(),
            y=Word(),
            pumped=((0, Word.of(1, 2)),),
            violating=(0, Word.of(1, 2)),
        )
