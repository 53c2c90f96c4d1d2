"""Pumping decompositions and inclusion refutation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langlab import corpus, grammars, refuter
from langlab.corpus import is_l2_dprime, is_l2_prime
from langlab.grammars import (
    cyk_member,
    enumerate_language,
    parse_grammar,
    pumping_constant,
    to_cnf,
)
from langlab.guards import InvariantError
from langlab.refuter import (
    PUMP_EXPONENTS,
    Inconclusive,
    PumpWitness,
    find_decomposition,
    refute_subset,
)
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
L2_DPRIME = corpus.LANGUAGES["L2_dprime"]


def refute_locked_tail():
    """The pinned run: the free c-tail grammar against L2_dprime's locked tail."""
    return refute_subset(
        ABC_FREE_TAIL, is_l2_dprime, 132, generator=L2_DPRIME.generator, size=L2_DPRIME.size
    )


def test_decomposition_on_balanced_pairs():
    cnf = to_cnf(AB_BALANCED)
    p = pumping_constant(cnf)
    z = Word((1,) * (p // 2) + (2,) * (p // 2))  # a^(p/2) b^(p/2), length p
    (u, v, w, x, y), _ = find_decomposition(cnf, z)
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
    (u, v, w, x, y), _ = find_decomposition(cnf, Word((1,) * p))
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
    (u, v, w, x, y), _ = find_decomposition(cnf, z)
    # z once for its derivation, then the replay at every pumping exponent
    assert charted == [z] + [u + v * k + w + x * k + y for k in PUMP_EXPONENTS]


def test_refutation_charts_each_word_once(monkeypatch):
    charted = []
    chart = grammars.cyk_chart
    for module in (grammars, refuter):  # every binding of the chart builder
        if getattr(module, "cyk_chart", None) is chart:
            monkeypatch.setattr(module, "cyk_chart", lambda g, w: charted.append(w) or chart(g, w))
    outcome = refute_locked_tail()
    assert isinstance(outcome, PumpWitness)
    # z, then its variants at exponents 0, 2, 3 and 4, all replayed by the
    # decomposition: one chart each
    assert len(charted) == 5
    assert set(charted) == {outcome.z} | {w for _, w in outcome.pumped}


def test_the_pinned_run_builds_each_variant_once(monkeypatch):
    pumped, examined = [], []
    pump, decompose = refuter._pump, refuter.find_decomposition
    monkeypatch.setattr(refuter, "_pump", lambda parts, times: pumped.append(times) or pump(parts, times))
    monkeypatch.setattr(
        refuter, "find_decomposition", lambda g, z, **kw: examined.append(z) or decompose(g, z, **kw)
    )
    assert isinstance(refute_locked_tail(), PumpWitness)
    # the decomposition builds one variant per exponent, and the refutation
    # takes those over as they are
    assert examined and pumped == list(PUMP_EXPONENTS) * len(examined)


def test_decomposition_is_deterministic():
    cnf = to_cnf(AB_BALANCED)
    p = pumping_constant(cnf)
    z = Word((1,) * (p // 2) + (2,) * (p // 2))
    assert find_decomposition(cnf, z) == find_decomposition(cnf, z)


def test_refute_free_tail_against_locked_tail():
    outcome = refute_locked_tail()
    assert isinstance(outcome, PumpWitness)
    cnf = to_cnf(ABC_FREE_TAIL)
    for _, pumped in outcome.pumped:
        assert cyk_member(cnf, pumped)
    exponent, bad = outcome.violating
    assert cyk_member(cnf, bad)
    assert not is_l2_dprime(bad)
    assert is_l2_dprime(outcome.z)
    # the witness pumps its own decomposition into the listed variants
    assert [k for k, _ in outcome.pumped] == [0, 2, 3, 4]
    for k, pumped in outcome.pumped:
        assert outcome.pump(k) == pumped
    assert outcome.pump(1) == outcome.z
    assert exponent in (0, 2, 3, 4)


def all_words(alphabet):
    """The generator of every word over ``alphabet``, with its size."""
    letters = sorted(alphabet)
    return (
        lambda n: tuple(Word(t) for t in itertools.product(letters, repeat=n)),
        lambda n: len(letters) ** n,
    )


def unary(letter, keep):
    """The generator of ``letter^n`` for the lengths ``keep`` admits."""
    return lambda n: (Word((letter,) * n),) if keep(n) else ()


def test_refute_parity_claim_on_unary_language():
    even = lambda n: n % 2 == 0  # noqa: E731
    outcome = refute_subset(
        A_PLUS, lambda w: len(w) % 2 == 0, 8, generator=unary(1, even), size=lambda n: int(even(n))
    )
    assert isinstance(outcome, PumpWitness)
    assert len(outcome.violating[1]) % 2 == 1


def test_refute_is_inconclusive_on_short_languages():
    g = parse_grammar("S -> 'a'")
    generator, size = all_words(g.terminals)
    outcome = refute_subset(g, lambda w: True, 8, generator=generator, size=size)
    assert outcome == Inconclusive(examined=0)


def test_refute_requires_search_room():
    generator, size = all_words(AB_BALANCED.terminals)
    with pytest.raises(ValueError):
        refute_subset(AB_BALANCED, lambda w: True, 2, generator=generator, size=size)


def test_a_generator_member_the_predicate_rejects_is_an_invariant_failure():
    # a^2 is the first candidate, and it is no member of "length divisible by 3"
    with pytest.raises(InvariantError):
        refute_subset(
            A_PLUS, lambda w: len(w) % 3 == 0, 8, generator=unary(1, lambda n: True), size=lambda n: 1
        )


def test_refute_unary_shadow_of_the_three_block_shape():
    # unary sub-alphabet shadow: {1^k 3^k 5^r} against the 1:1:2 block ratio
    g = parse_grammar(
        """
        S -> W Y
        W -> '1' W '3' | '1' '3'
        Y -> '5' Y | '5'
        """
    )

    def shadow(n):
        # the only L2_prime member over the letters 1, 3 and 5: 1^t 3^t 5^(2t)
        t = n // 4
        return (Word((1,) * t + (3,) * t + (5,) * 2 * t),) if n % 4 == 0 else ()

    outcome = refute_subset(
        g, is_l2_prime, 132, generator=shadow, size=lambda n: 1 if n >= 4 and n % 4 == 0 else 0
    )
    assert isinstance(outcome, PumpWitness)
    assert is_l2_prime(outcome.z)
    assert not is_l2_prime(outcome.violating[1])


@pytest.mark.parametrize("grammar,high", [(A_PLUS, 6), (AB_BALANCED, 16)])
def test_every_long_member_decomposes(grammar, high):
    cnf = to_cnf(grammar)
    p = pumping_constant(cnf)
    qualifying = [z for z in enumerate_language(grammar, high) if len(z) >= p]
    assert qualifying
    for z in qualifying:
        (u, v, w, x, y), _ = find_decomposition(cnf, z)
        assert len(v) + len(x) >= 1
        assert len(v) + len(w) + len(x) <= p
        for times in (0, 1, 2, 3):
            assert cyk_member(cnf, u + v * times + w + x * times + y)


def test_witness_validation():
    # a malformed certificate is an internal fault, not bad input
    fields = dict(pumped=((0, Word.of(1, 2)),), violating=(0, Word.of(1, 2)))
    with pytest.raises(InvariantError, match="the pumped segments may not both be empty"):
        PumpWitness(z=Word.of(1, 2), u=Word.of(1), v=Word(), w=Word.of(2), x=Word(), y=Word(), **fields)
    with pytest.raises(InvariantError, match="does not reassemble the pumped word"):
        PumpWitness(z=Word.of(1, 2), u=Word.of(1), v=Word.of(2), w=Word.of(2), x=Word(), y=Word(), **fields)


def test_refutation_never_enumerates_the_grammar(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("refute_subset enumerated L(g)")

    for module in (grammars, refuter, corpus):  # every binding of the enumerator
        if getattr(module, "enumerate_language", None) is enumerate_language:
            monkeypatch.setattr(module, "enumerate_language", refuse)
    assert isinstance(refute_locked_tail(), PumpWitness)


def test_the_pinned_run_charges_one_chart_per_candidate(monkeypatch):
    charged = []
    monkeypatch.setattr(refuter, "check_budget", lambda estimate, *rest: charged.append(estimate))
    refute_locked_tail()
    # p = 128: one L2_dprime member at 128 and one at 132, each charted once
    assert charged == [8_256 + 8_778] == [17_034]


def enumeration_reference(g, predicate, search_len):
    """The refutation over all of L(g) up to ``search_len``, filtered by the
    predicate: an independent route to the same candidates."""
    cnf = to_cnf(g)
    p = pumping_constant(cnf)
    examined = 0
    for z in enumerate_language(g, search_len):
        if len(z) < p or not predicate(z):
            continue
        examined += 1
        (u, v, w, x, y), _ = find_decomposition(cnf, z)
        pumped = tuple((k, u + v * k + w + x * k + y) for k in PUMP_EXPONENTS)
        violating = next(((k, c) for k, c in pumped if not predicate(c)), None)
        if violating is not None:
            return PumpWitness(z=z, u=u, v=v, w=w, x=x, y=y, pumped=pumped, violating=violating)
    return Inconclusive(examined=examined)


def shorter_zeros(n):
    """0^i 1^j with i > j >= 1, in canonical order."""
    return tuple(Word((0,) * (n - j) + (1,) * j) for j in range(1, (n + 1) // 2))


def one_one(n):
    """Every word of 0s with a single 1, in canonical order."""
    return tuple(Word((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in reversed(range(n)))


# (name, predicate, generator, size): corpus languages and test-side ones
LANGUAGES = [
    (name, lang.predicate, lang.generator, lang.size)
    for name, lang in corpus.LANGUAGES.items()
    if name in ("L_eq", "Pal_sharp", "L2_dprime")
] + [
    (
        "even 0^n",
        lambda w: set(w.letters) <= {0} and len(w) % 2 == 0,
        unary(0, lambda n: n % 2 == 0),
        lambda n: 1 - n % 2,
    ),
    ("0^i 1^j, i > j", lambda w: w in shorter_zeros(len(w)), shorter_zeros, lambda n: (n - 1) // 2),
    ("one 1 among 0s", lambda w: w in one_one(len(w)), one_one, lambda n: n),
]

# (grammar, the largest search_len above p that keeps L(g) small)
GRAMMARS = [
    (parse_grammar("S -> S S | '0'"), 8),
    (parse_grammar("S -> S S | '0' | '1'"), 7),
    (parse_grammar("S -> S S | '0' | '1' | '#'"), 5),
    (parse_grammar("S -> S S | 'a' | 'b' | 'c'"), 5),
    (parse_grammar("S -> '0' S | '0' T\nT -> '1' T | '1'"), 8),
    (parse_grammar("S -> '0' S '1' | '0' S | '0' '1'"), 8),
    (corpus.grammar_leq(), 8),
    (AB_BALANCED, 8),
]


@pytest.mark.parametrize("language", LANGUAGES, ids=[lang[0] for lang in LANGUAGES])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(grammar=st.sampled_from(GRAMMARS), data=st.data())
def test_generator_route_matches_the_enumeration_reference(language, grammar, data):
    g, room = grammar
    _, predicate, generator, size = language
    search_len = pumping_constant(to_cnf(g)) + data.draw(st.integers(0, room), label="extra")
    got = refute_subset(g, predicate, search_len, generator=generator, size=size)
    assert got == enumeration_reference(g, predicate, search_len)
