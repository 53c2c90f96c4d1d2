"""The concrete language family: predicates, exact-length generators, and
grammars where the language is context-free.

Registry names and their members (letters per :data:`langlab.words.SYMBOL_TABLE`):

==========  ==================================================================
L_eq        0^m 1^m, m >= 1
L_3eq       0^m 1^m 2^m, m >= 1
Pal_sharp   u # reverse(u), u over {0, 1}
L2          w (w^R)*3 (w)*15 (w^R)*5, w over {1, 2}, nonempty
L2_1        w (w^R)*3 x, w over {1, 2} nonempty, x over {5, 10, 15, 30} nonempty
L2_2        y (y^R)*5, y over {1, 2, 3, 6} nonempty
L2_prime    w x y with |w| = |x|, 2|w| = |y|, blocks over {1,2}/{3,6}/{5,10,15,30}
L2_dprime   a^m b^m c^(2m), m >= 1  (letters a=1, b=2, c=3)
==========  ==================================================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .grammars import Cfg, cyk_filter, cyk_member, enumerate_language, to_cnf
from .guards import CostGuardError, InvariantError
from .words import SYMBOL_TABLE, PositionMap, Word

HASH = SYMBOL_TABLE["#"]
A, B, C = SYMBOL_TABLE["a"], SYMBOL_TABLE["b"], SYMBOL_TABLE["c"]

L2_ALPHABET = frozenset({1, 2, 3, 6, 5, 10, 15, 30})


@dataclass(frozen=True)
class CorpusLanguage:
    """A language given by a predicate, an exact-length generator, and an
    optional grammar (present exactly for the context-free members).

    ``size(n)`` is the exact number of members of length ``n``, so the
    cost of generating them is known before it is paid; a language with a
    generator must give it.  ``pmap(n)``, where given, is the
    :class:`~langlab.words.PositionMap` whose choice words spell the
    members of length ``n``, or None where there are none; the generator
    reads its members off the map, and a slice is read off it already
    packed.  The predicate stays map-free, an independent check of both.
    """

    name: str
    alphabet: frozenset[int]
    predicate: Callable[[Word], bool]
    generator: Optional[Callable[[int], tuple[Word, ...]]]
    grammar: Optional[Cfg] = None
    size: Optional[Callable[[int], int]] = None
    pmap: Optional[Callable[[int], Optional[PositionMap]]] = None

    def __post_init__(self) -> None:
        if self.generator is not None and self.size is None:
            raise ValueError(f"language {self.name!r} has a generator but no size")
        if self.pmap is not None and self.generator is None:
            raise ValueError(f"language {self.name!r} has a position map but no generator")


def _products(alphabet, n):
    return itertools.product(sorted(alphabet), repeat=n)


# -- L2 and its relatives ---------------------------------------------------

def is_l2(w: Word) -> bool:
    x = w.letters
    n = len(x)
    if n < 4 or n % 4:
        return False
    t = n // 4
    r = x[::-1]
    # the head letter a at p recurs as 3a at 2t-1-p, 15a at 2t+p and 5a at n-1-p
    return all(
        a in (1, 2) and b == 3 * a and c == 15 * a and d == 5 * a
        for a, b, c, d in zip(x[:t], r[2 * t :], x[2 * t :], r)
    )


def l2_members(n: int) -> tuple[Word, ...]:
    """All length-``n`` members: empty unless n is a positive multiple of 4,
    else one nesting per choice word, 2^(n/4) members in total."""
    pmap = PositionMap.l2(n)
    return () if pmap is None else pmap.members()


def l2_size(n: int) -> int:
    return 2 ** (n // 4) if n >= 4 and n % 4 == 0 else 0


def is_l2_1(w: Word) -> bool:
    x = w.letters
    n = len(x)
    t = 0
    while t < n and x[t] in (1, 2):
        t += 1
    if t < 1 or 2 * t >= n:
        return False
    if x[t : 2 * t] != tuple(3 * a for a in reversed(x[:t])):
        return False
    return all(a in (5, 10, 15, 30) for a in x[2 * t :])


def l2_1_members(n: int) -> tuple[Word, ...]:
    out = []
    for t in range(1, (n - 1) // 2 + 1):
        r = n - 2 * t
        for head in _products({1, 2}, t):
            prefix = head + tuple(3 * a for a in reversed(head))
            out.extend(prefix + tail for tail in _products({5, 10, 15, 30}, r))
    # the head lengths interleave in canonical order, which sorting restores
    return tuple(map(Word._trusted, sorted(out)))


def l2_1_size(n: int) -> int:
    # a head of t letters and a tail of n - 2t letters, for every t
    return sum(2**t * 4 ** (n - 2 * t) for t in range(1, (n - 1) // 2 + 1))


def is_l2_2(w: Word) -> bool:
    x = w.letters
    n = len(x)
    if n < 2 or n % 2:
        return False
    # the head letter at p pairs with five times itself at n - 1 - p
    return all(a in (1, 2, 3, 6) and b == 5 * a for a, b in zip(x[: n // 2], reversed(x)))


def l2_2_members(n: int) -> tuple[Word, ...]:
    pmap = PositionMap.l2_2(n)
    return () if pmap is None else pmap.members()


def l2_2_size(n: int) -> int:
    return 4 ** (n // 2) if n >= 2 and n % 2 == 0 else 0


def is_l2_prime(w: Word) -> bool:
    n = len(w)
    if n < 4 or n % 4:
        return False
    t = n // 4
    x = w.letters
    return (
        all(a in (1, 2) for a in x[:t])
        and all(a in (3, 6) for a in x[t : 2 * t])
        and all(a in (5, 10, 15, 30) for a in x[2 * t :])
    )


def l2_prime_members(n: int) -> tuple[Word, ...]:
    if n < 4 or n % 4:
        return ()
    t = n // 4
    out = []
    for head in _products({1, 2}, t):
        for mid in _products({3, 6}, t):
            for tail in _products({5, 10, 15, 30}, 2 * t):
                out.append(Word._trusted(head + mid + tail))
    return tuple(out)


def l2_prime_size(n: int) -> int:
    # 2^t heads, 2^t middles and 4^(2t) tails
    return 2 ** (6 * (n // 4)) if n >= 4 and n % 4 == 0 else 0


def is_l2_dprime(w: Word) -> bool:
    n = len(w)
    if n < 4 or n % 4:
        return False
    m = n // 4
    return w.letters == (A,) * m + (B,) * m + (C,) * 2 * m


def l2pp_members(n: int) -> tuple[Word, ...]:
    """The single a^m b^m c^(2m) member at each positive multiple of 4."""
    if n < 4 or n % 4:
        return ()
    m = n // 4
    return (Word._trusted((A,) * m + (B,) * m + (C,) * 2 * m),)


# -- the motivating small languages -----------------------------------------

def is_leq(w: Word) -> bool:
    n = len(w)
    if n < 2 or n % 2:
        return False
    m = n // 2
    return w.letters == (0,) * m + (1,) * m


def leq_members(n: int) -> tuple[Word, ...]:
    if n < 2 or n % 2:
        return ()
    m = n // 2
    return (Word._trusted((0,) * m + (1,) * m),)


def is_l3eq(w: Word) -> bool:
    n = len(w)
    if n < 3 or n % 3:
        return False
    m = n // 3
    return w.letters == (0,) * m + (1,) * m + (2,) * m


def l3eq_members(n: int) -> tuple[Word, ...]:
    if n < 3 or n % 3:
        return ()
    m = n // 3
    return (Word._trusted((0,) * m + (1,) * m + (2,) * m),)


def one_per_multiple(step: int) -> Callable[[int], int]:
    """The size of a language with one member at each positive multiple of
    ``step``."""
    return lambda n: 1 if n >= step and n % step == 0 else 0


def is_pal_sharp(w: Word) -> bool:
    n = len(w)
    if n % 2 == 0 or w[n // 2] != HASH:
        return False
    u = w.letters[: n // 2]
    if any(a not in (0, 1) for a in u):
        return False
    return w.letters == u + (HASH,) + u[::-1]


def pal_sharp_members(n: int) -> tuple[Word, ...]:
    if n % 2 == 0 or n < 1:
        return ()
    return tuple(Word._trusted(u + (HASH,) + u[::-1]) for u in _products({0, 1}, n // 2))


def pal_sharp_size(n: int) -> int:
    return 2 ** (n // 2) if n > 0 and n % 2 else 0


# -- grammars for the context-free members ----------------------------------

@lru_cache(maxsize=None)
def grammar_leq() -> Cfg:
    return Cfg.from_rules("S", {"S": [(0, "S", 1), (0, 1)]})


@lru_cache(maxsize=None)
def grammar_pal_sharp() -> Cfg:
    return Cfg.from_rules("S", {"S": [(0, "S", 0), (1, "S", 1), (HASH,)]})


@lru_cache(maxsize=None)
def grammar_l2_1() -> Cfg:
    """Palindromic core over {1,2}/{3,6} followed by a free block: the head
    pairs letter a with 3a around the recursion, the tail is any nonempty
    word over {5, 10, 15, 30}."""
    return Cfg.from_rules(
        "S",
        {
            "S": [("W", "X")],
            "W": [(1, "W", 3), (2, "W", 6), (1, 3), (2, 6)],
            "X": [(5, "X"), (10, "X"), (15, "X"), (30, "X"), (5,), (10,), (15,), (30,)],
        },
    )


@lru_cache(maxsize=None)
def grammar_l2_2() -> Cfg:
    """Palindromic pairing of each letter a in {1, 2, 3, 6} with 5a."""
    return Cfg.from_rules(
        "Y",
        {
            "Y": [(1, "Y", 5), (2, "Y", 10), (3, "Y", 15), (6, "Y", 30), (1, 5), (2, 10), (3, 15), (6, 30)],
        },
    )


LANGUAGES: dict[str, CorpusLanguage] = {
    lang.name: lang
    for lang in (
        CorpusLanguage(
            "L_eq", frozenset({0, 1}), is_leq, leq_members, grammar_leq(), one_per_multiple(2)
        ),
        CorpusLanguage(
            "L_3eq", frozenset({0, 1, 2}), is_l3eq, l3eq_members, size=one_per_multiple(3)
        ),
        CorpusLanguage(
            "Pal_sharp",
            frozenset({0, 1, HASH}),
            is_pal_sharp,
            pal_sharp_members,
            grammar_pal_sharp(),
            pal_sharp_size,
        ),
        CorpusLanguage("L2", L2_ALPHABET, is_l2, l2_members, size=l2_size, pmap=PositionMap.l2),
        CorpusLanguage("L2_1", L2_ALPHABET, is_l2_1, l2_1_members, grammar_l2_1(), l2_1_size),
        CorpusLanguage(
            "L2_2", L2_ALPHABET, is_l2_2, l2_2_members, grammar_l2_2(), l2_2_size, PositionMap.l2_2
        ),
        CorpusLanguage("L2_prime", L2_ALPHABET, is_l2_prime, l2_prime_members, size=l2_prime_size),
        CorpusLanguage(
            "L2_dprime", frozenset({A, B, C}), is_l2_dprime, l2pp_members, size=one_per_multiple(4)
        ),
    )
}


@dataclass(frozen=True)
class IntersectionLevel:
    n: int
    count: int
    expected_count: int
    equal: bool


@dataclass(frozen=True)
class IntersectionReport:
    """Per-length comparison of the two-grammar intersection against the
    nesting generator; ``counterexample`` is the first word on which the
    two sides disagree, if any."""

    max_len: int
    levels: tuple[IntersectionLevel, ...]
    ok: bool
    counterexample: Optional[Word] = None

    def to_json(self) -> dict:
        return {
            "max_len": self.max_len,
            "ok": self.ok,
            "counterexample": None if self.counterexample is None else self.counterexample.to_json(),
            "levels": [
                {"n": lv.n, "count": lv.count, "expected_count": lv.expected_count, "equal": lv.equal}
                for lv in self.levels
            ],
        }


def intersection_check(max_len: int, *, force: bool = False) -> IntersectionReport:
    """Verify, length by length, that the intersection of the two covering
    grammars is exactly the nested-palindrome language.

    Candidates come from enumerating the smaller covering language, L2_2,
    never from scanning all words over the eight-letter alphabet.  One
    :func:`cyk_filter` call keeps those that the first grammar derives: it
    builds one word-parallel chart per length for all of that length's
    candidates, n(n+1)/2 cells of at most |N| word bitsets each, instead
    of one chart per word.  Every member it keeps is then replayed through
    :func:`cyk_member` on the second grammar, which enumeration produced it
    from but CYK has not yet checked, and each length is compared against
    the nesting generator.  Lengths above 12 trip the cost guard unless
    ``force`` is given.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > 12 and not force:
        raise CostGuardError(
            f"intersection check above length 12 is expensive (asked for {max_len}); "
            "rerun with force to override"
        )
    cnf_1 = to_cnf(grammar_l2_1())
    cnf_2 = to_cnf(grammar_l2_2())
    candidates = enumerate_language(grammar_l2_2(), max_len)
    inter = cyk_filter(cnf_1, candidates)
    for w in inter:
        if not cyk_member(cnf_2, w):
            raise InvariantError(f"intersection replay failed on {w!r}")
    levels = []
    ok = True
    counterexample = None
    for n in range(1, max_len + 1):
        got = {w for w in inter if len(w) == n}
        want = set(l2_members(n))
        equal = got == want
        if not equal:
            ok = False
            if counterexample is None:
                counterexample = min(got.symmetric_difference(want))
        levels.append(IntersectionLevel(n, len(got), len(want), equal))
    return IntersectionReport(max_len, tuple(levels), ok, counterexample)
