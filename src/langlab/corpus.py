"""The concrete language family: map-free predicates, the position maps
that spell each language's members in run form, with the sizes and
generators read off them, and grammars where the language is context-free.

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

import heapq
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

from .grammars import Cfg, cyk_filter, cyk_member, enumerate_language, to_cnf
from .guards import CostGuardError, InvariantError
from .words import SYMBOL_TABLE, MapRuns, Word

HASH = SYMBOL_TABLE["#"]
A, B, C = SYMBOL_TABLE["a"], SYMBOL_TABLE["b"], SYMBOL_TABLE["c"]

L2_ALPHABET = frozenset({1, 2, 3, 6, 5, 10, 15, 30})


@dataclass(frozen=True)
class CorpusLanguage:
    """A language given by a predicate, position maps, and an optional
    grammar (present exactly for the context-free members).

    ``runs(n)``, where given, lists disjoint position maps in run form,
    :class:`~langlab.words.MapRuns`, that spell the members of length n.
    ``size(n)`` is read off them before a read is built, and
    ``generator(n)``, a field that a wrapper may replace, merges their
    members into canonical order.  The predicate stays map-free, an
    independent check of the maps.
    """

    name: str
    alphabet: frozenset[int]
    predicate: Callable[[Word], bool]
    generator: Optional[Callable[[int], tuple[Word, ...]]] = None
    grammar: Optional[Cfg] = None
    runs: Optional[Callable[[int], Iterable[MapRuns]]] = None

    def __post_init__(self) -> None:
        if self.runs is None:
            if self.generator is not None:
                raise ValueError(f"language {self.name!r} has a generator but no maps to size it")
        elif self.generator is None:
            object.__setattr__(self, "generator", partial(_merged_members, self.runs))

    def size(self, n: int, limit: Optional[int] = None) -> int:
        """The number of members of length ``n``; given a limit, the count
        stops once past it, the largest map coming first."""
        total = 0
        for runs in self.runs(n):
            total += runs.size
            if limit is not None and total > limit:
                break
        return total


def _merged_members(runs: Callable[[int], Iterable[MapRuns]], n: int) -> tuple[Word, ...]:
    # the maps are disjoint and each lists its members in canonical order
    return tuple(heapq.merge(*(r.map().members() for r in runs(n)), key=attrgetter("letters")))


def _constant(*runs: tuple[int, int]) -> tuple[MapRuns, ...]:
    # the one member spelling each (letter, count) run: a one-letter index read count times
    indices = tuple(((letter,), 1) for letter, _ in runs)
    return (MapRuns(indices, tuple((x, count, 0, 1) for x, (_, count) in enumerate(runs))),)


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


def l2_1_runs(n: int) -> Iterator[MapRuns]:
    """One map per head length h with 2h < n: a head w over {1, 2}, then
    (w^R)*3, then a free tail over 5*{1, 2, 3, 6} on its own indices.  The
    maps are disjoint, since h is the member's longest prefix over {1, 2};
    they come lazily and largest first, 2^(2n - 3h) members at h."""
    for h in range(1, (n - 1) // 2 + 1):
        tail = n - 2 * h
        yield MapRuns((((1, 2), h), ((1, 2, 3, 6), tail)), ((0, h, 1, 1), (h - 1, h, -1, 3), (h, tail, 1, 5)))


def is_l2_2(w: Word) -> bool:
    x = w.letters
    n = len(x)
    if n < 2 or n % 2:
        return False
    # the head letter at p pairs with five times itself at n - 1 - p
    return all(a in (1, 2, 3, 6) and b == 5 * a for a, b in zip(x[: n // 2], reversed(x)))


def l2_2_runs(n: int) -> tuple[MapRuns, ...]:
    """L2_2 at n = 2t, one map: y, (y^R)*5 over {1, 2, 3, 6}, in runs
    that read the t indices of y forwards, then backwards."""
    if n < 2 or n % 2:
        return ()
    t = n // 2
    return (MapRuns((((1, 2, 3, 6), t),), ((0, t, 1, 1), (t - 1, t, -1, 5))),)


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


def l2_prime_runs(n: int) -> tuple[MapRuns, ...]:
    """A head over {1, 2}, a middle over 3*{1, 2} and a tail of twice the
    length over 5*{1, 2, 3, 6}, every position on its own index."""
    if n < 4 or n % 4:
        return ()
    t = n // 4
    positions = ((0, t, 1, 1), (t, t, 1, 3), (2 * t, 2 * t, 1, 5))
    return (MapRuns((((1, 2), 2 * t), ((1, 2, 3, 6), 2 * t)), positions),)


def is_l2_dprime(w: Word) -> bool:
    n = len(w)
    if n < 4 or n % 4:
        return False
    m = n // 4
    return w.letters == (A,) * m + (B,) * m + (C,) * 2 * m


def l2_dprime_runs(n: int) -> tuple[MapRuns, ...]:
    """The single a^m b^m c^(2m) member at each positive multiple of 4."""
    m = n // 4
    return _constant((A, m), (B, m), (C, 2 * m)) if n >= 4 and n % 4 == 0 else ()


# -- the motivating small languages -----------------------------------------

def is_leq(w: Word) -> bool:
    n = len(w)
    if n < 2 or n % 2:
        return False
    m = n // 2
    return w.letters == (0,) * m + (1,) * m


def leq_runs(n: int) -> tuple[MapRuns, ...]:
    m = n // 2
    return _constant((0, m), (1, m)) if n >= 2 and n % 2 == 0 else ()


def is_l3eq(w: Word) -> bool:
    n = len(w)
    if n < 3 or n % 3:
        return False
    m = n // 3
    return w.letters == (0,) * m + (1,) * m + (2,) * m


def l3eq_runs(n: int) -> tuple[MapRuns, ...]:
    m = n // 3
    return _constant((0, m), (1, m), (2, m)) if n >= 3 and n % 3 == 0 else ()


def is_pal_sharp(w: Word) -> bool:
    n = len(w)
    if n % 2 == 0 or w[n // 2] != HASH:
        return False
    u = w.letters[: n // 2]
    if any(a not in (0, 1) for a in u):
        return False
    return w.letters == u + (HASH,) + u[::-1]


def pal_sharp_runs(n: int) -> tuple[MapRuns, ...]:
    """u over {0, 1}, the one-letter index #, then u reversed."""
    if n < 1 or n % 2 == 0:
        return ()
    m = n // 2
    return (MapRuns((((0, 1), m), ((HASH,), 1)), ((0, m, 1, 1), (m, 1, 0, 1), (m - 1, m, -1, 1))),)


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
        CorpusLanguage("L_eq", frozenset({0, 1}), is_leq, grammar=grammar_leq(), runs=leq_runs),
        CorpusLanguage("L_3eq", frozenset({0, 1, 2}), is_l3eq, runs=l3eq_runs),
        CorpusLanguage(
            "Pal_sharp",
            frozenset({0, 1, HASH}),
            is_pal_sharp,
            grammar=grammar_pal_sharp(),
            runs=pal_sharp_runs,
        ),
        CorpusLanguage("L2", L2_ALPHABET, is_l2, runs=MapRuns.l2),
        CorpusLanguage("L2_1", L2_ALPHABET, is_l2_1, grammar=grammar_l2_1(), runs=l2_1_runs),
        CorpusLanguage("L2_2", L2_ALPHABET, is_l2_2, grammar=grammar_l2_2(), runs=l2_2_runs),
        CorpusLanguage("L2_prime", L2_ALPHABET, is_l2_prime, runs=l2_prime_runs),
        CorpusLanguage("L2_dprime", frozenset({A, B, C}), is_l2_dprime, runs=l2_dprime_runs),
    )
}

#: The L2 and L2_2 generators under their own names.
l2_members = LANGUAGES["L2"].generator
l2_2_members = LANGUAGES["L2_2"].generator


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
