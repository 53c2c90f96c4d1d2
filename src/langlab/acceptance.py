"""The acceptance battery: one callable per criterion, each returning a
result with its pass/fail verdict and a one-line detail string.

Randomized criteria draw from a seeded generator; the published default
seed is :data:`DEFAULT_SEED`.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from . import corpus
from .advice import leq_parallel, prefix_pair_decode, prefix_pair_encode, serial_to_parallel_reg, table_advice
from .grammars import Dfa, cyk_member, dfa_run, parse_grammar, to_cnf
from .refuter import PumpWitness, refute_subset
from .swaplab import Slice, SwapParams, bound_report, build_slice, slice_stats, swap_scan
from .words import Word, fuse_tracks, scale

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed_s: float
    budget_s: Optional[float] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} ({self.name}): {self.details} [{self.elapsed_s:.2f}s]"

    def to_json(self) -> dict:
        return {**asdict(self), "elapsed_s": round(self.elapsed_s, 3)}


_REGISTERED: list[Callable[[int], CriterionResult]] = []


def _criterion(name: str, budget_s: Optional[float] = None):
    """Register a check ``(seed) -> (passed, details)`` as the next
    criterion: its number is its place in registration order, and the
    criterion times the check and builds its result."""

    def register(check: Callable[[int], tuple[bool, str]]) -> Callable[[int], CriterionResult]:
        number = len(_REGISTERED) + 1

        # the name and doc of the check, but the criterion's own annotations
        @functools.wraps(check, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def criterion(seed: int = DEFAULT_SEED) -> CriterionResult:
            started = time.perf_counter()
            passed, details = check(seed)
            return CriterionResult(number, name, passed, details, time.perf_counter() - started, budget_s)

        _REGISTERED.append(criterion)
        return criterion

    return register


@_criterion("scaling example")
def scaling_example(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Positionwise scaling of 1,2,1,1 by 3 gives exactly 3,6,3,3."""
    got = scale(Word.of(1, 2, 1, 1), 3)
    ok = got == Word.of(3, 6, 3, 3)
    return ok, f"scale(1211, 3) = {got.text()}"


@_criterion("two-grammar intersection identity", budget_s=10.0)
def intersection_identity(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """``corpus.intersection_check(8)``: the intersection of the two
    covering grammars matches the nesting generator at every length up to
    8, with the expected cardinality at each length."""
    report = corpus.intersection_check(8)
    expected_cards = [0, 0, 0, 2, 0, 0, 0, 4]
    cards = [lv.count for lv in report.levels]
    ok = report.ok and cards == expected_cards
    return ok, f"cardinalities n=1..8: {cards}"


@_criterion("slice cardinality", budget_s=5.0)
def slice_cardinality(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """The nesting slice at n has exactly 2^(n/4) members."""
    sizes, ok = {}, True
    for n in (4, 8, 16, 24, 32):
        got = len(build_slice(corpus.LANGUAGES["L2"], n))
        sizes[n] = got
        ok = ok and got == 2 ** (n // 4)
    return ok, f"sizes: {sizes}"


@_criterion("midsection binding bound", budget_s=60.0)
def binding_bound(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """No midsection count on a nesting slice exceeds 2^(n/4 - ceil(j/2)),
    exhaustively over n in {8, 16, 24} and every offset and j <= n/4."""
    checked = 0
    ok = True
    worst = ""
    for n in (8, 16, 24):
        s = build_slice(corpus.LANGUAGES["L2"], n)
        for j in range(1, n // 4 + 1):
            stats = slice_stats(s, j)
            checked += len(stats)
            report = bound_report(stats)
            if not report.ok:
                ok = False
                worst = f"; violation at n={n}, j={j}: {report.violation}"
    return ok, f"{checked} counts checked{worst}"


@_criterion("no-swap on nesting slices", budget_s=300.0)
def no_swap(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """The exhaustive swap scan over nesting slices finds no witness for
    any pair, offset, and midsection length up to n/4."""
    counts = {}
    ok = True
    for n in (8, 16, 24):
        s = build_slice(corpus.LANGUAGES["L2"], n)
        witnesses = swap_scan(corpus.is_l2, s, (1, n // 4))
        counts[n] = len(witnesses)
        ok = ok and not witnesses
    return ok, f"witness counts: {counts}"


def _is_even_palindrome(w: Word) -> bool:
    n = len(w)
    return n >= 2 and n % 2 == 0 and all(a in (0, 1) for a in w.letters) and w.letters == w.letters[::-1]


@_criterion("positive swap control")
def positive_swap_control(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """On the even-binary-palindrome slice at n=4 the scan does find the
    0110/1001 swap whose splices are 0000 and 1111."""
    members = [Word(t) for t in itertools.product((0, 1), repeat=4) if _is_even_palindrome(Word(t))]
    s = Slice(4, tuple(members), "even binary palindromes[n=4]")
    witnesses = swap_scan(_is_even_palindrome, s, (1, 4))
    hits = [
        w
        for w in witnesses
        if w.x == Word.of(0, 1, 1, 0)
        and w.y == Word.of(1, 0, 0, 1)
        and (w.i, w.j) == (1, 2)
        and w.swapped_x == Word.of(0, 0, 0, 0)
        and w.swapped_y == Word.of(1, 1, 1, 1)
    ]
    return len(hits) == 1, f"{len(witnesses)} witnesses in total, target swap found {len(hits)} time(s)"


@_criterion("parameter chain")
def parameter_chain(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """SwapParams(1) derives (288, 72, 36); every link is re-evaluated
    with independent big-integer arithmetic, no tolerance anywhere."""
    p = SwapParams(1)
    checks = {
        "triple": (p.n, p.k, p.j0) == (288, 72, 36),
        "growth holds at 288": 2 ** 72 > (2 * 288 ** 2) ** 4,
        "growth fails at 272": 2 ** 68 <= (2 * 272 ** 2) ** 4,
        "k equals 2 j0": p.k == 2 * p.j0,
        "power bound": 2 ** (p.j0 // 2) == 262144
        and 2 * 1 * 288 ** 2 == 165888
        and 262144 >= 165888,
    }
    ok = all(checks.values())
    failing = [k for k, v in checks.items() if not v]
    return ok, f"n={p.n}, k={p.k}, j0={p.j0}" + (f"; failing: {failing}" if failing else "")


_PARTITION_POOL = {
    "L2": (4, 8, 12, 16, 20),
    "L2_1": (3, 4, 5, 6, 7, 8),
    "L2_2": (2, 4, 6, 8),
    "L2_prime": (4, 8),
    "L2_dprime": (4, 8, 12, 16),
    "L_eq": (2, 4, 6, 8, 10, 12),
    "L_3eq": (3, 6, 9, 12),
    "Pal_sharp": (1, 3, 5, 7, 9, 11),
}


@_criterion("partition identity", budget_s=30.0)
def partition_identity(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Across 200 seeded random sub-slices of assorted corpus languages,
    the counts at every offset sum to the slice size for every j."""
    rng = random.Random(seed)
    failures = 0
    slices = 0
    # the pool holds 37 (name, n) pairs: each slice is built once per run, and
    # its packed members are sorted, so the drawn indices name canonical words
    pools: dict[tuple[str, int], Slice] = {}
    while slices < 200:
        name = rng.choice(sorted(_PARTITION_POOL))
        n = rng.choice(_PARTITION_POOL[name])
        full = pools.get((name, n))
        if full is None:
            full = pools[name, n] = build_slice(corpus.LANGUAGES[name], n)
        if not full:
            continue
        take = rng.randint(1, min(len(full), 64))
        sub = Slice(n, tuple(map(full.word, rng.sample(full.packed, take))), f"{name}[n={n}] sample")
        slices += 1
        for j in range(1, n + 1):
            stats = slice_stats(sub, j)
            if not stats.partition_ok():
                failures += 1
    return failures == 0, f"200 slices, all (i, j) checked, {failures} failures"


def _random_dfa(rng: random.Random) -> Dfa:
    k = rng.randint(2, 4)
    states = [f"q{i}" for i in range(k)]
    alphabet = (0, 1)
    transitions = {(q, a): rng.choice(states) for q in states for a in alphabet}
    accepting = frozenset(q for q in states if rng.random() < 0.5)
    return Dfa(frozenset(states), frozenset(alphabet), transitions, "q0", accepting)


def _leaves(transitions, state, under) -> list:
    """The state reached from ``state`` on every binary input fused over
    the advice letters ``under``, in ``itertools.product`` order; a fused
    letter without a transition leads to None, which rejects."""
    states = [state]
    for b in under:
        letters = fuse_tracks((0, 1), (b, b))
        states = [transitions.get((q, a)) for q in states for a in letters]
    return states


@_criterion("advice equivalences", budget_s=60.0)
def advice_equivalences(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """(a) the parallel equal-halves setup decides exactly 0^m 1^m on all
    binary words up to length 10; (b) the serial-to-parallel conversion
    preserves every decision on inputs of lengths 1..8 for 20 seeded
    random automata and advice tables.  Each length's inputs are decided
    in one walk of their input tree."""
    mismatches_a = 0
    leq = leq_parallel()
    for n in range(0, 11):
        leaves = _leaves(leq.inner.transitions, leq.inner.start, leq.advice(n).letters)
        words = map(Word._trusted, itertools.product((0, 1), repeat=n))
        mismatches_a += sum((q in leq.inner.accepting) != corpus.is_leq(x) for q, x in zip(leaves, words))
    rng = random.Random(seed)
    mismatches_b = 0
    for _ in range(20):
        m = _random_dfa(rng)
        table = {n: [rng.choice((0, 1)) for _ in range(n)] for n in range(0, 9)}
        g = table_advice(table, "random-table")
        h, m2 = serial_to_parallel_reg(m, g)
        for ln in range(1, 9):
            # identity over (0, 1) fuses each input letter over advice letter 0
            serial = _leaves(m.transitions, dfa_run(m, m.start, g(ln)), (0,) * ln)
            parallel = _leaves(m2.transitions, m2.start, h(ln).letters)
            mismatches_b += sum((p in m2.accepting) != (q in m.accepting) for p, q in zip(parallel, serial))
    ok = mismatches_a == 0 and mismatches_b == 0
    return ok, f"parallel mismatches: {mismatches_a}, conversion mismatches: {mismatches_b}"


@_criterion("prefix-free pair coding")
def prefix_free_coding(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """All pair codewords for binary words up to length 5 are mutually
    prefix-incomparable and decode back exactly."""
    words = [Word(t) for k in range(6) for t in itertools.product((0, 1), repeat=k)]
    codes = {}
    bad_roundtrip = 0
    for u in words:
        for v in words:
            code = prefix_pair_encode(u, v)
            codes[code.letters] = (u, v)
            if prefix_pair_decode(code) != (u, v):
                bad_roundtrip += 1
    # a codeword's extensions follow it directly in sorted order
    codeset = sorted(codes)
    prefix_hits = 0
    for k, code in enumerate(codeset):
        end = k + 1
        while end < len(codeset) and codeset[end][: len(code)] == code:
            end += 1
        prefix_hits += end - k - 1
    ok = bad_roundtrip == 0 and prefix_hits == 0
    return ok, f"{len(codeset)} codewords, {prefix_hits} prefix collisions, {bad_roundtrip} bad roundtrips"


@_criterion("pumping refutation", budget_s=30.0)
def pumping_refutation(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Pumping refutes "the a^m b^m c^t grammar lies inside a^m b^m c^(2m)";
    the witness is replayed through CYK and the predicate."""
    g = parse_grammar(
        """
        S -> A C
        A -> 'a' A 'b' | 'a' 'b'
        C -> 'c' C | 'c'
        """
    )
    lang = corpus.LANGUAGES["L2_dprime"]
    outcome = refute_subset(g, lang.predicate, 132, generator=lang.generator, size=lang.size)
    if not isinstance(outcome, PumpWitness):
        return False, f"inconclusive: {outcome}"
    cnf = to_cnf(g)
    replay_ok = all(cyk_member(cnf, w) for _, w in outcome.pumped)
    exp, bad_word = outcome.violating
    replay_ok = replay_ok and cyk_member(cnf, bad_word) and not corpus.is_l2_dprime(bad_word)
    replay = "ok" if replay_ok else "failed"
    return replay_ok, f"z of length {len(outcome.z)}, violating exponent {exp}, replay {replay}"


CRITERIA: tuple[Callable[[int], CriterionResult], ...] = tuple(_REGISTERED)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [criterion(seed) for criterion in CRITERIA]
