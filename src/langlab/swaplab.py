"""Slices of a language at one length, midsection occurrence statistics,
the swap scan, and the exact integer parameter chain that feeds it.

A slice is any set of equal-length words (optionally fused with one advice
word).  For a slice S, ``counts[i, u]`` is the number of members whose
length-j factor starting after position i equals u; offsets are 0-based,
and the scan flags offset-0 results so runs that require a positive offset
can drop them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from .guards import InvariantError, check_budget
from .words import TrackedWord, Word


def ceil_log2(v: int) -> int:
    """Smallest e with 2^e >= v, via bit length (exact for any size)."""
    if v < 1:
        raise ValueError("ceil_log2 needs v >= 1")
    return (v - 1).bit_length()


@dataclass(frozen=True)
class Slice:
    """All recorded members of some language at one fixed length.

    ``complete`` asserts that the members are every length-``n`` word the
    membership oracle of a later swap scan accepts.  Only
    :func:`build_slice` sets it; a hand-built slice makes no such claim.
    """

    n: int
    members: tuple[Word, ...]
    origin: str = ""
    complete: bool = False

    def __post_init__(self) -> None:
        # the canonical Word order, read off the letters
        canon = tuple(sorted(set(self.members), key=lambda w: (len(w.letters), w.letters)))
        object.__setattr__(self, "members", canon)
        for w in canon:
            if len(w) != self.n:
                raise ValueError(f"slice member {w!r} does not have length {self.n}")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SliceStats:
    """Occurrence counts of every midsection of one length across a slice."""

    n: int
    j: int
    size: int
    counts: dict[tuple[int, Word], int]

    def count(self, i: int, u: Word) -> int:
        return self.counts.get((i, u), 0)

    def max_entry(self) -> Optional[tuple[int, Word, int]]:
        """The largest count, ties broken towards the smallest (i, u)."""
        if not self.counts:
            return None
        (i, u), c = min(self.counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        return i, u, c

    def partition_ok(self) -> bool:
        """At every offset the counts must add up to the slice size."""
        totals: Counter[int] = Counter()
        for (i, _), c in self.counts.items():
            totals[i] += c
        return all(totals[i] == self.size for i in range(self.n - self.j + 1))


def build_slice(
    language,
    n: int,
    advice=None,
    *,
    force: bool = False,
    scan_limit: int = 10_000_000,
) -> Slice:
    """Collect every length-``n`` member of a language, fused with the
    advice word at ``n`` when advice is given.

    Languages with a generator are queried directly, which trips the cost
    guard once the language's exact ``size(n)`` exceeds ``scan_limit``;
    otherwise all words over the language's alphabet are filtered through
    its predicate, which trips it once the alphabet power does.  Either
    way the slice holds every member at ``n`` and is marked complete.
    """
    if n < 1:
        raise ValueError("slices need n >= 1")
    generator = getattr(language, "generator", None)
    if generator is not None:
        check_budget(language.size(n), scan_limit, "generated slice", force=force)
        members = list(generator(n))
    else:
        alphabet = sorted(language.alphabet)
        check_budget(len(alphabet) ** n, scan_limit, "brute-force slice scan", force=force)
        predicate = language.predicate
        members = [w for w in map(Word, itertools.product(alphabet, repeat=n)) if predicate(w)]
    origin = f"{getattr(language, 'name', 'language')}[n={n}]"
    if advice is not None:
        a = advice(n)
        members = [TrackedWord(x, a).fused() for x in members]
        origin += f"+{getattr(advice, 'name', 'advice')}"
    return Slice(n, tuple(members), origin, complete=True)


def slice_stats(s: Slice, j: int) -> SliceStats:
    """Count, for every offset i and factor u of length j, how many slice
    members carry u at that offset."""
    if not 1 <= j <= s.n:
        raise ValueError(f"midsection length must be in 1..{s.n}, got {j}")
    raws = [w.letters for w in s.members]
    # each distinct factor becomes one Word, shared by all its offsets
    factors: dict[tuple[int, ...], Word] = {}
    counts: dict[tuple[int, Word], int] = {}
    for i in range(s.n - j + 1):
        k = i + j
        for u, c in Counter([x[i:k] for x in raws]).items():
            word = factors.get(u)
            if word is None:
                word = factors[u] = Word._trusted(u)
            counts[i, word] = c
    return SliceStats(s.n, j, len(s.members), counts)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the nesting bound check, with the worst entry listed."""

    n: int
    j: int
    size: int
    bound: int
    max_count: int
    max_at: Optional[tuple[int, Word]]
    ok: bool
    violation: Optional[tuple[int, Word, int]] = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "j": self.j,
            "size": self.size,
            "bound": self.bound,
            "max_count": self.max_count,
            "max": None
            if self.max_at is None
            else {"i": self.max_at[0], "u": self.max_at[1].to_json(), "count": self.max_count},
            "ok": self.ok,
            "violation": None
            if self.violation is None
            else {
                "i": self.violation[0],
                "u": self.violation[1].to_json(),
                "count": self.violation[2],
            },
        }


def bound_report(stats: SliceStats) -> BoundReport:
    """Hold the counts of a nesting slice to the pinning bound
    2^(n/4 - ceil(j/2)), reporting the largest entry and the first
    violation in (i, u) order."""
    n, j = stats.n, stats.j
    bound = 2 ** (n // 4 - (j + 1) // 2)
    entry = stats.max_entry()
    # the first violation in (i, u) order, whatever the dict order
    violation = min(
        ((i, u, c) for (i, u), c in stats.counts.items() if c > bound),
        key=lambda v: (v[0], v[1]),
        default=None,
    )
    return BoundReport(
        n=n,
        j=j,
        size=stats.size,
        bound=bound,
        max_count=0 if entry is None else entry[2],
        max_at=None if entry is None else entry[:2],
        ok=violation is None,
        violation=violation,
    )


class PositionMap(NamedTuple):
    """A slice read off one choice word through a fixed position map.

    The member for a choice word ``w`` (of length ``t`` over ``letters``)
    is the concatenation of the blocks, each of length ``t``: block ``b``
    with ``(scale, mirrored)`` reads ``scale * w[q]`` at offset ``o``,
    where q is ``o``, or ``t - 1 - o`` in a mirrored block.  So every
    position p reads one choice index ``index[p]``, and distinct choice
    letters give distinct letters there.

    The nesting slice of L2 at n = 4t is :meth:`l2`; the palindromes of
    L2_2 at n = 2t are the map with letters (1, 2, 3, 6) and the blocks
    (1, unmirrored), (5, mirrored).
    """

    t: int
    letters: tuple[int, ...]
    blocks: tuple[tuple[int, bool], ...]

    @classmethod
    def l2(cls, n: int) -> "PositionMap":
        """The map of ``nest_l2``: w, (w^R)*3, w*15, (w^R)*5."""
        if n < 4 or n % 4:
            raise ValueError("the nesting slice needs a positive multiple of 4")
        return cls(n // 4, (1, 2), ((1, False), (3, True), (15, False), (5, True)))

    @property
    def n(self) -> int:
        return self.t * len(self.blocks)

    @property
    def size(self) -> int:
        return len(self.letters) ** self.t

    @property
    def index(self) -> tuple[int, ...]:
        """The choice index that each position reads."""
        t = self.t
        out: list[int] = []
        for _, mirrored in self.blocks:
            out.extend(range(t - 1, -1, -1) if mirrored else range(t))
        return tuple(out)

    def word(self, choice: tuple[int, ...]) -> tuple[int, ...]:
        """The letters of the member for the choice word ``choice``."""
        out: list[int] = []
        for scale, mirrored in self.blocks:
            out.extend(scale * a for a in (choice[::-1] if mirrored else choice))
        return tuple(out)

    def distinct(self, j: int) -> list[int]:
        """For every window start i, how many choice indices the positions
        [i, i + j) read, by one sliding window.

        The members that carry one factor at offset i agree on exactly
        the indices that window reads, so every factor there occurs in
        |letters|^(t - d) members, d being the window's entry.
        """
        index = self.index
        held = [0] * self.t
        d = 0
        out: list[int] = []
        for k, x in enumerate(index):
            if not held[x]:
                d += 1
            held[x] += 1
            if k >= j:
                y = index[k - j]
                held[y] -= 1
                if not held[y]:
                    d -= 1
            if k >= j - 1:
                out.append(d)
        return out

    def spot_witnesses(self) -> Iterator[tuple[int, int, int]]:
        """``(i, j, w)`` for every swap spot, offset first, then length:
        w ordered member pairs swap their distinct midsections at (i, j)
        without leaving the slice.

        Both splices are members exactly when the two choice words agree
        on every index read both inside and outside the window, and the
        middles differ exactly when they differ on an index read only
        inside it.  With A letters, ``out`` indices read only outside and
        ``inside`` indices read only inside, that makes
        A^t * A^out * (A^inside - 1) ordered pairs.  The tallies grow one
        position at a time as j grows.
        """
        t, n, index = self.t, self.n, self.index
        per_index = Counter(index)
        power = [len(self.letters) ** e for e in range(t + 1)]
        for i in range(n):
            held = [0] * t
            out, inside = t, 0
            for k in range(i, n):
                x = index[k]
                held[x] += 1
                if held[x] == 1:
                    out -= 1
                if held[x] == per_index[x]:
                    inside += 1
                yield i, k - i + 1, power[t] * power[out] * (power[inside] - 1)


#: The most windows or spots one closed-form count may visit.
CLOSED_FORM_LIMIT = 10_000_000


def l2_bound_check(n: int, j: int) -> BoundReport:
    """Check the pinning bound on the nested-palindrome slice at ``n``,
    in closed form from its :class:`PositionMap`, with no slice built.

    Every length-j window overlaps the four blocks so that at least
    ceil(j/2) of the n/4 free choice letters are fixed by its content
    (the worst case straddles a block border with the window centred on
    it), so no occurrence count may exceed 2^(n/4 - ceil(j/2)).  Each
    factor at offset i occurs 2^(n/4 - d(i)) times, d(i) being the number
    of choice indices the window reads; the smallest factor there, which
    the report names, is the window of the all-1 member.  The report is
    the one :func:`bound_report` gives on the enumerated slice.  The
    n - j + 1 windows are charged against :data:`CLOSED_FORM_LIMIT`.
    """
    if n < 4 or n % 4:
        raise ValueError("the nesting slice needs a positive multiple of 4")
    if not 1 <= j <= n // 4:
        raise ValueError(f"j must be in 1..{n // 4}, got {j}")
    check_budget(n - j + 1, CLOSED_FORM_LIMIT, "closed-form bound check")
    pmap = PositionMap.l2(n)
    t, fixed = pmap.t, (j + 1) // 2
    distinct = pmap.distinct(j)
    fewest = min(distinct)
    i_max = distinct.index(fewest)
    # a count above the bound is a window that reads fewer than ceil(j/2) indices
    over = next((i for i, d in enumerate(distinct) if d < fixed), None)
    smallest = pmap.word((pmap.letters[0],) * t)

    def factor(i: int) -> Word:
        return Word._trusted(smallest[i : i + j])

    return BoundReport(
        n=n,
        j=j,
        size=pmap.size,
        bound=2 ** (t - fixed),
        max_count=2 ** (t - fewest),
        max_at=(i_max, factor(i_max)),
        ok=over is None,
        violation=None if over is None else (over, factor(over), 2 ** (t - distinct[over])),
    )


@dataclass(frozen=True)
class SwapParams:
    """The exact integer parameter chain for a swap run at constant ``m``.

    Validation replays every link with exact arithmetic: n is a multiple of
    16, 2^(n/4) beats (2 m n^2)^4, k is the quarter length, j0 is twice one
    more than ceil(log2(m n^2)), k covers two midsections, and
    2^(j0/2) >= 2 m n^2 (which forces every count below |S| / (k m n)).
    """

    m: int
    n: int
    k: int
    j0: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("the swap constant m must be >= 1")
        if self.n < 16 or self.n % 16:
            raise ValueError("n must be a positive multiple of 16")
        if 2 ** (self.n // 4) <= (2 * self.m * self.n * self.n) ** 4:
            raise ValueError("2^(n/4) must exceed (2 m n^2)^4")
        if self.k != self.n // 4:
            raise ValueError("k must equal n/4")
        if self.j0 != 2 * (ceil_log2(self.m * self.n * self.n) + 1):
            raise ValueError("j0 must equal 2 (ceil(log2(m n^2)) + 1)")
        if self.k < 2 * self.j0:
            raise ValueError("k must be at least 2 j0")
        if 2 ** (self.j0 // 2) < 2 * self.m * self.n * self.n:
            raise ValueError("2^(j0/2) must be at least 2 m n^2")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "j0": self.j0,
            "checks": {
                "n_multiple_of_16": True,
                "growth": True,
                "k_quarter": True,
                "j0_formula": True,
                "k_covers_two_midsections": True,
                "pow_bound": True,
            },
        }


def choose_params(m: int) -> SwapParams:
    """The minimal multiple of 16 whose quarter-exponent beats (2 m n^2)^4,
    searched with exact big integers, packaged with k and j0."""
    if m < 1:
        raise ValueError("the swap constant m must be >= 1")
    n = 16
    while 2 ** (n // 4) <= (2 * m * n * n) ** 4:
        n += 16
    return SwapParams(m=m, n=n, k=n // 4, j0=2 * (ceil_log2(m * n * n) + 1))


def density_condition(report: BoundReport, params: SwapParams) -> bool:
    """Exact-rational scatteredness test: every midsection count must stay
    strictly below |S| / (m (k - j0 + 1) (n - j0 + 1)), which is to say the
    largest count in the bound report does.

    Comparisons are cross-multiplied integers, so no strict inequality can
    be blurred by rounding.
    """
    if report.j != params.j0:
        raise ValueError(
            f"the report was computed with j={report.j}, but the parameters demand j0={params.j0}"
        )
    denom = params.m * (params.k - params.j0 + 1) * (params.n - params.j0 + 1)
    return report.max_count * denom < report.size


def paper_check(m: int) -> dict:
    """Run the swap argument on the nesting slice at ``choose_params(m)``,
    in closed form, and report it as a JSON document of exact integers:
    the bound report and the density condition at j0, the ordered swap
    witnesses added up over every spot with j <= k, and the first spot,
    by length and then offset, that has any.  ``ok`` says that the bound
    and the density condition hold and that no spot with j <= k swaps.
    The n(n+1)/2 spots are charged against :data:`CLOSED_FORM_LIMIT`."""
    params = choose_params(m)
    n = params.n
    check_budget(n * (n + 1) // 2, CLOSED_FORM_LIMIT, "closed-form swap spot count")
    report = l2_bound_check(n, params.j0)
    dense = density_condition(report, params)
    spots = witnesses = 0
    first = None
    for i, j, w in PositionMap.l2(n).spot_witnesses():
        spots += 1
        if not w:
            continue
        if j <= params.k:
            witnesses += w
        if first is None or (j, i) < (first["j"], first["i"]):
            first = {"i": i, "j": j, "witnesses": w}
    return {
        "params": params.to_json(),
        "bound": report.to_json(),
        "density_condition": dense,
        "spots": spots,
        "witnesses_up_to_k": witnesses,
        "first_swap": first,
        "ok": report.ok and dense and witnesses == 0,
    }


@dataclass(frozen=True, slots=True)
class SwapWitness:
    """Two slice members whose distinct midsections swap without leaving
    the language.  Offsets are 0-based; ``i_zero`` marks witnesses whose
    midsection starts at the very front."""

    i: int
    j: int
    x: Word
    y: Word
    swapped_x: Word
    swapped_y: Word
    both_in_language: bool = True

    def __post_init__(self) -> None:
        x, y, i, k = self.x.letters, self.y.letters, self.i, self.i + self.j
        if len(x) != len(y):
            raise ValueError("swap witnesses need equal-length words")
        if not (0 <= i and k <= len(x) and self.j >= 1):
            raise ValueError("inconsistent split offsets")
        x2, y2 = x[i:k], y[i:k]
        if x2 == y2:
            raise ValueError("midsections must differ")
        if self.swapped_x.letters != x[:i] + y2 + x[k:]:
            raise ValueError("swapped_x is not the midsection splice")
        if self.swapped_y.letters != y[:i] + x2 + y[k:]:
            raise ValueError("swapped_y is not the midsection splice")

    @property
    def i_zero(self) -> bool:
        return self.i == 0

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "i_zero": self.i_zero,
            "x": self.x.to_json(),
            "y": self.y.to_json(),
            "swapped_x": self.swapped_x.to_json(),
            "swapped_y": self.swapped_y.to_json(),
            "both_in_language": self.both_in_language,
        }


SCAN_ROUTE = "swap scan by context index"


def swap_scan(
    member: Callable[[Word], bool],
    s: Slice,
    j_range: tuple[int, int],
    i_range: Optional[tuple[int, int]] = None,
    *,
    force: bool = False,
    call_limit: int = 100_000_000,
) -> list[SwapWitness]:
    """Exhaustively find every midsection swap over ordered member pairs.

    Emits a witness for every (x, y, i, j) with differing midsections whose
    two splices both satisfy the membership oracle, in deterministic order:
    pair order first (members are canonically sorted), then offset, then
    midsection length.

    At each (i, j) spot the members are grouped by context
    ``c = x[:i] + x[i+j:]``; a context and a middle identify one member.
    The member (c, a) swaps with (cy, b), b != a, exactly when the splices
    c + b and cy + a are both in the language, so the scan needs, for every
    context, the middles whose splice is accepted.  A splice keeps the
    length n.  So on a complete slice (``s.complete``: the members are every
    length-n word that ``member`` accepts) those are the middles the context
    holds, read off the slice; each distinct splice of a witness is then
    replayed through ``member`` once, and a rejected one raises
    ``InvariantError``, since the slice and the oracle disagree.  On any
    other slice ``member`` is asked about every context with every middle
    of the spot, each distinct splice once, except a context's own middle
    when it holds no other.

    The scan is charged |S|·spots steps for grouping the members and, on an
    incomplete slice, |contexts|·|middles| oracle calls at each spot, all
    checked before the first oracle call; then one step for every pair it
    tries at a spot, checked as each spot is indexed and before any witness
    is built.  Both routes share ``call_limit``.
    """
    n = s.n
    j_lo, j_hi = j_range
    j_lo, j_hi = max(1, j_lo), min(n, j_hi)
    if j_lo > j_hi:
        return []
    i_lo, i_hi = i_range if i_range is not None else (0, n - j_lo)
    i_lo, i_hi = max(0, i_lo), min(n - j_lo, i_hi)
    spots = [(i, j) for i in range(i_lo, i_hi + 1) for j in range(j_lo, min(j_hi, n - i) + 1)]
    raws = [w.letters for w in s.members]
    steps = len(raws) * len(spots)
    check_budget(steps, call_limit, SCAN_ROUTE, force=force)
    if s.complete:
        accepted, splice = _slice_route(member, s)
    else:
        steps += sum(_class_count(raws, i, i + j) for i, j in spots)
        check_budget(steps, call_limit, SCAN_ROUTE, force=force)
        accepted, splice = _oracle_route(member)
    indexed = []
    settled = None
    # longest middle first at each offset: on a complete slice, once no
    # context there holds two middles, neither does the longer context of
    # any shorter middle
    for i, j in reversed(spots):
        if i == settled:
            continue
        mids, acc = _spot_classes(raws, i, i + j, accepted)
        if not acc:
            if s.complete:
                settled = i
            continue
        holders: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for c in acc:
            for u in mids[c]:
                holders.setdefault(u, []).append(c)
        # x (context c, middle a) is tried against one y for every middle
        # b != a that c accepts and every context that holds b; every
        # spot's tries are charged before any pair is built
        steps += sum(
            (len(mids[c]) - (b in mids[c])) * len(holders.get(b, ()))
            for c, bs in acc.items()
            for b in bs
        )
        check_budget(steps, call_limit, SCAN_ROUTE, force=force)
        indexed.append((i, j, mids, acc, holders))
    found: list[tuple[int, int, int, int]] = []
    for i, j, mids, acc, holders in indexed:
        # x with middle a swaps with y with middle b != a when x's context
        # accepts b and y's accepts a
        for c, bs in acc.items():
            for a, xi in mids[c].items():
                for b in bs:
                    if b == a:
                        continue
                    for cy in holders.get(b, ()):
                        if a in acc[cy]:
                            found.append((xi, mids[cy][b], i, j))
    found.sort()
    out: list[SwapWitness] = []
    for xi, yi, i, j in found:
        x, y = raws[xi], raws[yi]
        k = i + j
        out.append(
            SwapWitness(
                i=i,
                j=j,
                x=s.members[xi],
                y=s.members[yi],
                swapped_x=splice(x[:i] + y[i:k] + x[k:]),
                swapped_y=splice(y[:i] + x[i:k] + y[k:]),
            )
        )
    return out


def _spot_classes(raws: list[tuple[int, ...]], i: int, k: int, accepted):
    """Group the members by context ``x[:i] + x[k:]`` at the spot whose
    middle is ``x[i:k]``.  Returns, for every context that ``accepted``
    finds accepting some middle, the middles it holds, each mapped to the
    member's position in the slice, and the middles it accepts."""
    mids: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for pos, x in enumerate(raws):
        mids.setdefault(x[:i] + x[k:], {})[x[i:k]] = pos
    acc = accepted(mids, i)
    return {c: mids[c] for c in acc}, acc


def _class_count(raws: list[tuple[int, ...]], i: int, k: int) -> int:
    """Contexts times middles at one spot: the splices the oracle may be
    asked about there."""
    return len({x[:i] + x[k:] for x in raws}) * len({x[i:k] for x in raws})


def _slice_route(member: Callable[[Word], bool], s: Slice):
    """On a complete slice a context accepts the middles it holds, and a
    splice is the member it spells, replayed through the oracle once."""

    def accepted(mids, i):
        # a context with one middle can swap it for no other
        return {c: held for c, held in mids.items() if len(held) > 1}

    index = {w.letters: w for w in s.members}
    replayed: set[tuple[int, ...]] = set()

    def splice(t: tuple[int, ...]) -> Word:
        if t not in replayed:
            if not member(index[t]):
                raise InvariantError(
                    f"complete slice {s.origin!r} holds {list(t)}, which the oracle rejects"
                )
            replayed.add(t)
        return index[t]

    return accepted, splice


def _oracle_route(member: Callable[[Word], bool]):
    """On any other slice the oracle decides every splice, once: the memo
    keeps the Word of each accepted splice and None for a rejected one."""
    words: dict[tuple[int, ...], Optional[Word]] = {}

    def accepted(mids, i):
        middles = {u: None for held in mids.values() for u in held}
        acc = {}
        for c, held in mids.items():
            # a context's own middle matters only beside another one
            lone = next(iter(held)) if len(held) == 1 else None
            left, right = c[:i], c[i:]
            ok = set()
            for b in middles:
                if b == lone:
                    continue
                t = left + b + right
                if t in words:
                    w = words[t]
                else:
                    w = Word._trusted(t)
                    if not member(w):
                        w = None
                    words[t] = w
                if w is not None:
                    ok.add(b)
            if ok:
                acc[c] = ok
        return acc

    return accepted, words.__getitem__
