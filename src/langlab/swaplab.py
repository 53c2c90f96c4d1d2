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
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from .guards import InvariantError, check_budget
from .words import MapRuns, PositionMap, TrackedWord, Word, fuse_tracks


def ceil_log2(v: int) -> int:
    """Smallest e with 2^e >= v, via bit length (exact for any size)."""
    if v < 1:
        raise ValueError("ceil_log2 needs v >= 1")
    return (v - 1).bit_length()


def _width(k: int) -> int:
    """Bits per letter code for an alphabet of ``k`` letters (at least 1)."""
    return max(1, (k - 1).bit_length())


class _Chunks(dict):
    """Letter tuples of ``size``-letter codes, each made on first use: the
    letters of ``code >> width`` (led by one more zero code) but the first, then the last."""

    def __init__(self, width: int, letters: tuple[int, ...]) -> None:
        self.width, self.letters, self.size = width, letters, max(1, 12 // width)
        self[0] = letters[:1] * self.size

    def __missing__(self, code: int) -> tuple[int, ...]:
        w = self.width
        letters = self[code] = self[code >> w][1:] + (self.letters[code & (1 << w) - 1],)
        return letters


def _pack(n: int, members) -> tuple[tuple[int, ...], list[int]]:
    """The letters of length-``n`` Words and the distinct Words packed, sorted;
    a Word of another length raises ``ValueError``."""
    words = set(members)
    for w in words:
        if len(w) != n:
            raise ValueError(f"slice member {w!r} does not have length {n}")
    letters = tuple(sorted({a for w in words for a in w.letters}))
    code, width = {a: c for c, a in enumerate(letters)}, _width(len(letters))
    packed = []
    for w in words:
        v = 0
        for a in w.letters:
            v = v << width | code[a]
        packed.append(v)
    return letters, sorted(packed)


class Slice:
    """All recorded members of some language at one fixed length, packed.

    A member is one int: the code of the letter at position p fills
    ``width`` bits, the first letter the highest, and the codes number the
    slice's ``letters`` in increasing order.  Integer order is then the
    canonical Word order, and ``packed`` holds the members sorted.  The
    swap scan and :func:`slice_stats` work on the ints; ``members``
    decodes the Words on first use, and ``word`` decodes one member.
    A decode reads c letters a lookup, c the most whose codes fit in 12
    bits (at least 1), in the slice's table of c-letter codes, filled on
    first use, so it holds at most 2^12 entries (one per letter if codes
    are wider); a shorter highest chunk is read led by zero codes and cut.

    ``complete`` says that the members are every length-``n`` word the
    membership oracle of a later swap scan accepts.  Only
    :func:`build_slice` makes a complete slice; ``Slice(...)`` never does.
    """

    __slots__ = ("n", "origin", "complete", "letters", "width", "packed", "_members", "_chunks")

    def __init__(self, n: int, members, origin: str = "") -> None:
        self._set(n, *_pack(n, members), origin, False)

    @classmethod
    def _of_packed(cls, n: int, letters: tuple[int, ...], packed: list[int], origin: str):
        """A complete slice from members already packed with the codes of
        ``letters``, sorted and distinct; only :func:`build_slice` calls it."""
        s = object.__new__(cls)
        s._set(n, letters, packed, origin, True)
        return s

    def _set(self, n, letters, packed, origin, complete) -> None:
        self.n, self.letters, self.packed = n, letters, packed
        self.origin, self.complete = origin, complete
        self.width = _width(len(letters))
        self._members: Optional[tuple[Word, ...]] = None
        self._chunks = _Chunks(self.width, letters)

    def __len__(self) -> int:
        return len(self.packed)

    def _decode(self, v: int, length: int) -> Word:
        # the ``length`` letters whose codes end at the lowest bit of v, c to a
        # chunk; the highest chunk is cut to the 1 to c letters it holds
        chunks = self._chunks
        c, step = chunks.size, chunks.width * chunks.size
        low, mask = (length - 1) // c, (1 << step) - 1
        letters = chunks[v >> step * low & mask][(low + 1) * c - length :]
        for e in range(step * (low - 1), -1, -step):
            letters += chunks[v >> e & mask]
        return Word._trusted(letters)

    def word(self, v: int) -> Word:
        """The Word a packed member (or a splice of members) spells."""
        return self._decode(v, self.n)

    @property
    def members(self) -> tuple[Word, ...]:
        if self._members is None:
            self._members = tuple(map(self.word, self.packed))
        return self._members


def _entry_json(entry: Optional[tuple[int, Word, int]]) -> Optional[dict]:
    """An (i, u, count) entry as ``{"i", "u", "count"}``, None as null."""
    return None if entry is None else {"i": entry[0], "u": entry[1].to_json(), "count": entry[2]}


class SliceStats:
    """Occurrence counts of every midsection of one length across a slice.

    ``counts[i, u]`` is the number of members of ``slice`` that carry the
    factor u at offset i.  The counts are read off the packed members one
    offset at a time each time they are read, so :func:`bound_report`,
    :meth:`max_entry` and :meth:`partition_ok` hold one offset's counts at
    once: every offset's table at once would be 653,056 entries on the L2
    slice at n = 64, j = 16.  ``counts`` decodes the whole table into Words
    once and keeps it.
    """

    __slots__ = ("slice", "n", "j", "size", "_counts")

    def __init__(self, s: Slice, j: int) -> None:
        if not 1 <= j <= s.n:
            raise ValueError(f"midsection length must be in 1..{s.n}, got {j}")
        self.slice, self.n, self.j, self.size = s, s.n, j, len(s)
        self._counts: Optional[dict[tuple[int, Word], int]] = None

    def _tables(self) -> Iterator[tuple[int, Counter]]:
        """(i, {packed factor: count}) for every offset, in offset order: a
        member v carries the packed factor ``v & mask`` for the offset's
        window mask, which :meth:`_factor` decodes, so the keys of one
        offset order as their factors do."""
        n, j, w, packed = self.n, self.j, self.slice.width, self.slice.packed
        window = (1 << w * j) - 1
        for i in range(n - j + 1):
            yield i, Counter(map((window << w * (n - i - j)).__and__, packed))

    def _factor(self, i: int, key: int) -> Word:
        s = self.slice
        return s._decode(key >> s.width * (self.n - i - self.j), self.j)

    @property
    def counts(self) -> dict[tuple[int, Word], int]:
        if self._counts is None:
            tables = self._tables()
            self._counts = {(i, self._factor(i, key)): c for i, table in tables for key, c in table.items()}
        return self._counts

    def __len__(self) -> int:
        """The number of (i, u) entries, counted without decoding a factor."""
        return sum(len(table) for _, table in self._tables())

    def _extremes(self, bound: Optional[int] = None):
        """The largest entry, ties broken towards the smallest (i, u), and
        the first entry above ``bound`` in (i, u) order, each as
        (i, u, count) or None, in one pass over the offsets."""
        top = over = None
        for i, table in self._tables():
            if not table:
                continue
            c = max(table.values())
            if top is None or c > top[2]:
                top = (i, min(u for u, v in table.items() if v == c), c)
            if over is None and bound is not None and c > bound:
                u = min(u for u, v in table.items() if v > bound)
                over = (i, u, table[u])
        return tuple(
            None if e is None else (e[0], self._factor(e[0], e[1]), e[2]) for e in (top, over)
        )

    def max_entry(self) -> Optional[tuple[int, Word, int]]:
        """The largest count, ties broken towards the smallest (i, u)."""
        return self._extremes()[0]

    def partition_ok(self) -> bool:
        """At every offset the counts must add up to the slice size."""
        return all(sum(table.values()) == self.size for _, table in self._tables())

    def to_json(self) -> dict:
        """The slice's origin, n, j, size, largest entry and (i, u) table."""
        return {
            "origin": self.slice.origin,
            "n": self.n,
            "j": self.j,
            "size": self.size,
            "max": _entry_json(self.max_entry()),
            "table": [_entry_json((i, u, c)) for (i, u), c in sorted(self.counts.items())],
        }


#: The most words one slice, or one listing of a language, may hold.
SLICE_LIMIT = 10_000_000


def build_slice(language, n: int, advice=None, *, force: bool = False) -> Slice:
    """Collect every length-``n`` member of a language, fused with the
    advice word at ``n`` (asked for first, even for an empty slice) when
    advice is given: a complete slice, the only way to make one.

    A language with position maps is charged its ``size(n)`` against
    :data:`SLICE_LIMIT` before a read is built; its members are read off
    the maps already packed, by :func:`_map_members`.  Otherwise all words
    over the alphabet are filtered through the predicate, charged the
    alphabet power, and packed as ``Slice(...)`` packs its members.
    """
    if n < 1:
        raise ValueError("slices need n >= 1")
    origin, under = f"{getattr(language, 'name', 'language')}[n={n}]", None
    if advice is not None:
        origin, under = f"{origin}+{getattr(advice, 'name', 'advice')}", advice(n).letters
    if getattr(language, "runs", None) is not None:
        check_budget(language.size(n, SLICE_LIMIT), SLICE_LIMIT, "generated slice", force=force)
        return Slice._of_packed(n, *_map_members([r.map() for r in language.runs(n)], under), origin)
    alphabet = sorted(language.alphabet)
    check_budget(len(alphabet) ** n, SLICE_LIMIT, "brute-force slice scan", force=force)
    members = filter(language.predicate, map(Word, itertools.product(alphabet, repeat=n)))
    if under is not None:
        members = [Word._trusted(fuse_tracks(w.letters, under)) for w in members]
    return Slice._of_packed(n, *_pack(n, members), origin)


def advised_oracle(predicate, advice, n: int):
    """Membership in a fused slice at length ``n``: the advice track must
    be the advice word at ``n``, and the input track must satisfy
    ``predicate``."""
    expected = advice(n)

    def member(w: Word) -> bool:
        tracked = TrackedWord.from_fused(w)
        return tracked.bottom == expected and predicate(tracked.top)

    return member


def _map_members(maps: list[PositionMap], under=None) -> tuple[tuple[int, ...], list[int]]:
    """The letters of the slice that disjoint position maps spell, the one
    at position p fused over ``under[p]`` when advice letters are given,
    and its members, packed and sorted.  A member is the OR of one mask per
    choice index: the codes that index's chosen letter puts at the
    positions reading it.  Each map's members are built by doubling, the
    first choice index last, so they come out in choice-word order."""
    spelled = [[scale * a for x, scale in pmap.reads for a in pmap.alphabets[x]] for pmap in maps]
    if under is not None:
        spelled = [
            fuse_tracks(tops, [b for (x, _), b in zip(pmap.reads, under, strict=True) for _ in pmap.alphabets[x]])
            for pmap, tops in zip(maps, spelled)
        ]
    letters = tuple(sorted(set().union(*spelled)))
    code = {a: c for c, a in enumerate(letters)}
    w = _width(len(letters))
    packed: list[int] = []
    for pmap, tops in zip(maps, spelled):
        n, codes = pmap.n, map(code.__getitem__, tops)
        masks = [[0] * len(alphabet) for alphabet in pmap.alphabets]
        for p, (x, _) in enumerate(pmap.reads):
            row, shift = masks[x], w * (n - 1 - p)
            for c in range(len(row)):
                row[c] |= next(codes) << shift
        part = [0]
        for row in reversed(masks):
            part = [v | m for m in row for v in part]
        packed += part
    packed.sort()
    return letters, packed


def slice_stats(s: Slice, j: int) -> SliceStats:
    """Count, for every offset i and factor u of length j, how many slice
    members carry u at that offset."""
    return SliceStats(s, j)


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
            "max": _entry_json(self.max_at and (*self.max_at, self.max_count)),
            "ok": self.ok,
            "violation": _entry_json(self.violation),
        }


def _pinning_report(n: int, j: int, size: int, extremes) -> BoundReport:
    """Hold ``size`` members' counts at (n, j) to the pinning bound
    2^(n/4 - ceil(j/2)); ``extremes(bound)`` gives the largest entry and
    the first entry above ``bound``, each as (i, u, count) or None."""
    bound = 2 ** (n // 4 - (j + 1) // 2)
    entry, violation = extremes(bound)
    return BoundReport(
        n=n,
        j=j,
        size=size,
        bound=bound,
        max_count=0 if entry is None else entry[2],
        max_at=None if entry is None else entry[:2],
        ok=violation is None,
        violation=violation,
    )


def bound_report(stats: SliceStats) -> BoundReport:
    """Hold the counts of a nesting slice to the pinning bound
    2^(n/4 - ceil(j/2)), reporting the largest entry and the first
    violation in (i, u) order."""
    return _pinning_report(stats.n, stats.j, stats.size, stats._extremes)


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
    of choice indices the window reads: the size over the 2^d(i) distinct
    factors that :meth:`PositionMap.distinct` counts there.  The smallest
    factor there, which the report names, is the window of the all-1
    member.  The report is the one :func:`bound_report` gives on the
    enumerated slice.  The arguments are checked before any map is built:
    n against L2's grid in run form, j against 1..n/4, and then the
    n - j + 1 windows against :data:`CLOSED_FORM_LIMIT`.
    """
    if not MapRuns.l2(n):
        raise ValueError("the nesting slice needs a positive multiple of 4")
    if not 1 <= j <= n // 4:
        raise ValueError(f"j must be in 1..{n // 4}, got {j}")
    check_budget(n - j + 1, CLOSED_FORM_LIMIT, "closed-form bound check")
    pmap = PositionMap.l2(n)
    size, distinct = pmap.size, pmap.distinct(j)
    smallest = pmap.word(tuple(alphabet[0] for alphabet in pmap.alphabets))

    def entry(i: int) -> tuple[int, Word, int]:
        return i, Word._trusted(smallest[i : i + j]), size // distinct[i]

    def extremes(bound: int):
        # a count above the bound is a window with fewer than size / bound factors
        over = next((i for i, d in enumerate(distinct) if d * bound < size), None)
        return entry(distinct.index(min(distinct))), None if over is None else entry(over)

    return _pinning_report(n, j, size, extremes)


@dataclass(frozen=True)
class SwapParams:
    """The exact integer parameter chain of the swap argument at constant ``m``.

    n is the least multiple of 16 with 2^(n/4) > (2 m n^2)^4, searched with
    exact big integers; k = n/4 is the quarter length and j0 is twice one
    more than ceil(log2(m n^2)).  The two links that follow from that
    choice are replayed: k covers two midsections, and 2^(j0/2) >= 2 m n^2
    (which forces every count below |S| / (k m n)); a failed one is the
    program's fault and raises ``InvariantError``.  m < 1 raises
    ``ValueError``.
    """

    m: int
    n: int = field(init=False)
    k: int = field(init=False)
    j0: int = field(init=False)

    def __post_init__(self) -> None:
        m = self.m
        if m < 1:
            raise ValueError("the swap constant m must be >= 1")
        n = 16
        while 2 ** (n // 4) <= (2 * m * n * n) ** 4:
            n += 16
        k, j0 = n // 4, 2 * (ceil_log2(m * n * n) + 1)
        if k < 2 * j0:
            raise InvariantError(f"k = {k} must be at least 2 j0 = {2 * j0} at m = {m}")
        if 2 ** (j0 // 2) < 2 * m * n * n:
            raise InvariantError(f"2^(j0/2) must be at least 2 m n^2 at m = {m}, n = {n}, j0 = {j0}")
        for name, value in (("n", n), ("k", k), ("j0", j0)):
            object.__setattr__(self, name, value)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "j0": self.j0,
            "checks": dict.fromkeys(
                "n_multiple_of_16 growth k_quarter j0_formula k_covers_two_midsections pow_bound".split(),
                True,
            ),
        }


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
    """Run the swap argument on the nesting slice at ``SwapParams(m)``,
    in closed form, and report it as a JSON document of exact integers:
    the bound report and the density condition at j0, the ordered swap
    witnesses added up over every spot with j <= k, and the first spot,
    by length and then offset, that has any.  ``ok`` says that the bound
    and the density condition hold and that no spot with j <= k swaps.
    The n(n+1)/2 spots are charged against :data:`CLOSED_FORM_LIMIT`."""
    params = SwapParams(m)
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


class _SwapFields(NamedTuple):
    i: int
    j: int
    x: Word
    y: Word
    swapped_x: Word
    swapped_y: Word


class SwapWitness(_SwapFields):
    """Two slice members whose distinct midsections swap without leaving
    the language.  Offsets are 0-based; ``i_zero`` marks witnesses whose
    midsection starts at the very front.

    An immutable record: one tuple, its fields checked as it is built; a
    malformed one is an internal fault and raises ``InvariantError``."""

    __slots__ = ()

    def __new__(cls, i, j, x, y, swapped_x, swapped_y):
        xs, ys, k = x.letters, y.letters, i + j
        if len(xs) != len(ys):
            raise InvariantError("swap witnesses need equal-length words")
        if not (0 <= i and k <= len(xs) and j >= 1):
            raise InvariantError("inconsistent split offsets")
        x2, y2 = xs[i:k], ys[i:k]
        if x2 == y2:
            raise InvariantError("midsections must differ")
        if swapped_x.letters != xs[:i] + y2 + xs[k:]:
            raise InvariantError("swapped_x is not the midsection splice")
        if swapped_y.letters != ys[:i] + x2 + ys[k:]:
            raise InvariantError("swapped_y is not the midsection splice")
        return cls._trusted((i, j, x, y, swapped_x, swapped_y))

    # the internal constructor: a tuple of all six fields, already checked,
    # as swap_scan checks them on its packed ints
    _trusted = classmethod(tuple.__new__)

    # _replace builds through _make, so it is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def i_zero(self) -> bool:
        return self.i == 0


class _WordTexts(dict):
    """The JSON text of a word's letters, keyed by the letters, each one
    made on first use."""

    def __missing__(self, letters: tuple[int, ...]) -> str:
        text = self[letters] = "[" + ", ".join(map(str, letters)) + "]"
        return text


def witness_listing(witnesses) -> str:
    """The JSON array text of a witness list, byte for byte what
    ``json.dumps(rows, sort_keys=True)`` writes for the rows with keys
    ``both_in_language, i, i_zero, j, swapped_x, swapped_y, x, y``, each
    word as its list of letters and ``both_in_language`` true, as it is
    for every witness.  The text of each distinct word is
    made once per call, so a listing costs per distinct word, not per
    letter of every occurrence."""
    texts = _WordTexts()
    flag = ("false", "true")
    rows = [
        f'{{"both_in_language": true, "i": {i}, "i_zero": {flag[i == 0]}, "j": {j}, '
        f'"swapped_x": {texts[sx.letters]}, "swapped_y": {texts[sy.letters]}, '
        f'"x": {texts[x.letters]}, "y": {texts[y.letters]}}}'
        for i, j, x, y, sx, sy in witnesses
    ]
    return "[" + ", ".join(rows) + "]"


SCAN_ROUTE = "swap scan by context index"

#: Letters a scan may hold in its witnesses: each one spells 4n letters
#: (x, y and both splices), charged as each is found, before any is built.
WITNESS_LETTER_LIMIT = 10**7

#: Steps a scan may take grouping members and trying pairs (``call_limit``).
SCAN_STEP_LIMIT = 100_000_000


def swap_scan(
    member: Callable[[Word], bool],
    s: Slice,
    j_range: tuple[int, int],
    i_range: Optional[tuple[int, int]] = None,
    *,
    force: bool = False,
    call_limit: int = SCAN_STEP_LIMIT,
) -> list[SwapWitness]:
    """Exhaustively find every midsection swap over ordered member pairs.

    Emits a witness for every (x, y, i, j) with differing midsections whose
    two splices both satisfy the membership oracle, in deterministic order:
    pair order first (members are canonically sorted), then offset, then
    midsection length.

    The scan works on the slice's packed members.  At each (i, j) spot a
    member v has the context ``v & keep``, every letter outside the
    middle, and the middle ``v & mid``; a context and a middle identify one
    member, and the splice of a context with a middle is their OR.  The
    member (c, a) swaps with (cy, b), b != a, exactly when the splices
    c | b and cy | a are both in the language, so the scan needs, for every
    context, the middles whose splice is accepted.  A splice keeps the
    length n.  So on a complete slice (``s.complete``: the members are every
    length-n word that ``member`` accepts) those are the middles the context
    holds, read off the slice: a spot whose contexts are all distinct has no
    swap, and neither has any shorter middle at its offset, which the scan
    then skips, longest middle first.  On any other slice ``member`` is
    asked about every context with every middle of the spot, except a
    context's own middle when it holds no other.

    One memo maps each packed splice to its Word when ``member`` accepts
    it and to None when it rejects it, so ``member`` is asked about each
    distinct splice once.  On an incomplete slice the search fills it; on
    a complete slice the witness records fill it as they replay their
    splices, and a rejected one raises ``InvariantError``, since the slice
    and the oracle disagree.

    The search notes each witness as the slice positions of x and y, the
    spot, and its two packed splices.  The record pass checks the
    witness facts on those ints: the spot lies inside n (once per spot, as
    its masks are made), the middles differ, and each splice is one
    member's context ORed with the other's middle; a failure raises
    ``InvariantError`` naming the slice, the spot and the positions.  The
    records then skip the letter-tuple checks of ``SwapWitness(...)``: x
    and y are the slice's ``members`` at those positions, and the splices
    come from the memo.  ``members`` is decoded only when the scan finds a
    witness, so a scan that finds none decodes no Word on a complete slice.

    The scan is charged |S| steps for grouping the members at every spot
    it visits, as it reaches the spot; on an incomplete slice a first pass
    over the spots, charged the same way, counts the |contexts|·|middles|
    oracle calls of every spot, and all of them are charged before the
    first oracle call.  Every spot's tried pairs are charged, one step
    each, as the spot is indexed and before any witness is found.  All of
    it shares ``call_limit``.  The witnesses are charged 4n letters each
    against :data:`WITNESS_LETTER_LIMIT` as they are found, so the scan
    stops at the one that crosses it, before any record is built;
    ``force`` overrides both limits.
    """
    n = s.n
    j_lo, j_hi = max(1, j_range[0]), min(n, j_range[1])
    if j_lo > j_hi:
        return []
    i_lo, i_hi = i_range if i_range is not None else (0, n - j_lo)
    i_lo, i_hi = max(0, i_lo), min(n - j_lo, i_hi)
    spots = [(i, j) for i in range(i_lo, i_hi + 1) for j in range(j_lo, min(j_hi, n - i) + 1)]
    packed, size, width = s.packed, len(s), s.width
    full = (1 << width * n) - 1
    steps = 0

    def charge(more: int) -> None:
        nonlocal steps
        steps += more
        check_budget(steps, call_limit, SCAN_ROUTE, force=force)

    def masks(i: int, j: int) -> tuple[int, int]:
        if not (0 <= i and j >= 1 and i + j <= n):
            raise InvariantError(f"inconsistent split offsets: {s.origin!r} at spot ({i}, {j})")
        mid = ((1 << width * j) - 1) << width * (n - i - j)
        return full ^ mid, mid

    # packed splice -> its Word if member accepts it, None if it rejects it
    memo: dict[int, Optional[Word]] = {}

    if s.complete:

        def accepted(mids):
            # a context with one middle can swap it for no other
            return {c: held for c, held in mids.items() if len(held) > 1}

    else:
        calls = 0
        for i, j in spots:
            charge(size)
            keep, mid = masks(i, j)
            calls += len(set(map(keep.__and__, packed))) * len(set(map(mid.__and__, packed)))
        charge(calls)

        def accepted(mids):
            middles = {u: None for held in mids.values() for u in held}
            acc = {}
            for c, held in mids.items():
                # a context's own middle matters only beside another one
                lone = next(iter(held)) if len(held) == 1 else None
                ok = set()
                for b in middles:
                    if b == lone:
                        continue
                    t = c | b
                    if t not in memo:
                        w = s.word(t)
                        memo[t] = w if member(w) else None
                    if memo[t] is not None:
                        ok.add(b)
                if ok:
                    acc[c] = ok
            return acc

    def splice(v: int) -> Word:
        w = memo.get(v)
        if w is None:
            # a complete slice's splice is a member, replayed here once
            w = s.word(v)
            if not member(w):
                raise InvariantError(
                    f"complete slice {s.origin!r} holds {w.to_json()}, which the oracle rejects"
                )
            memo[v] = w
        return w

    indexed, settled = [], None
    for i, j in reversed(spots):
        if i == settled:
            continue
        charge(size)
        keep, mid = masks(i, j)
        if s.complete and len(set(map(keep.__and__, packed))) == size:
            # no context holds two middles, here or at a shorter middle at i
            settled = i
            continue
        mids, acc = _spot_classes(packed, keep, mid, accepted)
        if not acc:
            continue
        holders: dict[int, list[int]] = {}
        for c in acc:
            for u in mids[c]:
                holders.setdefault(u, []).append(c)
        # x (context c, middle a) is tried against one y for every middle
        # b != a that c accepts and every context that holds b
        charge(
            sum(
                (len(mids[c]) - (b in mids[c])) * len(holders.get(b, ()))
                for c, bs in acc.items()
                for b in bs
            )
        )
        indexed.append((i, j, keep, mid, mids, acc, holders))
    found: list[tuple[int, int, int, int, int, int]] = []
    limit, what = WITNESS_LETTER_LIMIT, "swap witness letters"
    cap = limit // (4 * n)
    for i, j, _, _, mids, acc, holders in indexed:
        # x with middle a swaps with y with middle b != a when x's context
        # accepts b and y's accepts a
        for c, bs in acc.items():
            for a, xi in mids[c].items():
                for b in bs:
                    if b == a:
                        continue
                    for cy in holders.get(b, ()):
                        if a in acc[cy]:
                            found.append((xi, mids[cy][b], i, j, c | b, cy | a))
                            if len(found) > cap:
                                check_budget(4 * n * len(found), limit, what, force=force)
    if not found:
        return []
    # (xi, yi, i, j) is unique, so the sort never compares the splices
    found.sort()
    spot_masks = {(i, j): (keep, mid) for i, j, keep, mid, *_ in indexed}
    members, witness, witnesses = s.members, SwapWitness._trusted, []
    for xi, yi, i, j, sx, sy in found:
        keep, mid = spot_masks[i, j]
        x, y = packed[xi], packed[yi]
        if x & mid == y & mid or sx != x & keep | y & mid or sy != y & keep | x & mid:
            fault = "midsections must differ" if x & mid == y & mid else "a splice is not the midsection one"
            raise InvariantError(f"{fault}: {s.origin!r} at spot ({i}, {j}), positions {xi} and {yi}")
        witnesses.append(witness((i, j, members[xi], members[yi], splice(sx), splice(sy))))
    return witnesses


def _spot_classes(packed: list[int], keep: int, mid: int, accepted):
    """Group the packed members by context ``v & keep`` at the spot whose
    middle is ``v & mid``.  Returns, for every context that ``accepted``
    finds accepting some middle, the middles it holds, each mapped to the
    member's position in the slice, and the middles it accepts."""
    mids: dict[int, dict[int, int]] = {}
    for pos, v in enumerate(packed):
        mids.setdefault(v & keep, {})[v & mid] = pos
    acc = accepted(mids)
    return {c: mids[c] for c in acc}, acc
