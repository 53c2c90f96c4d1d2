"""Words over natural-number letters, scaling, track fusion and position maps.

A letter is a plain ``int >= 0``.  Ordinary language letters are >= 1;
letter 0 is the reserved padding/filler letter of advice tracks (it also
doubles as the digit symbol ``0`` of binary alphabets).  Symbolic alphabets
map to numeric letters through :data:`SYMBOL_TABLE`.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import product
from math import isqrt, prod
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional


class WordError(ValueError):
    """A letter or word violates an operation's contract."""


#: Published mapping from conventional symbols to numeric letters: digits map
#: to themselves, ``a``/``b``/``c`` are the first three letters, ``#`` is the
#: palindrome centre marker.
SYMBOL_TABLE: dict[str, int] = {
    "0": 0,
    "1": 1,
    "2": 2,
    "a": 1,
    "b": 2,
    "c": 3,
    "#": 4,
}


@total_ordering
class Word:
    """An immutable finite sequence of natural-number letters.

    Words are value objects: equal exactly when their letters agree,
    hashable, and totally ordered by length first, then lexicographically
    by letter value.  That order is the canonical order of every
    enumeration in this package.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[int] = ()) -> None:
        tup = tuple(letters)
        for a in tup:
            if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                raise WordError(f"letters must be ints >= 0, got {a!r}")
        self._letters = tup

    @classmethod
    def _trusted(cls, letters: tuple[int, ...]) -> "Word":
        """Wrap a tuple whose letters are already known to be ints >= 0.

        The internal constructor: words built from the letters of other
        words, or from constant letters, skip the per-letter check that
        the public constructor makes at the boundary.
        """
        w = object.__new__(cls)
        w._letters = letters
        return w

    @classmethod
    def of(cls, *letters: int) -> "Word":
        return cls(letters)

    @property
    def letters(self) -> tuple[int, ...]:
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self._letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word._trusted(self._letters[index])
        return self._letters[index]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._trusted(self._letters + other._letters)

    def __mul__(self, times: int) -> "Word":
        if not isinstance(times, int) or times < 0:
            raise WordError(f"repeat count must be an int >= 0, got {times!r}")
        return Word._trusted(self._letters * times)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._letters == other._letters

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return (len(self._letters), self._letters) < (len(other._letters), other._letters)

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"Word.of({', '.join(map(str, self._letters))})"

    def to_json(self) -> list[int]:
        return list(self._letters)

    def text(self) -> str:
        return " ".join(map(str, self._letters))


EMPTY_WORD = Word()


def parse_word(source: str, symtab: Mapping[str, int] = SYMBOL_TABLE) -> Word:
    """Parse a word from comma- or whitespace-separated letter tokens.

    A token is either a decimal letter or a name resolved through the
    symbol table; an empty source yields the empty word.
    """
    tokens = [t for t in re.split(r"[,\s]+", source.strip()) if t]
    letters = []
    for tok in tokens:
        if tok.isdigit():
            letters.append(int(tok))
        elif tok in symtab:
            letters.append(symtab[tok])
        else:
            raise WordError(f"unknown letter token {tok!r}")
    return Word(letters)


def scale(w: Word, c: int) -> Word:
    """Multiply every letter of ``w`` by ``c`` (positionwise scaling).

    Both the factor and every letter must be >= 1: scaling a padding
    letter, or scaling by 0, would land on the reserved letter 0.
    """
    if not isinstance(c, int) or c < 1:
        raise WordError(f"scale factor must be an int >= 1, got {c!r}")
    if any(a < 1 for a in w.letters):
        raise WordError("scale is only defined on words with letters >= 1")
    return Word._trusted(tuple(c * a for a in w.letters))


def reverse(w: Word) -> Word:
    return Word._trusted(w.letters[::-1])


class _MapFields(NamedTuple):
    reads: tuple[tuple[int, int], ...]
    alphabets: tuple[tuple[int, ...], ...]


class PositionMap(_MapFields):
    """A slice read off choice words through a fixed position map.

    A choice word picks one letter from each index's sorted alphabet
    ``alphabets[x]``, and position p, which reads ``reads[p] = (x, scale)``,
    spells ``scale * choice[x]``.  A constant letter is an index with a
    one-letter alphabet.  The indices are first read in the order 0, 1, 2,
    ..., so choice-word order is canonical order.

    The map is checked as it is built: at least one read, each an int
    index and an int scale >= 1; each alphabet nonempty, sorted, distinct
    and >= 0; every index read, first in the order 0, 1, 2, ....  A bad
    map raises ``WordError``.
    """

    __slots__ = ()

    def __new__(cls, reads, alphabets):
        try:
            reads = tuple((x, scale) for x, scale in reads)
            alphabets = tuple(map(tuple, alphabets))
        except (TypeError, ValueError):
            raise WordError(
                f"a position map needs (index, scale) reads and alphabets, got {reads!r}, {alphabets!r}"
            ) from None
        if not reads:
            raise WordError("a position map needs at least one read")
        # types in bulk, so that True or 1.0 cannot pass as an equal int
        if not {type(v) for read in reads for v in read} <= {int} or min(s for _, s in reads) < 1:
            bad = next(r for r in reads if {type(r[0]), type(r[1])} != {int} or r[1] < 1)
            raise WordError(f"a read needs an int index and an int scale >= 1, got {bad!r}")
        if not {type(a) for letters in alphabets for a in letters} <= {int}:
            raise WordError(f"an alphabet needs letters that are ints >= 0, got {alphabets!r}")
        for letters in set(alphabets):
            if not letters or letters[0] < 0 or any(a >= b for a, b in zip(letters, letters[1:])):
                raise WordError(f"an alphabet needs sorted, distinct letters >= 0, got {letters!r}")
        first = list(dict.fromkeys(x for x, _ in reads))
        if first != list(range(len(alphabets))):
            raise WordError(
                f"the {len(alphabets)} choice indices must each be read, first in the order "
                f"0, 1, 2, ...; they are first read in the order {first}"
            )
        return tuple.__new__(cls, (reads, alphabets))

    # _replace builds through _make, so it is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    @lru_cache(maxsize=64)
    def l2(cls, n: int) -> Optional[PositionMap]:
        """The map of :meth:`MapRuns.l2`, built once per n; None off its grid."""
        return next((runs.map() for runs in MapRuns.l2(n)), None)

    @property
    def n(self) -> int:
        return len(self.reads)

    @property
    def size(self) -> int:
        return prod(map(len, self.alphabets))

    def word(self, choice: tuple[int, ...]) -> tuple[int, ...]:
        """The letters of the member for the choice word ``choice``."""
        return _reader(self)(choice)

    def members(self) -> tuple[Word, ...]:
        """Every member, in choice-word order: canonical order."""
        return tuple(map(Word._trusted, map(_reader(self), product(*self.alphabets))))

    def distinct(self, j: int) -> list[int]:
        """For every window start i, how many distinct factors the
        positions [i, i + j) spell, by one sliding window: the product of
        the alphabet sizes of the indices it reads.  The members with one
        factor there agree on exactly those indices, so each factor occurs
        in ``size`` over that many members.
        """
        sizes = list(map(len, self.alphabets))
        index = [x for x, _ in self.reads]
        held = [0] * len(sizes)
        d = 1
        out: list[int] = []
        for k, x in enumerate(index):
            if not held[x]:
                d *= sizes[x]
            held[x] += 1
            if k >= j:
                y = index[k - j]
                held[y] -= 1
                if not held[y]:
                    d //= sizes[y]
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
        inside it.  With ``out`` the product of the alphabet sizes of the
        indices read only outside, and ``inside`` that of the indices read
        only inside, that makes size * out * (inside - 1) ordered pairs.
        Both products change one position at a time as j grows.
        """
        sizes = list(map(len, self.alphabets))
        index = [x for x, _ in self.reads]
        per_index = Counter(index)
        size, n = self.size, self.n
        for i in range(n):
            held = [0] * len(sizes)
            out, inside = size, 1
            for k in range(i, n):
                x = index[k]
                held[x] += 1
                if held[x] == 1:
                    out //= sizes[x]
                if held[x] == per_index[x]:
                    inside *= sizes[x]
                yield i, k - i + 1, size * out * (inside - 1)


class MapRuns(NamedTuple):
    """A position map in run form, sized off its index runs before any
    read is built: ``(alphabet, count)`` runs of consecutive indices, and
    ``(first, count, step, scale)`` runs of positions, the k-th reading
    index ``first + k * step``.  :meth:`map` spells out and checks the map.
    """

    indices: tuple[tuple[tuple[int, ...], int], ...]
    positions: tuple[tuple[int, int, int, int], ...]

    @property
    def size(self) -> int:
        return prod(len(letters) ** count for letters, count in self.indices)

    @lru_cache(maxsize=64)
    def map(self) -> PositionMap:
        # built once per run form: corpus slices and generators rebuild the same maps
        runs = self.positions
        reads = [(first + k * step, scale) for first, count, step, scale in runs for k in range(count)]
        return PositionMap(reads, [letters for letters, count in self.indices for _ in range(count)])

    @classmethod
    def l2(cls, n: int) -> tuple[MapRuns, ...]:
        """L2 at n = 4t, one map: w, (w^R)*3, w*15, (w^R)*5 over {1, 2}, in
        runs that read the t indices of w forwards and backwards by turns."""
        if n < 4 or n % 4:
            return ()
        t = n // 4
        return (cls((((1, 2), t),), ((0, t, 1, 1), (t - 1, t, -1, 3), (0, t, 1, 15), (t - 1, t, -1, 5))),)


@lru_cache(maxsize=64)
def _reader(pmap: PositionMap) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    # the one reader, built once per map: position p reads its index's choice
    # letter times its scale; itemgetter of one index gives the bare letter
    index = [x for x, _ in pmap.reads]
    pick = itemgetter(*index) if len(index) > 1 else lambda choice: (choice[index[0]],)
    scales = [scale for _, scale in pmap.reads]
    return lambda choice: tuple(map(mul, scales, pick(choice)))


def nest_l2(w: Word) -> Word:
    """Expand a nonempty word over {1, 2} into its four-block nesting.

    The member of :meth:`PositionMap.l2` for the choice word ``w``: ``w``,
    then ``reverse(w)``, ``w`` and ``reverse(w)`` scaled by 3, 15 and 5.
    """
    if len(w) == 0:
        raise WordError("nesting needs a nonempty word")
    t = w.letters
    if any(a not in (1, 2) for a in t):
        raise WordError("nesting is only defined over the letters {1, 2}")
    return Word._trusted(PositionMap.l2(4 * len(t)).word(t))


def fuse_tracks(top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[int, ...]:
    """Cantor-pair two equal-length tuples of letters >= 0 positionwise.

    The one statement of the pairing: letter pair (t, b) becomes
    (t + b)(t + b + 1)/2 + b.  The letters are trusted; tracks of
    different lengths raise ``ValueError``.
    """
    return tuple([(t + b) * (t + b + 1) // 2 + b for t, b in zip(top, bottom, strict=True)])


def fuse_letter(top: int, bottom: int) -> int:
    """Encode a two-track letter pair as one letter (Cantor pairing)."""
    if top < 0 or bottom < 0:
        raise WordError("track letters must be >= 0")
    return fuse_tracks((top,), (bottom,))[0]


def split_letter(code: int) -> tuple[int, int]:
    """Invert :func:`fuse_letter`."""
    if code < 0:
        raise WordError("fused letters are >= 0")
    s = (isqrt(8 * code + 1) - 1) // 2
    bottom = code - s * (s + 1) // 2
    return s - bottom, bottom


@dataclass(frozen=True)
class TrackedWord:
    """Equal-length pair of words fused positionwise: input over advice."""

    top: Word
    bottom: Word

    def __post_init__(self) -> None:
        if len(self.top) != len(self.bottom):
            raise WordError(f"track lengths differ: {len(self.top)} vs {len(self.bottom)}")

    def __len__(self) -> int:
        return len(self.top)

    @classmethod
    def from_fused(cls, w: Word) -> "TrackedWord":
        pairs = [split_letter(a) for a in w.letters]
        return cls(
            Word._trusted(tuple(p[0] for p in pairs)), Word._trusted(tuple(p[1] for p in pairs))
        )

