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
from math import isqrt
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
    t: int
    letters: tuple[int, ...]
    blocks: tuple[tuple[int, bool], ...]


def _natural(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class PositionMap(_MapFields):
    """A slice read off one choice word through a fixed position map.

    The member for a choice word ``w`` (of length ``t`` over ``letters``)
    is the concatenation of the blocks, each of length ``t``: block ``b``
    with ``(scale, mirrored)`` reads ``scale * w[q]`` at offset ``o``,
    where q is ``o``, or ``t - 1 - o`` in a mirrored block.  So every
    position p reads one choice index ``index[p]``, and distinct choice
    letters give distinct letters there.

    The maps of L2 and L2_2 are :meth:`l2` and :meth:`l2_2`; each starts
    with a plain, unscaled block over sorted letters, so choice-word order
    is canonical order.

    The map is checked as it is built: t >= 1, the letters sorted,
    distinct and >= 1, and at least one block, each a (scale >= 1,
    mirrored) pair; a bad map raises ``WordError``.
    """

    __slots__ = ()

    def __new__(cls, t, letters, blocks):
        if not _natural(t) or t < 1:
            raise WordError(f"a position map needs an int t >= 1, got {t!r}")
        try:
            letters = tuple(letters)
            blocks = tuple((scale, mirrored) for scale, mirrored in blocks)
        except (TypeError, ValueError):
            raise WordError(
                f"a position map needs letters and (scale, mirrored) blocks, got {letters!r}, {blocks!r}"
            ) from None
        if not letters or not all(_natural(a) and a >= 1 for a in letters):
            raise WordError(f"a position map needs letters that are ints >= 1, got {letters!r}")
        if any(a >= b for a, b in zip(letters, letters[1:])):
            raise WordError(f"a position map needs sorted, distinct letters, got {letters!r}")
        if not blocks:
            raise WordError("a position map needs at least one block")
        for scale, mirrored in blocks:
            if not _natural(scale) or scale < 1 or not isinstance(mirrored, bool):
                raise WordError(
                    f"a block needs an int scale >= 1 and a bool mirror flag, got {(scale, mirrored)!r}"
                )
        return tuple.__new__(cls, (t, letters, blocks))

    # _replace builds through _make, so it is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def _trusted(cls, t: int, letters: tuple[int, ...], blocks: tuple[tuple[int, bool], ...]):
        """The internal constructor, for maps already known to be valid."""
        return tuple.__new__(cls, (t, letters, blocks))

    @classmethod
    def l2(cls, n: int) -> Optional[PositionMap]:
        """L2 at n = 4t: w, (w^R)*3, w*15, (w^R)*5 over {1, 2}; None off that grid."""
        if n < 4 or n % 4:
            return None
        return cls._trusted(n // 4, (1, 2), ((1, False), (3, True), (15, False), (5, True)))

    @classmethod
    def l2_2(cls, n: int) -> Optional[PositionMap]:
        """L2_2 at n = 2t: y, (y^R)*5 over {1, 2, 3, 6}; None off that grid."""
        if n < 2 or n % 2:
            return None
        return cls._trusted(n // 2, (1, 2, 3, 6), ((1, False), (5, True)))

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
        return _reader(self)(choice)

    def members(self) -> tuple[Word, ...]:
        """Every member, in choice-word order over ``letters``: canonical order."""
        return tuple(map(Word._trusted, map(_reader(self), product(self.letters, repeat=self.t))))

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


@lru_cache(maxsize=64)
def _reader(pmap: PositionMap) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    # the one reader, built once per map: position p reads index[p] times its
    # block's scale; itemgetter of one index gives the bare letter, not a tuple
    index = pmap.index
    pick = itemgetter(*index) if len(index) > 1 else lambda choice: (choice[index[0]],)
    scales = [k for k, _ in pmap.blocks for _ in range(pmap.t)]
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
            raise WordError(
                f"track lengths differ: {len(self.top)} vs {len(self.bottom)}"
            )

    def __len__(self) -> int:
        return len(self.top)

    def fused(self) -> Word:
        """The single-track view: one paired letter per position."""
        return Word._trusted(fuse_tracks(self.top.letters, self.bottom.letters))

    @classmethod
    def from_fused(cls, w: Word) -> "TrackedWord":
        pairs = [split_letter(a) for a in w.letters]
        return cls(
            Word._trusted(tuple(p[0] for p in pairs)), Word._trusted(tuple(p[1] for p in pairs))
        )

