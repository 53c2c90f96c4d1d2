"""Pumping machinery: decomposition extraction from CYK parse trees and
refutation of claimed inclusions ``L(G)`` inside a predicate.

Refutation is a semi-decision: a returned witness is replayed through CYK
and the predicate before it leaves this module, while exhausting the search
without a witness is an honest ``Inconclusive`` outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .grammars import (
    Cfg,
    CnfGrammar,
    cyk_derivation,
    cyk_member,
    pumping_constant,
    to_cnf,
)
from .guards import InvariantError, check_budget
from .words import Word


@dataclass(frozen=True)
class PumpWitness:
    """A refutation certificate: a member of L(G), its pumping
    decomposition, the pumped variants (all confirmed in L(G)), and the
    first variant on which the predicate fails; a malformed one is an
    internal fault and raises ``InvariantError``."""

    z: Word
    u: Word
    v: Word
    w: Word
    x: Word
    y: Word
    pumped: tuple[tuple[int, Word], ...]
    violating: tuple[int, Word]

    def __post_init__(self) -> None:
        if self.u + self.v + self.w + self.x + self.y != self.z:
            raise InvariantError("decomposition does not reassemble the pumped word")
        if len(self.v) + len(self.x) == 0:
            raise InvariantError("the pumped segments may not both be empty")

    def pump(self, times: int) -> Word:
        return _pump((self.u, self.v, self.w, self.x, self.y), times)

    def to_json(self) -> dict:
        return {
            "z": self.z.to_json(),
            "u": self.u.to_json(),
            "v": self.v.to_json(),
            "w": self.w.to_json(),
            "x": self.x.to_json(),
            "y": self.y.to_json(),
            "pumped": [[i, w.to_json()] for i, w in self.pumped],
            "violating": [self.violating[0], self.violating[1].to_json()],
        }


@dataclass(frozen=True)
class Inconclusive:
    """No refutation found within the search bound; carries how many
    qualifying members were examined."""

    examined: int


RefuteOutcome = Union[PumpWitness, Inconclusive]

# the exponents a refutation pumps each decomposition with, in order; each
# variant is replayed through CYK by find_decomposition
PUMP_EXPONENTS = (0, 2, 3, 4)
# the chart cells a refutation may charge: n(n+1)/2 for every candidate of
# length n, an upper bound on the (start, end) pairs its chart can fill
REFUTE_CELL_LIMIT = 10_000_000


def _pump(parts: tuple[Word, Word, Word, Word, Word], times: int) -> Word:
    """u v^times w x^times y for the decomposition ``parts`` = (u, v, w, x, y)."""
    u, v, w, x, y = parts
    return u + v * times + w + x * times + y


def find_decomposition(
    g: CnfGrammar, z: Word, *, path: Optional[list[tuple[str, int, int]]] = None
) -> tuple[tuple[Word, Word, Word, Word, Word], tuple[tuple[int, Word], ...]]:
    """Extract a pumping decomposition z = u v w x y from the parse tree.

    A path of maximal-yield descent must repeat a nonterminal within its
    lowest ``|V| + 1`` nodes; the lowest such repeat is taken, which bounds
    the midsection by the pumping constant and leaves at least one pumped
    letter.  Returns the parts (u, v, w, x, y) and the (exponent, variant)
    pairs for :data:`PUMP_EXPONENTS`, each variant replayed through CYK
    first.  A caller that already holds z's
    :func:`~langlab.grammars.cyk_derivation` path passes it as ``path``.
    """
    p = pumping_constant(g)
    if len(z) < p:
        raise ValueError(f"word of length {len(z)} is below the pumping constant {p}")
    if path is None:
        path = cyk_derivation(g, z)
    if path is None:
        raise ValueError("the word is not in the grammar's language")
    seen: dict[str, tuple[str, int, int]] = {}
    upper = lower = None
    for node in reversed(path):
        label = node[0]
        if label in seen:
            lower = seen[label]
            upper = node
            break
        seen[label] = node
    if upper is None or lower is None:
        raise InvariantError("no repeated nonterminal on the derivation path")
    _, ui, ul = upper
    _, li, ll = lower
    parts = (z[:ui], z[ui:li], z[li : li + ll], z[li + ll : ui + ul], z[ui + ul :])
    _, v, w, x, _ = parts
    if len(v) + len(x) < 1 or len(v) + len(w) + len(x) > p:
        raise InvariantError("extracted decomposition violates the pumping bounds")
    pumped = tuple((times, _pump(parts, times)) for times in PUMP_EXPONENTS)
    for times, variant in pumped:
        if not cyk_member(g, variant):
            raise InvariantError(f"pumping with exponent {times} left the language")
    return parts, pumped


def refute_subset(
    g: Cfg,
    predicate: Callable[[Word], bool],
    search_len: int,
    *,
    generator: Callable[[int], tuple[Word, ...]],
    size: Callable[[int], int],
) -> RefuteOutcome:
    """Search for a pumping refutation of "L(g) is contained in the
    predicate".

    The candidates are the predicate's members of each length n from the
    pumping constant p up to ``search_len``, taken from ``generator(n)``,
    which must give every member of length n over g's terminals, in
    canonical order; ``size(n)`` is how many words it gives.  Each candidate
    costs one CYK chart, which also keeps only the members of L(g); every
    candidate's chart is charged n(n+1)/2 cells against
    :data:`REFUTE_CELL_LIMIT` before any is generated, length by length
    until the charge passes the limit.  A chart fills only the (start, end)
    pairs that some nonterminal derives, so the charge bounds that work
    from above rather than counting it.  A kept candidate is replayed
    through the predicate and decomposed by :func:`find_decomposition`,
    whose four more charts, one per pumped variant, the charge does not
    count; the first variant the predicate rejects makes a witness, which
    certifies the non-inclusion.  Running out of candidates is inconclusive.
    """
    cnf = to_cnf(g)
    p = pumping_constant(cnf)
    if search_len < p:
        raise ValueError(f"search_len must reach the pumping constant {p}")
    cells = 0
    for n in range(p, search_len + 1):
        cells += size(n) * n * (n + 1) // 2
        if cells > REFUTE_CELL_LIMIT:
            break
    check_budget(cells, REFUTE_CELL_LIMIT, "pumping refutation charts")
    examined = 0
    for n in range(p, search_len + 1):
        for z in generator(n):
            path = cyk_derivation(cnf, z)
            if path is None:
                continue
            if len(z) != n or not predicate(z):
                raise InvariantError(
                    f"the generator gave {z!r} at length {n}, which is no member there"
                )
            examined += 1
            parts, pumped = find_decomposition(cnf, z, path=path)
            violating = next(((times, c) for times, c in pumped if not predicate(c)), None)
            if violating is not None:
                return PumpWitness(z, *parts, pumped=pumped, violating=violating)
    return Inconclusive(examined=examined)
