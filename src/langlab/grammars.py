"""Context-free grammars: CNF conversion, CYK membership, bounded
enumeration, and a minimal total-DFA engine.

Grammar text format, one production per line (a head may repeat)::

    S -> W X | '1' S '3' | ()
    W -> 'a' W 'b'      # quoted tokens are terminals, () is the empty word

Unquoted tokens are nonterminals; quoted tokens are terminals given as a
decimal letter or a symbol-table name; the first head is the start symbol;
``#`` outside quotes starts a comment.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence, Union

from .guards import CostGuardError, InvariantError
from .words import SYMBOL_TABLE, Word, is_letter

Symbol = Union[str, int]  # str = nonterminal, int = terminal letter
Body = tuple[Symbol, ...]
Production = tuple[str, Body]


class GrammarError(ValueError):
    """A grammar, production, or grammar file is malformed."""


class AutomatonError(ValueError):
    """A DFA is not total, or was run on a letter outside its alphabet."""


def _symbol_key(s: Symbol) -> tuple[int, object]:
    return (1, s) if isinstance(s, int) else (0, s)


def _production_key(p: Production) -> tuple:
    head, body = p
    return (head, len(body), tuple(_symbol_key(s) for s in body))


@dataclass(frozen=True)
class Cfg:
    """A context-free grammar over numeric terminal letters.

    Nonterminals are strings, terminals are ints, so the two namespaces are
    disjoint by construction.  Productions are kept deduplicated in a
    canonical order, making equal grammars compare equal.
    """

    nonterminals: frozenset[str]
    terminals: frozenset[int]
    productions: tuple[Production, ...]
    start: str

    def __post_init__(self) -> None:
        canon = tuple(sorted({(h, tuple(b)) for h, b in self.productions}, key=_production_key))
        object.__setattr__(self, "productions", canon)
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        for t in self.terminals:
            if not is_letter(t):
                raise GrammarError(f"terminals must be ints >= 0, got {t!r}")
        for head, body in self.productions:
            if head not in self.nonterminals:
                raise GrammarError(f"undeclared head {head!r}")
            for s in body:
                if isinstance(s, str):
                    if s not in self.nonterminals:
                        raise GrammarError(f"undeclared nonterminal {s!r} in body of {head}")
                elif not is_letter(s) or s not in self.terminals:
                    raise GrammarError(f"undeclared terminal {s!r} in body of {head}")

    @classmethod
    def from_rules(cls, start: str, rules: Mapping[str, Sequence[Sequence[Symbol]]]) -> "Cfg":
        """Build a grammar from ``{head: [body, ...]}``, inferring symbol sets."""
        nonterminals = set(rules)
        terminals = set()
        productions = []
        for head, bodies in rules.items():
            for body in bodies:
                body = tuple(body)
                terminals.update(s for s in body if isinstance(s, int))
                productions.append((head, body))
        return cls(frozenset(nonterminals), frozenset(terminals), tuple(productions), start)


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == "'":
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def parse_grammar(text: str, symtab: Mapping[str, int] = SYMBOL_TABLE) -> Cfg:
    """Parse the grammar text format; the first head is the start symbol."""
    rules: dict[str, list[Body]] = {}
    start = None
    heads = set()
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "->" not in line:
            raise GrammarError(f"missing '->' in line {raw!r}")
        head_part, body_part = line.split("->", 1)
        head = head_part.strip()
        if not head or " " in head or head.startswith("'"):
            raise GrammarError(f"bad production head {head_part!r}")
        heads.add(head)
        if start is None:
            start = head
        for alt in body_part.split("|"):
            tokens = alt.split()
            if not tokens:
                raise GrammarError(f"empty alternative in line {raw!r} (use '()' for the empty word)")
            if tokens == ["()"]:
                rules.setdefault(head, []).append(())
                continue
            body: list[Symbol] = []
            for tok in tokens:
                if tok == "()":
                    raise GrammarError("'()' cannot be mixed with other symbols")
                if tok.startswith("'") and tok.endswith("'") and len(tok) >= 3:
                    name = tok[1:-1]
                    if name.isdecimal():
                        body.append(int(name))
                    elif name in symtab:
                        body.append(symtab[name])
                    else:
                        raise GrammarError(f"unknown terminal name {name!r}")
                elif tok.startswith("'") or tok.endswith("'"):
                    raise GrammarError(f"unbalanced quotes in token {tok!r}")
                else:
                    body.append(tok)
            rules.setdefault(head, []).append(tuple(body))
    if start is None:
        raise GrammarError("empty grammar text")
    for head, bodies in rules.items():
        for body in bodies:
            for s in body:
                if isinstance(s, str) and s not in heads:
                    raise GrammarError(f"nonterminal {s!r} has no productions")
    return Cfg.from_rules(start, rules)


def grammar_text(g: Cfg) -> str:
    """Serialize a grammar back into the text format (start symbol first)."""
    by_head: dict[str, list[Body]] = defaultdict(list)
    for head, body in g.productions:
        by_head[head].append(body)
    order = [g.start] + sorted(h for h in by_head if h != g.start)
    lines = []
    for head in order:
        if head not in by_head:
            continue
        alts = []
        for body in by_head[head]:
            if not body:
                alts.append("()")
            else:
                alts.append(" ".join(f"'{s}'" if isinstance(s, int) else s for s in body))
        lines.append(f"{head} -> {' | '.join(alts)}")
    return "\n".join(lines) + "\n"


def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    k = 1
    while name in used:
        k += 1
        name = f"{base}{k}"
    used.add(name)
    return name


def _nullable_set(productions: Iterable[Production]) -> set[str]:
    # found holds names only, so a body with a terminal never joins
    found: set[str] = set()
    while new := {h for h, b in productions if h not in found and found.issuperset(b)}:
        found |= new
    return found


def _generating_set(productions: Iterable[Production]) -> set[str]:
    found: set[str] = set()
    while new := {
        h for h, b in productions if h not in found and all(isinstance(s, int) or s in found for s in b)
    }:
        found |= new
    return found


def _reachable_set(productions: Iterable[Production], start: str) -> set[str]:
    found = {start}
    while new := {s for h, b in productions if h in found for s in b if isinstance(s, str)} - found:
        found |= new
    return found


@dataclass(frozen=True)
class CnfGrammar:
    """A grammar in Chomsky normal form.

    Productions are split into ``binary`` triples ``(A, B, C)`` and
    ``lexical`` pairs ``(A, a)``.  Whether the empty word belongs to the
    language is carried by the ``empty`` flag (the start symbol then never
    occurs on a right-hand side), so CYK stays uniform for all lengths >= 1.
    """

    nonterminals: frozenset[str]
    terminals: frozenset[int]
    binary: tuple[tuple[str, str, str], ...]
    lexical: tuple[tuple[str, int], ...]
    start: str
    empty: bool = False
    # The CYK encoding, read only by this module: the k-th nonterminal of
    # ``_names`` (name order) has index ``k``; ``_start`` is the start
    # symbol's index; ``_lexicon`` maps a letter to the indices of its heads;
    # ``_right[b]`` groups the binary bodies ``B C`` with left child ``b`` as
    # ``(c, heads)`` pairs sorted by ``c``, ``heads`` the indices of the
    # ``A`` with ``A -> B C``, so that walking ``b`` then ``c`` upward meets
    # the bodies of one head in ``binary`` order.
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _start: int = field(init=False, repr=False, compare=False)
    _lexicon: Mapping[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _right: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "binary", tuple(sorted(set(self.binary))))
        object.__setattr__(self, "lexical", tuple(sorted(set(self.lexical))))
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        for t in self.terminals:
            if not is_letter(t):
                raise GrammarError(f"terminals must be ints >= 0, got {t!r}")
        for a, b, c in self.binary:
            for s in (a, b, c):
                if s not in self.nonterminals:
                    raise GrammarError(f"undeclared nonterminal {s!r}")
            if self.empty and self.start in (b, c):
                raise GrammarError("the start of a grammar deriving the empty word may not occur in a body")
        for a, t in self.lexical:
            if a not in self.nonterminals:
                raise GrammarError(f"undeclared nonterminal {a!r}")
            if not is_letter(t) or t not in self.terminals:
                raise GrammarError(f"undeclared terminal {t!r}")
        names = tuple(sorted(self.nonterminals))
        index = {a: k for k, a in enumerate(names)}
        lexicon: dict[int, list[int]] = defaultdict(list)
        for a, t in self.lexical:
            lexicon[t].append(index[a])
        heads: list[dict[int, list[int]]] = [defaultdict(list) for _ in names]
        for a, b, c in self.binary:
            heads[index[b]][index[c]].append(index[a])
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_start", index[self.start])
        object.__setattr__(self, "_lexicon", {t: tuple(ks) for t, ks in lexicon.items()})
        object.__setattr__(
            self, "_right", tuple(tuple((c, tuple(ks)) for c, ks in sorted(r.items())) for r in heads)
        )


def pumping_constant(g: CnfGrammar) -> int:
    """2 to the number of nonterminals: every longer member pumps."""
    return 2 ** len(g.nonterminals)


def to_cnf(g: Cfg) -> CnfGrammar:
    """Convert a grammar to Chomsky normal form.

    Stage order: prune useless symbols, split off a fresh start symbol when
    needed, eliminate empty productions, eliminate unit productions, break
    long bodies into binary ones, wrap terminals left inside binary bodies,
    prune again.  An empty language yields a CNF grammar with no
    productions at all.
    """
    used = set(g.nonterminals)
    prods = set(g.productions)
    start = g.start

    generating = _generating_set(prods)
    if start not in generating:
        return CnfGrammar(frozenset({start}), g.terminals, (), (), start, False)
    prods = {
        (h, b)
        for h, b in prods
        if h in generating and all(isinstance(s, int) or s in generating for s in b)
    }
    reachable = _reachable_set(prods, start)
    prods = {(h, b) for h, b in prods if h in reachable}

    nullable = _nullable_set(prods)
    empty = start in nullable
    if empty and any(start in b for _, b in prods):
        s0 = _fresh_name("S0", used)
        prods.add((s0, (start,)))
        start = s0
        nullable.add(s0)

    # empty-production elimination: drop any subset of nullable positions
    expanded: set[Production] = set()
    for head, body in prods:
        options = [
            ((s,), ()) if isinstance(s, str) and s in nullable else ((s,),) for s in body
        ]
        for choice in itertools.product(*options):
            new_body = tuple(s for part in choice for s in part)
            if new_body:
                expanded.add((head, new_body))
    prods = expanded

    # unit-production elimination via unit-pair closure
    unit_edges: dict[str, set[str]] = defaultdict(set)
    for head, body in prods:
        if len(body) == 1 and isinstance(body[0], str):
            unit_edges[head].add(body[0])
    closed: set[Production] = set()
    heads = {h for h, _ in prods} | {start}
    for a in heads:
        seen = {a}
        stack = [a]
        while stack:
            b = stack.pop()
            for c in unit_edges.get(b, ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        for b in seen:
            for head, body in prods:
                if head == b and not (len(body) == 1 and isinstance(body[0], str)):
                    closed.add((a, body))
    prods = closed

    # long bodies -> binary chains
    binary_prods: set[Production] = set()
    for head, body in sorted(prods, key=_production_key):
        while len(body) > 2:
            rest = _fresh_name(f"{head}.", used)
            binary_prods.add((head, (body[0], rest)))
            head, body = rest, body[1:]
        binary_prods.add((head, body))
    prods = binary_prods

    # terminals inside binary bodies -> wrapper nonterminals
    wrappers: dict[int, str] = {}
    final: set[Production] = set()
    for head, body in sorted(prods, key=_production_key):
        if len(body) == 2:
            new_body = []
            for s in body:
                if isinstance(s, int):
                    if s not in wrappers:
                        wrappers[s] = _fresh_name(f"T{s}", used)
                        final.add((wrappers[s], (s,)))
                    new_body.append(wrappers[s])
                else:
                    new_body.append(s)
            final.add((head, tuple(new_body)))
        else:
            final.add((head, body))
    prods = final

    reachable = _reachable_set(prods, start)
    prods = {(h, b) for h, b in prods if h in reachable}
    nonterminals = {start} | {h for h, _ in prods} | {
        s for _, b in prods for s in b if isinstance(s, str)
    }
    binary = tuple((h, b[0], b[1]) for h, b in prods if len(b) == 2)
    lexical = tuple((h, b[0]) for h, b in prods if len(b) == 1)
    return CnfGrammar(frozenset(nonterminals), g.terminals, binary, lexical, start, empty)


def cyk_chart(g: CnfGrammar, w: Word) -> list[list[int]]:
    """The CYK table as end bitsets: ``ends[k][i]`` has bit ``e`` set when
    the k-th nonterminal in name order derives ``w[i:e]``.  Each of the
    ``len(w) + 1`` entries of a row has no bit at or below its offset and
    none above ``len(w)``; the last entry, at offset ``len(w)``, is 0.

    The offsets are closed from the right, so that every entry at an offset
    ``m > i`` is complete when offset ``i`` is filled.  Offset ``i`` starts
    from the lexical heads of ``w[i]`` and keeps a worklist of pairs
    ``(b, m)``, a left child ``b`` deriving ``w[i:m]``.  Popping one ORs,
    for each right child ``c`` of ``b``, the whole bitset ``ends[c][m]``
    into the entry at ``i`` of every head of the body ``b c``, and pushes
    every end that this newly sets for a head that is itself a left
    child.  Each
    (nonterminal, start, end) triple is pushed at most once, so the work
    follows the factors that derive something, not the n(n+1)/2 cells.
    """
    right, lexicon, letters = g._right, g._lexicon, w.letters
    n = len(letters)
    ends = [[0] * (n + 1) for _ in g._names]
    for i in range(n - 1, -1, -1):
        todo = []
        for a in lexicon.get(letters[i], ()):
            ends[a][i] = 1 << (i + 1)
            if right[a]:
                todo.append((a, i + 1))
        while todo:
            b, m = todo.pop()
            for c, heads in right[b]:
                more = ends[c][m]
                if more:
                    for a in heads:
                        row = ends[a]
                        new = more & ~row[i]
                        if new:
                            row[i] |= new
                            if right[a]:
                                while new:
                                    low = new & -new
                                    todo.append((a, low.bit_length() - 1))
                                    new ^= low
    return ends


def _accepted_chart(g: CnfGrammar, w: Word) -> list[list[int]] | None:
    # the chart of a nonempty word that g derives, else None; a word with a
    # letter outside the terminal set is rejected without a chart
    if not g.terminals.issuperset(w.letters):
        return None
    ends = cyk_chart(g, w)
    return ends if ends[g._start][0] >> len(w) & 1 else None


def cyk_member(g: CnfGrammar, w: Word) -> bool:
    """Decide membership; letters outside the terminal set simply fail."""
    return _accepted_chart(g, w) is not None if len(w) else g.empty


def _packing(
    terminals: Iterable[int],
) -> tuple[Callable[[Iterable[int]], bytes | str], Callable[[bytes | str], tuple[int, ...]]]:
    # (pack, unpack) for words over `terminals` stored one code unit a
    # letter, so that a packed word caches its hash and packed words of one
    # length sort by memcmp in the canonical letter order: bytes of the
    # letters themselves when all are below 256, else str code points of
    # their ranks.  Either way every code is below max(256, |terminals|).
    letters = sorted(terminals)
    if not letters or letters[-1] < 256:
        return bytes, tuple
    rank = {a: r for r, a in enumerate(letters)}
    return (lambda ws: "".join(map(chr, map(rank.__getitem__, ws)))), (
        lambda p: tuple(map(letters.__getitem__, map(ord, p)))
    )


def cyk_filter(g: CnfGrammar, words: Sequence[Word]) -> list[Word]:
    """The words of ``words`` that ``g`` derives, in input order, each one
    decided as :func:`cyk_member` decides it: the empty word is kept when
    ``g.empty`` is set, and a word with a letter outside the terminal set
    is dropped without a chart.

    The words are grouped by length, and each length gets one chart for
    all of its words.  A cell maps a nonterminal's index to a word bitset
    whose bit ``k`` is set when the group's k-th word derives that factor
    from it; only nonzero bitsets are kept.  A rule ``A -> B C`` at a split
    then costs one AND of two bitsets for the whole group, and the rules
    are grouped by left child, so a ``B`` absent from the left cell skips
    all of its right children.  A length-n chart has n(n+1)/2 cells of at
    most |N| bitsets each.

    The length-1 cells are built in time linear in the group: its words
    are packed one code unit a letter into one row-major string, so that
    column ``i`` is the stride slice ``text[i::n]``, taken backwards so
    that the k-th word lands on bit k.  A letter's bitset is that column
    translated to ``0``/``1`` (its own code to ``1``) and read with
    ``int(·, 2)``, one pass per column and letter that has lexical heads
    and occurs in the column.
    """
    terminals, start = g.terminals, g._start
    rules = [(b, right) for b, right in enumerate(g._right) if right]
    pack = _packing(terminals)[0]
    unit = {a: pack((a,)) for a in terminals}
    lexicon = [(unit[a], ord(unit[a]), heads) for a, heads in g._lexicon.items()]
    # indexed by code: every code reads as "0" but the one whose bitset is
    # being taken; bytes.translate wants exactly 256 entries, and str codes
    # are ranks, all below len(terminals)
    zeros = bytearray(b"0" * max(256, len(terminals)))
    derived = [False] * len(words)
    groups: dict[int, list[int]] = defaultdict(list)
    for pos, w in enumerate(words):
        letters = w.letters
        if not letters:
            derived[pos] = g.empty
        elif terminals.issuperset(letters):
            groups[len(letters)].append(pos)
    for n, group in groups.items():
        text = pack(itertools.chain.from_iterable(words[pos].letters for pos in group))
        last = len(text) - n
        cells = []
        for i in range(n):
            column = text[last + i :: -n]
            cell: dict[int, int] = defaultdict(int)
            for u, c, heads in lexicon:
                if u in column:
                    zeros[c] = 49
                    bits = int(column.translate(zeros), 2)
                    zeros[c] = 48
                    for x in heads:
                        cell[x] |= bits
            cells.append(cell)
        # chart[l][i] is the cell of the length-l factors at offset i
        chart = [[], cells]
        for l in range(2, n + 1):
            cells = []
            for i in range(n - l + 1):
                cell = defaultdict(int)
                for s in range(1, l):
                    left = chart[s][i]
                    right = chart[l - s][i + s]
                    if not left or not right:
                        continue
                    for b, by_right in rules:
                        lb = left.get(b)
                        if lb:
                            for c, heads in by_right:
                                both = lb & right.get(c, 0)
                                if both:
                                    for a in heads:
                                        cell[a] |= both
                cells.append(cell)
            chart.append(cells)
        top = chart[n][0].get(start, 0)
        for k, pos in enumerate(group):
            if top >> k & 1:
                derived[pos] = True
    return [w for w, kept in zip(words, derived) if kept]


def cyk_derivation(g: CnfGrammar, w: Word) -> list[tuple[str, int, int]] | None:
    """One descent path through a derivation of ``w``, or None if ``w`` is
    not in L(g); a word with letters outside the terminal set is rejected
    without a chart.

    A node ``(label, i, l)`` says that ``label`` derives the length-``l``
    factor at offset ``i``.  From the root ``(start, 0, len(w))``, each node
    takes the first split, then the first rule ``label -> B C`` in
    ``g.binary`` order that the chart admits, and descends into the wider
    child (ties to the left), so each step keeps at least half the factor.
    The path ends at a length-1 node; the empty word's path is its root.

    A node's split is read off the end bitsets: for each rule in turn, the
    set ends ``m`` of ``ends[B][i]`` are tried upward, below the best split
    found so far, until ``C`` derives ``w[m:i+l]``.
    """
    n = len(w)
    if n == 0:
        return [(g.start, 0, 0)] if g.empty else None
    if (ends := _accepted_chart(g, w)) is None:
        return None
    names = g._names
    path = []
    label, i, l = g._start, 0, n
    while True:
        path.append((names[label], i, l))
        if l == 1:
            return path
        e = i + l
        best = e
        for b, by_right in enumerate(g._right):
            for c, heads in by_right:
                if label in heads:
                    splits = ends[b][i] & ((1 << best) - 1)
                    while splits:
                        low = splits & -splits
                        m = low.bit_length() - 1
                        if ends[c][m] >> e & 1:
                            best, left, right = m, b, c
                            break
                        splits ^= low
        if best == e:
            raise InvariantError(f"the chart admits no split of the node {path[-1]}")
        if e - best > best - i:
            label, i, l = right, best, e - best
        else:
            label, l = left, best - i


def _body_words(
    body: Body,
    length: int,
    table: Mapping[str, Sequence[Collection[bytes | str]]],
    pack: Callable[[Iterable[int]], bytes | str],
) -> Iterator[Iterable[bytes | str]]:
    # the packed terminal words of exactly `length` derivable from the body,
    # one iterable per split of `length` among its symbols, given the
    # per-nonterminal, per-length rows computed so far, the current length's
    # included (the looping bodies read it), and the `pack` of their
    # encoding.  Walking back on lengths alone, each symbol gets its
    # (length, row) factors and the totals `rest` that the symbols after it
    # fill exactly; the splits are then listed forward, a symbol taking a
    # factor only if the rest can still make up `length`, and each split's
    # words are joined once each from the product of its rows, so that over
    # sorted rows they come out sorted
    steps = []
    rest = {0}
    for sym in reversed(body):
        if isinstance(sym, int):
            factors = [(1, (pack((sym,)),))]
        else:
            rows = table[sym]
            factors = [(l, rows[l]) for l in range(length + 1) if rows[l]]
        steps.append((factors, rest))
        rest = {l + r for l, _ in factors for r in rest if l + r <= length}
    if length not in rest:
        return
    splits: list[tuple[int, tuple]] = [(0, ())]
    for factors, rest in reversed(steps):
        splits = [
            (ln + l, picked + (row,))
            for ln, picked in splits
            for l, row in factors
            if length - ln - l in rest
        ]
    join = pack(()).join
    for _, picked in splits:
        yield map(join, itertools.product(*picked))


def _reads_own_length(body: Body, nullable: set[str]) -> bool:
    # a looping body: some nonterminal in it has only nullable nonterminals
    # beside it, so it can read a word as long as the body's own; any other
    # body reads only shorter lengths
    return any(
        isinstance(s, str)
        and all(isinstance(t, str) and t in nullable for t in body[:p] + body[p + 1 :])
        for p, s in enumerate(body)
    )


def enumerate_language(g: Cfg, max_len: int, *, budget: int | None = None) -> tuple[Word, ...]:
    """All members of the language up to ``max_len``, in canonical order.

    Runs a bottom-up, length-indexed closure, so it terminates for every
    grammar (cyclic unit chains and empty productions included).  At each
    length every production runs once, and only the looping ones repeat
    until nothing changes.  The optional ``budget`` caps the number of
    stored factor words.

    The closure stores factor words packed (see :func:`_packing`), each
    joined once from a whole split of its length among a body's symbols.
    An open length's rows are dicts; when the length is closed each row is
    sorted into a list, which is cheap, since over sorted shorter rows each
    split's words come out sorted.  Only the start symbol's words become
    Words, one length at a time at the end, already in order.
    """
    if max_len < 0:
        raise GrammarError("max_len must be >= 0")
    pack, unpack = _packing(g.terminals)
    # each nonterminal's rows by length: the open length's row is a dict,
    # its words in insertion order; a closed length's row is a sorted list
    table: dict[str, list] = {a: [] for a in g.nonterminals}
    nullable = _nullable_set(g.productions)
    looping = tuple(p for p in g.productions if _reads_own_length(p[1], nullable))
    chain = itertools.chain.from_iterable
    stored = 0
    for length in range(max_len + 1):
        for rows in table.values():
            rows.append({})
        # every body once, then only the looping ones, until nothing changes
        pending = g.productions
        changed = True
        while changed:
            changed = False
            for head, body in pending:
                # a looping body reads the row it adds to, so all of its
                # words are joined before the row takes them
                rows = table[head]
                before = len(rows[length])
                rows[length].update(dict.fromkeys(chain(_body_words(body, length, table, pack))))
                fresh = len(rows[length]) - before
                if fresh:
                    stored += fresh
                    changed = True
                    if budget is not None and stored > budget:
                        raise CostGuardError(
                            f"enumeration stored more than {budget} factor words"
                        )
            pending = looping
        # over sorted shorter rows each split's words came out sorted, so a
        # closing row is a few sorted runs for the sort to merge
        for rows in table.values():
            rows[length] = sorted(rows[length])
    # each length's row is sorted, shortest first: the canonical order; the
    # other rows go first; the terminals were validated by Cfg, so the words
    # are trusted
    rows = table.pop(g.start)
    del table
    found: list[Word] = []
    for length in range(max_len + 1):
        # popped from the end of the reversed row above a None stop, each
        # packed word is freed as it is unpacked, so that its Word (of the
        # same allocator size class up to 15 letters) can take its place
        packed = rows[length]
        rows[length] = None
        packed.append(None)
        packed.reverse()
        found += map(Word._trusted, map(unpack, iter(packed.pop, None)))
    return tuple(found)


@dataclass(frozen=True)
class Dfa:
    """A deterministic finite automaton with a total transition map."""

    states: frozenset[str]
    alphabet: frozenset[int]
    transitions: Mapping[tuple[str, int], str]
    start: str
    accepting: frozenset[str]
    # the transition map by state, {state: {letter: next}}, read by dfa_run
    _rows: Mapping[str, Mapping[int, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        letters = tuple(self.alphabet)
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "alphabet", frozenset(letters))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "transitions", dict(self.transitions))
        if self.start not in self.states:
            raise AutomatonError(f"start state {self.start!r} is not a state")
        if not self.accepting <= self.states:
            raise AutomatonError("accepting states must be states")
        # the letters as given: in the alphabet set, True would merge into 1
        for a in letters:
            if not is_letter(a):
                raise AutomatonError(f"alphabet letters must be ints >= 0, got {a!r}")
        for (q, a), r in self.transitions.items():
            if q not in self.states or r not in self.states or not is_letter(a) or a not in self.alphabet:
                raise AutomatonError(f"bad transition ({q!r}, {a!r}) -> {r!r}")
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.transitions:
                    raise AutomatonError(f"transition map is not total: missing ({q!r}, {a!r})")
        rows: dict[str, dict[int, str]] = {q: {} for q in self.states}
        for (q, a), r in self.transitions.items():
            rows[q][a] = r
        object.__setattr__(self, "_rows", rows)


def dfa_run(m: Dfa, state: str, w: Word) -> str:
    """Fold the automaton's rows over ``w`` starting in ``state``.

    A letter outside the alphabet is an error: totality is part of the
    automaton's contract, so a foreign letter signals a misbuilt machine.
    """
    rows = m._rows
    if state not in rows:
        raise AutomatonError(f"unknown state {state!r}")
    try:
        for a in w.letters:
            state = rows[state][a]
    except KeyError:
        # every row is total over the alphabet, so only the letter can miss
        raise AutomatonError(f"letter {a} is outside the automaton's alphabet") from None
    return state


def dfa_accepts(m: Dfa, w: Word) -> bool:
    return dfa_run(m, m.start, w) in m.accepting


def dfa_from_json(doc: Mapping) -> Dfa:
    """Load a DFA from ``{states, alphabet, start, accepting, transitions}``
    where transitions is a list of ``[state, letter, state]`` triples."""
    try:
        return Dfa(
            states=frozenset(doc["states"]),
            alphabet=doc["alphabet"],
            transitions={(q, a): r for q, a, r in doc["transitions"]},
            start=doc["start"],
            accepting=frozenset(doc["accepting"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, AutomatonError):
            raise
        raise AutomatonError(f"malformed DFA document: {exc}") from exc
