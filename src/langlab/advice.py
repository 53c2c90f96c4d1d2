"""Advised membership: parallel (track) and serial (prepended) advice,
the serial-to-parallel conversion for regular inner languages, and the
self-delimiting pair code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

from .grammars import AutomatonError, Cfg, Dfa, cyk_member, dfa_accepts, dfa_run, to_cnf
from .words import EMPTY_WORD, Word, fuse_letter, fuse_tracks, split_letter


class AdviceError(ValueError):
    """An advice function or advice table violates its contract."""


class PairCodeError(ValueError):
    """A pair codeword is malformed."""


class AdviceFunction:
    """A total, length-preserving advice map: n to a word of length n.

    The length law is enforced on every call, so any advice that slips
    through a test run is known to have respected it.
    """

    def __init__(self, fn: Callable[[int], Word], name: str = "advice") -> None:
        self._fn = fn
        self.name = name

    def __call__(self, n: int) -> Word:
        if n < 0:
            raise AdviceError("advice is indexed by natural numbers")
        w = self._fn(n)
        if len(w) != n:
            raise AdviceError(
                f"advice {self.name!r} returned a word of length {len(w)} at n={n}"
            )
        return w

    def __repr__(self) -> str:
        return f"AdviceFunction({self.name!r})"


def leq_advice() -> AdviceFunction:
    """0^(n/2) 1^(n/2) on even lengths, 2^n on odd ones."""

    def fn(n: int) -> Word:
        if n % 2 == 0:
            return Word._trusted((0,) * (n // 2) + (1,) * (n // 2))
        return Word._trusted((2,) * n)

    return AdviceFunction(fn, "leq")


def zero_advice() -> AdviceFunction:
    return AdviceFunction(lambda n: Word._trusted((0,) * n), "zeros")


def table_advice(table: Mapping[int, Sequence[int]], name: str = "table") -> AdviceFunction:
    """Advice backed by a length-indexed table; a missing entry is an error,
    never a silent default."""
    fixed = {int(n): Word(letters) for n, letters in table.items()}

    def fn(n: int) -> Word:
        if n not in fixed:
            raise AdviceError(f"advice table {name!r} has no entry for length {n}")
        return fixed[n]

    return AdviceFunction(fn, name)


def advice_from_json(doc: Mapping[str, Sequence[int]], name: str = "table") -> AdviceFunction:
    """Advice from a JSON object mapping each length to its advice word;
    any other document raises ``AdviceError``."""
    if not isinstance(doc, dict):
        raise AdviceError(f"malformed advice table: a JSON object is needed, not {type(doc).__name__}")
    try:
        return table_advice({int(k): v for k, v in doc.items()}, name)
    except (TypeError, ValueError) as exc:
        raise AdviceError(f"malformed advice table: {exc}") from exc


Inner = Union[Cfg, Dfa]


def membership_oracle(inner: Inner) -> Callable[[Word], bool]:
    """Normalize an inner language to a membership callable; a grammar is
    converted to CNF once, here.

    Words carrying letters outside a grammar's or automaton's alphabet are
    simply rejected, which makes foreign fused letters routine rather than
    an error.
    """
    if isinstance(inner, Dfa):

        def accepts(w: Word) -> bool:
            # one run; the start state is valid, so only a foreign letter raises
            try:
                return dfa_accepts(inner, w)
            except AutomatonError:
                return False

        return accepts
    if isinstance(inner, Cfg):
        cnf = to_cnf(inner)
        return lambda w: cyk_member(cnf, w)
    raise TypeError(f"cannot build a membership oracle from {inner!r}")


@dataclass(frozen=True)
class AdvisedLanguage:
    """An inner language plus an advice function, in parallel mode (advice
    fused under the input) or serial mode (advice prepended)."""

    mode: str
    inner: Inner
    advice: AdviceFunction
    _oracle: Callable[[Word], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("parallel", "serial"):
            raise AdviceError(f"mode must be 'parallel' or 'serial', got {self.mode!r}")
        object.__setattr__(self, "_oracle", membership_oracle(self.inner))


def parallel_member(lang: AdvisedLanguage, x: Word) -> bool:
    """x is a member exactly when the fused word [x; advice(|x|)] is in the
    inner language."""
    if lang.mode != "parallel":
        raise AdviceError("parallel_member needs a parallel advised language")
    fused = fuse_tracks(x.letters, lang.advice(len(x)).letters)
    return lang._oracle(Word._trusted(fused))


def serial_member(lang: AdvisedLanguage, x: Word) -> bool:
    """x is a member exactly when advice(|x|) concatenated with x is in the
    inner language."""
    if lang.mode != "serial":
        raise AdviceError("serial_member needs a serial advised language")
    return lang._oracle(lang.advice(len(x)) + x)


def leq_parallel() -> AdvisedLanguage:
    """The equal-halves language in parallel-advice form.

    The advice is 0^(n/2) 1^(n/2) on even lengths (2^n otherwise) and the
    inner regular language accepts exactly the nonempty fused words whose
    input letter equals the advice letter at every position.
    """
    alphabet = frozenset(fuse_letter(t, b) for t in (0, 1) for b in (0, 1, 2))
    transitions = {}
    for code in alphabet:
        t, b = split_letter(code)
        nxt = "ok" if t == b else "dead"
        transitions[("new", code)] = nxt
        transitions[("ok", code)] = nxt
        transitions[("dead", code)] = "dead"
    inner = Dfa(
        states=frozenset({"new", "ok", "dead"}),
        alphabet=alphabet,
        transitions=transitions,
        start="new",
        accepting=frozenset({"ok"}),
    )
    return AdvisedLanguage("parallel", inner, leq_advice())


def _fresh_state(base: str, used: frozenset[str]) -> str:
    name = base
    while name in used:
        name += "_"
    return name


def serial_to_parallel_reg(m: Dfa, g: AdviceFunction) -> tuple[AdviceFunction, Dfa]:
    """Convert serial advice over a regular inner language to parallel form.

    The parallel advice at length n >= 1 packs, into its first letter, the
    state the automaton reaches after reading g(n); the remaining n - 1
    positions are padding zeros.  The new automaton decodes that state from
    the first fused letter and from then on simulates ``m`` on the input
    track alone, so for every nonempty x it accepts [x; h(|x|)] exactly
    when ``m`` accepts g(|x|) followed by x.  The empty input cannot carry
    a state, so h(0) is the empty word and the new start state is accepting
    exactly when ``m`` accepts g(0) (the empty word).
    """
    state_order = sorted(m.states)
    offset = max(m.alphabet, default=0)
    code_of = {q: offset + idx for idx, q in enumerate(state_order, start=1)}
    decode = {v: q for q, v in code_of.items()}

    def h_fn(n: int) -> Word:
        if n == 0:
            return EMPTY_WORD
        q = dfa_run(m, m.start, g(n))
        return Word._trusted((code_of[q],) + (0,) * (n - 1))

    h = AdviceFunction(h_fn, name=f"state-prefixed({g.name})")

    init = _fresh_state("in", m.states)
    dead = _fresh_state("dead", m.states)
    bottoms = {0, *code_of.values()}
    alphabet = frozenset(fuse_letter(x, b) for x in m.alphabet for b in bottoms)
    transitions: dict[tuple[str, int], str] = {}
    for code in alphabet:
        x, b = split_letter(code)
        transitions[(init, code)] = m.transitions[(decode[b], x)] if b in decode else dead
        transitions[(dead, code)] = dead
        for q in m.states:
            transitions[(q, code)] = m.transitions[(q, x)]
    accepting = set(m.accepting)
    if m.start in m.accepting:
        accepting.add(init)
    m2 = Dfa(
        states=frozenset(m.states | {init, dead}),
        alphabet=alphabet,
        transitions=transitions,
        start=init,
        accepting=frozenset(accepting),
    )
    return h, m2


def prefix_pair_encode(u: Word, v: Word) -> Word:
    """Self-delimiting code for an ordered pair of binary words: every bit
    is doubled and each word is closed with the letters 0, 1."""
    out: list[int] = []
    for w in (u, v):
        for bit in w.letters:
            if bit not in (0, 1):
                raise PairCodeError(f"pair coding needs binary words, got letter {bit}")
            out += [bit, bit]
        out += [0, 1]
    return Word._trusted(tuple(out))


def prefix_pair_decode(w: Word) -> tuple[Word, Word]:
    """Invert :func:`prefix_pair_encode`; anything that is not exactly a
    codeword (truncated, a 1,0 pair, missing terminator, trailing letters)
    is rejected."""
    letters = w.letters
    i = 0
    parts: list[Word] = []
    for _ in range(2):
        bits: list[int] = []
        while True:
            if i + 2 > len(letters):
                raise PairCodeError("truncated codeword")
            a, b = letters[i], letters[i + 1]
            i += 2
            if a == 0 and b == 1:
                break
            if a != b or a > 1:
                raise PairCodeError(f"invalid letter pair {(a, b)}")
            bits.append(a)
        parts.append(Word._trusted(tuple(bits)))
    if i != len(letters):
        raise PairCodeError("trailing letters after the second terminator")
    return parts[0], parts[1]


#: Named advised setups the command line accepts without any files.
BUILTIN_ADVISED: dict[str, Callable[[], AdvisedLanguage]] = {
    "leq-parallel": leq_parallel,
}

#: Named bare advice functions for use with an explicit inner language.
BUILTIN_ADVICE: dict[str, Callable[[], AdviceFunction]] = {
    "leq": leq_advice,
    "zeros": zero_advice,
}
