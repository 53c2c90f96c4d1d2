"""Desk-scale formal-language laboratory: nested-palindrome corpus, CFG and
DFA engines, advised membership, swap scans, and pumping refutations."""

from .words import (
    EMPTY_WORD,
    SYMBOL_TABLE,
    TrackedWord,
    Word,
    WordError,
    nest_l2,
    parse_word,
    reverse,
    scale,
)
from .grammars import (
    Cfg,
    CnfGrammar,
    Dfa,
    GrammarError,
    cyk_filter,
    cyk_member,
    dfa_accepts,
    dfa_run,
    enumerate_language,
    parse_grammar,
    to_cnf,
)
from .guards import CostGuardError

__version__ = "0.1.0"

__all__ = [
    "EMPTY_WORD",
    "SYMBOL_TABLE",
    "TrackedWord",
    "Word",
    "WordError",
    "nest_l2",
    "parse_word",
    "reverse",
    "scale",
    "Cfg",
    "CnfGrammar",
    "Dfa",
    "GrammarError",
    "cyk_filter",
    "cyk_member",
    "dfa_accepts",
    "dfa_run",
    "enumerate_language",
    "parse_grammar",
    "to_cnf",
    "CostGuardError",
    "__version__",
]
