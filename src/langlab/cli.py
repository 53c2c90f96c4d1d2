"""Command-line front end: every run prints one JSON report document, save
``-h``, which prints help text read off the table of options, ``COMMANDS``.

Exit codes: 0 for pass/inconclusive, 1 for fail (a property was violated or
an unexpected counterexample appeared), 2 for usage errors, malformed
inputs, and tripped cost guards, 3 for an internal invariant failure (a
result failed its own replay, so the program is at fault).
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace
from typing import Optional

from . import acceptance, corpus
from .advice import (
    BUILTIN_ADVISED,
    BUILTIN_ADVICE,
    AdvisedLanguage,
    advice_from_json,
    parallel_member,
    serial_member,
)
from .grammars import (
    cyk_member,
    dfa_from_json,
    enumerate_language,
    grammar_text,
    parse_grammar,
    to_cnf,
)
from .guards import CostGuardError, InvariantError, check_budget
from .refuter import Inconclusive, refute_subset
from .swaplab import (
    SCAN_STEP_LIMIT,
    SLICE_LIMIT,
    SwapParams,
    advised_oracle,
    build_slice,
    l2_bound_check,
    paper_check,
    slice_stats,
    swap_scan,
    witness_listing,
)
from .words import SYMBOL_TABLE, parse_word


class UsageError(ValueError):
    pass


def _load_symtab(path: Optional[str]) -> dict[str, int]:
    if path is None:
        return dict(SYMBOL_TABLE)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not all(
        isinstance(k, str) and isinstance(v, int) for k, v in doc.items()
    ):
        raise UsageError("a symbol table file must map names to integer letters")
    return doc


def _load_grammar(path: str, symtab) -> "object":
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grammar(fh.read(), symtab)


def _load_inner(path: str, symtab):
    # .json files hold DFAs, anything else is grammar text
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return dfa_from_json(json.load(fh))
    return _load_grammar(path, symtab)


def _language(name: str) -> corpus.CorpusLanguage:
    if name not in corpus.LANGUAGES:
        raise UsageError(
            f"unknown language {name!r}; available: {', '.join(sorted(corpus.LANGUAGES))}"
        )
    return corpus.LANGUAGES[name]


def _advice_spec(spec: str):
    if spec in BUILTIN_ADVICE:
        return BUILTIN_ADVICE[spec]()
    with open(spec, "r", encoding="utf-8") as fh:
        return advice_from_json(json.load(fh), name=spec)


def cmd_enumerate(args) -> tuple[str, dict]:
    if args.lang:
        lang = _language(args.lang)
        if args.length is None:
            raise UsageError("--lang enumeration needs --length (exact length)")
        if args.length < 0:
            raise UsageError("--length must be >= 0")
        check_budget(lang.size(args.length, SLICE_LIMIT), SLICE_LIMIT, "language enumeration")
        words = lang.generator(args.length)
        payload = {"lang": args.lang, "length": args.length}
        if args.show_grammar:
            if lang.grammar is None:
                raise UsageError(f"language {args.lang} has no grammar")
            payload["grammar"] = grammar_text(lang.grammar)
    else:
        if args.grammar is None or args.max_len is None:
            raise UsageError("grammar enumeration needs --grammar FILE and --max-len N")
        if args.max_len < 0:
            raise UsageError("--max-len must be >= 0")
        g = _load_grammar(args.grammar, _load_symtab(args.symtab))
        words = enumerate_language(g, args.max_len, budget=SLICE_LIMIT)
        payload = {"grammar": args.grammar, "max_len": args.max_len}
    payload.update({"count": len(words), "words": [w.to_json() for w in words]})
    return "pass", payload


def cmd_member(args) -> tuple[str, dict]:
    symtab = _load_symtab(args.symtab)
    w = parse_word(args.word, symtab)
    if args.lang:
        lang = _language(args.lang)
        member = bool(lang.predicate(w))
        source = args.lang
    else:
        if args.grammar is None:
            raise UsageError("member needs --lang NAME or --grammar FILE")
        g = _load_grammar(args.grammar, symtab)
        member = cyk_member(to_cnf(g), w)
        source = args.grammar
    return "pass", {"language": source, "word": w.to_json(), "member": member}


def cmd_intersect_check(args) -> tuple[str, dict]:
    if args.max_len < 0:
        raise UsageError("--max-len must be >= 0")
    report = corpus.intersection_check(args.max_len, force=args.force)
    return ("pass" if report.ok else "fail"), report.to_json()


def cmd_slice_stats(args) -> tuple[str, dict]:
    lang = _language(args.lang)
    advice = _advice_spec(args.advice) if args.advice else None
    return "pass", slice_stats(build_slice(lang, args.n, advice), args.j).to_json()


def cmd_bound_check(args) -> tuple[str, dict]:
    report = l2_bound_check(args.n, args.j)
    return ("pass" if report.ok else "fail"), report.to_json()


def cmd_swap_scan(args) -> tuple[str, dict]:
    lang = _language(args.lang)
    advice = _advice_spec(args.advice) if args.advice else None
    s = build_slice(lang, args.n, advice, force=args.force)
    member = lang.predicate if advice is None else advised_oracle(lang.predicate, advice, args.n)
    i_range = (args.i_min or 0, s.n if args.i_max is None else args.i_max)
    witnesses = swap_scan(
        member, s, (args.j_min, args.j_max), i_range, force=args.force, call_limit=args.limit
    )
    payload = {
        "origin": s.origin,
        "n": s.n,
        "slice_size": len(s),
        "j_range": [args.j_min, args.j_max],
        "count": len(witnesses),
        "witnesses": _Encoded(witness_listing(witnesses)),
    }
    return "pass", payload


def cmd_params(args) -> tuple[str, dict]:
    return "pass", SwapParams(args.m).to_json()


def cmd_paper_check(args) -> tuple[str, dict]:
    doc = paper_check(args.m)
    return ("pass" if doc["ok"] else "fail"), doc


def cmd_advice_check(args) -> tuple[str, dict]:
    symtab = _load_symtab(args.symtab)
    mode = "parallel" if args.parallel else "serial"
    if args.advice in BUILTIN_ADVISED:
        lang = BUILTIN_ADVISED[args.advice]()
        if lang.mode != mode:
            raise UsageError(f"builtin {args.advice!r} is a {lang.mode} setup")
    else:
        if args.inner is None:
            raise UsageError("a table advice needs --inner FILE (grammar text or DFA json)")
        inner = _load_inner(args.inner, symtab)
        lang = AdvisedLanguage(mode, inner, _advice_spec(args.advice))
    decide = parallel_member if mode == "parallel" else serial_member
    results = []
    for source in args.word:
        w = parse_word(source, symtab)
        results.append({"word": w.to_json(), "member": decide(lang, w)})
    return "pass", {"mode": mode, "advice": args.advice, "results": results}


def cmd_pump_refute(args) -> tuple[str, dict]:
    symtab = _load_symtab(args.symtab)
    g = _load_grammar(args.grammar, symtab)
    lang = _language(args.predicate)
    outcome = refute_subset(
        g, lang.predicate, args.max_len, generator=lang.generator, size=lang.size
    )
    if isinstance(outcome, Inconclusive):
        return "inconclusive", {"examined": outcome.examined, "max_len": args.max_len}
    payload = {"witness": outcome.to_json(), "predicate": args.predicate}
    return "pass", payload


def cmd_suite(args) -> tuple[str, dict]:
    results = acceptance.run_all(seed=args.seed)
    for r in results:
        print(r.line(), file=sys.stderr)
    verdict = "pass" if all(r.passed for r in results) else "fail"
    return verdict, {"seed": args.seed, "criteria": [r.to_json() for r in results]}


# One row per option: (flag, kind, required, default, help).  A kind is str,
# int, bool (a flag that stores True), list (a repeatable str) or a tuple of
# choices; a required option has no default.
# only the commands that parse words or grammar text read a symbol table
_SYMTAB = ("--symtab", str, False, None, "JSON file mapping letter names to integers")
_ADVICE = ("--advice", str, False, None, "builtin advice name or JSON table file")
_FORCE = ("--force", bool, False, False, "override the cost guard")
_N = ("--n", int, True, None, "word length")
_J = ("--j", int, True, None, "midsection length")
_M = ("--m", int, True, None, "the paper's constant m")

COMMANDS = {
    "enumerate": (cmd_enumerate, "list members of a corpus language or grammar", (
        ("--lang", str, False, None, "corpus language name"),
        ("--length", int, False, None, "exact length for --lang"),
        ("--show-grammar", bool, False, False, "include the language's grammar text"),
        ("--grammar", str, False, None, "grammar file"),
        ("--max-len", int, False, None, "length bound for --grammar"),
        _SYMTAB)),
    "member": (cmd_member, "decide membership of one word", (
        ("--lang", str, False, None, "corpus language name"),
        ("--grammar", str, False, None, "grammar file (decided through CYK)"),
        ("--word", str, True, None, "comma-separated letters"),
        _SYMTAB)),
    "intersect-check": (cmd_intersect_check, "verify the two-grammar intersection identity", (
        ("--max-len", int, True, None, "longest length checked"),
        _FORCE)),
    "slice-stats": (cmd_slice_stats, "midsection occurrence table of a slice", (
        ("--lang", str, True, None, "corpus language name"),
        _N, _J, _ADVICE,
        ("--format", ("json", "csv"), False, "json", "output format"))),
    "bound-check": (cmd_bound_check, "nesting-slice midsection bound", (_N, _J)),
    "swap-scan": (cmd_swap_scan, "exhaustive midsection swap scan", (
        ("--lang", str, True, None, "corpus language name"),
        _N,
        ("--j-min", int, True, None, "shortest midsection"),
        ("--j-max", int, True, None, "longest midsection"),
        ("--i-min", int, False, None, "first offset (default 0)"),
        ("--i-max", int, False, None, "last offset (default n)"),
        _ADVICE, _FORCE,
        ("--limit", int, False, SCAN_STEP_LIMIT, "most steps the scan may take grouping members "
         "and trying pairs; swaplab.swap_scan gives the charge model"))),
    "params": (cmd_params, "exact swap parameter chain for a constant m", (_M,)),
    "paper-check": (cmd_paper_check, "the swap argument at SwapParams(m), as exact counts "
                    "from the nesting map", (_M,)),
    "advice-check": (cmd_advice_check, "advised membership verdicts for words", (
        ("--inner", str, False, None, "inner language: grammar text or DFA .json"),
        ("--advice", str, True, None, "builtin name or JSON table file"),
        ("--parallel", bool, False, False, "parallel advice (give it or --serial)"),
        ("--serial", bool, False, False, "serial advice (give it or --parallel)"),
        ("--word", list, True, None, "comma-separated letters; repeatable"),
        _SYMTAB)),
    "pump-refute": (cmd_pump_refute, "refute a grammar-inside-predicate claim by pumping", (
        ("--grammar", str, True, None, "grammar file"),
        ("--predicate", str, True, None, "corpus language name"),
        ("--max-len", int, True, None, "longest candidate length"),
        _SYMTAB)),
    "suite": (cmd_suite, "run the whole acceptance battery", (
        ("--seed", int, False, acceptance.DEFAULT_SEED, "seed of the randomized criteria"),)),
}


def _help(name: Optional[str] = None) -> str:
    """The command list, or one command's options, as plain text."""
    if name is None:
        lines = ["usage: langlab <command> [options]  (langlab <command> -h for its options)", ""]
        return "\n".join(lines + [f"  {n:<16} {text}" for n, (_, text, _) in COMMANDS.items()])
    _, text, options = COMMANDS[name]
    lines = [f"usage: langlab {name} [options]", text, ""]
    for flag, kind, required, default, about in options:
        value = f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else " TEXT"
        value = {int: " N", bool: ""}.get(kind, value)
        note = " (required)" if required else "" if default in (None, False) else f" (default {default})"
        lines.append(f"  {flag + value:<22} {about}{note}")
    return "\n".join(lines)


def _attr(flag: str) -> str:
    return flag[2:].replace("-", "_")


def parse_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """``argv`` read off ``COMMANDS``: a namespace of ``command``, ``fn`` and
    each option's value, or None once ``-h`` has printed help.  A flag may be
    any unique prefix of itself, with its value as ``--flag value`` or
    ``--flag=value``; anything else amiss raises :class:`UsageError`."""
    name = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        print(_help(name if name in COMMANDS else None))
        return None
    if name not in COMMANDS:
        given = "no command" if name is None else f"unknown command {name!r}"
        raise UsageError(f"{given}; langlab -h lists the commands")
    fn, _, options = COMMANDS[name]
    kinds = {f: kind for f, kind, _, _, _ in options}
    args = SimpleNamespace(command=name, fn=fn, **{_attr(f): d for f, _, _, d, _ in options})
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        matches = [flag] if flag in kinds else [f for f in kinds if flag[2:] and f.startswith(flag)]
        if not flag.startswith("--") or len(matches) != 1:
            raise UsageError(f"{name}: {'ambiguous' if matches else 'unknown'} option {flag}")
        flag, kind = matches[0], kinds[matches[0]]
        if kind is bool and eq:
            raise UsageError(f"{flag} takes no value")
        if kind is not bool and not eq:
            value = next(tokens, None)
            # a negative number is a value; any other token led by a dash is an option
            if value is None or (value.startswith("-") and not value[1:].isdigit()):
                raise UsageError(f"{flag} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{flag} needs an integer, not {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"{flag} must be one of {', '.join(kind)}, not {value!r}")
        if kind is list:
            value = (getattr(args, _attr(flag)) or []) + [value]
        setattr(args, _attr(flag), True if kind is bool else value)
    missing = [f for f, _, required, _, _ in options if required and getattr(args, _attr(f)) is None]
    if missing:
        raise UsageError(f"{name} needs {', '.join(missing)}")
    if name == "advice-check" and args.parallel == args.serial:
        raise UsageError("advice-check needs exactly one of --parallel and --serial")
    return args


class _Encoded:
    """A JSON value whose text an encoder of its own has written, exactly
    as ``json.dumps(value, sort_keys=True)`` would."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _dumps(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True)``, with the text of the one
    :class:`_Encoded` value a document may hold written in its place.  The
    document is encoded twice, with ``[]`` and with ``[0]`` standing in for
    that value, and its place is where the two texts first differ, so no
    marker text has to be kept out of the rest of the document."""
    held: list[_Encoded] = []

    def encoded(stand_in: list):
        def default(o):
            if not isinstance(o, _Encoded):
                raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
            held.append(o)
            return stand_in

        return json.dumps(doc, sort_keys=True, default=default)

    text = encoded([])
    if len(held) > 1:
        raise TypeError("a document may hold one encoded value at most")
    if not held:
        return text
    # the texts agree up to the stand-in's "[" and differ right after it:
    # bisect for the first difference, comparing prefixes in C
    other, same, cut = encoded([0]), 0, len(text)
    while cut - same > 1:
        mid = (same + cut) // 2
        same, cut = (mid, cut) if text[:mid] == other[:mid] else (same, mid)
    return text[: same - 1] + held[0].text + text[same + 1 :]


def _emit(doc: dict) -> None:
    print(_dumps(doc))


def _emit_csv(payload: dict) -> None:
    print("i,u,count")
    for row in payload["table"]:
        u = " ".join(map(str, row["u"]))
        print(f"{row['i']},{u},{row['count']}")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = parse_args(argv)
        if args is None:
            return 0
        started = time.perf_counter()
        verdict, payload = args.fn(args)
    except InvariantError as exc:
        _emit({"command": command, "error": f"{type(exc).__name__}: {exc}"})
        return 3
    # usage errors, the package's input errors and malformed JSON are ValueErrors
    except (ValueError, CostGuardError, OSError) as exc:
        _emit({"command": command, "error": f"{type(exc).__name__}: {exc}"})
        return 2
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    if args.command == "slice-stats" and args.format == "csv":
        _emit_csv(payload)
        return 0
    inputs = {k: v for k, v in vars(args).items() if k not in ("fn", "command") and v is not None}
    _emit(
        {
            "command": args.command,
            "inputs": inputs,
            "verdict": verdict,
            "payload": payload,
            "elapsed_ms": elapsed_ms,
        }
    )
    return 1 if verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
