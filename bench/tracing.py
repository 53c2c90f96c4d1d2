"""Tracing from outside the program, for the benchmark's traced run.

``install(tracer)`` replaces the public functions of each ``langlab`` module
with timing wrappers at every binding callers use: a function imported with
``from .grammars import cyk_member`` is wrapped in ``grammars``, ``corpus``,
``refuter``, ``advice`` and wherever else that name is bound.  Each wrapped
call records a span (name, start, end, parent span, job) in memory; a few
wrappers also add counts taken from their arguments and results.  Leaving the
``with`` block restores every binding, so untraced passes run the program
unchanged.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Iterator

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from langlab import acceptance, advice, cli, corpus, grammars, refuter, swaplab, words

MODULES = (words, grammars, corpus, advice, swaplab, refuter, acceptance, cli)

# Functions that get a span, by the module that defines them.
SPANNED = {
    swaplab: ("swap_scan", "slice_stats", "build_slice", "l2_bound_check"),
    corpus: ("intersection_check",),
    words: ("nest_l2", "parse_word"),
    grammars: ("cyk_member", "cyk_chart", "to_cnf", "enumerate_language", "dfa_accepts"),
    refuter: ("refute_subset", "find_decomposition"),
    advice: ("parallel_member", "serial_to_parallel_reg", "prefix_pair_encode", "prefix_pair_decode"),
    cli: ("main",),
}

JOB_SPAN = "job"

# Every per-layer metric of the traced run, with its unit.  The suffix says
# how it is made: ``calls`` counts spans, ``self_s`` sums self time, ``s``
# sums span durations, anything else is a count a wrapper adds.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("swaplab.swap_scan.self_s", "s"),
    ("swaplab.swap_scan.calls", "count"),
    ("swaplab.swap_scan.oracle_calls", "count"),
    ("swaplab.swap_scan.projected_calls", "count"),
    ("swaplab.swap_scan.oracle_calls_per_projected", "ratio"),
    ("swaplab.swap_scan.witnesses", "count"),
    ("swaplab.slice_stats.self_s", "s"),
    ("swaplab.slice_stats.calls", "count"),
    ("swaplab.slice_stats.windows", "count"),
    ("swaplab.build_slice.self_s", "s"),
    ("swaplab.l2_bound_check.self_s", "s"),
    ("corpus.oracle.calls", "count"),
    ("corpus.oracle.self_s", "s"),
    ("corpus.generator.self_s", "s"),
    ("corpus.intersection_check.self_s", "s"),
    ("words.Word.inits", "count"),
    ("words.nest_l2.calls", "count"),
    ("words.nest_l2.self_s", "s"),
    ("words.parse_word.self_s", "s"),
    ("words.TrackedWord.from_fused.calls", "count"),
    ("words.TrackedWord.from_fused.self_s", "s"),
    ("grammars.cyk_member.calls", "count"),
    ("grammars.cyk_member.self_s", "s"),
    ("grammars.cyk_member.letters", "count"),
    ("grammars.cyk_member.cells", "count"),
    ("grammars.cyk_chart.calls", "count"),
    ("grammars.cyk_chart.self_s", "s"),
    ("grammars.to_cnf.calls", "count"),
    ("grammars.to_cnf.self_s", "s"),
    ("grammars.enumerate_language.calls", "count"),
    ("grammars.enumerate_language.self_s", "s"),
    ("grammars.enumerate_language.words_out", "count"),
    ("grammars.dfa_accepts.calls", "count"),
    ("grammars.dfa_accepts.self_s", "s"),
    ("refuter.refute_subset.self_s", "s"),
    ("refuter.refute_subset.predicate_calls", "count"),
    ("refuter.find_decomposition.calls", "count"),
    ("refuter.find_decomposition.self_s", "s"),
    ("advice.parallel_member.calls", "count"),
    ("advice.parallel_member.self_s", "s"),
    ("advice.serial_to_parallel_reg.calls", "count"),
    ("advice.serial_to_parallel_reg.self_s", "s"),
    ("advice.prefix_pair_encode.calls", "count"),
    ("advice.prefix_pair_decode.calls", "count"),
    *((f"acceptance.criterion.{k:02d}.s", "s") for k in range(1, len(acceptance.CRITERIA) + 1)),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``parent[k]`` is the index of span k's parent, or -1 for a root.  Child
    intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for k, p in enumerate(parent):
        if p >= 0:
            children[p].append(k)
    out = []
    for k in range(len(start)):
        lo, hi = start[k], end[k]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(k, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], lo), min(end[c], hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(hi - lo - covered)
    return out


class Tracer:
    """Spans of one traced pass, kept in flat arrays until the pass ends."""

    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self._now = now
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.jobs: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._job = -1
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.start.append(self._now())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self._now()
        self._stack.pop()

    @contextlib.contextmanager
    def job_span(self, job: str) -> Iterator[None]:
        self.jobs.append(job)
        self._job = len(self.jobs) - 1
        idx = self.open(self.name_id(JOB_SPAN))
        try:
            yield
        finally:
            self.close(idx)
            self._job = -1

    def metrics(self) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric of this pass."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        selfs = self_times(self.parent, self.start, self.end)
        for k, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += selfs[k]
            total_s[name] += self.end[k] - self.start[k]
        counts = dict(self.counts)
        counts["swaplab.swap_scan.oracle_calls"] = calls["corpus.oracle"]
        projected = counts.get("swaplab.swap_scan.projected_calls", 0)
        counts["swaplab.swap_scan.oracle_calls_per_projected"] = (
            counts["swaplab.swap_scan.oracle_calls"] / projected if projected else 0.0
        )
        values = {}
        for metric, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[base]
            elif kind == "self_s":
                values[metric] = self_s[base]
            elif kind == "s":
                values[metric] = total_s[base]
            else:
                values[metric] = counts.get(metric, 0)
        return values

    def dump(self, path) -> None:
        """Write every span as [name, job, parent, start_s, end_s], times
        relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "jobs": self.jobs,
            "fields": ["name", "job", "parent", "start_s", "end_s"],
            "spans": [
                [self.name[k], self.job[k], self.parent[k], round(self.start[k] - t0, 9), round(self.end[k] - t0, 9)]
                for k in range(len(self.start))
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _spanned(tracer: Tracer, name: str, fn: Callable, before=None, after=None) -> Callable:
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if before is not None:
            args, kwargs = before(tracer, args, kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _projected_calls(s, j_range, i_range) -> int:
    # the swap scan's cost-guard estimate, 2·|S|(|S|−1)·spots, from its inputs
    n = s.n
    j_lo, j_hi = max(1, j_range[0]), min(n, j_range[1])
    if j_lo > j_hi:
        return 0
    i_lo, i_hi = i_range if i_range is not None else (0, n - j_lo)
    i_lo, i_hi = max(0, i_lo), min(n - j_lo, i_hi)
    spots = sum(max(0, min(j_hi, n - i) - j_lo + 1) for i in range(i_lo, i_hi + 1))
    size = len(s.members)
    return 2 * size * (size - 1) * spots


def _scan_before(tracer, args, kwargs):
    member, s, j_range, *rest = args
    i_range = rest[0] if rest else kwargs.get("i_range")
    tracer.counts["swaplab.swap_scan.projected_calls"] += _projected_calls(s, j_range, i_range)
    return (_spanned(tracer, "corpus.oracle", member), s, j_range, *rest), kwargs


def _scan_after(tracer, args, kwargs, result):
    tracer.counts["swaplab.swap_scan.witnesses"] += len(result)


def _stats_after(tracer, args, kwargs, result):
    tracer.counts["swaplab.slice_stats.windows"] += result.size * (result.n - result.j + 1)


def _cyk_after(tracer, args, kwargs, result):
    g, w = args
    n = len(w)
    tracer.counts["grammars.cyk_member.letters"] += n
    # cells of the chart the call fills; empty or foreign words fill none
    if n and all(a in g.terminals for a in w.letters):
        tracer.counts["grammars.cyk_member.cells"] += n * (n + 1) // 2


def _enumerate_after(tracer, args, kwargs, result):
    tracer.counts["grammars.enumerate_language.words_out"] += len(result)


def _refute_before(tracer, args, kwargs):
    g, predicate, *rest = args

    def counted(w):
        tracer.counts["refuter.refute_subset.predicate_calls"] += 1
        return predicate(w)

    return (g, counted, *rest), kwargs


HOOKS = {
    "swaplab.swap_scan": (_scan_before, _scan_after),
    "swaplab.slice_stats": (None, _stats_after),
    "grammars.cyk_member": (None, _cyk_after),
    "grammars.enumerate_language": (None, _enumerate_after),
    "refuter.refute_subset": (_refute_before, None),
}


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every binding of the traced functions, and restore them on exit."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        # vars() keeps a classmethod as the descriptor, not a bound method
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for home, names in SPANNED.items():
            short = home.__name__.rsplit(".", 1)[1]
            for fname in names:
                orig = getattr(home, fname)
                before, after = HOOKS.get(f"{short}.{fname}", (None, None))
                wrapped = _spanned(tracer, f"{short}.{fname}", orig, before, after)
                for mod in MODULES:
                    if mod.__dict__.get(fname) is orig:
                        patch(mod, fname, wrapped)

        generators = {lang.generator for lang in corpus.LANGUAGES.values()}
        wrapped_gen = {g: _spanned(tracer, "corpus.generator", g) for g in generators}
        for attr, value in list(vars(corpus).items()):
            if callable(value) and value in wrapped_gen:
                patch(corpus, attr, wrapped_gen[value])
        for key, lang in list(corpus.LANGUAGES.items()):
            undo.append((corpus.LANGUAGES, key, lang))
            corpus.LANGUAGES[key] = dataclasses.replace(lang, generator=wrapped_gen[lang.generator])

        word_init = words.Word.__init__

        def counted_init(self, letters=()):
            tracer.counts["words.Word.inits"] += 1
            word_init(self, letters)

        patch(words.Word, "__init__", counted_init)
        from_fused = vars(words.TrackedWord)["from_fused"]
        patch(
            words.TrackedWord,
            "from_fused",
            classmethod(_spanned(tracer, "words.TrackedWord.from_fused", from_fused.__func__)),
        )
        patch(
            acceptance,
            "CRITERIA",
            tuple(
                _spanned(tracer, f"acceptance.criterion.{k:02d}", c)
                for k, c in enumerate(acceptance.CRITERIA, start=1)
            ),
        )
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
