"""The benchmark's three workloads: their jobs, seeded inputs and output checks.

A job is one call into ``langlab``, either a public library function or an
in-process ``langlab.cli.main(argv)`` run.  One pass runs a workload's jobs
back to back.  Each job's output is reduced to a small summary (verdicts,
counts, sha256 digests) outside the timed call, and the summary is compared
with the pinned expectation in ``expected.json``.  Seeded jobs at a seed that
is not pinned are checked against an independent reference instead.

Every job runs at the program's default cost-guard limits, without ``force``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
if not (SRC_DIR / "langlab" / "__init__.py").is_file():
    raise SystemExit(f"bench: no langlab sources under {SRC_DIR}")
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from langlab import acceptance, cli, corpus, grammars, swaplab  # noqa: E402

WORKLOADS = ("nesting-scan", "grammar-verify", "witness-battery")
DEFAULT_SEED = acceptance.DEFAULT_SEED
EXPECTED_PATH = BENCH_DIR / "expected.json"


@dataclass(frozen=True)
class Job:
    """One timed call and the untimed reduction of its output.

    ``reference`` computes the expected summary by an independent route; it
    is set only on seeded jobs, for seeds without a pinned expectation.
    """

    name: str
    call: Callable[[], object]
    summarize: Callable[[object], dict]
    reference: Optional[Callable[[], dict]] = None


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def summarize_rows(rows: Iterable[list]) -> dict:
    """Count and sha256 of ``json.dumps(list(rows), sort_keys=True)``, hashed
    one row at a time so that the digest holds no copy of the output."""
    digest = hashlib.sha256(b"[")
    count = 0
    for row in rows:
        if count:
            digest.update(b", ")
        digest.update(json.dumps(row, sort_keys=True).encode())
        count += 1
    digest.update(b"]")
    return {"count": count, "sha256": digest.hexdigest()}


def summarize_witnesses(witnesses) -> dict:
    """Swap witnesses digested as plain rows, the rows ``sample_reference``
    yields too."""
    return summarize_rows(
        [w.i, w.j, list(w.x.letters), list(w.y.letters), list(w.swapped_x.letters), list(w.swapped_y.letters)]
        for w in witnesses
    )


# Every CLI document starts with its "command" key and then "elapsed_ms",
# because the CLI prints sorted keys; the error document has no elapsed_ms.
_ELAPSED = re.compile(r'^(\{"command": "[^"]*", )"elapsed_ms": \d+, ')


def canonical_cli_text(text: str) -> str:
    """The CLI document with its only run-dependent field, ``elapsed_ms``,
    removed: equal to ``json.dumps(doc, sort_keys=True)`` of the document
    without that key, computed without parsing megabytes of JSON."""
    return _ELAPSED.sub(r"\1", text.strip(), count=1)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_job(name: str, argv: list[str]) -> Job:
    def summarize(result) -> dict:
        code, text = result
        canonical = canonical_cli_text(text).encode()
        return {"exit": code, "bytes": len(canonical), "sha256": hashlib.sha256(canonical).hexdigest()}

    return Job(name, lambda: run_cli(argv), summarize)


def scan_job(name: str, language: str, predicate: str, n: int, j_max: int) -> Job:
    # the slice is built inside the timed call: build_slice is part of the job
    def call():
        s = swaplab.build_slice(corpus.LANGUAGES[language], n)
        return swaplab.swap_scan(getattr(corpus, predicate), s, (1, j_max))

    return Job(name, call, summarize_witnesses)


def bound_job(n: int, j: int) -> Job:
    def summarize(report) -> dict:
        return {"ok": report.ok, "sha256": sha256_json(report.to_json())}

    return Job(f"l2_bound_check n={n} j={j}", lambda: swaplab.l2_bound_check(n, j), summarize)


def nesting_scan() -> list[Job]:
    """Swap scans and bound checks on nesting slices: mostly swaplab (pair
    loop and slice_stats), the is_l2 oracle and Word construction.  No
    witness and no grammar work, so swap-scan and word-core gains show here
    and CYK gains must not."""
    jobs = [
        # the no-swap scan of acceptance criterion 5 at its two larger sizes
        scan_job("swap_scan L2 n=16", "L2", "is_l2", 16, 4),
        scan_job("swap_scan L2 n=20", "L2", "is_l2", 20, 5),
        # the largest L2 scan that stays well inside the default guard
        cli_job("cli swap-scan L2 n=24", ["swap-scan", "--lang", "L2", "--n", "24", "--j-min", "1", "--j-max", "6"]),
        # fused slices: the oracle projects the advice track away per call
        cli_job(
            "cli swap-scan L2 n=16 advice leq",
            ["swap-scan", "--lang", "L2", "--n", "16", "--j-min", "1", "--j-max", "4", "--advice", "leq"],
        ),
    ]
    # the pinning bound on slices of 256 to 1024 members: slice_stats work
    jobs += [bound_job(n, j) for n in (32, 36, 40) for j in range(1, n // 4 + 1)]
    return jobs


def _cyk_word() -> str:
    return ",".join(["a"] * 100 + ["b"] * 100 + ["c"] * 200)


def grammar_verify() -> list[Job]:
    """CYK, CNF, enumeration and the pumping refuter: one large chart beside
    thousands of short CYK calls.  No swap scan, so CYK, enumeration and
    refuter gains show here and swap-scan gains must not."""

    def summarize_report(report) -> dict:
        return {"ok": report.ok, "sha256": sha256_json(report.to_json())}

    def summarize_words(words) -> dict:
        return summarize_rows(list(w.letters) for w in words)

    return [
        # the 400-letter CYK membership run of the ROADMAP's end-to-end list
        cli_job("cli member blocks.cfg a^100 b^100 c^200", ["member", "--grammar", "blocks.cfg", "--word", _cyk_word()]),
        # the pinned pumping refutation; CNF, enumeration to 132, replays
        cli_job(
            "cli pump-refute blocks.cfg L2_dprime 132",
            ["pump-refute", "--grammar", "blocks.cfg", "--predicate", "L2_dprime", "--max-len", "132"],
        ),
        # the L2 = L2_1 ∩ L2_2 identity at the largest unguarded length
        Job("intersection_check 12", lambda: corpus.intersection_check(12), summarize_report),
        Job(
            "enumerate_language L2_2 14",
            lambda: grammars.enumerate_language(corpus.grammar_l2_2(), 14),
            summarize_words,
        ),
    ]


def summarize_suite(results) -> dict:
    return {
        "passed": [r.passed for r in results],
        "sha256": sha256_json([[r.number, r.name, r.passed, r.details] for r in results]),
    }


def sample_reference(sample: swaplab.Slice, full: tuple, j_max: int) -> dict:
    """The witnesses of a swap scan over an L2_2 sample, found without the
    membership oracle: a splice keeps the length, so it lies in L2_2 exactly
    when it lies in the complete slice ``full``."""
    members = {w.letters for w in full}
    raws = [w.letters for w in sample.members]
    n = sample.n

    def rows():
        for x in raws:
            for y in raws:
                if x == y:
                    continue
                for i in range(n):
                    for j in range(1, min(j_max, n - i) + 1):
                        x2, y2 = x[i : i + j], y[i : i + j]
                        if x2 == y2:
                            continue
                        sx = x[:i] + y2 + x[i + j :]
                        sy = y[:i] + x2 + y[i + j :]
                        if sx in members and sy in members:
                            yield [i, j, list(x), list(y), list(sx), list(sy)]

    return summarize_rows(rows())


def witness_battery(seed: int) -> list[Job]:
    """Many small calls and output-heavy runs over the same layers: the
    acceptance battery, a 2 MB witness listing and the pair loop on an
    incomplete slice.  A change that speeds big searches but adds per-call
    set-up or emission cost shows here; the only workload that runs advice."""
    full = corpus.l2_2_members(8)
    sample = swaplab.Slice(8, tuple(random.Random(seed).sample(full, 64)), "L2_2[n=8] sample")
    return [
        # the 11 criteria; criteria 8 and 9 draw their inputs from the seed
        Job(
            "acceptance.run_all",
            lambda: acceptance.run_all(seed),
            summarize_suite,
            reference=lambda: {"passed": [True] * len(acceptance.CRITERIA)},
        ),
        # the positive control at full size: 8,736 witnesses, about 2 MB of JSON
        cli_job(
            "cli swap-scan Pal_sharp n=11",
            ["swap-scan", "--lang", "Pal_sharp", "--n", "11", "--j-min", "1", "--j-max", "11"],
        ),
        # an incomplete slice: the pair loop with about 21k witnesses
        Job(
            "swap_scan L2_2 n=8 sample of 64",
            lambda: swaplab.swap_scan(corpus.is_l2_2, sample, (1, 8)),
            summarize_witnesses,
            reference=lambda: sample_reference(sample, full, 8),
        ),
    ]


def build(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in their seeded order: the inputs a run needs."""
    if workload == "nesting-scan":
        jobs = nesting_scan()
    elif workload == "grammar-verify":
        jobs = grammar_verify()
    elif workload == "witness-battery":
        jobs = witness_battery(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    random.Random(f"{workload}:{seed}").shuffle(jobs)
    return jobs


def expectations(workload: str, seed: int, jobs: list[Job]) -> dict:
    """Expected summary per job name: the pins for every seed (``"*"``),
    those for this seed, and for any seeded job left over its reference."""
    table = json.loads(EXPECTED_PATH.read_text()).get(workload, {})
    expected = {**table.get("*", {}), **table.get(str(seed), {})}
    for job in jobs:
        if job.name in expected:
            continue
        if job.reference is None:
            raise KeyError(f"no pinned expectation for job {job.name!r} of {workload}")
        expected[job.name] = job.reference()
    return expected


def mismatch(summary: dict, expected: dict) -> Optional[str]:
    """Describe how a job's summary differs from its expectation; every key
    the expectation names must match."""
    wrong = {k: (summary.get(k), v) for k, v in expected.items() if summary.get(k) != v}
    return None if not wrong else f"got/expected {wrong}"
