"""Run one benchmark workload of langlab and print its metrics.

    python3 bench/run.py --workload nesting-scan --seed 1729 --seconds 30 --trace 0

Load model: one process, one thread, one closed-loop client.  A pass runs
the workload's jobs back to back; the first pass in the process is the cold
pass, then warm passes repeat until ``--seconds`` have gone by (at least
three of them).  Only the timed calls into ``langlab`` count towards a
pass's time; checking outputs happens between them.

Times are contention-adjusted.  On a shared 2-vCPU virtual machine
(CPython 3.11.7) a fixed loop ran up to 1.8x slower for stretches of seconds
to minutes because of other tenants, which no unprivileged process can
prevent.  So a reference loop that never calls ``langlab`` runs after every
job and every ``SAMPLE_PERIOD_S`` inside it (see ``AdjustedClock``); each stretch of a job is scaled by ``REFERENCE_S`` over
the mean of the reference loops at its two ends.  An adjusted second is a
second at the speed at which the reference loop takes ``REFERENCE_S``.  The
summary line also gives the raw and the process CPU pass times.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median warm pass),
``cold_s`` (the first pass), ``setup_s`` (median over fresh interpreters of
the time until ``langlab`` is imported and the seeded inputs exist) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes after
the cold one and reports the per-layer metrics of ``tracing.py`` plus the
tracing overhead; the spans of its first traced pass are written to
``.bench_out/``.

Output: an environment line, a summary line (pass times, per-job medians,
``fail_share`` = failed jobs / jobs attempted, the first failures), then the
result object as the last line.  A job fails when it raises or when its
output differs from the pinned expectation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

MIN_WARM_PASSES = 3
SETUP_SAMPLES = 7

# Seconds the reference loop takes on an uncontended core of the reference
# machine (2 vCPUs, CPython 3.11.7); the unit of every adjusted time.
REFERENCE_S = 0.007
# How often the reference loop interrupts a long call.
SAMPLE_PERIOD_S = 0.1

_REFERENCE_TABLE = {k: k * 2654435761 % 1000003 for k in range(256)}


def reference_loop() -> float:
    """Seconds taken by fixed work that never calls langlab: lookups in a
    256-entry table and integer arithmetic.  Its data stay in the first-level
    cache, so the program's own memory use cannot change its time, and it
    allocates nothing the garbage collector tracks, so a collection the
    program left pending cannot land in it."""
    started = time.perf_counter()
    table = _REFERENCE_TABLE
    acc = 0
    for i in range(80000):
        acc ^= table[(i * 7) & 255] + i
    return time.perf_counter() - started


class AdjustedClock:
    """Times one call in raw, adjusted and process CPU seconds.

    The call is cut into segments at the reference loops: one every
    ``SAMPLE_PERIOD_S`` inside it, run from a SIGALRM handler in the main
    thread, and one after it.  Each segment is scaled by ``REFERENCE_S`` over
    the mean of the reference loops at its two ends; the loops themselves are
    not counted, and ``now`` leaves them out, so spans timed with it do not
    see them either.  CPU seconds are kept only for comparison: on the
    reference machine they swung with the contention as much as raw seconds
    did, because its guest kernel accounts no steal time.
    """

    def __init__(self) -> None:
        self.raw = self.adjusted = self.cpu = 0.0
        self._paused = 0.0
        self._armed = False
        self._ref = reference_loop()
        self._segment_start = time.perf_counter()
        self._cpu_start = time.process_time()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def now(self) -> float:
        """``time.perf_counter()`` less the time spent in reference loops."""
        return time.perf_counter() - self._paused

    def _close_segment(self) -> None:
        paused_at = time.perf_counter()
        self.cpu += time.process_time() - self._cpu_start
        segment = paused_at - self._segment_start
        ref = reference_loop()
        self.raw += segment
        self.adjusted += segment * REFERENCE_S * 2 / (self._ref + ref)
        self._ref = ref
        self._cpu_start = time.process_time()
        self._segment_start = time.perf_counter()
        self._paused += self._segment_start - paused_at

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._close_segment()

    def time(self, fn):
        """Call ``fn``; its times are left in ``raw``, ``adjusted`` and ``cpu``."""
        self.raw = self.adjusted = self.cpu = 0.0
        self._cpu_start = time.process_time()
        self._segment_start = time.perf_counter()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
            self._close_segment()


# A fresh interpreter that imports langlab through the workload module and
# builds the seeded inputs, then prints the monotonic clock, which is one
# clock for every process on the host.
_SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.build(sys.argv[2], int(sys.argv[3])); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def setup_seconds(workload: str, seed: int, samples: int) -> tuple[list[float], list[float]]:
    """Adjusted and raw set-up times of ``samples`` fresh interpreters."""
    adjusted, raw = [], []
    before = reference_loop()
    for _ in range(samples):
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(BENCH_DIR), workload, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        elapsed = float(done.stdout.split()[-1]) - started
        after = reference_loop()
        raw.append(elapsed)
        adjusted.append(elapsed * REFERENCE_S * 2 / (before + after))
        before = after
    return adjusted, raw


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "load_model": "one process, one thread, one closed-loop client; jobs back to back, "
        "one pass is the whole job list, passes repeat",
        "cpu_pinning": False,
        "caches_dropped": False,
        "reference_s": REFERENCE_S,
        "note": "runs unprivileged, so it neither pins CPUs nor drops caches; times are "
        "adjusted by a reference loop; witness-battery inputs depend on the seed, so compare "
        "its runs only at equal seeds",
    }


class Runner:
    """Runs passes over one workload's jobs and keeps the tallies."""

    def __init__(self, jobs, expected, clock: AdjustedClock) -> None:
        self.jobs = jobs
        self.expected = expected
        self.clock = clock
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.job_seconds: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.raw_passes: list[float] = []
        self.cpu_passes: list[float] = []

    def run_pass(self, tracer=None) -> float:
        """Run every job once; returns the adjusted seconds spent inside the
        calls and appends the raw and CPU seconds to ``raw_passes`` and
        ``cpu_passes``."""
        adjusted = raw = cpu = 0.0
        for job in self.jobs:
            self.attempted += 1
            try:
                if tracer is None:
                    result = self.clock.time(job.call)
                else:
                    with tracer.job_span(job.name):
                        result = self.clock.time(job.call)
                summary = job.summarize(result)
                del result
                problem = workloads.mismatch(summary, self.expected[job.name])
            except Exception as exc:  # a job that raises is a failed job
                problem = f"{type(exc).__name__}: {exc}"
            else:
                adjusted += self.clock.adjusted
                raw += self.clock.raw
                cpu += self.clock.cpu
                self.job_seconds[job.name].append(self.clock.adjusted)
                if tracer is not None:
                    tracer.counts["cli.output_bytes"] += summary.get("bytes", 0)
            if problem is not None:
                self.failures.append((job.name, problem))
        self.raw_passes.append(raw)
        self.cpu_passes.append(cpu)
        return adjusted

    def summary(self, workload: str, seed: int, **series) -> dict:
        return {
            "workload": workload,
            "seed": seed,
            "jobs_per_pass": len(self.jobs),
            **{k: [round(s, 4) for s in v] for k, v in series.items()},
            "raw_pass_s": [round(s, 4) for s in self.raw_passes],
            "cpu_pass_s": [round(s, 4) for s in self.cpu_passes],
            "job_median_s": {
                name: round(statistics.median(ts), 4) for name, ts in self.job_seconds.items() if ts
            },
            "attempted": self.attempted,
            "failed": len(self.failures),
            "fail_share": len(self.failures) / self.attempted,
            "first_failures": self.failures[:5],
        }


def measure(runner: Runner, seconds: float, setups: list[float]) -> tuple[dict, dict]:
    began = time.perf_counter()
    cold = runner.run_pass()
    warm: list[float] = []
    while len(warm) < MIN_WARM_PASSES or time.perf_counter() - began < seconds:
        warm.append(runner.run_pass())
    values = {
        "wall_s": (statistics.median(warm), "s"),
        "cold_s": (cold, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    return metrics, {"cold_pass_s": [cold], "warm_pass_s": warm}


def measure_traced(runner: Runner, seconds: float, dump_path: Path) -> tuple[dict, dict, list[str]]:
    began = time.perf_counter()
    runner.run_pass()  # cold, untraced
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    while not traced or time.perf_counter() - began < seconds:
        untraced.append(runner.run_pass())
        tracer = tracing.Tracer(now=runner.clock.now)
        with tracing.install(tracer):
            traced.append(runner.run_pass(tracer))
        per_pass.append(tracer.metrics())
        if len(per_pass) == 1:
            dump_path.parent.mkdir(exist_ok=True)
            tracer.dump(dump_path)
        del tracer
    problems = []
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        values = [m[name] for m in per_pass]
        if unit == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": overhead / statistics.median(untraced), "unit": "ratio"}
    return metrics, {"untraced_pass_s": untraced, "traced_pass_s": traced}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups, raw_setups = ([], []) if args.trace else setup_seconds(args.workload, args.seed, SETUP_SAMPLES)
    jobs = workloads.build(args.workload, args.seed)
    runner = Runner(jobs, workloads.expectations(args.workload, args.seed, jobs), AdjustedClock())
    # CLI jobs name their grammar file relative to the benchmark directory
    os.chdir(BENCH_DIR)

    problems: list[str] = []
    if args.trace:
        dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, series, problems = measure_traced(runner, args.seconds, dump)
    else:
        metrics, series = measure(runner, args.seconds, setups)
        series.update(setup_s=setups, raw_setup_s=raw_setups)

    summary = runner.summary(args.workload, args.seed, **series)
    summary["problems"] = problems
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"summary": summary}))
    result = {
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
