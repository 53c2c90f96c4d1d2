"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads
from langlab import corpus, grammars, words

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] with children [1, 3] and [2, 4] (overlapping) and [8, 12]
    # (running past the root's end); child 1 has a grandchild [1.5, 2.5]
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 4.0, 12.0, 2.5]
    assert tracing.self_times(parent, start, end) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([-1, -1], [0.0, 5.0], [2.0, 5.5]) == pytest.approx([2.0, 0.5])


def _cheap_jobs():
    wanted = {"swap_scan L2 n=16", "cli swap-scan L2 n=16 advice leq", "l2_bound_check n=32 j=1"}
    jobs = [j for j in workloads.build("nesting-scan", 1729) if j.name in wanted]
    assert len(jobs) == len(wanted)
    return jobs


def test_pinned_expectations_pass_and_a_corrupted_one_raises_fail_share(monkeypatch):
    monkeypatch.chdir(workloads.BENCH_DIR)
    jobs = _cheap_jobs()
    expected = workloads.expectations("nesting-scan", 1729, jobs)
    runner = run.Runner(jobs, expected, run.AdjustedClock())
    runner.run_pass()
    assert runner.failures == []

    corrupted = {k: dict(v) for k, v in expected.items()}
    corrupted["swap_scan L2 n=16"]["count"] = 1
    runner = run.Runner(jobs, corrupted, run.AdjustedClock())
    runner.run_pass()
    summary = runner.summary("nesting-scan", 1729)
    assert summary["failed"] == 1
    assert summary["fail_share"] == pytest.approx(1 / len(jobs))
    assert runner.failures[0][0] == "swap_scan L2 n=16"


def test_a_job_that_raises_is_a_failure():
    boom = workloads.Job("boom", lambda: 1 // 0, lambda r: {})
    runner = run.Runner([boom], {"boom": {}}, run.AdjustedClock())
    runner.run_pass()
    assert runner.failures == [("boom", "ZeroDivisionError: integer division or modulo by zero")]


def test_two_traced_passes_give_identical_counts(monkeypatch):
    monkeypatch.chdir(workloads.BENCH_DIR)
    jobs = _cheap_jobs()
    expected = workloads.expectations("nesting-scan", 1729, jobs)
    runner = run.Runner(jobs, expected, run.AdjustedClock())
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer(now=runner.clock.now)
        with tracing.install(tracer):
            runner.run_pass(tracer)
        passes.append(tracer.metrics())
    assert runner.failures == []
    counts = [{k: v for k, v in m.items() if not k.endswith("s")} for m in passes]
    assert counts[0] == counts[1]
    m = passes[0]
    # the scan oracle at n = 16, once plain and once through the advice track
    assert m["corpus.oracle.calls"] == 2 * 1344
    assert m["swaplab.swap_scan.projected_calls"] == 2 * 27840
    assert m["words.TrackedWord.from_fused.calls"] == 1344
    assert m["swaplab.slice_stats.windows"] == 256 * 32
    assert m["cli.main.calls"] == 1
    assert m["words.Word.inits"] > 0


def test_clock_leaves_the_reference_loops_out():
    clock = run.AdjustedClock()
    wall_started = time.perf_counter()
    started = clock.now()
    clock.time(lambda: time.sleep(0.35))  # the sampler interrupts it three times
    wall = time.perf_counter() - wall_started
    assert clock.now() - started == pytest.approx(clock.raw, abs=0.005)
    # four reference loops ran, and neither raw time nor now() counts them
    assert clock.raw < wall - 4 * 0.5 * run.REFERENCE_S
    assert clock.adjusted > 0


def test_install_restores_every_binding():
    before = {
        "grammars.cyk_member": grammars.cyk_member,
        "corpus.cyk_member": corpus.cyk_member,
        "corpus.l2_members": corpus.l2_members,
        "L2 generator": corpus.LANGUAGES["L2"].generator,
        "Word.__init__": vars(words.Word)["__init__"],
        "from_fused": vars(words.TrackedWord)["from_fused"],
    }
    with tracing.install(tracing.Tracer()):
        assert corpus.cyk_member is not before["corpus.cyk_member"]
        assert corpus.LANGUAGES["L2"].generator is not before["L2 generator"]
    after = {
        "grammars.cyk_member": grammars.cyk_member,
        "corpus.cyk_member": corpus.cyk_member,
        "corpus.l2_members": corpus.l2_members,
        "L2 generator": corpus.LANGUAGES["L2"].generator,
        "Word.__init__": vars(words.Word)["__init__"],
        "from_fused": vars(words.TrackedWord)["from_fused"],
    }
    assert after == before


def test_canonical_cli_text_is_the_sorted_document_without_elapsed_ms(monkeypatch):
    monkeypatch.chdir(workloads.BENCH_DIR)
    code, text = workloads.run_cli(["member", "--grammar", "blocks.cfg", "--word", "a,b,c,c"])
    assert code == 0
    doc = json.loads(text)
    del doc["elapsed_ms"]
    assert workloads.canonical_cli_text(text) == json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("rows", [[], [[1, 2, ["a"], ["b"]]], [[0, 1, ["a", "b"]], [2, 3, []], [4, 5, ["c"]]]])
def test_rows_hashed_one_at_a_time_digest_like_the_whole_list(rows):
    assert workloads.summarize_rows(iter(rows)) == {"count": len(rows), "sha256": workloads.sha256_json(rows)}


@pytest.mark.parametrize("seed", [1729, 1])
def test_pinned_sample_scan_agrees_with_the_reference_route(seed):
    jobs = workloads.witness_battery(seed)
    job = next(j for j in jobs if j.reference is not None and j.name.startswith("swap_scan"))
    pinned = json.loads(workloads.EXPECTED_PATH.read_text())["witness-battery"][str(seed)]
    assert job.reference() == pinned[job.name]


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    overhead = [("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
    assert per_layer == list(tracing.PER_LAYER) + overhead
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cold_s", "setup_s", "peak_rss_mb"}


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nesting-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
