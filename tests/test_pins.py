"""Outputs pinned in ``bench/expected.json``, recomputed here by an
independent digest: the acceptance suite, the scan of a sampled L2_2 slice
and the Pal_sharp witness listing of the witness battery, and the two
complete-slice CLI scans of the nesting scan, keep their exact bytes."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from langlab import acceptance, cli, corpus, swaplab

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
ALL_PINS = json.loads(EXPECTED.read_text())
PINS = ALL_PINS["witness-battery"]
SEEDS = (1729, 1)


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_acceptance_suite_digest(seed):
    pin = PINS[str(seed)]["acceptance.run_all"]
    results = acceptance.run_all(seed)
    assert [r.passed for r in results] == pin["passed"]
    assert sha256_json([[r.number, r.name, r.passed, r.details] for r in results]) == pin["sha256"]


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_l2_2_scan_digest(seed):
    pin = PINS[str(seed)]["swap_scan L2_2 n=8 sample of 64"]
    full = corpus.l2_2_members(8)
    sample = swaplab.Slice(8, tuple(random.Random(seed).sample(full, 64)), "L2_2[n=8] sample")
    rows = [
        [w.i, w.j, list(w.x.letters), list(w.y.letters), list(w.swapped_x.letters), list(w.swapped_y.letters)]
        for w in swaplab.swap_scan(corpus.is_l2_2, sample, (1, 8))
    ]
    assert len(rows) == pin["count"]
    assert sha256_json(rows) == pin["sha256"]


def check_cli_pin(capsys, pin, argv):
    code = cli.main(argv)
    doc = json.loads(capsys.readouterr().out)
    del doc["elapsed_ms"]
    canonical = json.dumps(doc, sort_keys=True).encode()
    assert (code, len(canonical)) == (pin["exit"], pin["bytes"])
    assert hashlib.sha256(canonical).hexdigest() == pin["sha256"]


def test_pal_sharp_listing_bytes(capsys):
    argv = ["swap-scan", "--lang", "Pal_sharp", "--n", "11", "--j-min", "1", "--j-max", "11"]
    check_cli_pin(capsys, PINS["*"]["cli swap-scan Pal_sharp n=11"], argv)


@pytest.mark.parametrize(
    "name,argv",
    [
        ("cli swap-scan L2 n=24", ["--n", "24", "--j-min", "1", "--j-max", "6"]),
        ("cli swap-scan L2 n=16 advice leq", ["--n", "16", "--j-min", "1", "--j-max", "4", "--advice", "leq"]),
    ],
)
def test_nesting_scan_listing_bytes(capsys, name, argv):
    # complete slices, plain and fused with advice: the scan reads them off the slice
    pin = ALL_PINS["nesting-scan"]["*"][name]
    check_cli_pin(capsys, pin, ["swap-scan", "--lang", "L2", *argv])
