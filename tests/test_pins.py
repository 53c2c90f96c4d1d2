"""Outputs pinned in ``bench/expected.json``, recomputed here by an
independent digest: the acceptance suite, the scan of a sampled L2_2 slice
and the Pal_sharp witness listing of the witness battery; the two
complete-slice CLI scans and the closed-form bound checks of the nesting
scan; and the CYK membership run, the pumping refutation, the intersection
identity and the L2_2 enumeration of the grammar verification all keep
their exact bytes; so do the ``params`` and ``paper-check`` documents,
pinned here."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from langlab import acceptance, cli, corpus, grammars, swaplab

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
ALL_PINS = json.loads(EXPECTED.read_text())
PINS = ALL_PINS["witness-battery"]
GRAMMAR_PINS = ALL_PINS["grammar-verify"]["*"]
BOUND_PINS = {k: v for k, v in ALL_PINS["nesting-scan"]["*"].items() if k.startswith("l2_bound_check ")}
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


def test_every_bound_check_of_the_nesting_scan_is_pinned():
    # n = 32, 36 and 40, every j up to n/4
    names = [f"l2_bound_check n={n} j={j}" for n in (32, 36, 40) for j in range(1, n // 4 + 1)]
    assert sorted(BOUND_PINS) == sorted(names)


@pytest.mark.parametrize("name", sorted(BOUND_PINS))
def test_bound_check_report_digest(name):
    n, j = (int(field.split("=")[1]) for field in name.split()[1:])
    report = swaplab.l2_bound_check(n, j)
    assert {"ok": report.ok, "sha256": sha256_json(report.to_json())} == BOUND_PINS[name]


@pytest.mark.parametrize(
    "name,argv",
    [
        (
            "cli member blocks.cfg a^100 b^100 c^200",
            ["member", "--grammar", "blocks.cfg", "--word", ",".join("a" * 100 + "b" * 100 + "c" * 200)],
        ),
        (
            "cli pump-refute blocks.cfg L2_dprime 132",
            ["pump-refute", "--grammar", "blocks.cfg", "--predicate", "L2_dprime", "--max-len", "132"],
        ),
    ],
)
def test_grammar_cli_document_bytes(capsys, monkeypatch, name, argv):
    # the documents name the grammar file as given, relative to bench/
    monkeypatch.chdir(EXPECTED.parent)
    check_cli_pin(capsys, GRAMMAR_PINS[name], argv)


def test_intersection_report_digest():
    report = corpus.intersection_check(12)
    pin = GRAMMAR_PINS["intersection_check 12"]
    assert {"ok": report.ok, "sha256": sha256_json(report.to_json())} == pin


def test_l2_2_enumeration_digest():
    words = grammars.enumerate_language(corpus.grammar_l2_2(), 14)
    rows = [list(w.letters) for w in words]
    pin = GRAMMAR_PINS["enumerate_language L2_2 14"]
    assert {"count": len(rows), "sha256": sha256_json(rows)} == pin


# (exit code, bytes, sha256) of each document without ``elapsed_ms``
PARAMS_PINS = {
    ("params", 1): (0, 256, "bcbd08fb504b18c96e9aacc9e1cfa4c1a0afd4a4ef1cac418c0cc56ac101caeb"),
    ("params", 2): (0, 256, "66cfd4f404dcf5a809a808ffc92f01487b36f4df0d4901f6bafe48d9dad43577"),
    ("params", 3): (0, 256, "1ca4f9e92eb3f4ee4c04d8ad10e294006bb17fc56f83abfcf2000ca0e697d36a"),
    ("params", 1000): (0, 263, "f2b44cebe624db62e36713da98d72af0ae535c4222b05669877a3abe98119aac"),
    ("params", 10**6): (0, 269, "233255853d590a4023a02a9ac74f2651a42d9fe3b707692f82205b542105f331"),
    ("paper-check", 1): (0, 738, "8f83a00125b2ceb093d771131d2da2041cd8c1010d342f81e3102c7f2be2f657"),
    ("paper-check", 2): (0, 749, "f43d08ad0b8f8609e13e74949d83a6be93aa895779683cfad2a0618743668de6"),
    ("paper-check", 3): (0, 762, "995c1617f699c020993c0b3c07d35e10c068404d38b400e567945195c5b4bf81"),
    ("paper-check", 1000): (0, 869, "802586e5e2707696123d98f827631b286253fc402ca439326dbba510031a5e90"),
    ("paper-check", 10**6): (0, 1000, "5a3ebecd18d9988b03f430d49080880079dac67ad3fda111b4dcdbc6a7eddd31"),
}


@pytest.mark.parametrize("command,m", list(PARAMS_PINS))
def test_parameter_chain_documents(capsys, command, m):
    code, size, digest = PARAMS_PINS[command, m]
    check_cli_pin(capsys, {"exit": code, "bytes": size, "sha256": digest}, [command, "--m", str(m)])
