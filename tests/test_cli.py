"""Command-line front end: JSON reports, exit codes, file formats."""

import dataclasses
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from langlab import cli, corpus
from langlab.cli import main
from langlab.swaplab import advised_oracle, build_slice, swap_scan
from langlab.words import MapRuns
from test_swaplab import reference_row


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_member_of_the_nesting_language(capsys):
    code, doc = run_json(capsys, "member", "--lang", "L2", "--word", "1,2,6,3,15,30,10,5")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["payload"]["member"] is True


def test_member_against_a_grammar_file(capsys, tmp_path):
    path = tmp_path / "pal.cfg"
    path.write_text("S -> '0' S '0' | '1' S '1' | '0' '0' | '1' '1'\n")
    code, doc = run_json(capsys, "member", "--grammar", str(path), "--word", "0,1,1,0")
    assert code == 0 and doc["payload"]["member"] is True
    code, doc = run_json(capsys, "member", "--grammar", str(path), "--word", "0,1,1,1")
    assert code == 0 and doc["payload"]["member"] is False


def test_member_with_symbolic_letters(capsys):
    code, doc = run_json(capsys, "member", "--lang", "L2_dprime", "--word", "a,b,c,c")
    assert code == 0 and doc["payload"]["member"] is True


def test_params_chain(capsys):
    code, doc = run_json(capsys, "params", "--m", "1")
    assert code == 0
    assert {k: doc["payload"][k] for k in ("n", "k", "j0")} == {"n": 288, "k": 72, "j0": 36}
    assert all(doc["payload"]["checks"].values())


def test_intersect_check(capsys):
    code, doc = run_json(capsys, "intersect-check", "--max-len", "8")
    assert code == 0 and doc["verdict"] == "pass"
    counts = {lv["n"]: lv["count"] for lv in doc["payload"]["levels"]}
    assert counts[4] == 2 and counts[8] == 4


def test_intersect_check_guard_is_exit_2(capsys):
    code, doc = run_json(capsys, "intersect-check", "--max-len", "13")
    assert code == 2 and "error" in doc


def test_enumerate_language_by_name(capsys):
    code, doc = run_json(capsys, "enumerate", "--lang", "L2", "--length", "8")
    assert code == 0
    assert doc["payload"]["count"] == 4
    assert [1, 1, 3, 3, 15, 15, 5, 5] in doc["payload"]["words"]


def test_enumerate_shows_grammar_text(capsys):
    code, doc = run_json(capsys, "enumerate", "--lang", "L2_2", "--length", "2", "--show-grammar")
    assert code == 0
    assert "Y ->" in doc["payload"]["grammar"]


def test_enumerate_grammar_file(capsys, tmp_path):
    path = tmp_path / "g.cfg"
    path.write_text("S -> S S | 'a'\n")
    code, doc = run_json(capsys, "enumerate", "--grammar", str(path), "--max-len", "4")
    assert code == 0
    assert doc["payload"]["words"] == [[1], [1, 1], [1, 1, 1], [1, 1, 1, 1]]


def test_enumerate_charges_the_language_size_before_generating(capsys, monkeypatch):
    # L2_prime has 2^36 members of length 24
    def refuse(n):
        raise AssertionError("the generator ran past the guard")

    lang = dataclasses.replace(corpus.LANGUAGES["L2_prime"], generator=refuse)
    monkeypatch.setitem(corpus.LANGUAGES, "L2_prime", lang)
    code, doc = run_json(capsys, "enumerate", "--lang", "L2_prime", "--length", "24")
    assert code == 2 and "CostGuardError: language enumeration" in doc["error"]
    assert str(2**36) in doc["error"]


def test_enumerate_rejects_a_negative_length(capsys):
    code, doc = run_json(capsys, "enumerate", "--lang", "Pal_sharp", "--length", "-1")
    assert code == 2 and doc["error"] == "UsageError: --length must be >= 0"


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--grammar", "no-such-file.cfg", "--max-len", "-1"), ("intersect-check", "--max-len", "-1")],
    ids=["enumerate", "intersect-check"],
)
def test_a_negative_max_len_is_a_usage_error_before_any_file_is_read(capsys, argv):
    # the grammar file does not exist: reading it would print FileNotFoundError
    code, doc = run_json(capsys, *argv)
    assert code == 2 and doc["error"] == "UsageError: --max-len must be >= 0"


def test_enumerate_grammar_charges_the_stored_words(capsys, monkeypatch, tmp_path):
    # a^m b^m c^t (30 words up to 12): with the limit lowered, a listing
    # that outgrows it stops at the guard and prints one error document
    path = tmp_path / "blocks.cfg"
    path.write_text("S -> A C\nA -> 'a' A 'b' | 'a' 'b'\nC -> 'c' C | 'c'\n")
    code, doc = run_json(capsys, "enumerate", "--grammar", str(path), "--max-len", "12")
    assert code == 0 and doc["payload"]["count"] == 30
    monkeypatch.setattr(cli, "SLICE_LIMIT", 100)
    code, out = run(capsys, "enumerate", "--grammar", str(path), "--max-len", "132")
    doc = json.loads(out)
    assert code == 2 and out.count("\n") == 1
    assert doc["error"] == "CostGuardError: enumeration stored more than 100 factor words"


def test_slice_stats_json_and_csv(capsys):
    code, doc = run_json(capsys, "slice-stats", "--lang", "L2", "--n", "8", "--j", "2")
    assert code == 0
    assert doc["payload"]["size"] == 4
    assert doc["payload"]["max"]["count"] == 2
    code, out = run(capsys, "slice-stats", "--lang", "L2", "--n", "8", "--j", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,u,count"
    assert "3,3 15,2" in lines


def test_bound_check(capsys):
    code, doc = run_json(capsys, "bound-check", "--n", "8", "--j", "2")
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["payload"]["bound"] == 2 and doc["payload"]["ok"] is True


def test_bound_check_beyond_enumeration(capsys):
    # a slice of 2^100 members, checked in closed form
    code, doc = run_json(capsys, "bound-check", "--n", "400", "--j", "1")
    assert code == 0 and doc["payload"]["ok"] is True
    assert doc["payload"]["size"] == 2**100 and doc["payload"]["max_count"] == 2**99
    assert doc["elapsed_ms"] < 1000


def test_slice_stats_guard_on_a_huge_generated_slice(capsys):
    code, doc = run_json(capsys, "slice-stats", "--lang", "L2", "--n", "400", "--j", "1")
    assert code == 2 and "generated slice" in doc["error"]


def test_paper_check_at_m_1(capsys):
    code, doc = run_json(capsys, "paper-check", "--m", "1")
    assert code == 0 and doc["verdict"] == "pass"
    payload = doc["payload"]
    assert {k: payload["params"][k] for k in ("n", "k", "j0")} == {"n": 288, "k": 72, "j0": 36}
    bound = payload["bound"]
    assert bound["max_count"] == bound["bound"] == 2**54 and bound["max"]["i"] == 54
    assert bound["ok"] is True and payload["density_condition"] is True
    assert payload["witnesses_up_to_k"] == 0
    assert payload["first_swap"]["j"] == 146 and payload["first_swap"]["witnesses"] > 0
    assert payload["ok"] is True
    assert doc["elapsed_ms"] < 5000


def test_paper_check_needs_a_positive_m(capsys):
    code, doc = run_json(capsys, "paper-check", "--m", "0")
    assert code == 2 and doc["error"].startswith("ValueError")


def test_swap_scan_on_the_nesting_slice(capsys):
    code, doc = run_json(
        capsys, "swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1", "--j-max", "2"
    )
    assert code == 0
    assert doc["payload"]["count"] == 0 and doc["payload"]["witnesses"] == []


def test_swap_scan_on_a_tracked_slice(capsys):
    code, doc = run_json(
        capsys,
        "swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1", "--j-max", "2",
        "--advice", "leq",
    )
    assert code == 0
    assert doc["payload"]["origin"].endswith("+leq")
    assert doc["payload"]["count"] == 0


@pytest.mark.parametrize("doc", ([1, 2], "leq", 7))
def test_swap_scan_rejects_an_advice_file_that_is_not_an_object(capsys, tmp_path, doc):
    path = tmp_path / "advice.json"
    path.write_text(json.dumps(doc))
    code, out = run(
        capsys,
        "swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1", "--j-max", "2",
        "--advice", str(path),
    )
    (line,) = out.splitlines()
    assert code == 2 and json.loads(line)["error"].startswith("AdviceError: malformed advice table")


def test_slice_stats_on_a_tracked_slice(capsys):
    code, doc = run_json(
        capsys,
        "slice-stats", "--lang", "L2", "--n", "8", "--j", "2", "--advice", "leq",
    )
    assert code == 0
    assert doc["payload"]["size"] == 4
    assert doc["payload"]["max"]["count"] == 2


def test_swap_scan_guard(capsys):
    code, doc = run_json(
        capsys,
        "swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1", "--j-max", "2",
        "--limit", "3",
    )
    assert code == 2 and "error" in doc


def test_swap_scan_at_n40_runs_under_the_default_limit(capsys):
    # the complete slice settles every offset at its longest spot, 1024 * 40
    # grouping steps; the pair loop estimate, 2 * 1024 * 1023 * 355 (about
    # 7.4e8), tripped the guard
    code, doc = run_json(
        capsys, "swap-scan", "--lang", "L2", "--n", "40", "--j-min", "1", "--j-max", "10"
    )
    assert code == 0
    assert doc["inputs"]["limit"] == 100_000_000
    assert doc["payload"]["slice_size"] == 1024 and doc["payload"]["count"] == 0


def test_swap_scan_of_a_witness_heavy_slice_trips_the_default_limit(capsys):
    # 9,344 members are charged 9,344 grouping steps at each spot the scan
    # reaches, and the pairs the index tries there bring the charge to about
    # 1.5e8; every spot is charged before any pair is built, so the scan
    # trips holding only the context indexes of its first spots
    tracemalloc.start()
    try:
        code, doc = run_json(
            capsys, "swap-scan", "--lang", "L2_1", "--n", "8", "--j-min", "1", "--j-max", "8"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "context index" in doc["error"] and "147354880" in doc["error"]
    assert peak < 64 * 2**20


def test_swap_scan_witness_output_is_bounded(capsys):
    # at default limits this scan would print over 8e7 witness letters, some
    # 800 MB of JSON; the letters are charged spot by spot before any
    # witness is built, so it exits 2 with one document
    code, doc = run_json(
        capsys, "swap-scan", "--lang", "L2_1", "--n", "6", "--j-min", "1", "--j-max", "6"
    )
    assert code == 2
    assert "swap witness letters" in doc["error"] and "limit 10000000" in doc["error"]


@pytest.mark.parametrize("advice", [None, "leq"])
def test_swap_scan_document_is_the_json_of_the_reference_rows(capsys, advice):
    argv = ["swap-scan", "--lang", "Pal_sharp", "--n", "7", "--j-min", "1", "--j-max", "7"]
    if advice:
        argv += ["--advice", advice]
    code, out = run(capsys, *argv)
    assert code == 0 and out.count("\n") == 1
    doc = json.loads(out)
    lang = corpus.LANGUAGES["Pal_sharp"]
    fuse = cli._advice_spec(advice) if advice else None
    s = build_slice(lang, 7, fuse)
    oracle = lang.predicate if fuse is None else advised_oracle(lang.predicate, fuse, 7)
    rows = [reference_row(w) for w in swap_scan(oracle, s, (1, 7))]
    inputs = {"lang": "Pal_sharp", "n": 7, "j_min": 1, "j_max": 7, "force": False}
    inputs.update({"limit": 100_000_000, **({"advice": advice} if advice else {})})
    payload = {
        "origin": s.origin,
        "n": 7,
        "slice_size": len(s),
        "j_range": [1, 7],
        "count": len(rows),
        "witnesses": rows,
    }
    expected = {"command": "swap-scan", "inputs": inputs, "verdict": "pass", "payload": payload}
    assert rows and doc == {**expected, "elapsed_ms": doc["elapsed_ms"]}
    # the keys come out sorted at every level, the listing's too
    assert out.strip() == json.dumps(doc, sort_keys=True)


def test_a_swap_scan_usage_error_prints_one_document(capsys):
    code, out = run(capsys, "swap-scan", "--lang", "Pal_sharp", "--n", "0", "--j-min", "1", "--j-max", "7")
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": "swap-scan", "error": "ValueError: slices need n >= 1"}


def test_an_encoded_value_is_written_in_its_place():
    doc = {"b": [1, {"z": cli._Encoded('[{"k": 1}]'), "a": "[]"}], "a": "[0]", "c": None}
    assert cli._dumps(doc) == json.dumps(
        {"b": [1, {"z": [{"k": 1}], "a": "[]"}], "a": "[0]", "c": None}, sort_keys=True
    )
    assert cli._dumps({"a": 1}) == '{"a": 1}'
    with pytest.raises(TypeError):
        cli._dumps({"a": object()})
    with pytest.raises(TypeError):
        cli._dumps({"a": cli._Encoded("[]"), "b": cli._Encoded("[]")})


@pytest.mark.parametrize("text", ["[]", "[0]", '[[], [0], "[]"]'])
def test_an_encoded_value_beside_strings_that_look_like_the_stand_ins(text):
    # the stand-ins' own texts sit before and after the encoded value
    doc = {"a": "[]", "b": ["[0]", "[]"], "m": cli._Encoded(text), "z": {"[]": "[0]"}}
    assert cli._dumps(doc) == json.dumps({**doc, "m": json.loads(text)}, sort_keys=True)
    assert cli._dumps({"m": cli._Encoded(text)}) == json.dumps({"m": json.loads(text)})


def test_consecutive_runs_in_one_process_leak_no_arguments(capsys):
    # every main call reads its options off the same table
    scan = ("swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1", "--j-max", "2")
    _, advised = run_json(capsys, *scan, "--advice", "leq")
    _, plain = run_json(capsys, *scan)
    assert advised["inputs"]["advice"] == "leq" and "advice" not in plain["inputs"]
    assert advised["payload"]["origin"] == "L2[n=8]+leq"
    assert plain["payload"]["origin"] == "L2[n=8]"
    check = ("advice-check", "--advice", "leq-parallel", "--parallel", "--word")
    _, first = run_json(capsys, *check, "0,0,1,1")
    _, second = run_json(capsys, *check, "0,1,0,1")
    assert first["inputs"]["word"] == ["0,0,1,1"] and second["inputs"]["word"] == ["0,1,0,1"]
    results = first["payload"]["results"] + second["payload"]["results"]
    assert [r["member"] for r in results] == [True, False]


def test_advice_check_builtin(capsys):
    code, doc = run_json(
        capsys,
        "advice-check", "--advice", "leq-parallel", "--parallel",
        "--word", "0,0,1,1", "--word", "0,1,0,1",
    )
    assert code == 0
    assert [r["member"] for r in doc["payload"]["results"]] == [True, False]


def test_advice_check_serial_with_dfa_file(capsys, tmp_path):
    # the automaton for "contains a 1"
    contains_one = {
        "states": ["no", "yes"],
        "alphabet": [0, 1],
        "start": "no",
        "accepting": ["yes"],
        "transitions": [["no", 0, "no"], ["no", 1, "yes"], ["yes", 0, "yes"], ["yes", 1, "yes"]],
    }
    dfa_path = tmp_path / "m.json"
    dfa_path.write_text(json.dumps(contains_one))
    advice_path = tmp_path / "advice.json"
    advice_path.write_text(json.dumps({"2": [0, 0]}))
    code, doc = run_json(
        capsys,
        "advice-check", "--inner", str(dfa_path), "--advice", str(advice_path),
        "--serial", "--word", "0,1", "--word", "0,0",
    )
    assert code == 0
    assert [r["member"] for r in doc["payload"]["results"]] == [True, False]


def test_advice_check_serial_with_grammar_file(capsys, tmp_path):
    # 0^n x is in {0^m 1^m} exactly when x is all ones
    path = tmp_path / "halves.cfg"
    path.write_text("S -> '0' S '1' | '0' '1'\n")
    code, doc = run_json(
        capsys,
        "advice-check", "--inner", str(path), "--advice", "zeros", "--serial",
        "--word", "1,1", "--word", "1,0", "--word", "1",
    )
    assert code == 0
    assert [r["member"] for r in doc["payload"]["results"]] == [True, False, True]


def test_advice_check_parallel_with_grammar_file(capsys, tmp_path):
    # fused letters 0 = [0; 0] and 4 = [1; 1]: the input must equal the
    # leq advice 0^(n/2) 1^(n/2) at every position
    path = tmp_path / "agree.cfg"
    path.write_text("S -> A S | A\nA -> '0' | '4'\n")
    code, doc = run_json(
        capsys,
        "advice-check", "--inner", str(path), "--advice", "leq", "--parallel",
        "--word", "0,0,1,1", "--word", "0,1,0,1", "--word", "0",
    )
    assert code == 0
    assert [r["member"] for r in doc["payload"]["results"]] == [True, False, False]


def test_advice_check_rejects_wrong_mode(capsys):
    code, doc = run_json(
        capsys, "advice-check", "--advice", "leq-parallel", "--serial", "--word", "0,1"
    )
    assert code == 2 and "error" in doc


def test_pump_refute_witness(capsys, tmp_path):
    path = tmp_path / "blocks.cfg"
    path.write_text("S -> '0' S | '0' T\nT -> '1' T | '1'\n")
    code, doc = run_json(
        capsys, "pump-refute", "--grammar", str(path), "--predicate", "L_eq", "--max-len", "20"
    )
    assert code == 0 and doc["verdict"] == "pass"
    witness = doc["payload"]["witness"]
    assert witness["violating"][0] in (0, 2, 3, 4)


def test_pump_refute_inconclusive(capsys, tmp_path):
    path = tmp_path / "ones.cfg"
    path.write_text("S -> '1' S | '1'\n")
    code, doc = run_json(
        capsys, "pump-refute", "--grammar", str(path), "--predicate", "L_eq", "--max-len", "12"
    )
    assert code == 0 and doc["verdict"] == "inconclusive"
    assert doc["payload"]["examined"] == 0


def test_pump_refute_needs_a_search_length_reaching_the_pumping_constant(capsys):
    grammar = Path(__file__).resolve().parents[1] / "bench" / "blocks.cfg"
    code, out = run(
        capsys, "pump-refute", "--grammar", str(grammar), "--predicate", "L2_dprime", "--max-len", "8"
    )
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out)["error"] == "ValueError: search_len must reach the pumping constant 128"


def test_pump_refute_charges_every_candidate_before_generating_any(capsys, tmp_path):
    path = tmp_path / "blocks.cfg"
    path.write_text("S -> A C\nA -> 'a' A 'b' | 'a' 'b'\nC -> 'c' C | 'c'\n")
    started = time.perf_counter()
    code, doc = run_json(
        capsys, "pump-refute", "--grammar", str(path), "--predicate", "L2_prime", "--max-len", "132"
    )
    # p = 128, and L2_prime has 2^192 members of length 128
    assert code == 2 and "CostGuardError: pumping refutation charts" in doc["error"]
    assert time.perf_counter() - started < 1.0


def test_huge_lengths_trip_the_guard_before_a_map_is_built(capsys, monkeypatch, tmp_path):
    # L2_1 at 100,000 is charged its largest map alone, 2^199997 members;
    # L2 at 10^8 holds 2^25,000,000; pumping charts for L2_1 stop adding at
    # the first length; none of them spells out a read
    monkeypatch.setattr(MapRuns, "map", lambda runs: pytest.fail("a map was built past the guard"))
    path = tmp_path / "blocks.cfg"
    path.write_text("S -> A C\nA -> 'a' A 'b' | 'a' 'b'\nC -> 'c' C | 'c'\n")
    for argv, about in (
        (("enumerate", "--lang", "L2_1", "--length", "100000"), "about 2^199997 items"),
        (("swap-scan", "--lang", "L2", "--n", "100000000", "--j-min", "1", "--j-max", "2"), "2^25000000"),
        (("pump-refute", "--grammar", str(path), "--predicate", "L2_1", "--max-len", "2000"), "charts"),
    ):
        started = time.perf_counter()
        code, doc = run_json(capsys, *argv)
        assert code == 2 and doc["error"].startswith("CostGuardError") and about in doc["error"], argv
        assert time.perf_counter() - started < 1.0, argv


def test_guard_messages_name_force_only_where_the_command_takes_it(capsys, tmp_path):
    path = tmp_path / "blocks.cfg"
    path.write_text("S -> A C\nA -> 'a' A 'b' | 'a' 'b'\nC -> 'c' C | 'c'\n")
    code, doc = run_json(
        capsys, "pump-refute", "--grammar", str(path), "--predicate", "L2_prime", "--max-len", "132"
    )
    assert code == 2 and "CostGuardError" in doc["error"] and "force" not in doc["error"]
    code, doc = run_json(capsys, "bound-check", "--n", "10000004", "--j", "1")
    assert code == 2 and "CostGuardError" in doc["error"] and "force" not in doc["error"]
    code, doc = run_json(
        capsys, "swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1", "--j-max", "2", "--limit", "1"
    )
    assert code == 2 and doc["error"].endswith("rerun with force to override")
    code, doc = run_json(capsys, "intersect-check", "--max-len", "13")
    assert code == 2 and doc["error"].endswith("rerun with force to override")


def test_unknown_language_is_exit_2(capsys, tmp_path):
    code, doc = run_json(capsys, "member", "--lang", "nope", "--word", "1")
    assert code == 2 and "unknown language" in doc["error"]
    # pump-refute names its --predicate a language too
    path = tmp_path / "ones.cfg"
    path.write_text("S -> '1' S | '1'\n")
    code, out = run(capsys, "pump-refute", "--grammar", str(path), "--predicate", "nope", "--max-len", "4")
    lines = out.splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("UsageError: unknown language 'nope'")


def test_malformed_grammar_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("S -> 'zzz'\n")
    code, doc = run_json(capsys, "member", "--grammar", str(path), "--word", "1")
    assert code == 2 and "error" in doc


SCAN_WITH_ADVICE = ("swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1", "--j-max", "2", "--advice")
SYMTAB_ERROR = "UsageError: a symbol table file must map names to integer letters"
MEMBER_WITH_SYMTAB = ("member", "--lang", "L2", "--word", "p", "--symtab", "F")

# (id, start of the error, text of the file F or None for no file, argv)
EXIT_2_CASES = [
    ("GrammarError", "GrammarError: ", "S -> A\n", ("member", "--grammar", "F", "--word", "1")),
    (
        "AutomatonError",
        "AutomatonError: ",
        '{"states": ["a"]}',
        ("advice-check", "--advice", "leq", "--parallel", "--inner", "F", "--word", "0,1"),
    ),
    ("WordError", "WordError: ", None, ("member", "--lang", "L2", "--word", "zz")),
    ("JSONDecodeError", "JSONDecodeError: ", "not json", (*SCAN_WITH_ADVICE, "F")),
    ("FileNotFoundError", "FileNotFoundError: ", None, (*SCAN_WITH_ADVICE, "F")),
    ("symtab-string-letter", SYMTAB_ERROR, '{"p": "1"}', MEMBER_WITH_SYMTAB),
    ("symtab-list", SYMTAB_ERROR, "[1]", MEMBER_WITH_SYMTAB),
]


@pytest.mark.parametrize(
    "error, text, argv", [c[1:] for c in EXIT_2_CASES], ids=[c[0] for c in EXIT_2_CASES]
)
def test_each_input_error_family_is_exit_2_by_name(capsys, tmp_path, error, text, argv):
    path = tmp_path / "f.json"
    if text is not None:
        path.write_text(text)
    code, out = run(capsys, *(str(path) if a == "F" else a for a in argv))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(error)


def test_a_symbol_table_file_names_the_letters(capsys, tmp_path):
    symtab = tmp_path / "symtab.json"
    symtab.write_text(json.dumps({"p": 1, "q": 3, "r": 15, "s": 5}))
    code, doc = run_json(capsys, "member", "--lang", "L2", "--word", "p,q,r,s", "--symtab", str(symtab))
    assert code == 0
    assert doc["payload"]["word"] == [1, 3, 15, 5] and doc["payload"]["member"] is True
    grammar = tmp_path / "pq.cfg"
    grammar.write_text("S -> 'p' 'q'\n")
    code, doc = run_json(capsys, "member", "--grammar", str(grammar), "--word", "p,q", "--symtab", str(symtab))
    assert code == 0 and doc["payload"]["member"] is True


def test_usage_error_is_exit_2(capsys):
    assert main(["member", "--word"]) == 2
    assert main(["no-such-command"]) == 2


SCAN_L2 = ("swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1", "--j-max", "2")
CHECK_LEQ = ("advice-check", "--advice", "leq-parallel", "--word", "0,1")


@pytest.mark.parametrize(
    "argv, command, error",
    [
        ((), None, "no command; langlab -h lists the commands"),
        (("no-such-command",), None, "unknown command 'no-such-command'; langlab -h lists the commands"),
        (("--word", "0"), None, "unknown command '--word'; langlab -h lists the commands"),
        (("member", "--word"), "member", "--word needs a value"),
        (("member", "--word", "--lang", "L2"), "member", "--word needs a value"),
        (("member", "--lang", "L2"), "member", "member needs --word"),
        (("swap-scan", "--lang", "L2"), "swap-scan", "swap-scan needs --n, --j-min, --j-max"),
        ((*SCAN_L2, "--symtab", "f.json"), "swap-scan", "swap-scan: unknown option --symtab"),
        ((*SCAN_L2, "--j-m", "1"), "swap-scan", "swap-scan: ambiguous option --j-m"),
        ((*SCAN_L2, "extra"), "swap-scan", "swap-scan: unknown option extra"),
        ((*SCAN_L2, "-f"), "swap-scan", "swap-scan: unknown option -f"),
        ((*SCAN_L2, "--"), "swap-scan", "swap-scan: unknown option --"),
        (("bound-check", "--n", "8", "--j", "2", "--force"), "bound-check", "bound-check: unknown option --force"),
        (("bound-check", "--n", "eight", "--j", "2"), "bound-check", "--n needs an integer, not 'eight'"),
        (("bound-check", "--n=", "--j", "2"), "bound-check", "--n needs an integer, not ''"),
        (("slice-stats", "--lang", "L2", "--n", "8", "--j", "2", "--format", "xml"), "slice-stats",
         "--format must be one of json, csv, not 'xml'"),
        (("intersect-check", "--max-len", "4", "--force=yes"), "intersect-check", "--force takes no value"),
        ((*CHECK_LEQ, "--parallel", "--serial"), "advice-check",
         "advice-check needs exactly one of --parallel and --serial"),
        (CHECK_LEQ, "advice-check", "advice-check needs exactly one of --parallel and --serial"),
    ],
)
def test_a_usage_error_prints_one_document_and_exits_2(capsys, argv, command, error):
    code, out = run(capsys, *argv)
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": command, "error": f"UsageError: {error}"}


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("no-such-command", "-h")])
def test_help_lists_the_commands_and_exits_0(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: langlab <command>")
    assert all(f"\n  {name} " in out for name in cli.COMMANDS)


@pytest.mark.parametrize("argv", [("swap-scan", "-h"), ("swap-scan", "--lang", "L2", "--help")])
def test_help_lists_one_commands_options_and_exits_0(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: langlab swap-scan [options]")
    assert all(f"\n  {row[0]} " in out for row in cli.COMMANDS["swap-scan"][2])
    assert "(default 100000000)" in out and "--lang TEXT" in out and "--force " in out


# The ``inputs`` objects the parser gave before it was read off a table
INPUTS = [
    (("enumerate", "--lang", "L2_2", "--length", "2", "--show-grammar", "--max-len", "4"),
     {"lang": "L2_2", "length": 2, "max_len": 4, "show_grammar": True}),
    (("member", "--lang", "L2", "--word", "1,2,6,3,15,30,10,5"), {"lang": "L2", "word": "1,2,6,3,15,30,10,5"}),
    (("intersect-check", "--max-len", "8"), {"force": False, "max_len": 8}),
    (("slice-stats", "--lang", "L2", "--n", "8", "--j", "2", "--advice", "leq"),
     {"advice": "leq", "format": "json", "j": 2, "lang": "L2", "n": 8}),
    (("bound-check", "--n", "8", "--j", "2"), {"j": 2, "n": 8}),
    ((*SCAN_L2, "--i-min", "0", "--i-max", "8"),
     {"force": False, "i_max": 8, "i_min": 0, "j_max": 2, "j_min": 1, "lang": "L2", "limit": 100000000, "n": 8}),
    (("params", "--m", "1"), {"m": 1}),
    (("paper-check", "--m", "1"), {"m": 1}),
    (("advice-check", "--advice", "leq-parallel", "--parallel", "--word", "0,0,1,1", "--word", "0,1"),
     {"advice": "leq-parallel", "parallel": True, "serial": False, "word": ["0,0,1,1", "0,1"]}),
    (("pump-refute", "--grammar", "GRAMMAR", "--predicate", "L2_dprime", "--max-len", "12"),
     {"grammar": "GRAMMAR", "max_len": 12, "predicate": "L2_dprime"}),
    (("suite",), {"seed": 1729}),
]


def grammar_argv(argv, tmp_path):
    path = tmp_path / "aa.cfg"
    path.write_text("S -> 'a' S 'a' | 'a' 'a'\n")
    return [a.replace("GRAMMAR", str(path)) for a in argv], str(path)


@pytest.mark.parametrize("argv, inputs", INPUTS, ids=[argv[0] for argv, _ in INPUTS])
def test_each_command_reports_the_inputs_it_reported_before(capsys, monkeypatch, tmp_path, argv, inputs):
    monkeypatch.setattr(cli.acceptance, "run_all", lambda seed: [])
    argv, path = grammar_argv(argv, tmp_path)
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["command"] == argv[0]
    assert doc["inputs"] == {k: path if v == "GRAMMAR" else v for k, v in inputs.items()}


def test_every_command_has_an_inputs_case():
    assert [argv[0] for argv, _ in INPUTS] == list(cli.COMMANDS)


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (("swap-scan", "--lang=L2", "--n=8", "--j-mi", "1", "--j-ma=2", "--i-mi=0", "--i-ma", "8"), INPUTS[5][1]),
        (("advice-check", "--adv=leq-parallel", "--par", "--w", "0,0,1,1", "--wo=0,1"), INPUTS[8][1]),
        (("enumerate", "--la", "L2_2", "--len=2", "--sh", "--max=4"), INPUTS[0][1]),
        (("pump-refute", "--g=GRAMMAR", "--pred", "L2_dprime", "--m=12"), INPUTS[9][1]),
    ],
    ids=["swap-scan", "advice-check", "enumerate", "pump-refute"],
)
def test_equals_and_prefix_forms_give_the_same_inputs(capsys, tmp_path, argv, inputs):
    argv, path = grammar_argv(argv, tmp_path)
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["inputs"] == {k: path if v == "GRAMMAR" else v for k, v in inputs.items()}


def test_an_exact_flag_wins_over_the_longer_flags_it_prefixes(monkeypatch):
    options = (("--j", int, False, None, "length"), ("--j-min", int, False, None, "least length"))
    monkeypatch.setitem(cli.COMMANDS, "probe", (None, "a command with nested flags", options))
    args = cli.parse_args(["probe", "--j", "2", "--j-", "3"])
    assert (args.j, args.j_min) == (2, 3)


def test_a_later_value_replaces_an_earlier_one(capsys):
    code, doc = run_json(capsys, "params", "--m", "2", "--m", "1")
    assert code == 0 and doc["inputs"] == {"m": 1}


def test_every_command_is_in_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [name for name in cli.COMMANDS if f"langlab {name}" not in readme] == []


PAL_SHARP_SCAN = ("swap-scan", "--lang", "Pal_sharp", "--j-min", "1", "--j-max", "3", "--n")


def test_symtab_is_an_option_only_where_a_symbol_table_is_read(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"a": 1}))
    code, _ = run(capsys, "swap-scan", "--lang", "L2", "--n", "8", "--j-min", "1",
                  "--j-max", "2", "--symtab", str(path))
    assert code == 2
    code, _ = run(capsys, "bound-check", "--n", "8", "--j", "2", "--force")
    assert code == 2


def test_enumerate_by_name_never_opens_the_symbol_table(capsys, tmp_path):
    code, doc = run_json(
        capsys, "enumerate", "--lang", "L2", "--length", "4",
        "--symtab", str(tmp_path / "missing.json"),
    )
    assert code == 0 and doc["payload"]["count"] == 2


def test_exit_0_on_pass(capsys):
    code, doc = run_json(capsys, *PAL_SHARP_SCAN, "3")
    assert code == 0 and doc["verdict"] == "pass" and doc["payload"]["count"] == 2


@pytest.mark.parametrize(
    "bounds, count",
    [((), 32), (("--i-min", "0", "--i-max", "99"), 32), (("--i-min", "2", "--i-max", "2"), 32),
     (("--i-min", "3"), 0), (("--i-max", "0"), 0)],
)
def test_swap_scan_offset_bounds_default_to_the_whole_word(capsys, bounds, count):
    # every Pal_sharp swap at n = 7 is at offset 2, just before the middle #
    code, doc = run_json(capsys, *PAL_SHARP_SCAN, "7", *bounds)
    assert code == 0 and doc["payload"]["count"] == count
    assert {w["i"] for w in doc["payload"]["witnesses"]} <= {2}


def test_exit_1_on_a_property_failure(capsys, monkeypatch):
    # a nesting generator that lost its members makes the intersection
    # identity fail with a counterexample
    monkeypatch.setattr(corpus, "l2_members", lambda n: ())
    code, out = run(capsys, "intersect-check", "--max-len", "4")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "fail"
    assert doc["payload"]["counterexample"] == [1, 3, 15, 5]


def test_exit_2_on_a_usage_error(capsys):
    code, out = run(capsys, *PAL_SHARP_SCAN, "0")
    doc = json.loads(out)
    assert code == 2 and doc["error"].startswith("ValueError")


def test_exit_3_on_an_invariant_failure(capsys, monkeypatch):
    # an oracle that rejects the members of its own complete slice
    lang = dataclasses.replace(corpus.LANGUAGES["Pal_sharp"], predicate=lambda w: False)
    monkeypatch.setitem(corpus.LANGUAGES, "Pal_sharp", lang)
    code, out = run(capsys, *PAL_SHARP_SCAN, "3")
    doc = json.loads(out)
    assert code == 3 and doc["error"].startswith("InvariantError")


def test_reports_are_byte_deterministic(capsys):
    _, first = run(capsys, "params", "--m", "1")
    _, second = run(capsys, "params", "--m", "1")
    assert first == second


def test_suite_runs_green(capsys):
    code, out = run(capsys, "suite")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert len(doc["payload"]["criteria"]) == 11
    assert all(c["passed"] for c in doc["payload"]["criteria"])
