"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every workload prints every metric ``BENCHMARK.json`` names, with
its unit, in both modes, and that the correctness gate rejects doctored
results (a dropped write, a transfer applied twice, a wrong tour length, a
shed request gone missing).  Results are doctored, never the program.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import suite  # noqa: E402

TOY = 0.1

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--scale", str(TOY)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expected(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_metric_tables_match_benchmark_json():
    assert dict(run.END_TO_END) == _expected("end_to_end")
    assert dict(run.PER_LAYER) == _expected("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_are_emitted_with_units(workload):
    result = _run(workload, 1)
    assert result["correct"], "traced and untraced runs must agree in virtual time"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected("per_layer")


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in run.WORKLOADS:
        inputs = suite.prepare_inputs(workload, 5, TOY)
        out[workload] = run.run_rep(workload, inputs, False, TOY)
    return out


def _rejected(result, doctor):
    doctored = copy.deepcopy(result)
    doctor(doctored)
    return suite.check(doctored)


def test_untouched_results_pass(results):
    for workload, result in results.items():
        assert suite.check(result) == [], workload


def test_gate_rejects_a_dropped_write(results):
    for workload in ("write-storm", "gateway-flash-crowd"):
        def drop(r):
            r["counters"][0] -= 1

        assert _rejected(results[workload], drop)


def test_gate_rejects_a_wrong_tour_length(results):
    def lengthen(r):
        r["best_length"] += 1

    assert _rejected(results["tsp-bound"], lengthen)


def test_gate_rejects_a_transfer_applied_twice(results):
    bank = results["bank-2pc-crash"]
    assert bank["committed"], "the toy bank run must commit transfers"

    def replay(r):
        src, dst, amount = r["committed"][0]
        r["balances"][src] -= amount
        r["balances"][dst] += amount

    assert _rejected(bank, replay)


def test_gate_rejects_an_unaccounted_request(results):
    def lose(r):
        r["tenants"]["crowd"]["completed"] -= 1

    assert _rejected(results["gateway-flash-crowd"], lose)


def test_a_run_that_fails_its_check_reports_no_metric(results, monkeypatch):
    doctored = copy.deepcopy(results["write-storm"])
    doctored["counters"][0] -= 1
    monkeypatch.setattr(run, "run_rep", lambda *args: copy.deepcopy(doctored))
    result, lines = run.measure("write-storm", 5, 0.0, False, TOY)
    assert not result["correct"] and result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= 1
    assert any("INCORRECT" in line for line in lines)


def test_same_seed_gives_identical_virtual_results(results):
    inputs = suite.prepare_inputs("bank-2pc-crash", 5, TOY)
    again = run.run_rep("bank-2pc-crash", inputs, False, TOY)
    assert again["digest"] == results["bank-2pc-crash"]["digest"]
    assert again["latencies"] == results["bank-2pc-crash"]["latencies"]


def test_refuses_to_run_without_the_library(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "no-such-src"))
    code = run.main(["--workload", "write-storm", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
