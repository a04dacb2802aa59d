"""Tests of the benchmark itself: inputs, tracing and output checks.

    python3 -m pytest perfbench/tests

The invocations here are the benchmark's own inputs with loose quadrature
settings, so that each one takes about a second.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

QUICK = "\n[quadrature]\nrel_tol = 1e-4\nepsilon_sequence = 0.01, 0.005\n"


def _quick(inv, extra=QUICK):
    return dataclasses.replace(inv, ini=inv.ini + extra)


def _quick_inputs():
    return [
        _quick(workloads.flat_harvest(3)[0]),
        _quick(workloads.dual_check(3)[0]),
        _quick(workloads.window_scan(3)[0]),
    ]


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return run.Runner(tmp_path_factory.mktemp("work"), float("inf"))


@pytest.fixture(scope="module")
def outputs(runner):
    """Each quick input run once plain and twice traced."""
    out = {}
    for inv in _quick_inputs():
        recs = [runner.invoke(inv, mode) for mode in ("plain", "trace", "trace")]
        assert all(r["ok"] for r in recs), [r["error"] for r in recs]
        out[inv.name] = (inv, recs)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name]
    first = [inv.ini for inv in make(7)]
    assert first == [inv.ini for inv in make(7)]
    assert first != [inv.ini for inv in make(8)]


def test_traced_output_bytes_equal_plain(outputs):
    for inv, (plain, *traced) in outputs.values():
        assert all(t["output"] == plain["output"] for t in traced), inv.name


def test_counts_repeat_across_traced_runs(outputs):
    for inv, (_, first, second) in outputs.values():
        counts = {k: v for k, v in first["trace"].items() if not k.endswith("_s")}
        assert counts == {k: second["trace"][k] for k in counts}, inv.name
        assert counts["quadrature.cells"] > 0
        assert counts["quadrature.nodes"] == 225 * counts["quadrature.cells"]
        by_level = sum(counts[f"quadrature.cells.level{k}"] for k in range(6))
        assert by_level == counts["quadrature.cells"]


def test_clock_map_only_on_the_dual_side(outputs):
    for inv, (_, traced, _) in outputs.values():
        calls = traced["trace"]["geometry.lambda_of_tau.calls"]
        assert (calls > 0) == (inv.command == "dualize"), inv.name


def test_outputs_pass_their_checks(outputs):
    oracle = workloads.Oracle()
    for inv, (plain, _, _) in outputs.values():
        chk = workloads.check_output(inv, plain["output"].decode(), workloads.reference(inv, oracle))
        assert chk.rows_ok == [True] * inv.expected_rows, chk.problems


def test_check_rejects_a_wrong_value(outputs):
    inv, (plain, _, _) = outputs["pair0"]
    rep = json.loads(plain["output"])
    rep["elements"]["L_AA"]["re"] *= 1.01
    chk = workloads.check_output(inv, json.dumps(rep), workloads.reference(inv, workloads.Oracle()))
    assert chk.rows_ok == [False]


def test_budget_exhaustion_is_counted(runner):
    inv = _quick(workloads.flat_harvest(3)[0], QUICK + "max_subdivisions = 2\n")
    rec = runner.invoke(inv, "trace")
    assert rec["ok"], rec["error"]
    tr = rec["trace"]
    assert 0 < tr["quadrature.budget_hits"] <= tr["quadrature.integrals"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
