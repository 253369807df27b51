"""Smoke test of the benchmark itself at a tiny size (grid 10, 2 iterations,
1 study replicate). Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path)
import moeeqi  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    return WORKLOADS[name].tiny()


def _check_metrics(result, declared):
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric_without_wrappers(name):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=False, probes=1)
    _check_metrics(result, SPEC["end_to_end"])
    assert result["wrappers_seen"] == []
    assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_removes_wrappers(name):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=True)
    _check_metrics(result, SPEC["per_layer"])
    assert result.pop("tracer").spans
    assert spans.installed_wrappers() == []
    assert result["metrics"]["gp.fit_nfev"]["value"] > 0


def test_truth_front_matches_the_package_oracle():
    ours = workloads.truth_front(60)
    oracle = moeeqi.problems.oracle_front(moeeqi.toy_problem(workloads.A), 60)
    assert np.array_equal(ours.q1s(), oracle.q1s())
    assert np.array_equal(ours.q2s(), oracle.q2s())
    assert all(np.array_equal(a.source, b.source) for a, b in zip(ours, oracle))


def test_fit_nfev_repeats_for_a_seed():
    first = run.run_workload(tiny("protocol"), seed=5, seconds=0, trace=True)
    second = run.run_workload(tiny("protocol"), seed=5, seconds=0, trace=True)
    assert first["metrics"]["gp.fit_nfev"] == second["metrics"]["gp.fit_nfev"]


def test_gate_counts_a_failing_simulator(monkeypatch):
    real = workloads.loop_problem

    def nan_problem(sim):
        problem = real(sim)
        sim.inner = lambda xc, xe: float("nan") * xe
        return problem

    monkeypatch.setattr(workloads, "loop_problem", nan_problem)
    result = run.run_workload(tiny("protocol"), seed=3, seconds=0, trace=False, probes=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 3


def test_exits_nonzero_without_the_package():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "protocol", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
