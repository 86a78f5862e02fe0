"""Self-tests of the benchmark: python3 -m pytest -q perfbench

Tiny runs of each workload (one timed call each), a traced run, and checks
that a wrong output is counted as a failure rather than passed over.
"""
import argparse
import copy
import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import workloads as wl

PINNED = json.loads(run.EXPECTED.read_text())


def tiny(workload, trace=0, check_seed=1, pinned=None):
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.0,
                              trace=trace, check_seed=check_seed)
    if pinned is None:
        pinned = PINNED[workload][str(check_seed)]
    return run.run(args, pinned, min_calls=1)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = tiny(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * wl.TRIALS_PER_CALL
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_traced_run_reports_every_layer_metric():
    result = tiny("ref_sweep", trace=1)
    metrics = result["metrics"]
    assert result["correct"]
    assert set(metrics) == set(run.layer_units())
    assert metrics["trace.absent_functions"]["value"] == 0
    for name in ("refim.reference_map", "refim.invert_rank_r",
                 "initializers.init_mslnr", "solver.lambda_bisection"):
        assert metrics[f"{name}.calls"]["value"] > 0
    assert metrics["solver.dual_evals_per_search"]["value"] > 1
    assert metrics["experiments.self_ms"]["value"] > 0


def test_held_out_check_seed_is_reproduced():
    assert tiny("feedback", check_seed=2)["correct"]


@pytest.mark.parametrize("workload, row, col, change", [
    ("snr_sweep", 11, 2, lambda v: f"{float(v) * 1.001:.12g}"),  # icbf at 30 dB
    ("feedback", 1, 3, lambda v: str(int(v) + 8)),              # icbf bits
])
def test_corrupted_expected_value_counts_as_failed(workload, row, col, change):
    pinned = copy.deepcopy(PINNED[workload]["1"])
    pinned[row][col] = change(pinned[row][col])
    result = tiny(workload, pinned=pinned)
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_row_checks_catch_solver_below_its_start_and_missing_rows():
    rows = copy.deepcopy(PINNED["snr_sweep"]["1"])
    assert wl.check_rows("snr_sweep", rows, 2) == (2, 0)
    assert rows[8][:2] == ["mslnr", "30"] and rows[11][:2] == ["icbf", "30"]
    rows[11][2] = f"{float(rows[8][2]) * 0.99:.12g}"
    assert wl.check_rows("snr_sweep", rows, 2) == (2, 1)
    assert wl.check_rows("snr_sweep", rows[:-1], 2)[1] == 2
    assert wl.check_rows("snr_sweep", rows[:-1] + [rows[-1][:2]], 2)[1] == 2
    fb = copy.deepcopy(PINNED["feedback"]["1"])
    fb[-1][3] = str(float(fb[-1][3]) + 1)   # off the 24-bit grid
    assert wl.check_rows("feedback", fb, 2) == (2, 1)


def test_a_call_that_raises_counts_its_trials_as_failed(tmp_path):
    import cbsim

    def broken(config, spec):
        raise cbsim.CbsimError("every trial failed")
    stub = types.SimpleNamespace(ExperimentSpec=cbsim.ExperimentSpec,
                                 NetworkConfig=cbsim.NetworkConfig,
                                 CbsimError=cbsim.CbsimError, run_experiment=broken)
    bench = run.Bench(stub, "snr_sweep", tmp_path)
    assert bench.call(3)[2] == 1
    assert (bench.attempted, bench.failed) == (wl.TRIALS_PER_CALL, wl.TRIALS_PER_CALL)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "feedback", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
