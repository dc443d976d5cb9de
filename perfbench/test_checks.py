"""Self-test of the benchmark's output checks: a wrong output must count as failed.

    python3 -m pytest -q perfbench/test_checks.py

Uses the recorded default-seed reference as a known-good ``fit`` output and
corrupts single values, so no fit has to run.
"""

from __future__ import annotations

import gzip
import json
import shutil

import pytest

import run

run.import_lpadapt()

import checks  # noqa: E402  (these need lpadapt on the path)
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    wd = tmp_path_factory.mktemp("fit_dense")
    workloads.write_inputs("fit_dense", workloads.DEFAULT_SEED, wd)
    with gzip.open(workloads.REFERENCE / "fit_dense.csv.gz", "rt", encoding="utf-8") as fh:
        (wd / "good.csv").write_text(fh.read())
    return wd


def corrupt_fit(wd, point: int, factor: float = 1.0 + 1e-9):
    """Copy the good output to fit.csv with f_hat of one point scaled by factor."""
    lines = (wd / "good.csv").read_text().splitlines()
    row = 2 + point  # provenance line and header come first
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) * factor)
    lines[row] = ",".join(cells)
    (wd / "fit.csv").write_text("\n".join(lines) + "\n")


def outcome_of(workload) -> workloads.Outcome:
    outcome = workloads.Outcome()
    workload.check([0], outcome)
    return outcome


def test_reference_output_passes(fit_dir):
    shutil.copy(fit_dir / "good.csv", fit_dir / "fit.csv")
    outcome = outcome_of(workloads.FitDense(workloads.DEFAULT_SEED, fit_dir))
    assert outcome.attempted == workloads.N_DENSE
    assert outcome.failed == 0, outcome.notes


def test_one_corrupted_value_fails_against_the_reference(fit_dir):
    unsampled = next(i for i in range(workloads.N_DENSE) if i not in checks.sample_points(workloads.N_DENSE))
    corrupt_fit(fit_dir, unsampled)
    outcome = outcome_of(workloads.FitDense(workloads.DEFAULT_SEED, fit_dir))
    assert outcome.failed == 1
    assert outcome.failed / outcome.attempted > 0


def test_one_corrupted_value_fails_the_dense_recomputation(fit_dir):
    # any other seed has no reference; the independent fit must still catch it
    corrupt_fit(fit_dir, workloads.N_DENSE // 2, factor=1.0 + 1e-6)
    workload = workloads.FitDense(workloads.DEFAULT_SEED, fit_dir)
    workload.reference = None
    assert outcome_of(workload).failed == 1


def test_dense_fit_agrees_with_the_reference_at_every_sampled_point(fit_dir):
    ref = checks.load_fit_csv(workloads.REFERENCE / "fit_dense.csv.gz")
    inputs = checks.load_inputs(fit_dir / "data.csv")
    hs = checks.bandwidths(workloads.MODEL_CONFIG)
    for i in checks.sample_points(workloads.N_DENSE):
        k_hat, k_eff, theta = checks.dense_fit(inputs["x"], inputs["y"], inputs["sigma"], inputs["x"][i], hs, workloads.Z_FIXED)
        assert (k_hat, k_eff) == (ref["k_hat"][i], ref["k_eff"][i])
        assert checks.close(ref["theta"][i], theta, checks.DENSE_REL_TOL).all()


def test_thresholds_above_the_analytic_ones_fail(fit_dir):
    inputs = checks.load_inputs(fit_dir / "data.csv")
    path = fit_dir / "cv_mc.json"
    path.write_text(json.dumps({"z": [1e6] * (workloads.K - 1)}))
    failed, note, _ = checks.check_thresholds(0, path, inputs, workloads.MODEL_CONFIG)
    assert failed == 1 and "exceed" in note
    path.write_text(json.dumps({"z": [1.0] * (workloads.K - 2)}))
    assert checks.check_thresholds(0, path, inputs, workloads.MODEL_CONFIG)[0] == 1


def test_simulate_and_diagnose_compare_to_the_reference():
    reference = json.loads((workloads.REFERENCE / "simulate_diagnose.json").read_text())
    assert checks.json_mismatches(reference, reference) == []
    changed = json.loads(json.dumps(reference))
    changed["simulate"]["rows"][0]["estimate"] *= 1.0 + 1e-9
    changed["diagnose"]["pc_validation"][0]["passed"] = False
    assert checks.json_mismatches(changed["simulate"], reference["simulate"]) == ["/rows/0/estimate"]
    assert checks.json_mismatches(changed["diagnose"], reference["diagnose"]) == ["/pc_validation/0/passed"]


def test_benchmark_json_names_every_emitted_metric():
    from tracing import Tracer

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(Tracer().layer_metrics()) + ["trace.wall_s", "trace.overhead_s"]
