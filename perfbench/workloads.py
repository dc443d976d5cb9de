"""The benchmark's workloads: their inputs, their commands and the checks of their outputs.

Import this module only after ``run.import_lpadapt()`` has put the checkout's
``src`` on the path.  Every workload object gives the ``lpadapt`` command
lines of one timed pass (``commands``), judges the outputs of a pass
(``check``) and makes its end-of-run checks (``finish``).  ``warmup`` says
whether the run makes one untimed pass before the timed ones.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

from checks import (
    check_fit,
    check_thresholds,
    check_validate_pc,
    check_verify_commands,
    load_fit_csv,
    load_inputs,
)
from lpadapt import cli
from lpadapt.sim_harness import Scene, SigmaSpec, generate

REFERENCE = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

N_DENSE = 6000
MC_SIZE = 20000
Z_FIXED = 4.0
K, GROWTH, DEGREE = 6, 1.5, 1
P = DEGREE + 1
ALPHA, R = 1.0, 0.5

# fit_dense and calibrate: explicit h1 = 8 / (2 n), the CLI's default for this span
MODEL_CONFIG = {
    "basis": {"degree": DEGREE},
    "ladder": {"K": K, "growth": GROWTH, "kernel": "boxcar", "h1": 8 / (2.0 * N_DENSE)},
    "alpha": ALPHA,
    "r": R,
}
N_SMALL, X_SMALL = 400, 0.45


def scenario_config(seed: int) -> dict:
    """calibrate_verify's simulate/diagnose scene: jump, n = 400, sine-misspecified sigma_true."""
    return {
        "f": "jump", "n": N_SMALL, "x": X_SMALL, "seed": seed,
        "sigma_model": {"pattern": "constant", "level": 0.25},
        "sigma_true": {"pattern": "sine", "level": 0.25, "amplitude": 0.1},
        "replicates": MC_SIZE, "mc_size": MC_SIZE,
        "ladder": {"K": K, "growth": GROWTH, "kernel": "boxcar", "h1": 8 / (2.0 * N_SMALL)},
        "basis": {"degree": DEGREE}, "r": R, "alpha": ALPHA,
    }


def fixed_cv() -> dict:
    """Thresholds z_l = 4 for every l; not calibrated (see RATIONALE.md)."""
    return {"z": [Z_FIXED] * (K - 1), "method": "fixed", "alpha": ALPHA, "r": R, "p": P, "K": K,
            "mu": None, "seed": None, "mc_size": None}


def write_inputs(workload: str, seed: int, wd: Path):
    """Generate the workload's inputs from its seed and write them under wd."""
    wd.mkdir(parents=True, exist_ok=True)
    (wd / "cv.json").write_text(json.dumps(fixed_cv(), indent=2) + "\n")
    if workload == "calibrate_verify":
        (wd / "scenario.json").write_text(json.dumps(scenario_config(seed), indent=2) + "\n")
    scene = Scene("jump", n=N_DENSE, sigma_model=SigmaSpec("ramp", 0.25, 0.5), seed=seed)
    data = generate(scene, 0)
    rows = "".join(f"{float(x)!r},{float(y)!r},{float(s)!r}\n" for x, y, s in zip(data.x, data.y, data.sigma))
    (wd / "data.csv").write_text("x,y,sigma\n" + rows)
    (wd / "config.json").write_text(json.dumps(MODEL_CONFIG, indent=2) + "\n")


def working_set_bytes(workload: str) -> int:
    """Largest set of arrays live at once, computed from the workload's shapes."""
    f8 = 8
    if workload == "fit_dense":
        # one LadderDesign over all n points: psi, K weight vectors, K propagators, plus x, y, sigma
        return f8 * N_DENSE * (P + K + K * P + 3)
    # calibrate's pure-noise observations, stacked fits and two K x K x mc
    # statistic tables; the n = 400 ensembles of verify, simulate and diagnose
    # are smaller
    return f8 * (MC_SIZE * N_DENSE + MC_SIZE * K * P + 2 * K * K * MC_SIZE)


# ---------------------------------------------------------------- workloads


class Outcome:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def run_cli(argv: list[str]) -> tuple[int, float]:
    t0 = perf_counter()
    code = cli.main(argv)
    return code, perf_counter() - t0


class FitDense:
    name = "fit_dense"
    warmup = False  # a warm-up would add a whole 16-27 s pass to every run

    def __init__(self, seed: int, wd: Path):
        self.seed, self.wd = seed, wd
        self.inputs = load_inputs(wd / "data.csv")
        self.reference = load_fit_csv(REFERENCE / "fit_dense.csv.gz") if seed == DEFAULT_SEED else None

    def commands(self) -> list[list[str]]:
        wd = self.wd
        return [["fit", "--data", str(wd / "data.csv"), "--config", str(wd / "config.json"),
                 "--cv", str(wd / "cv.json"), "--out", str(wd / "fit.csv")]]

    def check(self, codes: list[int], outcome: Outcome):
        attempted, failed, note = check_fit(codes[0], self.wd / "fit.csv", self.inputs, self.reference, MODEL_CONFIG, Z_FIXED)
        outcome.add(attempted, failed, note)

    def finish(self, outcome: Outcome):
        pass


class CalibrateVerify:
    """calibrate on fit_dense's data, then verify, simulate and diagnose at n <= 400."""

    name = "calibrate_verify"
    # The checked warm-up pass also gives the same-seed determinism check of
    # the thresholds a second pass to compare with.
    warmup = True

    def __init__(self, seed: int, wd: Path):
        self.seed, self.wd = seed, wd
        self.inputs = load_inputs(wd / "data.csv")
        self.reference = (json.loads((REFERENCE / "simulate_diagnose.json").read_text())
                          if seed == DEFAULT_SEED else None)
        self.first_z = None

    def commands(self) -> list[list[str]]:
        wd = self.wd
        scene = ["--config", str(wd / "scenario.json"), "--cv", str(wd / "cv.json")]
        return [
            ["calibrate", "--data", str(wd / "data.csv"), "--config", str(wd / "config.json"),
             "--mc", str(MC_SIZE), "--seed", str(self.seed), "--out", str(wd / "cv_mc.json")],
            ["verify", "--seed", str(self.seed), "--out", str(wd / "verify.json")],
            ["simulate", *scene, "--out", str(wd / "simulate.json")],
            ["diagnose", *scene, "--out", str(wd / "diagnose.json")],
        ]

    def check(self, codes: list[int], outcome: Outcome):
        failed, note, z = check_thresholds(codes[0], self.wd / "cv_mc.json", self.inputs, MODEL_CONFIG)
        if not failed and self.first_z is not None and z != self.first_z:
            failed, note = 1, f"thresholds differ between passes with seed {self.seed}: {z} vs {self.first_z}"
        if self.first_z is None:
            self.first_z = z
        outcome.add(1, failed, note)
        attempted, failed, note = check_verify_commands(codes[1:], self.wd, self.reference, K, MC_SIZE)
        outcome.add(attempted, failed, note)

    def finish(self, outcome: Outcome):
        if self.first_z is None:
            return
        failed, note = check_validate_pc(self.first_z, self.inputs, MODEL_CONFIG, seed=self.seed + 1)
        outcome.add(1, failed, note)


WORKLOADS = {cls.name: cls for cls in (FitDense, CalibrateVerify)}
