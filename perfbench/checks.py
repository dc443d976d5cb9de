"""Output checks for the benchmark workloads.

Every check returns how many operations it judged and how many failed, so
that a wrong output counts in the run's ``failed`` total.  Fits are compared
with a reference recorded for the default seed (``perfbench/reference``) and,
on every seed, recomputed at a fixed sample of points by an independent dense
weighted least-squares fit written here with numpy alone.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12  # reference comparisons, as for the golden fit
ABS_TOL = 1e-15
DENSE_REL_TOL = 1e-8  # independent solver: other rounding, same mathematics
VALIDATE_MC = 4000


def load_inputs(path: Path) -> dict[str, np.ndarray]:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {"x": table[:, 0], "y": table[:, 1], "sigma": table[:, 2]}


def load_fit_csv(path: Path) -> dict:
    """Parse the CSV written by ``lpadapt fit`` (plain or gzip-compressed)."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    col = {name: i for i, name in enumerate(header)}
    theta_cols = [name for name in header if name.startswith("theta_")]

    def floats(name):
        return np.array([float(r[col[name]]) if r[col[name]] else math.nan for r in rows])

    return {
        "x": floats("x"),
        "f_hat": floats("f_hat"),
        "k_hat": np.array([int(r[col["k_hat"]]) if r[col["k_hat"]] else 0 for r in rows]),
        "k_eff": np.array([int(r[col["k_eff"]]) for r in rows]),
        "theta": np.column_stack([floats(name) for name in theta_cols]),
        "error": [r[col["error"]] for r in rows],
    }


def close(a, b, rel: float = REL_TOL) -> np.ndarray:
    """Elementwise |a - b| <= rel |b| + ABS_TOL, with NaN never close."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= rel * np.abs(b) + ABS_TOL


def bandwidths(config: dict) -> list[float]:
    lad = config["ladder"]
    return [lad["h1"] * lad["growth"] ** j for j in range(lad["K"])]


def dense_fit(x, y, sigma, x0: float, hs, z: float, min_eig_ratio: float = 1e-10):
    """Adaptive local-linear fit at x0 from first principles.

    Solves each boxcar window's weighted least-squares problem with
    ``np.linalg.lstsq``, forms T_lm = (theta_l - theta_m)^T B_l (...) and keeps
    the largest k whose pairs l < m <= k all satisfy T_lm <= z.  Returns
    (k_hat, k_eff, theta at k_hat).
    """
    u = x - x0
    thetas, infos = [], []
    for h in hs:
        active = np.abs(u) / h <= 1.0
        A = np.column_stack([np.ones(int(active.sum())), u[active]])
        if A.shape[0] < A.shape[1]:
            break
        root_w = 1.0 / sigma[active]
        theta = np.linalg.lstsq(A * root_w[:, None], y[active] * root_w, rcond=None)[0]
        B = (A * (root_w**2)[:, None]).T @ A
        eig = np.linalg.eigvalsh(B)
        if eig[0] <= min_eig_ratio * max(eig[-1], 0.0):
            break
        thetas.append(theta)
        infos.append(B)
    k_eff = len(thetas)
    for m in range(2, k_eff + 1):
        for l in range(1, m):
            d = thetas[l - 1] - thetas[m - 1]
            if d @ infos[l - 1] @ d > z:
                return m - 1, k_eff, thetas[m - 2]
    return k_eff, k_eff, thetas[k_eff - 1]


def sample_points(n: int) -> list[int]:
    """Fixed sample: 25 evenly spread indices plus the five around the jump."""
    spread = np.linspace(0, n - 1, 25).round().astype(int).tolist()
    return sorted(set(spread) | set(range(n // 2 - 2, n // 2 + 3)))


def check_fit(code: int, path: Path, inputs: dict, reference: dict | None, config: dict, z: float):
    """Judge every fitted point of one ``fit`` run; returns (attempted, failed, note)."""
    n = inputs["x"].size
    if code != 0:
        return n, n, f"fit exited with code {code}"
    out = load_fit_csv(path)
    if out["k_hat"].size != n:
        return n, n, f"fit wrote {out['k_hat'].size} rows for {n} points"
    bad = np.array([bool(e) for e in out["error"]])
    notes = [f"point {i}: error {out['error'][i]!r}" for i in np.flatnonzero(bad)[:3]]
    if reference is not None:
        ref_bad = (
            (out["k_hat"] != reference["k_hat"])
            | ~close(out["f_hat"], reference["f_hat"])
            | ~np.all(close(out["theta"], reference["theta"]), axis=1)
        )
        notes += [f"point {i}: differs from the reference" for i in np.flatnonzero(ref_bad)[:3]]
        bad |= ref_bad
    hs = bandwidths(config)
    for i in sample_points(n):
        k_hat, k_eff, theta = dense_fit(inputs["x"], inputs["y"], inputs["sigma"], inputs["x"][i], hs, z)
        ok = (
            out["k_hat"][i] == k_hat
            and out["k_eff"][i] == k_eff
            and bool(np.all(close(out["theta"][i], theta, DENSE_REL_TOL)))
            and bool(close(out["f_hat"][i], theta[0], DENSE_REL_TOL))
        )
        if not ok:
            bad[i] = True
            notes.append(f"point {i}: k_hat {out['k_hat'][i]} theta {out['theta'][i]} vs dense fit {k_hat} {theta}")
    return n, int(bad.sum()), "; ".join(notes)


def _model(inputs: dict, config: dict):
    from lpadapt.local_model import Basis, LadderDesign, ScaleLadder

    basis = Basis.polynomial(config["basis"]["degree"])
    ladder = ScaleLadder(tuple(bandwidths(config)), kernel=config["ladder"]["kernel"])
    x_ref = float(np.median(inputs["x"]))
    return basis, ladder, x_ref, LadderDesign(basis, ladder, inputs["x"], x_ref, inputs["sigma"])


def check_thresholds(code: int, path: Path, inputs: dict, config: dict):
    """K_eff - 1 finite positive thresholds, none above the analytic ones at the same u_hat.

    Returns (failed, note, z) with z the thresholds read, or None.
    """
    from lpadapt.calibration import theoretical_cv

    if code != 0:
        return 1, f"calibrate exited with code {code}", None
    z = tuple(float(v) for v in json.loads(path.read_text())["z"])
    basis, _, _, ld = _model(inputs, config)
    if len(z) != ld.K_eff - 1:
        return 1, f"{len(z)} thresholds for {ld.K_eff} usable scales", z
    if not all(math.isfinite(v) and v > 0 for v in z):
        return 1, f"thresholds not finite and positive: {z}", z
    analytic = theoretical_cv(basis.p, config["r"], ld.K_eff, config["alpha"], ld.growth_bounds()[1]).z
    if any(v > a for v, a in zip(z, analytic)):
        return 1, f"thresholds {z} exceed the analytic {analytic}", z
    return 0, "", z


def check_validate_pc(z, inputs: dict, config: dict, seed: int):
    """The moment conditions hold for z on a fresh pure-noise ensemble; returns (failed, note)."""
    from lpadapt.calibration import CriticalValues, validate_pc

    basis, ladder, x_ref, _ = _model(inputs, config)
    cv = CriticalValues(z=tuple(z), method="monte_carlo", alpha=config["alpha"], r=config["r"], p=basis.p, K=len(z) + 1)
    report = validate_pc(cv, basis, ladder, inputs["sigma"], inputs["x"], x_ref, VALIDATE_MC, seed)
    if report.passed:
        return 0, ""
    return 1, "validate_pc failed: " + ", ".join(f"k={e.k} {e.moment:.4g}>{e.bound:.4g}" for e in report.entries if not e.passed)


def json_mismatches(got, want, path: str = "") -> list[str]:
    """Paths at which two JSON values differ; numbers compare within REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path or "/"]
        return [m for k in want for m in json_mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in json_mismatches(g, w, f"{path}/{i}")]
    numeric = (int, float)
    if isinstance(want, numeric) and not isinstance(want, bool):
        if not isinstance(got, numeric) or isinstance(got, bool):
            return [path]
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isinf(want) or math.isinf(got):
            return [] if got == want else [path]
        return [] if bool(close(got, want)) else [path]
    return [] if got == want else [path]


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_verify_commands(codes: list[int], wd: Path, reference: dict | None, K: int, replicates: int):
    """verify: every check passes; simulate and diagnose: well formed, and equal to the reference.

    Returns (attempted, failed, note); each verification check and each of
    the two other commands is one operation.
    """
    notes = []
    verify_code, simulate_code, diagnose_code = codes
    verify_path = wd / "verify.json"
    checks = json.loads(verify_path.read_text())["checks"] if verify_path.is_file() else []
    attempted = max(len(checks), 1) + 2
    failed = sum(not c["passed"] for c in checks)
    notes += [f"verify check {c['name']} failed: {c['detail']}" for c in checks if not c["passed"]]
    if verify_code != 0 and not failed:
        failed += 1
        notes.append(f"verify exited with code {verify_code}")

    outputs = {}
    for name, code in (("simulate", simulate_code), ("diagnose", diagnose_code)):
        if code != 0:
            failed += 1
            notes.append(f"{name} exited with code {code}")
            continue
        obj = json.loads((wd / f"{name}.json").read_text())
        outputs[name] = obj
        if name == "simulate":
            sound = (obj["meta"]["K"] == K and obj["meta"]["replicates"] == replicates
                     and _all_finite([row["estimate"] for row in obj["rows"]] + [row["std_error"] for row in obj["rows"]]))
        else:
            sound = (obj["K"] == K and len(obj["pc_validation"]) == K - 1
                     and _all_finite([e["moment"] for e in obj["pc_validation"]]))
        mismatches = [] if reference is None else json_mismatches(obj, reference[name])
        if not sound or mismatches:
            failed += 1
            notes.append(f"{name} output wrong: {'malformed' if not sound else 'differs at ' + ', '.join(mismatches[:3])}")
    return attempted, failed, "; ".join(notes)
