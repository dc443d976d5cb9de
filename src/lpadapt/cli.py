"""Command-line entry points: calibrate, fit, simulate, verify, diagnose.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.  The only environment variable read is
LPADAPT_LOG (logging level name).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .calibration import CriticalValues, mc_calibrate, theoretical_cv, validate_pc
from .dataset import Dataset
from .exceptions import LpAdaptError, MissingColumnError, ParameterDomainError, ParseError
from .fll_selector import fit_curve
from .local_model import Basis, LadderDesign, ScaleLadder
from .oracle_diagnostics import build_oracle_report
from .sim_harness import Scene, SigmaSpec, risk_experiment
from .verification import run_all

log = logging.getLogger("lpadapt")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def ingest_csv(path: str) -> Dataset:
    """Read a UTF-8 CSV with columns x (or x1..xd), y, sigma[, sigma_true].

    Non-finite or unparseable cells raise ParseError with the 1-based data
    row number; absent required columns raise MissingColumnError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError("empty file: no header row") from None
        header = [h.strip() for h in header]
        if "x" in header:
            x_cols = ["x"]
        else:
            x_cols = sorted((h for h in header if h.startswith("x") and h[1:].isdigit()), key=lambda h: int(h[1:]))
            if not x_cols:
                raise MissingColumnError("need column 'x' or columns 'x1'..'xd'")
        for required in ("y", "sigma"):
            if required not in header:
                raise MissingColumnError(f"missing required column {required!r}")
        has_true = "sigma_true" in header
        col_idx = {name: header.index(name) for name in x_cols + ["y", "sigma"] + (["sigma_true"] if has_true else [])}

        rows_x, rows_y, rows_s, rows_s0 = [], [], [], []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            parsed = {}
            for name, idx in col_idx.items():
                if idx >= len(row):
                    raise ParseError(rownum, name, "missing value")
                try:
                    val = float(row[idx])
                except ValueError:
                    raise ParseError(rownum, name, f"not a number: {row[idx]!r}") from None
                if not math.isfinite(val):
                    raise ParseError(rownum, name, f"non-finite value {row[idx]!r}")
                parsed[name] = val
            rows_x.append([parsed[c] for c in x_cols])
            rows_y.append(parsed["y"])
            rows_s.append(parsed["sigma"])
            if has_true:
                rows_s0.append(parsed["sigma_true"])
    if not rows_y:
        raise MissingColumnError("no data rows")
    x = np.asarray(rows_x, dtype=float)
    if len(x_cols) == 1:
        x = x[:, 0]
    return Dataset(
        x=x,
        y=np.asarray(rows_y),
        sigma=np.asarray(rows_s),
        sigma_true=np.asarray(rows_s0) if has_true else None,
    )


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterDomainError(f"cannot read config {path}: {exc}") from exc


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]


def _provenance(cfg: dict, seed) -> dict:
    return {"version": __version__, "config_sha256": _config_hash(cfg), "seed": seed}


def _provenance_line(cfg: dict, seed) -> str:
    return f"# lpadapt={__version__} config={_config_hash(cfg)} seed={seed}"


def _basis_from_config(cfg: dict, dim: int = 1) -> Basis:
    degree = int(cfg.get("basis", {}).get("degree", 1))
    return Basis.polynomial(degree, dim=dim)


def _ladder_from_config(cfg: dict, p: int, args, span: float = 1.0, n: int = 200, default_K: int | None = None) -> ScaleLadder:
    """The one ladder rule of every command.

    Explicit "bandwidths" win.  Otherwise the ladder is geometric from h1
    (default span * max(4p, 8) / (2n)) with K from --K, the config, then
    default_K, and when none of these is given, as many scales as fit in
    half the span, between 2 and 8.
    """
    lcfg = dict(cfg.get("ladder", {}))
    kernel = lcfg.get("kernel", "boxcar")
    if "bandwidths" in lcfg:
        return ScaleLadder(tuple(float(h) for h in lcfg["bandwidths"]), kernel=kernel)
    growth = float(args.u if args.u is not None else lcfg.get("growth", 1.25))
    h1 = float(lcfg.get("h1", span * max(4 * p, 8) / (2.0 * n)))
    if args.K is not None:
        K = int(args.K)
    elif "K" in lcfg:
        K = int(lcfg["K"])
    elif default_K is not None:
        K = default_K
    else:
        K = max(2, min(8, int(math.floor(math.log(max(span / 2.0 / h1, growth)) / math.log(growth))) + 1))
    return ScaleLadder.geometric(h1, K, growth=growth, kernel=kernel)


def _data_ladder(cfg: dict, data: Dataset | None, p: int, args) -> ScaleLadder:
    """Ladder for a dataset, spanning its first coordinate; without data, the unit interval with cfg's n."""
    if data is None:
        return _ladder_from_config(cfg, p, args, n=int(cfg.get("n", 200)))
    xs = np.atleast_2d(np.asarray(data.x, dtype=float).T).T
    span = float(np.max(xs[:, 0]) - np.min(xs[:, 0]))
    return _ladder_from_config(cfg, p, args, span=span, n=data.n)


def _sigma_spec(cfg) -> SigmaSpec:
    if cfg is None:
        return SigmaSpec()
    return SigmaSpec(
        pattern=cfg.get("pattern", "constant"),
        level=float(cfg.get("level", 1.0)),
        amplitude=float(cfg.get("amplitude", 0.0)),
        phase=float(cfg.get("phase", 0.0)),
    )


def _scene_from_config(cfg: dict) -> Scene:
    return Scene(
        f=cfg.get("f", "constant"),
        n=int(cfg.get("n", 200)),
        sigma_model=_sigma_spec(cfg.get("sigma_model")),
        sigma_true=_sigma_spec(cfg.get("sigma_true")) if cfg.get("sigma_true") else None,
        seed=int(cfg.get("seed", 0)),
        f_scale=float(cfg.get("f_scale", 1.0)),
        design=tuple(cfg["design"]) if isinstance(cfg.get("design"), list) else None,
    )


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    alpha = float(args.alpha if args.alpha is not None else cfg.get("alpha", 1.0))
    r = float(args.r if args.r is not None else cfg.get("r", 0.5))
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    mc = int(args.mc if args.mc is not None else cfg.get("mc_size", 20000))
    method = cfg.get("method", "monte_carlo")
    if method not in ("monte_carlo", "theoretical"):
        raise ParameterDomainError(f"unknown calibration method {method!r}; choose monte_carlo or theoretical")

    if args.data:
        data = ingest_csv(args.data)
        points = data.x
        sigma = data.sigma
        x_ref = cfg.get("x", float(np.median(np.atleast_2d(np.asarray(points, dtype=float).T).T[:, 0])))
    else:
        n = int(cfg.get("n", 200))
        points = np.linspace(0.0, 1.0, n)
        sigma = np.full(n, float(cfg.get("sigma", 1.0)))
        x_ref = float(cfg.get("x", 0.5))
        data = None

    basis = _basis_from_config(cfg, dim=1 if data is None or data.d == 1 else data.d)
    ladder = _data_ladder(cfg, data, basis.p, args)

    if method == "theoretical":
        ld = LadderDesign(basis, ladder, points, x_ref, sigma)
        u_hat = ld.growth_bounds()[1] if ld.K_eff > 1 else 1.25
        mu = float(args.mu if args.mu is not None else cfg.get("mu", 0.125))
        cv = theoretical_cv(basis.p, r, ld.K_eff, alpha, u_hat, mu=mu)
    else:
        cv = mc_calibrate(basis, ladder, sigma, points, x_ref, alpha, r, mc, seed)
    payload = asdict(cv)
    payload["z"] = list(payload["z"])
    payload["provenance"] = _provenance(cfg, seed)
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    log.info("calibrated %d thresholds via %s", len(cv.z), cv.method)
    return EXIT_OK


def _load_cv(path: str) -> CriticalValues:
    with open(path, encoding="utf-8") as fh:
        return CriticalValues.from_json(fh.read())


def cmd_fit(args) -> int:
    if args.grid is not None and args.grid < 1:
        raise ParameterDomainError(f"--grid must be a positive number of points, got {args.grid}")
    cfg = _load_config(args.config)
    if not args.data:
        raise ParameterDomainError("fit requires --data")
    data = ingest_csv(args.data)
    if args.grid and data.d > 1:
        raise ParameterDomainError("--grid needs one-dimensional data")
    basis = _basis_from_config(cfg, dim=data.d)
    ladder = _data_ladder(cfg, data, basis.p, args)
    noise = data.noise_model(delta=cfg.get("delta"))

    if args.cv:
        cv = _load_cv(args.cv)
    else:
        alpha = float(args.alpha if args.alpha is not None else cfg.get("alpha", 1.0))
        r = float(args.r if args.r is not None else cfg.get("r", 0.5))
        seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
        mc = int(args.mc if args.mc is not None else cfg.get("mc_size", 5000))
        x_ref = float(np.median(np.atleast_2d(np.asarray(data.x, dtype=float).T).T[:, 0]))
        cv = mc_calibrate(basis, ladder, data.sigma, data.x, x_ref, alpha, r, mc, seed)

    points = fit_curve(data, data.x, ladder, basis, noise, cv)
    header_cols = (["x"] if data.d == 1 else [f"x{i + 1}" for i in range(data.d)]) + [
        "f_hat",
        "k_hat",
        "k_eff",
    ] + [f"theta_{j + 1}" for j in range(basis.p)] + ["error"]
    lines = [_provenance_line(cfg, cv.seed), ",".join(header_cols)]
    columns = zip(points.x.tolist(), points.fitted_values.tolist(), points.k_hat.tolist(),
                  points.k_eff.tolist(), points.theta_hat.tolist())
    for i, (x, f_hat, k_hat, k_eff, theta) in enumerate(columns):
        cells = [repr(v) for v in x]
        if k_eff:
            cells += [repr(f_hat), str(k_hat), str(k_eff)] + [repr(v) for v in theta] + [""]
        else:
            cells += ["", "", "0"] + [""] * basis.p + [points[i].error]
        lines.append(",".join(cells))
    _write_text(args.out, "\n".join(lines) + "\n")

    if args.grid:
        xs = np.atleast_2d(np.asarray(data.x, dtype=float).T).T[:, 0]
        grid = np.linspace(float(xs.min()), float(xs.max()), int(args.grid))
        gpoints = fit_curve(data, grid, ladder, basis, noise, cv)
        glines = [_provenance_line(cfg, cv.seed), "x,f_hat,k_hat"]
        columns = zip(gpoints.x[:, 0].tolist(), gpoints.fitted_values.tolist(), gpoints.k_hat.tolist(),
                      gpoints.k_eff.tolist())
        glines += [f"{x!r},{f_hat!r},{k_hat}" if k_eff else f"{x!r},," for x, f_hat, k_hat, k_eff in columns]
        gpath = (os.path.splitext(args.out)[0] + "_grid.csv") if args.out else None
        _write_text(gpath, "\n".join(glines) + "\n")
    log.info("fit %d points (%d failed)", len(points), int(np.count_nonzero(points.k_eff == 0)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        raise ParameterDomainError("simulate requires --config with a scenario")
    scene = _scene_from_config(cfg)
    if args.seed is not None:  # seeds the replicates as well as the inline calibration
        scene = replace(scene, seed=args.seed)
    basis = _basis_from_config(cfg)
    ladder = _ladder_from_config(cfg, basis.p, args, n=scene.n, default_K=4)  # the scene lives on [0, 1]
    alpha = float(args.alpha if args.alpha is not None else cfg.get("alpha", 1.0))
    r = float(args.r if args.r is not None else cfg.get("r", 0.5))
    replicates = int(cfg.get("replicates", 2000))
    seed = scene.seed
    mc = int(args.mc if args.mc is not None else cfg.get("mc_size", 5000))
    x_ref = float(cfg.get("x", 0.5))

    if args.cv:
        cv = _load_cv(args.cv)
    else:
        cv = mc_calibrate(
            basis, ladder, scene.sigma_model_values(), scene.design_points(), x_ref, alpha, r, mc, seed
        )
    table = risk_experiment(scene, ladder, basis, cv, r, replicates, x=x_ref, delta_budget=float(cfg.get("delta_budget", 1.0)))
    report = {
        "provenance": _provenance(cfg, seed),
        "meta": table.meta,
        "rows": [asdict(row) for row in table.rows],
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    if args.out:
        csv_path = os.path.splitext(args.out)[0] + ".csv"
        _write_text(csv_path, _provenance_line(cfg, seed) + "\n" + table.to_csv())
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    dataset = ingest_csv(args.data) if args.data else None
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 2024))
    results = run_all(quick=bool(args.quick), seed=seed, dataset=dataset, delta_declared=cfg.get("delta"))
    payload = {
        "provenance": _provenance(cfg, seed),
        "passed": all(rr.passed for rr in results),
        "checks": [asdict(rr) for rr in results],
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    for rr in results:
        log.info("%-28s %s  %s", rr.name, "PASS" if rr.passed else "FAIL", rr.detail)
    return EXIT_OK if payload["passed"] else EXIT_VERIFY


def cmd_diagnose(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        raise ParameterDomainError("diagnose requires --config with a scene")
    scene = _scene_from_config(cfg)
    basis = _basis_from_config(cfg)
    ladder = _ladder_from_config(cfg, basis.p, args, n=scene.n, default_K=4)  # the scene lives on [0, 1]
    x_ref = float(cfg.get("x", 0.5))
    r = float(args.r if args.r is not None else cfg.get("r", 0.5))
    alpha = float(args.alpha if args.alpha is not None else cfg.get("alpha", 1.0))
    seed = int(args.seed if args.seed is not None else scene.seed)

    mc = int(args.mc if args.mc is not None else cfg.get("mc_size", 5000))
    if args.cv:
        cv = _load_cv(args.cv)
    else:
        cv = mc_calibrate(basis, ladder, scene.sigma_model_values(), scene.design_points(), x_ref, alpha, r, mc, seed)
    report = build_oracle_report(
        basis,
        ladder,
        scene.design_points(),
        x_ref,
        scene.noise_model(),
        scene.f_values(),
        cv,
        delta_budget=float(cfg.get("delta_budget", 1.0)),
        C_j=float(cfg.get("C_j", 1.0)),
    )
    obj = json.loads(report.to_json())
    pc = validate_pc(cv, basis, ladder, scene.sigma_model_values(), scene.design_points(), x_ref,
                     max(mc if not args.quick else mc // 4, 1000), seed + 1)
    obj["pc_validation"] = [
        {"k": e.k, "moment": e.moment, "std_error": e.std_error, "bound": e.bound, "passed": e.passed}
        for e in pc.entries
    ]
    obj["provenance"] = _provenance(cfg, seed)
    _write_text(args.out, json.dumps(obj, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpadapt", description="Adaptive local polynomial regression with calibrated scale selection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("calibrate", cmd_calibrate),
        ("fit", cmd_fit),
        ("simulate", cmd_simulate),
        ("verify", cmd_verify),
        ("diagnose", cmd_diagnose),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--data", help="input CSV (columns x|x1..xd, y, sigma[, sigma_true])")
        sp.add_argument("--cv", help="critical values JSON produced by calibrate")
        sp.add_argument("--out", help="output path (stdout when omitted)")
        sp.add_argument("--alpha", type=float, help="moment-condition level in (0, 1]")
        sp.add_argument("--r", type=float, help="risk power r > 0")
        sp.add_argument("--K", type=int, help="number of scales")
        sp.add_argument("--u", type=float, help="geometric bandwidth growth factor")
        sp.add_argument("--mu", type=float, help="analytic-threshold parameter in (0, 1/4)")
        sp.add_argument("--mc", type=int, help="Monte-Carlo size")
        sp.add_argument("--seed", type=int, help="base seed")
        sp.add_argument("--grid", type=int, help="emit plot data on an N-point grid")
        sp.add_argument("--quick", action="store_true", help="reduced MC sizes")
        sp.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("LPADAPT_LOG", "WARNING").upper(), format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, MissingColumnError, ParameterDomainError, FileNotFoundError) as exc:
        log.error("configuration error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LpAdaptError as exc:  # every other package error is a numeric failure
        log.error("numeric failure: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
