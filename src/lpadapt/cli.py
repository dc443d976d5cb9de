"""Command-line entry points: calibrate, fit, simulate, verify, diagnose.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.  The only environment variable read is
LPADAPT_LOG (logging level name).
"""

from __future__ import annotations

import argparse
import contextlib
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
from .calibration import DEFAULT_MU, CriticalValues, mc_calibrate, theoretical_cv, validate_pc
from .dataset import Dataset
from .exceptions import LpAdaptError, MissingColumnError, ParameterDomainError, ParseError
from .fll_selector import fit_curve
from .local_model import Basis, LadderDesign, ScaleLadder, default_h1
from .oracle_diagnostics import build_oracle_report
from .sim_harness import Scene, SigmaSpec, risk_experiment
from .verification import run_all

log = logging.getLogger("lpadapt")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


@contextlib.contextmanager
def _open_utf8(path: str, newline: str | None = None):
    """path opened as UTF-8 text; a decoding error while it is read names the file."""
    with open(path, newline=newline, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParameterDomainError(f"{path} is not UTF-8 text: {exc}") from exc


def ingest_csv(path: str) -> Dataset:
    """Read a UTF-8 CSV with columns x (or x1..xd), y, sigma[, sigma_true].

    Non-finite or unparseable cells raise ParseError with the 1-based data
    row number; absent required columns raise MissingColumnError.
    """
    with _open_utf8(path, newline="") as fh:
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
    with _open_utf8(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterDomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterDomainError(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _section(cfg: dict, key: str) -> dict:
    """The sub-object cfg[key], {} when absent or null."""
    value = cfg.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParameterDomainError(f"config key {key!r} must be a JSON object, got {value!r}")
    return value


def _option(cfg: dict, key: str, default, cast=float, flag=None):
    """The flag's value when given, else cfg[key] unless null, else default; None stays None.

    A value that cast rejects is a configuration error naming the key.
    """
    value = flag if flag is not None else cfg.get(key)
    if value is None:
        value = default
    if value is None:
        return None
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ParameterDomainError(f"config key {key!r} has invalid value {value!r}: {exc}") from exc


def _numbers(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError("expected a list of numbers")
    return tuple(float(v) for v in value)


def _design(data: Dataset) -> np.ndarray:
    """The data's design points as an (n, d) array."""
    return data.x.reshape(data.n, data.d)


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]


def _provenance(cfg: dict, seed) -> dict:
    return {"version": __version__, "config_sha256": _config_hash(cfg), "seed": seed}


def _provenance_line(cfg: dict, seed) -> str:
    return f"# lpadapt={__version__} config={_config_hash(cfg)} seed={seed}"


def _basis_from_config(cfg: dict, dim: int = 1) -> Basis:
    return Basis.polynomial(_option(_section(cfg, "basis"), "degree", 1, int), dim=dim)


def _ladder_from_config(cfg: dict, p: int, args, span: float = 1.0, n: int = 200, default_K: int | None = None,
                        d: int = 1) -> ScaleLadder:
    """The one ladder rule of every command.

    Explicit "bandwidths" win.  Otherwise the ladder is geometric from h1
    (default default_h1(n, p, span, d)) with K from --K, the config, then
    default_K, and when none of these is given, as many scales as fit in
    half the span, between 2 and 8.
    """
    lcfg = _section(cfg, "ladder")
    kernel = _option(lcfg, "kernel", "boxcar", str)
    bandwidths = _option(lcfg, "bandwidths", None, _numbers)
    if bandwidths is not None:
        return ScaleLadder(bandwidths, kernel=kernel)
    growth = _option(lcfg, "growth", 1.25, flag=args.u)
    h1 = _option(lcfg, "h1", default_h1(n, p, span, d))
    K = _option(lcfg, "K", default_K, int, args.K)
    if K is None:
        K = max(2, min(8, int(math.floor(math.log(max(span / 2.0 / h1, growth)) / math.log(growth))) + 1))
    return ScaleLadder.geometric(h1, K, growth=growth, kernel=kernel)


def _data_ladder(cfg: dict, data: Dataset | None, p: int, args) -> ScaleLadder:
    """Ladder for a dataset, from its n, its dimension and the range of its first coordinate; without data, the unit interval with cfg's n."""
    if data is None:
        return _ladder_from_config(cfg, p, args, n=_option(cfg, "n", 200, int))
    x1 = _design(data)[:, 0]
    return _ladder_from_config(cfg, p, args, span=float(np.max(x1) - np.min(x1)), n=data.n, d=data.d)


def _sigma_spec(spec: dict) -> SigmaSpec:
    return SigmaSpec(
        pattern=_option(spec, "pattern", "constant", str),
        level=_option(spec, "level", 1.0),
        amplitude=_option(spec, "amplitude", 0.0),
        phase=_option(spec, "phase", 0.0),
    )


def _scene_from_config(cfg: dict) -> Scene:
    sigma_true = _section(cfg, "sigma_true")
    return Scene(
        f=_option(cfg, "f", "constant", str),
        n=_option(cfg, "n", 200, int),
        sigma_model=_sigma_spec(_section(cfg, "sigma_model")),
        sigma_true=_sigma_spec(sigma_true) if sigma_true else None,
        seed=_option(cfg, "seed", 0, int),
        f_scale=_option(cfg, "f_scale", 1.0),
        design=_option(cfg, "design", None, _numbers),
    )


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    alpha, r = _option(cfg, "alpha", 1.0, flag=args.alpha), _option(cfg, "r", 0.5, flag=args.r)
    seed = _option(cfg, "seed", 0, int, args.seed)
    mc = _option(cfg, "mc_size", 20000, int, args.mc)
    method = _option(cfg, "method", "monte_carlo", str)
    if method not in ("monte_carlo", "theoretical"):
        raise ParameterDomainError(f"unknown calibration method {method!r}; choose monte_carlo or theoretical")

    if args.data:
        data = ingest_csv(args.data)
        points, sigma, dim = data.x, data.sigma, data.d
        x_ref = _option(cfg, "x", np.median(_design(data), axis=0), lambda v: np.asarray(v, dtype=float))
    else:
        data = None
        n = _option(cfg, "n", 200, int)
        points, sigma, dim = np.linspace(0.0, 1.0, n), np.full(n, _option(cfg, "sigma", 1.0)), 1
        x_ref = _option(cfg, "x", 0.5)

    basis = _basis_from_config(cfg, dim=dim)
    ladder = _data_ladder(cfg, data, basis.p, args)

    if method == "theoretical":
        ld = LadderDesign(basis, ladder, points, x_ref, sigma)
        u_hat = ld.growth_bounds()[1] if ld.K_eff > 1 else 1.25
        cv = theoretical_cv(basis.p, r, ld.K_eff, alpha, u_hat, mu=_option(cfg, "mu", DEFAULT_MU, flag=args.mu))
    else:
        cv = mc_calibrate(basis, ladder, sigma, points, x_ref, alpha, r, mc, seed)
    payload = asdict(cv)
    payload["z"] = list(payload["z"])
    payload["provenance"] = _provenance(cfg, seed)
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    log.info("calibrated %d thresholds via %s", len(cv.z), cv.method)
    return EXIT_OK


def _critical_values(args, cfg: dict, basis: Basis, ladder: ScaleLadder, sigma, points, x_ref, seed: int) -> CriticalValues:
    """The thresholds of the --cv file, or else calibrated inline at x_ref (mc_size 5000 by default).

    A --cv file must be for this basis (p) and at most this ladder's length:
    a calibration on a truncated ladder records its shorter K_eff.
    """
    if args.cv:
        with _open_utf8(args.cv) as fh:
            cv = CriticalValues.from_json(fh.read())
        if cv.p != basis.p or cv.K > ladder.K:
            raise ParameterDomainError(f"{args.cv} is for p={cv.p} and K={cv.K} scales; the basis has p={basis.p} "
                                       f"and the ladder K={ladder.K} scales")
        return cv
    alpha, r = _option(cfg, "alpha", 1.0, flag=args.alpha), _option(cfg, "r", 0.5, flag=args.r)
    return mc_calibrate(basis, ladder, sigma, points, x_ref, alpha, r, _option(cfg, "mc_size", 5000, int, args.mc), seed)


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
    data.noise_model(delta=_option(cfg, "delta", None))  # checks sigma_true against the declared delta

    x_ref = np.median(_design(data), axis=0)  # coordinatewise median
    cv = _critical_values(args, cfg, basis, ladder, data.sigma, data.x, x_ref, _option(cfg, "seed", 0, int, args.seed))

    points = fit_curve(data, data.x, ladder, basis, cv)
    header_cols = (["x"] if data.d == 1 else [f"x{i + 1}" for i in range(data.d)]) + [
        "f_hat",
        "k_hat",
        "k_eff",
    ] + [f"theta_{j + 1}" for j in range(basis.p)] + ["error"]
    lines = [_provenance_line(cfg, cv.seed), ",".join(header_cols)]
    columns = zip(points.x.tolist(), points.fitted_values.tolist(), points.k_hat.tolist(),
                  points.k_eff.tolist(), points.theta_hat.tolist())
    for x, f_hat, k_hat, k_eff, theta in columns:
        cells = [repr(v) for v in x]
        if k_eff:
            cells += [repr(f_hat), str(k_hat), str(k_eff)] + [repr(v) for v in theta] + [""]
        else:
            cells += ["", "", "0"] + [""] * basis.p + ["singular design at every scale"]
        lines.append(",".join(cells))
    _write_text(args.out, "\n".join(lines) + "\n")

    if args.grid:  # one-dimensional data, checked above
        grid = np.linspace(float(data.x.min()), float(data.x.max()), args.grid)
        gpoints = fit_curve(data, grid, ladder, basis, cv)
        glines = [_provenance_line(cfg, cv.seed), "x,f_hat,k_hat"]
        columns = zip(gpoints.x[:, 0].tolist(), gpoints.fitted_values.tolist(), gpoints.k_hat.tolist(),
                      gpoints.k_eff.tolist())
        glines += [f"{x!r},{f_hat!r},{k_hat}" if k_eff else f"{x!r},," for x, f_hat, k_hat, k_eff in columns]
        gpath = (os.path.splitext(args.out)[0] + "_grid.csv") if args.out else None
        _write_text(gpath, "\n".join(glines) + "\n")
    log.info("fit %d points (%d failed)", points.k_eff.size, int(np.count_nonzero(points.k_eff == 0)))
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
    r = _option(cfg, "r", 0.5, flag=args.r)
    replicates = _option(cfg, "replicates", 2000, int)
    seed = scene.seed
    x_ref = _option(cfg, "x", 0.5)

    cv = _critical_values(args, cfg, basis, ladder, scene.sigma_model_values(), scene.design_points(), x_ref, seed)
    table = risk_experiment(scene, ladder, basis, cv, r, replicates, x=x_ref,
                            delta_budget=_option(cfg, "delta_budget", 1.0))
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
    seed = _option(cfg, "seed", 2024, int, args.seed)
    results = run_all(quick=args.quick, seed=seed, dataset=dataset, delta_declared=_option(cfg, "delta", None))
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
    x_ref = _option(cfg, "x", 0.5)
    seed = args.seed if args.seed is not None else scene.seed
    if seed < 0:  # checked here: validate_pc is handed seed + 1
        raise ParameterDomainError(f"seed must be a non-negative integer, got {seed}")
    mc = _option(cfg, "mc_size", 5000, int, args.mc)
    if mc < 1000:
        raise ParameterDomainError(f"mc_size must be >= 1000, got {mc}")
    cv = _critical_values(args, cfg, basis, ladder, scene.sigma_model_values(), scene.design_points(), x_ref, seed)
    report = build_oracle_report(
        basis,
        ladder,
        scene.design_points(),
        x_ref,
        scene.noise_model(),
        scene.f_values(),
        cv,
        delta_budget=_option(cfg, "delta_budget", 1.0),
        C_j=_option(cfg, "C_j", 1.0),
    )
    obj = json.loads(report.to_json())
    pc = validate_pc(cv, basis, ladder, scene.sigma_model_values(), scene.design_points(), x_ref,
                     max(mc // 4, 1000) if args.quick else mc, seed + 1)
    obj["pc_validation"] = [
        {"k": e.k, "moment": e.moment, "std_error": e.std_error, "bound": e.bound, "passed": e.passed}
        for e in pc.entries
    ]
    obj["provenance"] = _provenance(cfg, seed)
    _write_text(args.out, json.dumps(obj, indent=2) + "\n")
    return EXIT_OK


#: every flag, and the flags each subcommand reads; any other flag is an argparse error (exit 2)
_FLAGS = {
    "config": {"help": "JSON configuration file"},
    "data": {"help": "input CSV (columns x|x1..xd, y, sigma[, sigma_true])"},
    "cv": {"help": "critical values JSON produced by calibrate"},
    "out": {"help": "output path (stdout when omitted)"},
    "alpha": {"type": float, "help": "moment-condition level in (0, 1]"},
    "r": {"type": float, "help": "risk power r > 0"},
    "K": {"type": int, "help": "number of scales"},
    "u": {"type": float, "help": "geometric bandwidth growth factor"},
    "mu": {"type": float, "help": "analytic-threshold parameter in (0, 1/4)"},
    "mc": {"type": int, "help": "Monte-Carlo size"},
    "seed": {"type": int, "help": "base seed"},
    "grid": {"type": int, "help": "emit plot data on an N-point grid"},
    "quick": {"action": "store_true", "help": "reduced MC sizes"},
}
_COMMANDS = {
    "calibrate": (cmd_calibrate, ("config", "data", "out", "alpha", "r", "K", "u", "mu", "mc", "seed")),
    "fit": (cmd_fit, ("config", "data", "cv", "out", "alpha", "r", "K", "u", "mc", "seed", "grid")),
    "simulate": (cmd_simulate, ("config", "cv", "out", "alpha", "r", "K", "u", "mc", "seed")),
    "verify": (cmd_verify, ("config", "data", "out", "seed", "quick")),
    "diagnose": (cmd_diagnose, ("config", "cv", "out", "alpha", "r", "K", "u", "mc", "seed", "quick")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpadapt", description="Adaptive local polynomial regression with calibrated scale selection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("LPADAPT_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"error: LPADAPT_LOG={level!r} is not a log level (DEBUG, INFO, WARNING, ERROR or CRITICAL)", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level.upper(), format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, MissingColumnError, ParameterDomainError, OSError) as exc:
        log.debug("configuration error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LpAdaptError as exc:  # every other package error is a numeric failure
        log.debug("numeric failure: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
