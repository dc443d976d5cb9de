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
import itertools
import json
import logging
import math
import operator
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .calibration import DEFAULT_MU, MIN_MC_SIZE, CriticalValues, check_mc_size, mc_calibrate, theoretical_cv, validate_pc
from .dataset import Dataset
from .exceptions import CalibrationFailedError, LpAdaptError, MissingColumnError, ParameterDomainError, ParseError
from .fll_selector import fit_curve
from .local_model import Basis, LadderDesign, ScaleLadder, _check_delta, check_noise, default_h1
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
    """path opened as UTF-8 text without a leading byte-order mark; a decoding error while it is read names the file."""
    with open(path, newline=newline, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParameterDomainError(f"{path} is not UTF-8 text: {exc}") from exc


def ingest_csv(path: str) -> Dataset:
    """Read a UTF-8 CSV with columns x (or x1..xd), y, sigma[, sigma_true].

    A leading byte-order mark is skipped, and rows whose cells are all
    blank are ignored.  A cell is a number when Python's float reads it.
    One streaming pass drops the rows whose cells are all empty, fills one
    array with one float call per needed cell, and checks it for finiteness
    once.  A file that this pass cannot convert, or that holds a non-finite
    value, is read once more cell by cell (_cells), which also skips
    whitespace-only rows and names the first bad cell; so a file with a
    whitespace-only row is read twice.

    Non-finite or unparseable cells raise ParseError with the 1-based data
    row number (blank rows included).  Absent required columns, x columns
    other than x1..xd, x beside x1..xd, or a column that is read appearing
    twice raise MissingColumnError.  A row that the csv module cannot split
    raises ParameterDomainError naming the file and line.
    """
    names, values = _read_csv(path, _stream)
    if values is None or not np.isfinite(values).all():
        names, values = _read_csv(path, _cells)
    if not values.size:
        raise MissingColumnError("no data rows")
    values = values.reshape(-1, len(names)).T  # (len(names), n)
    d, has_true = names.index("y"), names[-1] == "sigma_true"
    return Dataset(
        x=values[0].copy() if d == 1 else values[:d].T.copy(),
        y=values[d].copy(),
        sigma=values[d + 1].copy(),
        sigma_true=values[d + 2].copy() if has_true else None,
    )


def _read_csv(path: str, convert):
    """The columns that path's header asks to read (design columns, y, sigma[, sigma_true]), and convert of its data rows."""
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise MissingColumnError("empty file: no header row")
            header = [h.strip() for h in header]
            names = _x_columns(header) + ["y", "sigma"] + (["sigma_true"] if "sigma_true" in header else [])
            for name in names:
                if name not in header:
                    raise MissingColumnError(f"missing required column {name!r}")
                if header.count(name) > 1:
                    raise MissingColumnError(f"column {name!r} appears {header.count(name)} times in the header")
            return names, convert(reader, names, [header.index(name) for name in names])
        except csv.Error as exc:
            raise ParameterDomainError(f"{path}, line {reader.line_num}: {exc}") from exc


def _x_columns(header: list[str]) -> list[str]:
    """The design columns of a header: x alone, or else x1..xd, which must all be there."""
    numbered = sorted({h for h in header if h.startswith("x") and h[1:].isdecimal()}, key=lambda h: int(h[1:]))
    if "x" in header:
        if numbered:
            raise MissingColumnError(f"column 'x' appears beside {numbered}: give x alone or x1..xd")
        return ["x"]
    if not numbered:
        raise MissingColumnError("need column 'x' or columns 'x1'..'xd'")
    numbers = {int(h[1:]) for h in numbered}
    for j in range(1, len(numbered) + 1):
        if j not in numbers:
            raise MissingColumnError(f"missing column 'x{j}': the x columns must be x1..xd without a gap, got {numbered}")
    return numbered


def _stream(rows, names: list[str], cols: list[int]) -> np.ndarray | None:
    """The cells cols of the rows not all empty, row after row, as one array; None if a row is short or a cell not a number."""
    pick = operator.itemgetter(*cols)  # at least x, y and sigma, so always a tuple
    try:
        return np.fromiter(map(float, itertools.chain.from_iterable(map(pick, filter(any, rows)))), float)
    except (IndexError, ValueError):
        return None


def _cells(rows, names: list[str], cols: list[int]) -> np.ndarray:
    """The cells cols of the non-blank rows, one at a time; ParseError at the first bad cell, rows numbered from 1."""
    values = []
    for rownum, row in enumerate(rows, start=1):
        if not any(cell.strip() for cell in row):
            continue
        for name, idx in zip(names, cols):
            if idx >= len(row):
                raise ParseError(rownum, name, "missing value")
            try:
                values.append(float(row[idx]))
            except ValueError:
                raise ParseError(rownum, name, f"not a number: {row[idx]!r}") from None
            if not math.isfinite(values[-1]):
                raise ParseError(rownum, name, f"non-finite value {row[idx]!r}")
    return np.array(values)


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


def _integer(value) -> int:
    """value if it is a JSON integer; JSON's true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _count(value) -> int:
    """value if it is a positive JSON integer."""
    if _integer(value) < 1:
        raise ValueError("expected a positive integer")
    return value


def _real(value) -> float:
    """value as a float if it is a JSON number; JSON's true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def _option(cfg: dict, key: str, default, cast=_real, flag=None):
    """cast of the flag's value when given, else of cfg[key] unless null, else default as it is.

    A value that cast rejects is a configuration error naming the key.
    """
    value = flag if flag is not None else cfg.get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ParameterDomainError(f"config key {key!r} has invalid value {value!r}: {exc}") from exc


def _numbers(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError("expected a list of numbers")
    return tuple(map(_real, value))


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
    return Basis.polynomial(_option(_section(cfg, "basis"), "degree", 1, _integer), dim=dim)


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
    K = _option(lcfg, "K", default_K, _integer, args.K)
    if K is None:
        ScaleLadder.geometric(h1, 1, growth=growth)  # rejects a bad h1 or growth before the count below uses them
        K = max(2, min(8, int(math.floor(math.log(max(span / 2.0 / h1, growth)) / math.log(growth))) + 1))
    return ScaleLadder.geometric(h1, K, growth=growth, kernel=kernel)


def _data_ladder(cfg: dict, data: Dataset | None, p: int, args) -> ScaleLadder:
    """Ladder for a dataset, from its n, its dimension and the range of its first coordinate; without data, the unit interval with cfg's n."""
    if data is None:
        return _ladder_from_config(cfg, p, args, n=_option(cfg, "n", 200, _count))
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
        n=_option(cfg, "n", 200, _count),
        sigma_model=_sigma_spec(_section(cfg, "sigma_model")),
        sigma_true=_sigma_spec(sigma_true) if sigma_true else None,
        seed=_option(cfg, "seed", 0, _integer),
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
    seed = _option(cfg, "seed", 0, _integer, args.seed)
    mc = _option(cfg, "mc_size", 20000, _integer, args.mc)
    method = _option(cfg, "method", "monte_carlo", str)
    if method not in ("monte_carlo", "theoretical"):
        raise ParameterDomainError(f"unknown calibration method {method!r}; choose monte_carlo or theoretical")

    if args.data:
        data = ingest_csv(args.data)
        points, sigma, dim = data.x, data.sigma, data.d
        x_ref = _option(cfg, "x", np.median(_design(data), axis=0),
                        lambda v: np.asarray(_numbers(v) if isinstance(v, list) else _real(v)))
    else:
        data = None
        n = _option(cfg, "n", 200, _count)
        points, sigma, dim = np.linspace(0.0, 1.0, n), np.full(n, _option(cfg, "sigma", 1.0)), 1
        x_ref = _option(cfg, "x", 0.5)

    basis = _basis_from_config(cfg, dim=dim)
    ladder = _data_ladder(cfg, data, basis.p, args)

    if method == "theoretical":
        ld = LadderDesign(basis, ladder, points, x_ref, sigma)
        if ld.K_eff < 1:  # a numeric failure, as in mc_calibrate
            raise CalibrationFailedError("no usable scale at the calibration point")
        u_hat = ld.growth_bounds()[1] if ld.K_eff > 1 else 1.25
        cv = theoretical_cv(basis.p, r, ld.K_eff, alpha, u_hat, mu=_option(cfg, "mu", DEFAULT_MU, flag=args.mu))
    else:
        cv = mc_calibrate(basis, ladder, sigma, points, x_ref, alpha, r, mc, seed)
    _write_text(args.out, json.dumps({**asdict(cv), "provenance": _provenance(cfg, seed)}, indent=2) + "\n")
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
    return mc_calibrate(basis, ladder, sigma, points, x_ref, alpha, r, _option(cfg, "mc_size", 5000, _integer, args.mc), seed)


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
    check_noise(data.sigma, data.sigma_true, _option(cfg, "delta", None))  # sigma_true against the declared delta

    x_ref = np.median(_design(data), axis=0)  # coordinatewise median
    cv = _critical_values(args, cfg, basis, ladder, data.sigma, data.x, x_ref, _option(cfg, "seed", 0, _integer, args.seed))

    points = fit_curve(data, data.x, ladder, basis, cv)
    x_names = ["x"] if data.d == 1 else [f"x{i + 1}" for i in range(data.d)]
    header = ",".join(x_names + ["f_hat", "k_hat", "k_eff"] + [f"theta_{j + 1}" for j in range(basis.p)] + ["error"])
    row = ",".join(["%r"] * data.d + ["%r", "%d", "%d"] + ["%r"] * basis.p + [""])
    failed = ",".join(["%r"] * data.d + ["", "", "0"] + [""] * basis.p + ["singular design at every scale"])
    lines = _rows(row, failed, [*points.x.T, points.fitted_values, points.k_hat, points.k_eff, *points.theta_hat.T],
                  points.k_eff, data.d)
    _write_text(args.out, "\n".join([_provenance_line(cfg, cv.seed), header, *lines, ""]))

    if args.grid:  # one-dimensional data, checked above
        grid = np.linspace(float(data.x.min()), float(data.x.max()), args.grid)
        gpoints = fit_curve(data, grid, ladder, basis, cv)
        glines = _rows("%r,%r,%d", "%r,,", [gpoints.x[:, 0], gpoints.fitted_values, gpoints.k_hat], gpoints.k_eff, 1)
        gpath = (os.path.splitext(args.out)[0] + "_grid.csv") if args.out else None
        _write_text(gpath, "\n".join([_provenance_line(cfg, cv.seed), "x,f_hat,k_hat", *glines, ""]))
    log.info("fit %d points (%d failed)", points.k_eff.size, int(np.count_nonzero(points.k_eff == 0)))
    return EXIT_OK


def _rows(row: str, failed: str, columns: list[np.ndarray], k_eff: np.ndarray, d: int) -> list[str]:
    """One line per point: row % (its value in each column), or failed % (its d coordinates) where k_eff is 0.

    %r writes a float as repr does and %d an integer as str does.
    """
    values = [c.tolist() for c in columns]
    lines = list(map(row.__mod__, zip(*values)))
    for g in np.flatnonzero(k_eff == 0).tolist():
        lines[g] = failed % tuple(v[g] for v in values[:d])
    return lines


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
    replicates = _option(cfg, "replicates", 2000, _integer)
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
    seed = _option(cfg, "seed", 2024, _integer, args.seed)
    delta = _option(cfg, "delta", None)
    if delta is not None:  # checked as fit checks it, with or without --data
        _check_delta(delta)
    results = run_all(quick=args.quick, seed=seed, dataset=dataset, delta_declared=delta)
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
    mc = _option(cfg, "mc_size", 5000, _integer, args.mc)
    check_mc_size(mc)  # here too, so that a small size fails before any calibration or report work
    cv = _critical_values(args, cfg, basis, ladder, scene.sigma_model_values(), scene.design_points(), x_ref, seed)
    report = build_oracle_report(
        basis,
        ladder,
        scene.design_points(),
        x_ref,
        scene.sigma_model_values(),
        scene.sigma_true_values(),
        scene.f_values(),
        cv,
        delta_budget=_option(cfg, "delta_budget", 1.0),
        C_j=_option(cfg, "C_j", 1.0),
    )
    pc = validate_pc(cv, basis, ladder, scene.sigma_model_values(), scene.design_points(), x_ref,
                     max(mc // 4, MIN_MC_SIZE) if args.quick else mc, seed + 1)
    report["pc_validation"] = [asdict(e) for e in pc.entries]
    report["provenance"] = _provenance(cfg, seed)
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
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
