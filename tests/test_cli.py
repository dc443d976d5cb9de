import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpadapt.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY, ingest_csv, main
from lpadapt.exceptions import MissingColumnError, ParseError


def _write_dataset(path, n=120, noise=0.3, seed=3, sigma_true=None):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    y = 2.0 + noise * rng.standard_normal(n)
    cols = "x,y,sigma" + (",sigma_true" if sigma_true is not None else "")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cols + "\n")
        for i in range(n):
            row = f"{float(x[i])!r},{float(y[i])!r},{noise!r}"
            if sigma_true is not None:
                row += f",{float(sigma_true[i])!r}"
            fh.write(row + "\n")
    return path


def _write_2d_dataset(path, n=400):
    """n uniform points in [0, 1]^2 with y = x1 + noise."""
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, (n, 2))
    y = x[:, 0] + 0.1 * rng.standard_normal(n)
    path.write_text("x1,x2,y,sigma\n" + "".join(f"{a!r},{b!r},{c!r},0.1\n" for (a, b), c in zip(x.tolist(), y.tolist())),
                    encoding="utf-8")
    return path


def _run_fresh(args, **env_vars):
    """Run python with args in a fresh interpreter that imports lpadapt from this checkout, without LPADAPT_LOG."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "LPADAPT_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


class TestIngest:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,sigma\n0,1,1\n1,2,1\n", encoding="utf-8")
        data = ingest_csv(str(p))
        assert data.n == 2 and data.d == 1
        assert data.y.tolist() == [1.0, 2.0]

    def test_multidim_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,y,sigma\n0,0,1,1\n1,0.5,2,1\n0.2,1,0,1\n", encoding="utf-8")
        data = ingest_csv(str(p))
        assert data.d == 2 and data.x.shape == (3, 2)

    def test_missing_sigma(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,1\n", encoding="utf-8")
        with pytest.raises(MissingColumnError):
            ingest_csv(str(p))

    def test_nan_row_reported(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,sigma\n0,nan,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(p))
        assert exc.value.row == 1 and exc.value.column == "y"

    def test_text_cell_reported(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,sigma\n0,1,1\n0.5,oops,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(p))
        assert exc.value.row == 2


class TestCalibrateFit:
    def test_calibrate_then_fit_round_trip(self, tmp_path):
        data = _write_dataset(tmp_path / "d.csv")
        cvp = tmp_path / "cv.json"
        code = main(["calibrate", "--data", str(data), "--mc", "2000", "--seed", "5", "--K", "4", "--out", str(cvp)])
        assert code == EXIT_OK
        payload = json.loads(cvp.read_text())
        assert set(payload) >= {"method", "alpha", "r", "p", "K", "mu", "seed", "mc_size", "z", "provenance"}
        assert len(payload["z"]) == payload["K"] - 1

        fit1 = tmp_path / "fit1.csv"
        fit2 = tmp_path / "fit2.csv"
        assert main(["fit", "--data", str(data), "--cv", str(cvp), "--K", "4", "--out", str(fit1)]) == EXIT_OK
        assert main(["fit", "--data", str(data), "--cv", str(cvp), "--K", "4", "--out", str(fit2)]) == EXIT_OK
        assert fit1.read_bytes() == fit2.read_bytes()
        header = fit1.read_text().splitlines()
        assert header[0].startswith("# lpadapt=")
        assert header[1].split(",")[:4] == ["x", "f_hat", "k_hat", "k_eff"]

    def test_inline_calibration_matches_reingested_json(self, tmp_path):
        # emitted thresholds, re-ingested, give byte-identical fits to the
        # inline calibration with the same settings
        data = _write_dataset(tmp_path / "d.csv")
        cvp = tmp_path / "cv.json"
        flags = ["--mc", "2000", "--seed", "5", "--K", "4"]
        assert main(["calibrate", "--data", str(data), *flags, "--out", str(cvp)]) == EXIT_OK
        via_json = tmp_path / "via_json.csv"
        inline = tmp_path / "inline.csv"
        assert main(["fit", "--data", str(data), "--cv", str(cvp), "--K", "4", "--out", str(via_json)]) == EXIT_OK
        assert main(["fit", "--data", str(data), *flags, "--out", str(inline)]) == EXIT_OK
        assert via_json.read_bytes() == inline.read_bytes()

    def test_constant_data_constant_fit(self, tmp_path):
        data = _write_dataset(tmp_path / "d.csv", noise=0.0)
        # zero noise column is invalid sigma; rewrite with sigma = 1
        lines = (tmp_path / "d.csv").read_text().splitlines()
        rows = [lines[0]] + [",".join(c.split(",")[:2] + ["1.0"]) for c in lines[1:]]
        (tmp_path / "d.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", str(data), "--mc", "2000", "--K", "3", "--out", str(out)]) == EXIT_OK
        body = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
        fhat = {float(row[1]) for row in body}
        assert all(abs(v - 2.0) < 1e-9 for v in fhat)

    def test_grid_output(self, tmp_path):
        data = _write_dataset(tmp_path / "d.csv")
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", str(data), "--mc", "2000", "--K", "3", "--grid", "11", "--out", str(out)]) == EXIT_OK
        grid = (tmp_path / "fit_grid.csv").read_text().splitlines()
        assert grid[1] == "x,f_hat,k_hat"
        assert len(grid) == 13  # provenance + header + 11 rows

    @pytest.mark.parametrize("grid", ["-5", "0"])
    def test_nonpositive_grid_rejected_before_output(self, tmp_path, capsys, grid):
        data = _write_dataset(tmp_path / "d.csv")
        out = tmp_path / "fit.csv"
        code = main(["fit", "--data", str(data), "--mc", "1000", "--K", "3", "--grid", grid, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--grid must be a positive number of points" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "fit_grid.csv").exists()

    def test_grid_on_two_dimensional_data_rejected_before_output(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        rng = np.random.default_rng(2)
        rows = "".join(f"{a!r},{b!r},{a + 0.1 * e!r},0.1\n" for a, b, e in rng.uniform(0.0, 1.0, (60, 3)).tolist())
        p.write_text("x1,x2,y,sigma\n" + rows, encoding="utf-8")
        cv = tmp_path / "cv.json"
        cv.write_text(json.dumps({"z": [3.0, 3.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 3, "K": 3}),
                      encoding="utf-8")
        out = tmp_path / "fit.csv"
        code = main(["fit", "--data", str(p), "--cv", str(cv), "--K", "3", "--grid", "5", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--grid needs one-dimensional data" in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_jump_fit_matches_golden(self, tmp_path):
        # frozen run: dataset, thresholds and expected output live in tests/data
        import pathlib

        data_dir = pathlib.Path(__file__).parent / "data"
        out = tmp_path / "fit.csv"
        code = main([
            "fit", "--data", str(data_dir / "jump_scene.csv"), "--cv", str(data_dir / "jump_cv.json"),
            "--config", str(data_dir / "jump_config.json"), "--out", str(out),
        ])
        assert code == EXIT_OK
        golden = (data_dir / "jump_fit_golden.csv").read_text().splitlines()
        fresh = out.read_text().splitlines()
        assert len(golden) == len(fresh)
        assert fresh[1] == golden[1]
        for grow, frow in zip(golden[2:], fresh[2:]):
            g, f = grow.split(","), frow.split(",")
            assert g[2:4] == f[2:4]  # selected scale and usable ladder depth, exact
            for gv, fv in zip((g[0], g[1], g[4]), (f[0], f[1], f[4])):
                assert float(fv) == pytest.approx(float(gv), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("command", ["calibrate", "fit"])
    def test_two_dimensional_data_calibrates_at_the_coordinatewise_median(self, tmp_path, command):
        p = _write_2d_dataset(tmp_path / "d.csv")
        bandwidths = [0.2, 0.3, 0.45]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ladder": {"bandwidths": bandwidths}}), encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--data", str(p), "--config", str(cfg), "--mc", "2000", "--seed", "0", "--out", str(out)]
        assert main(argv) == EXIT_OK
        if command == "calibrate":
            assert len(json.loads(out.read_text())["z"]) == len(bandwidths) - 1
        else:
            rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
            assert len(rows) == 400 and all(row[4] == "3" for row in rows)  # k_eff

    @pytest.mark.parametrize("command", ["calibrate", "fit"])
    def test_two_dimensional_data_default_ladder(self, tmp_path, command):
        # default_h1 in d = 2: the smallest ball holds about max(4p, 8) = 12 of the 400 points
        p = _write_2d_dataset(tmp_path / "d.csv")
        out = tmp_path / "out"
        assert main([command, "--data", str(p), "--mc", "2000", "--seed", "0", "--out", str(out)]) == EXIT_OK
        if command == "calibrate":
            assert len(json.loads(out.read_text())["z"]) >= 1
        else:
            rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
            assert len(rows) == 400 and all(int(row[4]) >= 2 for row in rows)  # k_eff

    def test_missing_data_flag(self):
        assert main(["fit"]) == EXIT_CONFIG

    def test_numeric_failure_exit_code(self, tmp_path):
        # stagnant ladder: calibration cannot proceed, exit code 3
        data = _write_dataset(tmp_path / "d.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ladder": {"bandwidths": [0.101, 0.1011, 0.1012]}}), encoding="utf-8")
        code = main(["calibrate", "--data", str(data), "--config", str(cfg), "--mc", "1000",
                     "--out", str(tmp_path / "cv.json")])
        assert code == 3

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        data = _write_dataset(tmp_path / "d.csv")
        code = main(["calibrate", "--data", str(data), "--mc", "1000", "--seed", "-3", "--out", str(tmp_path / "cv.json")])
        assert code == EXIT_CONFIG
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "cv.json").exists()

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_r_names_it(self, tmp_path, capsys, r):
        data = _write_dataset(tmp_path / "d.csv")
        out = tmp_path / "cv.json"
        code = main(["calibrate", "--data", str(data), "--mc", "1000", "--r", r, "--out", str(out)])
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert code == EXIT_CONFIG
        assert errors == [f"error: r={float(r)} must be finite and positive"]
        assert not out.exists()

    @pytest.mark.parametrize("cv_text", [
        "{not json",
        '{"method": "fixed", "alpha": 1.0, "r": 0.5, "p": 2, "K": 3}',
        '{"z": [3.0, 3.0], "alpha": 1.0, "r": 0.5, "p": 2, "K": 3}',
        '{"z": [3.0, 3.0], "method": "fixed", "r": 0.5, "p": 2}',
    ], ids=["not_json", "no_z", "no_method", "no_alpha_K"])
    def test_malformed_cv_file_exit_code(self, tmp_path, capsys, cv_text):
        data = _write_dataset(tmp_path / "d.csv")
        cv = tmp_path / "cv.json"
        cv.write_text(cv_text, encoding="utf-8")
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", str(data), "--cv", str(cv), "--K", "3", "--out", str(out)]) == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "malformed critical values" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize("mismatch", ["p", "K"])
    def test_cv_for_another_basis_or_a_longer_ladder_exit_code(self, tmp_path, capsys, command, mismatch):
        # fit's default basis has p = 2, the scene's degree-0 basis p = 1; --K 3 sets both ladders
        p = {"fit": 2, "diagnose": 1}[command]
        cv_p, cv_K = (p + 1, 3) if mismatch == "p" else (p, 5)
        cv = tmp_path / "cv.json"
        cv.write_text(json.dumps({"z": [3.0] * (cv_K - 1), "method": "fixed", "alpha": 1.0, "r": 0.5, "p": cv_p,
                                  "K": cv_K}), encoding="utf-8")
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"f": "jump", "n": 150, "basis": {"degree": 0}}), encoding="utf-8")
        inputs = {"fit": ["--data", str(_write_dataset(tmp_path / "d.csv", n=150))],
                  "diagnose": ["--config", str(scene), "--quick"]}[command]
        out = tmp_path / "out"
        assert main([command, *inputs, "--cv", str(cv), "--K", "3", "--out", str(out)]) == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and f"is for p={cv_p} and K={cv_K} scales" in errors[0], errors
        assert f"the basis has p={p} and the ladder K=3 scales" in errors[0]
        assert not out.exists()

    def test_unknown_calibration_method_exit_code(self, tmp_path, capsys):
        data = _write_dataset(tmp_path / "d.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "theoretic"}), encoding="utf-8")
        out = tmp_path / "cv.json"
        code = main(["calibrate", "--data", str(data), "--config", str(cfg), "--mc", "1000", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "unknown calibration method 'theoretic'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tiny", ["1e-200", "1e-160"])
    @pytest.mark.parametrize("command", ["fit", "calibrate"])
    def test_sigma_whose_square_underflows_exit_code(self, tmp_path, capsys, command, tiny):
        data = tmp_path / "d.csv"
        lines = _write_dataset(data, noise=0.1).read_text(encoding="utf-8").splitlines()
        lines[40] = lines[40].rsplit(",", 1)[0] + "," + tiny
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        with np.errstate(all="raise"):
            code = main([command, "--data", str(data), "--mc", "1000", "--out", str(out)])
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert code == EXIT_CONFIG
        assert len(errors) == 1 and errors[0].startswith("error: sigma"), errors
        assert not out.exists()

    def test_bad_csv_exit_code(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,sigma\n0,nan,1\n", encoding="utf-8")
        assert main(["fit", "--data", str(p)]) == EXIT_CONFIG


class TestUnreadableInput:
    """A directory or a non-UTF-8 file given as an input is a configuration error, exit 2."""

    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    @pytest.mark.parametrize("command,flag", [
        ("fit", "--data"), ("calibrate", "--data"), ("verify", "--data"),
        ("fit", "--cv"), ("simulate", "--config"), ("diagnose", "--config"),
    ])
    def test_unreadable_input_exit_code(self, tmp_path, capsys, command, flag, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"x,y,sigma\n\xff\xfe,1,1\n")
        argv = [command, flag, str(bad)]
        if flag == "--cv":
            argv += ["--data", str(_write_dataset(tmp_path / "d.csv")), "--K", "3"]
        if command != "verify":  # verify takes no --mc
            argv += ["--mc", "1000"]
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1
        if kind == "non_utf8":  # the decoding error alone does not say which input it was
            assert str(bad) in errors[0]
        assert not out.exists() and not (tmp_path / "out.csv").exists()

    def test_error_is_printed_once(self, tmp_path):
        # a fresh process, so logging writes to the real stderr at its default level
        bad = tmp_path / "bad"
        bad.mkdir()
        proc = _run_fresh(["-m", "lpadapt.cli", "fit", "--data", str(bad)])
        assert proc.returncode == EXIT_CONFIG
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and str(bad) in lines[0], proc.stderr


class TestFreshProcess:
    # fresh processes: pytest has imported scipy, the tests' reference implementation, into this one
    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, lpadapt, lpadapt.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = _run_fresh(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", f"importing lpadapt.cli loaded {proc.stdout.strip()}"

    SCENE = {"f": "jump", "n": 150, "x": 0.47, "sigma_model": {"pattern": "constant", "level": 0.25},
             "seed": 5, "replicates": 400, "mc_size": 2000, "ladder": {"K": 4, "growth": 1.5}, "basis": {"degree": 0}}

    @pytest.mark.parametrize("command", ["fit", "calibrate", "verify", "simulate", "diagnose"])
    def test_command_loads_no_scipy(self, tmp_path, command):
        data_dir = Path(__file__).parent / "data"
        data = ["--data", str(data_dir / "jump_scene.csv"), "--config", str(data_dir / "jump_config.json")]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(self.SCENE), encoding="utf-8")
        out = tmp_path / ("fit.csv" if command == "fit" else "out.json")
        argv = {
            "fit": ["fit", *data, "--cv", str(data_dir / "jump_cv.json")],
            "calibrate": ["calibrate", *data, "--mc", "2000"],
            "verify": ["verify", "--quick"],
            "simulate": ["simulate", "--config", str(scene)],
            "diagnose": ["diagnose", "--config", str(scene)],
        }[command] + ["--out", str(out)]
        code = ("import sys; from lpadapt import cli; "
                f"code = cli.main({argv!r}); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy'))); sys.exit(code)")
        proc = _run_fresh(["-c", code])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]", f"lpadapt {command} loaded {proc.stdout.strip()}"
        assert len(out.read_text().splitlines()) > 2

    def test_non_numeric_cv_alpha_exit_code(self, tmp_path):
        # a fresh process, so stderr shows the whole output: one error line and no traceback
        scene, cv, out = tmp_path / "scene.json", tmp_path / "cv.json", tmp_path / "diag.json"
        scene.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 0.47, "sigma_model": {"pattern": "constant", "level": 0.25},
            "seed": 5, "mc_size": 1000, "ladder": {"K": 3, "growth": 1.5}, "basis": {"degree": 0},
        }), encoding="utf-8")
        cv.write_text(json.dumps({"z": [4.0, 4.0], "method": "fixed", "alpha": "1", "r": 0.5, "p": 1, "K": 3}),
                      encoding="utf-8")
        proc = _run_fresh(["-m", "lpadapt.cli", "diagnose", "--config", str(scene), "--cv", str(cv), "--quick",
                           "--out", str(out)])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines == ["error: alpha='1' outside (0, 1]"], proc.stderr
        assert not out.exists()

    def test_unknown_log_level_exit_code(self, tmp_path):
        # a fresh process: in-process, logging.basicConfig does nothing once pytest has installed handlers
        proc = _run_fresh(["-m", "lpadapt.cli", "verify", "--quick", "--out", str(tmp_path / "v.json")], LPADAPT_LOG="verbose")
        assert proc.returncode == EXIT_CONFIG
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "LPADAPT_LOG" in lines[0], proc.stderr
        assert not (tmp_path / "v.json").exists()


class TestSimulateDiagnose:
    def test_simulate_writes_report_and_csv(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 0.47,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "seed": 5, "replicates": 400, "mc_size": 2000,
            "ladder": {"K": 4, "growth": 1.5}, "basis": {"degree": 0},
            "r": 0.5, "alpha": 1.0,
        }), encoding="utf-8")
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["meta"]["k_star"] >= 1
        assert (tmp_path / "sim.csv").exists()
        lines = (tmp_path / "sim.csv").read_text().splitlines()
        assert lines[1] == "scene,k,statistic,estimate,std_error,replicates"

    def test_diagnose_report(self, tmp_path):
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 0.47,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "seed": 5, "mc_size": 2000,
            "ladder": {"K": 4, "growth": 1.5}, "basis": {"degree": 0},
        }), encoding="utf-8")
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["delta_seq_monotone"] is True
        assert rep["boxcar_determinant_check"]["rel_err"] < 1e-8
        assert all(row["within"] for row in rep["kl"])

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_explicit_bandwidths_honoured(self, tmp_path, command):
        bandwidths = [0.03, 0.045, 0.07, 0.1, 0.15]
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 0.47,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "seed": 5, "replicates": 400, "mc_size": 2000,
            "ladder": {"bandwidths": bandwidths, "K": 3}, "basis": {"degree": 0},
        }), encoding="utf-8")
        out = tmp_path / "out.json"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        if command == "diagnose":
            assert rep["K"] == len(bandwidths)
            assert len(rep["pc_validation"]) == len(bandwidths) - 1
        else:
            assert max(row["k"] or 0 for row in rep["rows"]) == len(bandwidths)

    def test_simulate_negative_seed_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 0.47,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "seed": 5, "replicates": 400, "mc_size": 1000,
            "ladder": {"K": 4, "growth": 1.5}, "basis": {"degree": 0},
        }), encoding="utf-8")
        code = main(["simulate", "--config", str(cfg), "--seed", "-3", "--out", str(tmp_path / "sim.json")])
        assert code == EXIT_CONFIG
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def _diagnose_with_cv(self, tmp_path, capsys, *flags, **cfg):
        scene, cv = tmp_path / "scene.json", tmp_path / "cv.json"
        scene.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 0.47,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "seed": 5, "mc_size": 1000,
            "ladder": {"K": 3, "growth": 1.5}, "basis": {"degree": 0}, **cfg,
        }), encoding="utf-8")
        cv.write_text(json.dumps({"z": [4.0, 4.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 3}),
                      encoding="utf-8")
        out = tmp_path / "diag.json"
        code = main(["diagnose", "--config", str(scene), "--cv", str(cv), *flags, "--out", str(out)])
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        return code, errors, out

    @pytest.mark.parametrize("flags,cfg", [(["--mc", "5"], {}), ([], {"mc_size": -5}), (["--mc", "999", "--quick"], {})],
                             ids=["flag", "config", "quick"])
    def test_diagnose_small_mc_exit_code(self, tmp_path, capsys, flags, cfg):
        code, errors, out = self._diagnose_with_cv(tmp_path, capsys, *flags, **cfg)
        assert code == EXIT_CONFIG
        assert len(errors) == 1 and "mc_size must be >= 1000" in errors[0], errors
        assert not out.exists()

    def test_diagnose_quick_keeps_its_floor(self, tmp_path, capsys):
        code, errors, out = self._diagnose_with_cv(tmp_path, capsys, "--mc", "1000", "--quick")
        assert code == EXIT_OK and errors == []
        assert json.loads(out.read_text())["pc_validation"]

    def test_diagnose_with_too_few_thresholds_exit_code(self, tmp_path, capsys):
        """A --cv file with fewer thresholds than the ladder has usable scales exits 2, as simulate does."""
        scene, cv = tmp_path / "scene.json", tmp_path / "cv.json"
        scene.write_text(json.dumps({"f": "constant", "n": 150, "ladder": {"K": 4, "growth": 1.5},
                                     "basis": {"degree": 0}}), encoding="utf-8")
        cv.write_text(json.dumps({"z": [4.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 2}),
                      encoding="utf-8")
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--config", str(scene), "--cv", str(cv), "--out", str(out)]) == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "need at least 3 thresholds for K=4 scales, got 1" in errors[0], errors
        assert not out.exists()

    @pytest.mark.parametrize("flags,cfg", [(["--seed", "-3"], {}), ([], {"seed": -3})], ids=["flag", "config"])
    def test_diagnose_negative_seed_names_it(self, tmp_path, capsys, flags, cfg):
        code, errors, out = self._diagnose_with_cv(tmp_path, capsys, *flags, **cfg)
        assert code == EXIT_CONFIG
        assert errors == ["error: seed must be a non-negative integer, got -3"]
        assert not out.exists()

    def _simulate_with_cv(self, tmp_path, *flags):
        cfg, cv = tmp_path / "scenario.json", tmp_path / "cv.json"
        cfg.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 0.47,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "seed": 5, "replicates": 400,
            "ladder": {"K": 4, "growth": 1.5}, "basis": {"degree": 0},
        }), encoding="utf-8")
        cv.write_text(json.dumps({"z": [4.0, 4.0, 4.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 4}),
                      encoding="utf-8")
        out = tmp_path / "sim.json"
        out.unlink(missing_ok=True)
        code = main(["simulate", "--config", str(cfg), "--cv", str(cv), "--out", str(out), *flags])
        return code, json.loads(out.read_text())["rows"] if code == EXIT_OK else None

    def test_simulate_seed_seeds_replicates_with_cv(self, tmp_path, capsys):
        _, default = self._simulate_with_cv(tmp_path)
        assert self._simulate_with_cv(tmp_path, "--seed", "5") == (EXIT_OK, default)  # the scene's seed
        code, other = self._simulate_with_cv(tmp_path, "--seed", "6")
        assert code == EXIT_OK and other != default
        code, _ = self._simulate_with_cv(tmp_path, "--seed", "-3")
        assert code == EXIT_CONFIG
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["-1", "0", "nan", "inf"])
    def test_simulate_bad_r_names_it(self, tmp_path, capsys, r):
        # with --cv nothing calibrates inline, so risk_experiment itself must refuse r
        assert self._simulate_with_cv(tmp_path, "--r", r) == (EXIT_CONFIG, None)
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert errors == [f"error: r={float(r)} must be finite and positive"]
        assert not (tmp_path / "sim.json").exists() and not (tmp_path / "sim.csv").exists()

    def test_simulate_zero_replicates_exit_code(self, tmp_path, capsys):
        cfg, cv = tmp_path / "scenario.json", tmp_path / "cv.json"
        cfg.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 0.47,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "seed": 5, "replicates": 0,
            "ladder": {"K": 4, "growth": 1.5}, "basis": {"degree": 0},
        }), encoding="utf-8")
        cv.write_text(json.dumps({"z": [4.0, 4.0, 4.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 4}),
                      encoding="utf-8")
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", str(cfg), "--cv", str(cv), "--out", str(out)]) == EXIT_CONFIG
        assert "replicates must be >= 1" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "sim.csv").exists()

    def test_simulate_requires_config(self):
        assert main(["simulate"]) == EXIT_CONFIG

    def test_diagnose_writes_infinity_for_an_overflowing_bound(self, tmp_path, capsys):
        """Bias indices of 1.25e5 and 3.6e6 at scales 4 and 5 overflow exp: the bound is vacuous, not an error."""
        scene, cv = tmp_path / "scene.json", tmp_path / "cv.json"
        scene.write_text(json.dumps({
            "f": "jump", "n": 400, "x": 0.47, "f_scale": 50.0,
            "sigma_model": {"pattern": "constant", "level": 0.05},
            "sigma_true": {"pattern": "sine", "level": 0.05, "amplitude": 0.2},
            "ladder": {"K": 5, "growth": 1.5}, "basis": {"degree": 0},
        }), encoding="utf-8")
        cv.write_text(json.dumps({"z": [20, 15, 10, 5], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 5}),
                      encoding="utf-8")
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--config", str(scene), "--cv", str(cv), "--quick", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        text = out.read_text()
        assert '"bound": Infinity' in text
        rep = json.loads(text)
        bounds = [row["bound"] for row in rep["propagation_bounds"]]
        assert all(map(math.isfinite, bounds[:3])) and bounds[3:] == [math.inf, math.inf]
        assert [row["upper"] for row in rep["z2_bounds"]][3:] == [math.inf, math.inf]
        assert math.isfinite(rep["oracle_bound"])  # k_star = 3

    @pytest.mark.parametrize("command,key,value,message", [
        ("simulate", "delta_budget", -1.0, "delta_budget must be a nonnegative number, got -1.0"),
        ("simulate", "delta_budget", math.nan, "delta_budget must be a nonnegative number, got nan"),
        ("diagnose", "delta_budget", -1.0, "delta_budget must be a nonnegative number, got -1.0"),
        ("diagnose", "delta_budget", math.nan, "delta_budget must be a nonnegative number, got nan"),
        ("diagnose", "C_j", -1.0, "C_j must be finite and positive, got -1.0"),
        ("diagnose", "C_j", 0.0, "C_j must be finite and positive, got 0.0"),
        ("diagnose", "C_j", math.nan, "C_j must be finite and positive, got nan"),
        ("diagnose", "C_j", math.inf, "C_j must be finite and positive, got inf"),
    ])
    def test_bad_budget_or_C_j_exit_code(self, tmp_path, capsys, command, key, value, message):
        scene, cv = tmp_path / "scene.json", tmp_path / "cv.json"
        scene.write_text(json.dumps({  # json.dumps writes NaN and Infinity
            "f": "jump", "n": 150, "x": 0.47, "seed": 5, "replicates": 400, "mc_size": 1000,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "ladder": {"K": 4, "growth": 1.5}, "basis": {"degree": 0}, key: value,
        }), encoding="utf-8")
        cv.write_text(json.dumps({"z": [4.0, 4.0, 4.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 4}),
                      encoding="utf-8")
        out = tmp_path / "out.json"
        assert main([command, "--config", str(scene), "--cv", str(cv), "--out", str(out)]) == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert errors == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command,method", [("calibrate", "monte_carlo"), ("calibrate", "theoretical"),
                                                ("simulate", None), ("diagnose", None)],
                             ids=["calibrate", "calibrate-theoretical", "simulate", "diagnose"])
    def test_point_without_two_usable_scales_is_a_numeric_failure(self, tmp_path, capsys, command, method):
        """x = 1.7 lies outside the design on [0, 1], so no scale is usable: every command exits 3."""
        scene, cv = tmp_path / "scene.json", tmp_path / "cv.json"
        scene.write_text(json.dumps({
            "f": "jump", "n": 150, "x": 1.7, "seed": 5, "replicates": 400, "mc_size": 1000,
            "sigma_model": {"pattern": "constant", "level": 0.25},
            "ladder": {"K": 4, "growth": 1.5}, "basis": {"degree": 0},
            **({"method": method} if method else {}),
        }), encoding="utf-8")
        cv.write_text(json.dumps({"z": [4.0, 4.0, 4.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 1, "K": 4}),
                      encoding="utf-8")
        out = tmp_path / "out.json"
        thresholds = [] if command == "calibrate" else ["--cv", str(cv)]
        assert main([command, "--config", str(scene), *thresholds, "--out", str(out)]) == EXIT_NUMERIC
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "usable scale" in errors[0], errors
        assert not out.exists()


class TestVerify:
    def test_quick_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--quick", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        names = {c["name"] for c in rep["checks"]}
        assert {"determinant_identity", "pc_theoretical", "kl_sandwich", "chi2_domination_d0.2"} <= names

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        # check i is seeded with seed + i, so -20 used to reach numpy as a negative seed
        out = tmp_path / "verify.json"
        assert main(["verify", "--quick", "--seed", "-20", "--out", str(out)]) == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert errors == ["error: seed must be a non-negative integer, got -20"]
        assert not out.exists()

    def test_a4_violation_fails(self, tmp_path):
        # sigma_true far outside the admissible relative band: delta >= 1
        data = _write_dataset(tmp_path / "d.csv", sigma_true=np.full(120, 0.9))
        out = tmp_path / "verify.json"
        assert main(["verify", "--quick", "--data", str(data), "--out", str(out)]) == EXIT_VERIFY
        rep = json.loads(out.read_text())
        failing = [c for c in rep["checks"] if not c["passed"]]
        assert failing and failing[0]["name"] == "noise_model_a4"

    def test_a4_declared_budget(self, tmp_path):
        data = _write_dataset(tmp_path / "d.csv", sigma_true=np.full(120, 0.32))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.01}), encoding="utf-8")
        out = tmp_path / "verify.json"
        # realized delta ~ 0.138 exceeds the declared 0.01 budget
        assert main(["verify", "--quick", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY

    @pytest.mark.parametrize("with_data", [False, True], ids=["no-data", "data-without-sigma-true"])
    def test_out_of_range_delta_exit_code(self, tmp_path, capsys, with_data):
        # fit rejects this budget, and so does verify, whether or not it has data to check
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.5}), encoding="utf-8")
        out = tmp_path / "verify.json"
        argv = ["verify", "--quick", "--config", str(cfg), "--out", str(out)]
        if with_data:
            argv += ["--data", str(_write_dataset(tmp_path / "d.csv"))]
        assert main(argv) == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert errors == ["error: delta=1.5 outside [0, 1)"]
        assert not out.exists()


class TestConfigValues:
    """A config value of the wrong type is a configuration error naming its key, not a traceback."""

    SCENE = {"f": "jump", "n": 150, "x": 0.47, "seed": 5, "replicates": 400, "mc_size": 2000,
             "sigma_model": {"pattern": "constant", "level": 0.25}, "basis": {"degree": 0}}

    @pytest.mark.parametrize("command,cfg,named", [
        ("verify", {"seed": "abc"}, "'seed'"),
        ("calibrate", [1, 2], "JSON object"),
        ("diagnose", {**SCENE, "ladder": "x"}, "'ladder'"),
        ("simulate", {**SCENE, "n": "many"}, "'n'"),
        # integer keys take JSON integers only, real keys JSON numbers; a boolean is never a number
        ("calibrate", {"seed": 2.7}, "'seed'"),
        ("calibrate", {"mc_size": 1500.9}, "'mc_size'"),
        ("calibrate", {"mc_size": True}, "'mc_size'"),
        ("calibrate", {"n": "150"}, "'n'"),
        ("calibrate", {"n": 150.0}, "'n'"),
        ("calibrate", {"n": 0}, "'n'"),
        ("calibrate", {"n": -5}, "'n'"),
        ("simulate", {**SCENE, "n": 0}, "'n'"),
        ("diagnose", {**SCENE, "n": -5}, "'n'"),
        ("calibrate", {"basis": {"degree": 1.9}}, "'degree'"),
        ("calibrate", {"ladder": {"K": 3.9}}, "'K'"),
        ("calibrate", {"alpha": True}, "'alpha'"),
        ("calibrate", {"r": "0.5"}, "'r'"),
        ("calibrate", {"sigma": False}, "'sigma'"),
        ("calibrate", {"x": True}, "'x'"),
        ("calibrate --data", {"x": [True]}, "'x'"),
        ("calibrate", {"ladder": {"h1": "0.05"}}, "'h1'"),
        ("calibrate", {"ladder": {"bandwidths": [0.05, True]}}, "'bandwidths'"),
        ("simulate", {**SCENE, "replicates": 400.5}, "'replicates'"),
        ("simulate", {**SCENE, "design": [0.1, "0.5", 0.9]}, "'design'"),
        ("simulate", {**SCENE, "sigma_model": {"level": True}}, "'level'"),
        ("diagnose", {**SCENE, "seed": True}, "'seed'"),
        ("verify", {"seed": 5.0}, "'seed'"),
        ("verify", {"delta": True}, "'delta'"),
    ], ids=["verify_seed", "calibrate_list", "diagnose_ladder", "simulate_n",
            "seed_real", "mc_size_real", "mc_size_bool", "n_text", "n_real", "n_zero", "n_negative",
            "simulate_n_zero", "diagnose_n_negative", "degree_real", "K_real", "alpha_bool",
            "r_text", "sigma_bool", "x_bool", "x_list_bool", "h1_text", "bandwidths_bool", "replicates_real",
            "design_text", "level_bool", "diagnose_seed_bool", "verify_seed_real", "delta_bool"])
    def test_malformed_value_exit_code(self, tmp_path, capsys, command, cfg, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out.json"
        data = ["--data", str(_write_dataset(tmp_path / "d.csv"))] if command.endswith("--data") else []
        assert main([command.split()[0], "--config", str(path), *data, "--out", str(out)]) == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and named in errors[0], errors
        assert not out.exists()


# The flags each subcommand reads.
KEPT = {
    "calibrate": ["config", "data", "out", "alpha", "r", "K", "u", "mu", "mc", "seed"],
    "fit": ["config", "data", "cv", "out", "alpha", "r", "K", "u", "mc", "seed", "grid"],
    "simulate": ["config", "cv", "out", "alpha", "r", "K", "u", "mc", "seed"],
    "verify": ["config", "data", "out", "seed", "quick"],
    "diagnose": ["config", "cv", "out", "alpha", "r", "K", "u", "mc", "seed", "quick"],
}
ALL_FLAGS = ["config", "data", "cv", "out", "alpha", "r", "K", "u", "mu", "mc", "seed", "grid", "quick"]
DROPPED = [(command, flag) for command, kept in KEPT.items() for flag in ALL_FLAGS if flag not in kept]


@pytest.fixture
def small_inputs(tmp_path):
    """Flag values for a small run of each subcommand: {flag: value}, config per subcommand."""
    scene = {"f": "jump", "n": 150, "x": 0.47, "seed": 5, "replicates": 400, "mc_size": 1000,
             "sigma_model": {"pattern": "constant", "level": 0.25}, "basis": {"degree": 1}}  # p = 2, as in cv.json
    configs = {
        "calibrate": {"method": "theoretical"},  # the branch that reads --mu; --mc and --seed are read before it
        "fit": {"basis": {"degree": 1}},
        "simulate": scene,
        "verify": {"delta": 0.5},
        "diagnose": scene,
    }
    for command, cfg in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(cfg), encoding="utf-8")
    cv = tmp_path / "cv.json"
    cv.write_text(json.dumps({"z": [4.0, 4.0], "method": "fixed", "alpha": 1.0, "r": 0.5, "p": 2, "K": 3}),
                  encoding="utf-8")
    values = {"data": str(_write_dataset(tmp_path / "d.csv")), "cv": str(cv), "out": str(tmp_path / "out.csv"),
              "alpha": "1.0", "r": "0.5", "K": "3", "u": "1.5", "mu": "0.1", "mc": "1000", "seed": "1", "grid": "5"}
    return tmp_path, values


@pytest.mark.parametrize("flags,cfg", [
    (["--u", "nan"], {}), (["--u", "inf"], {}), ([], {"ladder": {"h1": float("nan")}}),
    ([], {"ladder": {"bandwidths": [0.1, float("inf")]}}),  # json.dumps writes NaN and Infinity
], ids=["u-nan", "u-inf", "h1-NaN", "bandwidths-Infinity"])
@pytest.mark.parametrize("K", [["--K", "4"], []], ids=["K", "default-K"])
def test_non_finite_ladder_exit_code(small_inputs, capsys, flags, cfg, K):
    """A NaN or infinite bandwidth or growth factor exits 2 before any fit, with or without --K."""
    tmp_path, values = small_inputs
    (tmp_path / "ladder.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "fit.csv"
    assert main(["fit", "--data", values["data"], "--cv", values["cv"], "--config", str(tmp_path / "ladder.json"),
                 *K, *flags, "--out", str(out)]) == EXIT_CONFIG
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "finite" in errors[0], errors
    assert not out.exists()


class TestFlags:
    def test_each_subcommand_registers_only_the_flags_it_reads(self):
        from lpadapt.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        registered = {name: sorted(a.dest for a in sp._actions if a.dest != "help") for name, sp in sub.choices.items()}
        assert registered == {name: sorted(flags) for name, flags in KEPT.items()}
        assert sum(map(len, KEPT.values())) == 45

    @pytest.mark.parametrize("command,flag", DROPPED, ids=[f"{c}-{f}" for c, f in DROPPED])
    def test_dropped_flag_exits_2(self, small_inputs, capsys, command, flag):
        tmp_path, values = small_inputs
        # a run that succeeds without the flag
        base = {
            "calibrate": ["--mc", "1000", "--K", "3"],
            "fit": ["--data", values["data"], "--cv", values["cv"], "--K", "3"],
            "simulate": ["--config", str(tmp_path / "simulate.json"), "--cv", values["cv"], "--K", "3"],
            "verify": ["--quick"],
            "diagnose": ["--config", str(tmp_path / "diagnose.json"), "--cv", values["cv"], "--K", "3", "--quick"],
        }[command]
        out = tmp_path / "out.json"
        extra = [f"--{flag}"] + ([] if flag == "quick" else ["5"])
        assert main([command, *base, *extra, "--out", str(out)]) == EXIT_CONFIG
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
        assert not out.exists()

    # without --cv, fit, simulate and diagnose also read --alpha, --r and --mc to calibrate inline
    RUNS = [(command, True) for command in KEPT] + [(command, False) for command in KEPT if "cv" in KEPT[command]]

    @pytest.mark.parametrize("command,with_cv", RUNS, ids=[f"{c}-{'cv' if w else 'inline'}" for c, w in RUNS])
    def test_every_kept_flag_runs(self, small_inputs, command, with_cv):
        # a helper reading a flag its subcommand does not register raises AttributeError here
        tmp_path, values = small_inputs
        argv = [command]
        for flag in KEPT[command]:
            if flag == "config":
                argv += ["--config", str(tmp_path / f"{command}.json")]
            elif flag == "quick":
                argv += ["--quick"]
            elif flag != "cv" or with_cv:
                argv += [f"--{flag}", values[flag]]
        assert main(argv) == EXIT_OK
        assert (tmp_path / "out.csv").exists()
