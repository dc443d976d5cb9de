import json

import numpy as np
import pytest

from lpadapt.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, ingest_csv, main
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

    def test_unknown_calibration_method_exit_code(self, tmp_path, capsys):
        data = _write_dataset(tmp_path / "d.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "theoretic"}), encoding="utf-8")
        out = tmp_path / "cv.json"
        code = main(["calibrate", "--data", str(data), "--config", str(cfg), "--mc", "1000", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "unknown calibration method 'theoretic'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_csv_exit_code(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,sigma\n0,nan,1\n", encoding="utf-8")
        assert main(["fit", "--data", str(p)]) == EXIT_CONFIG


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


class TestVerify:
    def test_quick_suite_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--quick", "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["passed"] is True
        names = {c["name"] for c in rep["checks"]}
        assert {"determinant_identity", "pc_theoretical", "kl_sandwich", "chi2_domination_d0.2"} <= names

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
