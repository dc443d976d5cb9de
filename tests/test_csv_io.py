"""CSV input and output of the command line, against the per-cell code they replaced.

ingest_csv converts a file in one streaming pass, or else cell by cell,
and cmd_fit writes one template per row.  conftest keeps the per-cell
reader (ingest_cells) and the per-cell row formatters (fit_lines_cells,
grid_lines_cells) as oracles: a valid file must give the same bits, a
malformed one the same ParseError, and fit's output the same bytes.
"""

import json

import numpy as np
import pytest

from lpadapt import cli
from lpadapt.cli import EXIT_CONFIG, EXIT_OK, ingest_csv, main
from lpadapt.exceptions import MissingColumnError, ParameterDomainError, ParseError

from conftest import fit_lines_cells, grid_lines_cells, ingest_cells


def _repr_rows(rng, n):
    x = np.sort(rng.uniform(-3.0, 3.0, n))
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    return "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(x.tolist(), y.tolist(), rng.uniform(0.1, 2.0, n).tolist()))


VALID = {
    "exponents": "x,y,sigma\n1e-3,2.5E+10,1E0\n-0.0,-1.5e-300,3e2\n.5,5.,+7\n",
    "padded cells": "x,y,sigma\n 1.5 , \t2,  3\n4 ,5, 6 \n",
    "blank rows": "x,y,sigma\n\n1,2,3\n\n\n4,5,6\n\n",
    "whitespace-only rows": "x,y,sigma\n1,2,3\n   \n\t\n4,5,6\n",
    "comma-only rows": "x,y,sigma\n,,\n1,2,3\n, ,\n4,5,6\n,,,,\n",
    "quoted cells": 'x,y,sigma\n"1.5","2",3\n"4",5,"6e0"\n',
    "CRLF": "x,y,sigma\r\n1,2,3\r\n\r\n4,5,6\r\n",
    "extra text columns": "id,x,label,y,sigma,note\na,1,left,2,3,\nb,4,right side,5,6,\"quoted, text\"\n",
    "sigma_true": "x,y,sigma,sigma_true\n1,2,3,3.5\n4,5,6,5.5\n",
    "2-D": "y,x2,sigma,x1\n1,0.5,1,0\n2,0.25,1,1\n3,1e-3,2,0.5\n",
    "underscores": "x,y,sigma\n1_0,2_000.5,3\n1_1,0.000_1,1\n",
    "header padding": " x , y ,sigma\n1,2,3\n",
}


def _assert_same_arrays(path):
    got = ingest_csv(str(path))
    want = ingest_cells(str(path))
    for a, b in zip((got.x, got.y, got.sigma, got.sigma_true), want):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestIngestMatchesPerCellReader:
    @pytest.mark.parametrize("name", sorted(VALID))
    def test_valid_file(self, tmp_path, name):
        path = tmp_path / "d.csv"
        path.write_bytes(VALID[name].encode())
        _assert_same_arrays(path)

    def test_repr_floats(self, tmp_path, rng):
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma\n" + _repr_rows(rng, 500), encoding="utf-8")
        _assert_same_arrays(path)

    def test_blank_rows_across_blocks(self, tmp_path, rng):
        """A long file with blank rows throughout, past row 2048 too, and at 1024-row edges."""
        lines = _repr_rows(rng, 2560).splitlines()
        for at in sorted({0, 97, 1023, 1024, 2049, len(lines)}, reverse=True):
            lines[at:at] = ["", " , ,"]
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma\n" + "\n".join(lines) + "\n", encoding="utf-8")
        _assert_same_arrays(path)
        assert ingest_csv(str(path)).n == 2560

    def test_empty_and_comma_only_rows_stay_in_the_streaming_pass(self, tmp_path, rng, monkeypatch):
        lines = _repr_rows(rng, 2560).splitlines()
        for at in (2500, 1024, 3, 0):
            lines[at:at] = ["", ",,", ",,,,"]
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma\n" + "\n".join(lines) + "\n", encoding="utf-8")
        want = ingest_cells(str(path))

        def per_cell_pass(*args):
            raise AssertionError("the per-cell pass was reached")

        monkeypatch.setattr(cli, "_cells", per_cell_pass)
        got = ingest_csv(str(path))
        assert got.n == 2560
        assert all(a.tobytes() == b.tobytes() for a, b in zip((got.x, got.y, got.sigma), want))
        path.write_text("x,y,sigma\n1,2,3\n  \n", encoding="utf-8")  # a whitespace-only row needs the per-cell pass
        with pytest.raises(AssertionError, match="per-cell pass"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("body", [
        "0,1,1\n0.5,oops,1\n",  # a text cell
        "0,nan,1\n",
        "0,1,1\n1,2,-inf\n",
        "0,1,1\n1,2,Infinity\n",
        "0,1,1\n1,2\n",  # a short row
        "0,,1\n",  # an empty cell
        "\n  \n0,1,1\n,,\n1,x,nan\n",  # blank rows count; the text cell comes first in its row
        "0,1,1e999\n",  # overflows to inf
    ])
    def test_malformed_file(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma\n" + body, encoding="utf-8")
        with pytest.raises(ParseError) as want:
            ingest_cells(str(path))
        with pytest.raises(ParseError) as got:
            ingest_csv(str(path))
        assert (got.value.row, got.value.column, str(got.value)) == (want.value.row, want.value.column, str(want.value))

    @pytest.mark.parametrize("bad", ["abc", "nan", "", None])
    def test_malformed_row_in_a_later_block(self, tmp_path, rng, bad):
        lines = _repr_rows(rng, 3072).splitlines()
        lines[5:5] = ["", "   "]
        at = 2065
        x, y, sigma = lines[at].split(",")
        lines[at] = f"{x},{y}" if bad is None else f"{x},{y},{bad}"
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as got:
            ingest_csv(str(path))
        assert (got.value.row, got.value.column) == (at + 1, "sigma")
        with pytest.raises(ParseError) as want:
            ingest_cells(str(path))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("body", ["", "\n", " , ,\n\n   \n"])
    def test_no_data_rows(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma\n" + body, encoding="utf-8")
        with pytest.raises(MissingColumnError, match="no data rows"):
            ingest_csv(str(path))

    def test_byte_order_mark_is_skipped(self, tmp_path, rng):
        text = "x,y,sigma\n" + _repr_rows(rng, 50)
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        a, b = ingest_csv(str(plain)), ingest_csv(str(marked))
        for u, v in zip((a.x, a.y, a.sigma), (b.x, b.y, b.sigma)):
            assert u.tobytes() == v.tobytes()


class TestXColumns:
    @pytest.mark.parametrize("header, missing", [
        ("x1,x3,y,sigma", "x2"),
        ("x2,y,sigma", "x1"),
        ("x0,x1,y,sigma", "x2"),
        ("x1,x2,x4,y,sigma", "x3"),
    ])
    def test_gap_in_numbering_names_the_missing_column(self, tmp_path, header, missing):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + ",".join(["1"] * header.count(",")) + ",1\n", encoding="utf-8")
        with pytest.raises(MissingColumnError, match=f"'{missing}'"):
            ingest_csv(str(path))

    def test_gap_exits_with_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x1,x3,y,sigma\n0,0,1,1\n", encoding="utf-8")
        assert main(["fit", "--data", str(path)]) == EXIT_CONFIG
        assert "'x2'" in capsys.readouterr().err

    def test_contiguous_columns_in_any_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x3,y,x1,sigma,x2\n3,0,1,1,2\n6,0,4,1,5\n", encoding="utf-8")
        assert ingest_csv(str(path)).x.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


class TestHeader:
    @pytest.mark.parametrize("header, named", [
        ("x,y,sigma,y", "'y'"),
        ("x,x,y,sigma", "'x'"),
        ("x,y,sigma,sigma", "'sigma'"),
        ("x,y,sigma,sigma_true,sigma_true", "'sigma_true'"),
        ("x1,x2,x1,y,sigma", "'x1'"),
        ("x,x1,y,sigma", "'x1'"),
        ("x2,y,x,x1,sigma", "'x1', 'x2'"),
    ])
    def test_a_column_that_is_read_twice_or_x_beside_x1_is_an_error(self, tmp_path, capsys, header, named):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + ",".join(["1"] * (header.count(",") + 1)) + "\n", encoding="utf-8")
        with pytest.raises(MissingColumnError, match=named):
            ingest_csv(str(path))
        assert main(["fit", "--data", str(path)]) == EXIT_CONFIG
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:") and named in errors[0]

    def test_columns_that_are_not_read_may_repeat(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,id,y,sigma,x_note,x_note\na,1,b,2,3,,\n", encoding="utf-8")
        data = ingest_csv(str(path))
        assert (data.x.tolist(), data.y.tolist(), data.sigma.tolist()) == ([1.0], [2.0], [3.0])

    @pytest.mark.parametrize("header", ["x\u00b2,y,sigma", "x1,x\u00b2,y,sigma"])
    def test_x_with_a_superscript_is_not_a_design_column(self, tmp_path, header):
        """'\u00b2'.isdigit() holds but int() refuses it; the header is read as if the column were text."""
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + ",".join(["1"] * (header.count(",") + 1)) + "\n", encoding="utf-8")
        if header.startswith("x1"):
            assert ingest_csv(str(path)).x.tolist() == [1.0]
        else:
            with pytest.raises(MissingColumnError, match="need column 'x'"):
                ingest_csv(str(path))


class TestCsvModuleErrors:
    """A row that the csv module cannot split names the file and line, in either reading pass, and exits 2."""

    @pytest.mark.parametrize("where", ["header", "streaming pass", "per-cell pass"])
    def test_cell_over_the_field_limit(self, tmp_path, capsys, where):
        big = "1" * 200_000
        lines = ["x,y,sigma", "0,1,1", "  ", "1,2,1", f"2,{big},1", "3,4,1"]
        if where == "header":
            lines[0] = f"x,y,sigma,{big}"
        elif where == "streaming pass":
            del lines[2]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        line = 1 if where == "header" else lines.index(f"2,{big},1") + 1
        with pytest.raises(ParameterDomainError, match=f"line {line}: field larger than field limit"):
            ingest_csv(str(path))
        assert main(["fit", "--data", str(path)]) == EXIT_CONFIG
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: {path}, line {line}:")


def _fixed_cv(p, K):
    return json.dumps({"z": [4.0] * (K - 1), "method": "fixed", "alpha": 1.0, "r": 0.5, "p": p, "K": K,
                       "mu": None, "seed": None, "mc_size": None})


def _fit(wd, monkeypatch, rows, config, cv, extra=(), mark=""):
    """Run fit on files written under wd, each text after mark; returns the output path and every CurveFit of the run."""
    fit_curve, curves = cli.fit_curve, []
    monkeypatch.setattr(cli, "fit_curve", lambda *args: curves.append(fit_curve(*args)) or curves[-1])
    wd.mkdir(exist_ok=True)
    for name, text in (("d.csv", rows), ("c.json", json.dumps(config)), ("cv.json", cv)):
        (wd / name).write_text(mark + text, encoding="utf-8")
    out = wd / "fit.csv"
    code = main(["fit", "--data", str(wd / "d.csv"), "--config", str(wd / "c.json"), "--cv", str(wd / "cv.json"),
                 "--out", str(out), *extra])
    assert code == EXIT_OK
    return out, curves


class TestFitOutputMatchesPerCellFormatter:
    def test_rows_without_a_usable_scale(self, tmp_path, monkeypatch):
        # isolated points at 3 and 3.5: their windows hold one point, fewer than p = 2
        x = np.append(np.linspace(0.0, 1.0, 120), [3.0, 3.5])
        y = np.sin(6.0 * x)
        rows = "x,y,sigma\n" + "".join(f"{a!r},{b!r},0.5\n" for a, b in zip(x.tolist(), y.tolist()))
        config = {"basis": {"degree": 1}, "ladder": {"bandwidths": [0.05, 0.08, 0.12]}}
        out, curves = _fit(tmp_path, monkeypatch, rows, config, _fixed_cv(2, 3), ["--grid", "60"])
        points, grid = curves
        assert np.count_nonzero(points.k_eff == 0) == 2 and np.count_nonzero(grid.k_eff == 0) > 10
        assert out.read_text(encoding="utf-8").splitlines()[1:] == fit_lines_cells(points, 1, 2)
        assert (tmp_path / "fit_grid.csv").read_text(encoding="utf-8").splitlines()[1:] == grid_lines_cells(grid)
        assert out.read_bytes().endswith(b"singular design at every scale\n")

    def test_two_dimensional_data(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.uniform(0.0, 1.0, (300, 2)), [[5.0, 5.0]]])
        y = x[:, 0] + 0.1 * rng.standard_normal(len(x))
        rows = "x1,x2,y,sigma\n" + "".join(f"{a!r},{b!r},{c!r},0.1\n" for (a, b), c in zip(x.tolist(), y.tolist()))
        config = {"basis": {"degree": 1}, "ladder": {"bandwidths": [0.15, 0.2, 0.3]}}
        out, (points,) = _fit(tmp_path, monkeypatch, rows, config, _fixed_cv(3, 3))
        assert np.count_nonzero(points.k_eff == 0) == 1
        assert out.read_text(encoding="utf-8").splitlines()[1:] == fit_lines_cells(points, 2, 3)

    def test_byte_order_marks_leave_the_output_unchanged(self, tmp_path, monkeypatch):
        x = np.linspace(0.0, 1.0, 200)
        rows = "x,y,sigma\n" + "".join(f"{a!r},{b!r},0.3\n" for a, b in zip(x.tolist(), np.cos(5 * x).tolist()))
        args = (rows, {"basis": {"degree": 1}, "ladder": {"K": 4}}, _fixed_cv(2, 4))
        plain, _ = _fit(tmp_path / "plain", monkeypatch, *args)
        marked, _ = _fit(tmp_path / "bom", monkeypatch, *args, mark="\ufeff")
        assert (tmp_path / "bom" / "d.csv").read_bytes().startswith(b"\xef\xbb\xbfx,y,sigma")
        assert marked.read_bytes() == plain.read_bytes()
