"""Planted-defect survey: which single-line defects does the Tier-1 suite catch?

Each defect is one text replacement (file under src/lpadapt, old text, new
text).  For each, the repository is copied to a temporary directory (without
.git), the defect is applied to the copy alone, and the Tier-1 command is run
there with -x.  The script prints "caught" with the first failing test, or
"survived".  An unmodified copy is run first; if it fails, nothing is
surveyed.

    python tools/mutants.py            # every defect
    python tools/mutants.py M1 gate    # the defects whose names start with these

A full pass costs about one Tier-1 run per surviving defect, so the survey
stays out of Tier-1.  It exits 1 when a defect survives or its old text is
no longer in its file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (name, file under src/lpadapt, old text, new text); the old text must occur exactly once
DEFECTS = [
    ("M1-target-x100", "calibration.py",
     "target = alpha * chi_square_moment(p, r)\n", "target = alpha * chi_square_moment(p, r) * 100\n"),
    ("target-div100", "calibration.py",
     "target = alpha * chi_square_moment(p, r)\n", "target = alpha * chi_square_moment(p, r) / 100\n"),
    ("validate_pc-passes-all", "calibration.py",
     "passed=m <= bound * (1.0 + 3.0 * rel)", "passed=True"),
    ("pc_report-allowance-30-se", "calibration.py",
     "passed=m <= bound * (1.0 + 3.0 * rel)", "passed=m <= bound * (1.0 + 30.0 * rel)"),
    ("gap-forms-smaller-scale-B", "calibration.py",
     "self.T[k, khat[stopped] - 1, stopped]", "self.T[khat[stopped] - 1, k, stopped]"),
    ("analytic-cv-without-log-K-alpha", "calibration.py",
     "        math.log(K / alpha)\n", "        0.0\n"),
    ("M5-moments-power-r-half", "calibration.py",
     "powered = self._gap(khat, k) ** r\n", "powered = self._gap(khat, k) ** (r / 2.0)\n"),
    ("M6-propagation-exponent", "oracle_diagnostics.py",
     "(1.0 + delta) / (1.0 - delta) ** 3, pk / 2.0, e_hi)", "(1.0 + delta) / (1.0 - delta), pk / 2.0, e_hi)"),
    ("bound-overflow-raises", "oracle_diagnostics.py",
     "    except OverflowError:\n", "    except ZeroDivisionError:\n"),
    ("delta-budget-unchecked", "oracle_diagnostics.py",
     "if not delta_budget >= 0:", "if False:"),
    ("kl-one-percent-high", "oracle_diagnostics.py",
     "kl = 0.5 * (Delta_k + log_det_ratio + tr - p * k)", "kl = 0.505 * (Delta_k + log_det_ratio + tr - p * k)"),
    ("kl-laws-swapped", "oracle_diagnostics.py",
     "L, L0 = _spd_factor(Sigma_k), _spd_factor(Sigma_k0)", "L0, L = _spd_factor(Sigma_k), _spd_factor(Sigma_k0)"),
    ("joint-covariance-of-variances-pow-1.02", "oracle_diagnostics.py",
     "var = np.asarray(variances, dtype=float)\n", "var = np.asarray(variances, dtype=float) ** 1.02\n"),
    ("scipy-import-at-module-level", "local_model.py",
     "import numpy as np\n\n", "import numpy as np\nfrom scipy.linalg import eigvalsh\n\n"),
    ("gate-on-unscaled-B", "local_model.py",
     "S = s[..., :, None] * B * s[..., None, :]\n", "S = B\n"),
    ("gate-accept-without-radius", "local_model.py",
     "sum(np.abs(S[..., i, j]) for j in range(p) if j != i)", "0.0"),
    ("ingest-without-finiteness-check", "cli.py",
     "if values is None or not np.isfinite(values).all():", "if values is None:"),
    ("stream-without-empty-row-filter", "cli.py",
     "map(pick, filter(any, rows))", "map(pick, rows)"),
    ("cells-keep-whitespace-only-rows", "cli.py",
     "if not any(cell.strip() for cell in row):", "if not any(row):"),
    ("csv-error-unmapped", "cli.py",
     "except csv.Error as exc:", "except ZeroDivisionError as exc:"),
    ("pair-rows-B-offset-off-by-one", "fll_selector.py",
     "for forms, k in ((upper, l), (lower, m)):", "for forms, k in ((upper, l + 1), (lower, m)):"),
    ("pair-lower-triangle-smaller-scale-B", "fll_selector.py",
     "for forms, k in ((upper, l), (lower, m)):", "for forms, k in ((upper, l), (lower, l)):"),
    ("pair-block-reads-next-block-B", "fll_selector.py",
     "np.copyto(Bb, B[b : b + w].transpose(2, 3, 1, 0))", "np.copyto(Bb, B[b + w : b + 2 * w].transpose(2, 3, 1, 0))"),
    ("accept-on-equality", "fll_selector.py",
     "viol = T[:m, m] > zv[:m, None]", "viol = T[:m, m] >= zv[:m, None]"),
    ("B-weighted-by-1/sigma", "local_model.py",
     "(W / sigma[:, None, :] ** 2)", "(W / sigma[:, None, :])"),
    ("gap-forms-off-by-one", "calibration.py",
     "np.flatnonzero(khat <= k)", "np.flatnonzero(khat < k)"),
    ("replicate-j-from-stream-j+1", "calibration.py",
     '_check_index("replicate", replicate)]', '_check_index("replicate", replicate) + 1]'),
    ("ladder-without-finiteness-check", "local_model.py",
     "if not np.all(np.isfinite(h)) or np.any(h <= 0)", "if np.any(h <= 0)"),
    ("thresholds-without-domain-check", "fll_selector.py",
     "if not np.all(zv > 0):", "if False:"),
    ("declared-budget-unchecked", "local_model.py",
     "realized > declared + 1e-12", "False"),
    ("truncated-ladder-keeps-rejected-scale", "local_model.py",
     "np.where(passed.all(axis=-1), B.shape[-3], passed.argmin(axis=-1))",
     "np.where(passed.all(axis=-1), B.shape[-3], passed.argmin(axis=-1) + 1)"),
    ("curve-without-k-eff-cap", "fll_selector.py",
     "    k_hat = np.minimum(k_hat, k_eff)", "    pass"),
    ("curve-k-eff-from-gate-alone", "fll_selector.py",
     "np.minimum(k_eff[blk], gate_count(B[blk], active[blk], p), out=k_eff[blk])",
     "k_eff[blk] = gate_count(B[blk], active[blk], p)"),
    ("ladder-design-k-eff-from-pivots-alone", "local_model.py",
     "K_eff = int(min(pivots[0], gate_count(B, active, basis.p)[0]))", "K_eff = int(pivots[0])"),
    ("ladder-design-k-eff-from-gate-alone", "local_model.py",
     "K_eff = int(min(pivots[0], gate_count(B, active, basis.p)[0]))", "K_eff = int(gate_count(B, active, basis.p)[0])"),
    ("sigma-square-may-underflow", "local_model.py",
     "(sigma >= SIGMA_MIN) & (sigma < math.inf)", "(sigma > 0) & (sigma < math.inf)"),
    ("chunk-start-zeroes-block-first-row", "calibration.py",
     "                states, layout = _chunk_states(seed, seed_words, a, min(a + _STATE_CHUNK, rows))\n",
     "                states, layout = _chunk_states(seed, seed_words, a, min(a + _STATE_CHUNK, rows))\n"
     "                block[0] = 0.0\n"),
    ("chi2-tail-sqrt-x", "verification.py",
     "math.erfc(math.sqrt(x / 2.0))", "math.erfc(math.sqrt(x))"),
    ("generalized-eig-L-transposed", "local_model.py",
     "L = np.linalg.cholesky(B)\n", "L = np.linalg.cholesky(B).T\n"),
    ("validate_pc-without-mc-floor", "calibration.py",
     "draws on design indices.  mc_size must reach MIN_MC_SIZE.\n    \"\"\"\n    check_mc_size(mc_size)\n",
     "draws on design indices.  mc_size must reach MIN_MC_SIZE.\n    \"\"\"\n"),
    ("prefix-forms-without-diagonal-divide", "oracle_diagnostics.py",
     "w[i] = (b[i] - L[i, :i] @ w[:i]) / L[i, i]", "w[i] = b[i] - L[i, :i] @ w[:i]"),
    ("sj-pencil-swapped", "oracle_diagnostics.py",
     "generalized_eigvalsh(np.diag(np.diag(Sj)), Sj)", "generalized_eigvalsh(Sj, np.diag(np.diag(Sj)))"),
    ("pair-exp-moment-bound-exponent-sign", "verification.py",
     "(1.0 - mu0 * t0) ** (-p / 2.0)", "(1.0 - mu0 * t0) ** (p / 2.0)"),
    ("shared-draw-last-columns", "verification.py",
     "return noise[:, :m]", "return noise[:, -m:]"),
    ("mc-checks-without-row-floor", "verification.py",
     "    check_mc_size(noise.shape[0])\n", ""),
    ("pair-tables-swapped-in-moment-part", "verification.py",
     "((T_lk, t0, ld.B_list[l - 1]), (T_kl, t1, ld.B_list[k - 1]))",
     "((T_kl, t0, ld.B_list[l - 1]), (T_lk, t1, ld.B_list[k - 1]))"),
    ("kl-second-order-interval-delta-half", "verification.py",
     "psi = -delta - math.log1p(-delta)", "psi = -delta / 2 - math.log1p(-delta / 2)"),
    ("config-integer-truncated", "cli.py",
     '    if isinstance(value, bool) or not isinstance(value, int):\n        raise TypeError("expected an integer")\n'
     "    return value\n",
     "    return int(value)\n"),
    ("r-accepts-bool", "calibration.py",
     "if isinstance(r, bool) or not (isinstance(r, numbers.Real)", "if not (isinstance(r, numbers.Real)"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def run_tier1(repo: Path) -> tuple[bool, str]:
    """(passed, first failing test or '') of the Tier-1 command in repo."""
    # no bytecode cache: a defect and its undo can share a source file's size and mtime second
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(TIER1, cwd=repo, env=env, capture_output=True, text=True, timeout=1800)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.M)
    return proc.returncode == 0, failed[0] if failed else (proc.stdout.strip().splitlines() or [""])[-1]


def copy_repo(dest: Path) -> Path:
    repo = dest / "repo"
    shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"))
    return repo


def main(argv: list[str]) -> int:
    chosen = [d for d in DEFECTS if not argv or any(d[0].startswith(a) for a in argv)]
    if not chosen:
        print(f"no defect matches {argv}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="lpadapt-mutants-") as tmp:
        repo = copy_repo(Path(tmp))
        ok, first = run_tier1(repo)
        if not ok:
            print(f"the unmodified copy fails Tier-1 ({first or 'see pytest'}); nothing surveyed", file=sys.stderr)
            return 2
        bad = 0
        for name, rel, old, new in chosen:
            path = repo / "src" / "lpadapt" / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"stale     {name}: its old text occurs {text.count(old)} times in {rel}", flush=True)
                bad += 1
                continue
            path.write_text(text.replace(old, new))
            try:
                ok, first = run_tier1(repo)
            finally:
                path.write_text(text)
            if ok:
                print(f"survived  {name}", flush=True)
                bad += 1
            else:
                print(f"caught    {name}: {first}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
