"""The seeded numerical checks behind `verify`, run at reduced MC sizes."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import chi2

import lpadapt.verification as verification
from conftest import mc_noise
from lpadapt.calibration import MIN_MC_SIZE, noise_matrix
from lpadapt.dataset import Dataset
from lpadapt.exceptions import ParameterDomainError
from lpadapt.verification import (
    _unit_design,
    check_covariance_sandwich,
    check_determinant_identity,
    check_domination,
    check_kl_sandwich,
    check_noise_model,
    check_pair_bounds,
    check_pc_theoretical,
    check_quasi_parametric_moment,
    check_stacked_covariance,
    check_wilks,
    chi_square_tail,
    run_all,
)


@pytest.mark.parametrize(
    "check,kwargs",
    [
        (check_determinant_identity, {"trials": 8}),
        (check_covariance_sandwich, {"trials": 6}),
        (check_wilks, {"p": 1, "table": (13, 6000)}),
        (check_wilks, {"p": 3, "table": (13, 6000, 30)}),  # a 30-point window
        (check_wilks, {"p": 2, "kernel": "truncated_gaussian", "table": (13, 6000, 60)}),  # a 60-point window
        (check_domination, {"delta": 0.05, "table": (14, 8000)}),
        (check_domination, {"delta": 0.2, "table": (14, 8000)}),
        (check_quasi_parametric_moment, {"table": (15, 8000)}),
        (check_kl_sandwich, {"trials": 15}),
        (check_pc_theoretical, {"table": (17, 3000)}),
        (check_pair_bounds, {"table": (18, 8000)}),
        (check_stacked_covariance, {"table": (20, 8000)}),
    ],
)
def test_individual_checks_pass(check, kwargs):
    for result in _results(_run(check, kwargs)):
        assert result.passed, f"{result.name}: {result.detail}"


def _run(check, kwargs):
    """check(**kwargs); a Monte-Carlo check gets mc_noise(*table) as its noise, table = (seed, rows[, width])."""
    kwargs = dict(kwargs)
    table = kwargs.pop("table", None)
    return check(**kwargs) if table is None else check(mc_noise(*table), **kwargs)


def _results(results) -> tuple:
    """A check's results as a tuple: check_pair_bounds returns two."""
    return results if isinstance(results, tuple) else (results,)


def _kl_with_log_det_ratio_negated(kl_joint):
    def wrong(S, S0, Delta_k, p, k, delta):
        res = kl_joint(S, S0, Delta_k, p, k, delta)
        return dataclasses.replace(res, kl=res.kl - (np.linalg.slogdet(S)[1] - np.linalg.slogdet(S0)[1]))

    return wrong


@pytest.mark.parametrize(
    "name,wrong,check,kwargs",
    [
        # the arguments of the tests that delegate to each check: A6, test_sandwich_eigenvalues, A3 (p = 2), A7, A7
        ("boxcar_determinant", lambda f: lambda *a: f(*a) * (1.0 + 1e-7),
         check_determinant_identity, {"seed": 606, "trials": 50}),
        ("joint_covariance", lambda f: lambda d_blocks, var: f(d_blocks, np.asarray(var) ** 2),
         check_covariance_sandwich, {"seed": 20240817, "trials": 10}),
        ("wilks_spectrum", lambda f: lambda *a: f(*a) * (1.0 + 1e-9),
         check_wilks, {"p": 2, "table": (162, 100000)}),
        ("kl_joint", _kl_with_log_det_ratio_negated, check_kl_sandwich, {"seed": 707, "trials": 100}),
        ("bias_profile", lambda f: lambda *a: (f(*a)[0] * (1.0 + 1e-8), f(*a)[1]),
         check_kl_sandwich, {"seed": 707, "trials": 100}),
    ],
    ids=["determinant-1e-7-high", "covariance-of-squared-variances", "spectrum-1e-9-high", "kl-log-det-sign",
         "delta-1e-8-high"],
)
def test_a_wrong_library_function_fails_its_check(monkeypatch, name, wrong, check, kwargs):
    """The acceptance and oracle tests that delegate to a check still fail when the function it verifies is wrong."""
    monkeypatch.setattr(verification, name, wrong(getattr(verification, name)))
    assert _run(check, kwargs).passed is False


SHARED_SEED, SHARED_ROWS = 31, 3000

# every Monte-Carlo check as run_all calls it, with the width m of its window
MC_CHECKS = [
    (check_wilks, {"p": 1}, 20),
    (check_wilks, {"p": 2}, 20),
    (check_wilks, {"p": 2, "kernel": "epanechnikov"}, 20),
    (check_domination, {"delta": 0.05}, 20),
    (check_domination, {"delta": 0.2}, 20),
    (check_quasi_parametric_moment, {}, 20),
    (check_pair_bounds, {}, 26),
    (check_stacked_covariance, {}, 20),
    (check_pc_theoretical, {}, 26),
]
MC_IDS = ["wilks-p1", "wilks-p2", "wilks-p2-epanechnikov", "domination-0.05", "domination-0.2", "quasi-moment",
          "pair-bounds", "stacked-covariance", "pc-theoretical"]


@pytest.fixture(scope="module")
def shared_noise():
    """A noise table as run_all draws it, 26 values wide, at SHARED_SEED."""
    return mc_noise(SHARED_SEED, SHARED_ROWS)


def _record_mc_quantities(monkeypatch) -> list:
    """The Monte-Carlo quantities the checks compute, in call order: Wilks forms, T tables, covariances."""
    seen = []

    def kept(value):
        seen.append(value)
        return value

    forms, cov = verification._wilks_forms, np.cov

    class RecordedEnsemble(verification.SelectionEnsemble):
        def __init__(self, ld, theta_tilde):
            super().__init__(ld, theta_tilde)
            kept(self.T)

    monkeypatch.setattr(verification, "_wilks_forms", lambda *a, **kw: kept(forms(*a, **kw)))
    monkeypatch.setattr(verification, "SelectionEnsemble", RecordedEnsemble)
    monkeypatch.setattr(np, "cov", lambda *a, **kw: kept(cov(*a, **kw)))
    return seen


@pytest.mark.parametrize("check,kwargs,m", MC_CHECKS, ids=MC_IDS)
def test_shared_draw_gives_a_check_its_own_draw(monkeypatch, shared_noise, check, kwargs, m):
    """Given run_all's 26-wide table at seed s, a check computes what it computes from the table of its own width m.

    That narrower table is noise_matrix(s, rows, m, arange(m)), so a check
    reads replicate j of seed s on its window whatever the table's width.
    The forms, T table or covariance agree within 1e-12 relative to their
    largest entry (the products may round differently on a slice of a
    wider table), and so do the pass flags.
    """
    seen = _record_mc_quantities(monkeypatch)
    own = _results(check(noise_matrix(SHARED_SEED, SHARED_ROWS, m, np.arange(m)), **kwargs))
    shared = _results(check(shared_noise, **kwargs))
    assert [r.passed for r in shared] == [r.passed for r in own]
    assert len(seen) == 2
    want, got = seen
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.nanmax(np.abs(want)))


@pytest.mark.parametrize("check,kwargs,m", MC_CHECKS, ids=MC_IDS)
def test_a_draw_smaller_than_a_check_needs_raises(shared_noise, check, kwargs, m):
    """A table narrower than the check's window, or not 2-D: an error, never padding or broadcasting."""
    check(shared_noise[:, :m], **kwargs)
    with pytest.raises(ParameterDomainError, match=f"2 dimensions and at least {m} columns"):
        check(shared_noise[:, : m - 1], **kwargs)
    with pytest.raises(ParameterDomainError, match="2 dimensions"):
        check(shared_noise[0], **kwargs)


@pytest.mark.parametrize("rows", [0, 1, MIN_MC_SIZE - 1])
@pytest.mark.parametrize("check,kwargs,m", MC_CHECKS, ids=MC_IDS)
def test_a_table_below_the_row_floor_raises(shared_noise, check, kwargs, m, rows):
    """Fewer than MIN_MC_SIZE rows is an error, as for mc_calibrate and validate_pc.

    One row gives NaN standard errors, under which a pair check passes, and
    no rows a division by zero.
    """
    with pytest.raises(ParameterDomainError, match=f"mc_size must be >= {MIN_MC_SIZE}, got {rows}"):
        check(shared_noise[:rows], **kwargs)


def test_chi_square_tail_matches_scipy_stats():
    """chi_square_tail(x, p) is chi2.sf(x, p) within 1e-13 relative, at every argument the tail checks pass."""
    ld, _ = _unit_design(1, 150, 4, 1.5)  # the design of check_pair_bounds
    u0_hat, u_hat = ld.growth_bounds()
    pair_t = [2.0 * (1.0 + 0.1) * (1.0 + u) for m in range(1, 4) for u in (u0_hat ** -m, u_hat**m)]
    divisors = np.concatenate([[1.05, 1.2], pair_t, np.linspace(1.0, 10.0, 181)])
    x = (np.array([1.0, 2.0, 4.0, 8.0, 16.0])[:, None] / divisors[None, :]).ravel()
    for p in (1, 2):
        want = chi2.sf(x, p)
        got = np.array([chi_square_tail(v, p) for v in x])
        assert np.all(np.abs(got - want) <= 1e-13 * want)
    with pytest.raises(ParameterDomainError, match="p = 1 and 2"):
        chi_square_tail(1.0, 3)


def test_noise_model_check_flags_violation():
    n = 30
    data = Dataset(x=np.linspace(0, 1, n), y=np.zeros(n), sigma=np.ones(n), sigma_true=np.full(n, 1.8))
    result = check_noise_model(data)
    assert not result.passed


def test_noise_model_check_accepts_within_budget():
    n = 30
    data = Dataset(x=np.linspace(0, 1, n), y=np.zeros(n), sigma=np.ones(n), sigma_true=np.full(n, 1.05))
    result = check_noise_model(data, delta_declared=0.2)
    assert result.passed


def test_noise_model_check_reports_realized_gap_and_budget():
    # the realized gap (1.1^2 - 1 = 0.21) and the budget it was checked against, each under its own name
    n = 30
    data = Dataset(x=np.linspace(0, 1, n), y=np.zeros(n), sigma=np.ones(n), sigma_true=np.full(n, 1.1))
    assert check_noise_model(data, delta_declared=0.5).detail == "realized delta 0.2100; declared delta 0.5000"
    assert check_noise_model(data).detail == "realized delta 0.2100; no declared budget"


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_run_all_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ParameterDomainError, match="seed must be a non-negative integer"):
        run_all(quick=True, seed=seed)


def test_run_all_quick_structural_pass():
    results = run_all(quick=True, seed=515)
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing
