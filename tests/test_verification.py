"""The seeded numerical checks behind `verify`, run at reduced MC sizes."""

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2

from lpadapt.dataset import Dataset
from lpadapt.exceptions import ParameterDomainError
from lpadapt.verification import (
    _unit_design,
    check_covariance_sandwich,
    check_determinant_identity,
    check_domination,
    check_kl_sandwich,
    check_noise_model,
    check_pair_moment_bounds,
    check_pair_tail_bounds,
    check_pc_theoretical,
    check_quasi_parametric_moment,
    check_stacked_covariance,
    check_wilks,
    run_all,
)


@pytest.mark.parametrize(
    "check,kwargs",
    [
        (check_determinant_identity, {"trials": 8}),
        (check_covariance_sandwich, {"trials": 6}),
        (check_wilks, {"p": 1, "replicates": 6000}),
        (check_wilks, {"p": 3, "replicates": 6000}),
        (check_wilks, {"p": 2, "replicates": 6000, "kernel": "truncated_gaussian"}),
        (check_domination, {"delta": 0.05, "replicates": 8000}),
        (check_domination, {"delta": 0.2, "replicates": 8000}),
        (check_quasi_parametric_moment, {"replicates": 8000}),
        (check_kl_sandwich, {"trials": 15}),
        (check_pc_theoretical, {"mc_size": 3000}),
        (check_pair_tail_bounds, {"replicates": 8000}),
        (check_pair_moment_bounds, {"replicates": 8000}),
        (check_stacked_covariance, {"replicates": 8000}),
    ],
)
def test_individual_checks_pass(check, kwargs):
    result = check(**kwargs)
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("p", [1, 2])
def test_chi_square_tail_is_bit_identical_to_scipy_stats(p):
    """chdtrc(p, x) is the value chi2.sf(x, p) returns, at every argument the tail checks pass."""
    ld, _ = _unit_design(1, 150, 4, 1.5)  # the design of check_pair_tail_bounds
    u0_hat, u_hat = ld.growth_bounds()
    pair_t = [2.0 * (1.0 + 0.1) * (1.0 + u) for m in range(1, 4) for u in (u0_hat ** -m, u_hat**m)]
    divisors = np.concatenate([[1.05, 1.2], pair_t, np.linspace(1.0, 10.0, 181)])
    x = (np.array([1.0, 2.0, 4.0, 8.0, 16.0])[:, None] / divisors[None, :]).ravel()
    assert np.array_equal(chdtrc(p, x), chi2.sf(x, p))


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


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_run_all_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ParameterDomainError, match="seed must be a non-negative integer"):
        run_all(quick=True, seed=seed)


def test_run_all_quick_structural_pass():
    results = run_all(quick=True, seed=515)
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing
