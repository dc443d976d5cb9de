"""Pointwise adaptive local polynomial regression for heteroscedastic data.

Scale selection compares the fits of nested local models through pairwise
quadratic-form statistics and stops at the first rejected comparison; the
thresholds are calibrated, analytically or by Monte Carlo, so that the
procedure almost never stops early when the parametric model is exact.  The
diagnostics layer evaluates the closed-form risk bounds that justify the
procedure under a misspecified noise model.
"""

__version__ = "0.1.0"

from .calibration import (
    CriticalValues,
    chi_square_moment,
    mc_calibrate,
    theoretical_cv,
    validate_pc,
)
from .dataset import Dataset
from .exceptions import (
    CalibrationFailedError,
    LpAdaptError,
    MissingColumnError,
    NoFeasibleScaleError,
    NotBoxcarError,
    ParameterDomainError,
    ParseError,
    ScaleOrderError,
    SingularDesignError,
    SingularJointCovarianceError,
)
from .fll_selector import (
    AdaptiveEstimate,
    SelectionTrace,
    adaptive_estimate,
    componentwise,
    fit_curve,
    fll_statistic,
    select_adaptive,
)
from .local_model import (
    Basis,
    LadderDesign,
    LocalFit,
    NoiseModel,
    ScaleLadder,
    build_B,
    build_weights,
    growth_bounds,
    pseudo_true_parameter,
    qmle,
)
from .oracle_diagnostics import (
    boxcar_determinant,
    build_oracle_report,
    joint_covariance,
    kl_joint,
    modeling_bias,
    oracle_index,
    oracle_risk_bound,
    propagation_bound,
    smb_from_tradeoff,
    wilks_spectrum,
)
from .sim_harness import Scene, SigmaSpec, delta_sweep, generate, risk_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
