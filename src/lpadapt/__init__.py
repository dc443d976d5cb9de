"""Pointwise adaptive local polynomial regression for heteroscedastic data.

Scale selection compares the fits of nested local models through pairwise
quadratic-form statistics and stops at the first rejected comparison; the
thresholds are calibrated, analytically or by Monte Carlo, so that the
procedure almost never stops early when the parametric model is exact.  The
diagnostics layer evaluates the closed-form risk bounds that justify the
procedure under a misspecified noise model.  The package namespace holds the
quickstart names; everything else lives in its submodule.
"""

__version__ = "0.1.0"

from .calibration import mc_calibrate
from .dataset import Dataset
from .fll_selector import fit_curve
from .local_model import Basis, ScaleLadder

__all__ = ["__version__", "Basis", "Dataset", "ScaleLadder", "fit_curve", "mc_calibrate"]
