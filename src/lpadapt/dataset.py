"""Tabular container for observations (x_i, y_i, sigma_i)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterDomainError


@dataclass
class Dataset:
    """Design points, responses and model noise levels; sigma_true optional."""

    x: np.ndarray  # (n,) or (n, d)
    y: np.ndarray
    sigma: np.ndarray
    sigma_true: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        n = self.y.shape[0]
        if self.x.shape[0] != n or self.sigma.shape[0] != n:
            raise ParameterDomainError("x, y and sigma must have equal length")
        if self.sigma_true is not None:
            self.sigma_true = np.asarray(self.sigma_true, dtype=float)
            if self.sigma_true.shape[0] != n:
                raise ParameterDomainError("sigma_true must match the number of rows")
        # the fitting path checks no finiteness itself: a non-finite value would spread NaN silently
        for name in ("x", "y", "sigma", "sigma_true"):
            values = getattr(self, name)
            if values is not None and not np.all(np.isfinite(values)):
                raise ParameterDomainError(f"{name} has non-finite entries")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return 1 if self.x.ndim == 1 else self.x.shape[1]
