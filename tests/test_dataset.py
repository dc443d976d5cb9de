import numpy as np
import pytest

from lpadapt.dataset import Dataset
from lpadapt.exceptions import ParameterDomainError


def columns(n=5):
    return {"x": np.linspace(0.0, 1.0, n), "y": np.zeros(n), "sigma": np.ones(n), "sigma_true": np.ones(n)}


@pytest.mark.parametrize("field", ["x", "y", "sigma", "sigma_true"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(field, bad):
    cols = columns()
    cols[field][2] = bad
    with pytest.raises(ParameterDomainError, match=field):
        Dataset(**cols)


def test_non_finite_coordinate_in_2d_rejected():
    cols = columns()
    cols["x"] = np.column_stack([cols["x"], cols["x"]])
    cols["x"][4, 1] = np.nan
    with pytest.raises(ParameterDomainError, match="x"):
        Dataset(**cols)


def test_finite_data_accepted():
    data = Dataset(**columns())
    assert data.n == 5 and data.d == 1
