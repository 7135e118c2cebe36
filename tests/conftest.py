import csv
import pathlib

import numpy as np
import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"


def load_reference(name: str) -> list[dict]:
    """Rows of a frozen reference table, all fields as floats."""
    with open(DATA_DIR / name) as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def random_ma_covariance(rng: np.random.Generator, max_lags: int = 4, lags: int | None = None):
    """A random finitely-supported covariance sequence (always a valid PSD).

    Built as the autocorrelation of a random coefficient vector, so the
    implied spectral density is |hat c|^2 >= 0 by construction.  The number
    of lags is ``lags`` if given, else drawn uniformly from 1..max_lags.
    """
    from entrobound import CovarianceSequence

    L = lags if lags is not None else int(rng.integers(1, max_lags + 1))
    c = rng.normal(size=L + 1)
    values = [float(np.dot(c[: L + 1 - k], c[k:])) for k in range(L + 1)]
    return CovarianceSequence(tuple(values))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
