"""Shared helpers for the test suite."""

import warnings

import numpy as np
import pytest

# hypothesis prints a failing example with a patch built by libcst, whose
# import raises a DeprecationWarning; under filterwarnings = ["error"] that
# ends the run with INTERNALERROR instead of the example.  Import it once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def random_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, k: int, batch=(), scale: float = 1.0) -> np.ndarray:
    """Random Hermitian positive-definite matrices with O(1) entries."""
    a = random_complex(rng, *batch, k, k)
    return scale * (a @ np.conj(np.swapaxes(a, -1, -2)) / k + 0.1 * np.eye(k))


def random_conditioned(rng, k: int, condition: float) -> np.ndarray:
    """Random complex matrix with prescribed condition number."""
    q1, _ = np.linalg.qr(random_complex(rng, k, k))
    q2, _ = np.linalg.qr(random_complex(rng, k, k))
    singular = np.logspace(0.0, -np.log10(condition), k)
    return (q1 * singular) @ q2


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
