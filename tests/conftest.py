import os

import numpy as np
import pytest

from grpsel.design import build_design
from grpsel.scenarios import equicorrelated_columns


def gaussian_problem(n, sizes, beta=None, sigma=1.0, correlation=0.0, seed=0):
    """Raw (X, y, labels, beta) draw with grouped structure."""
    sizes = np.asarray(sizes, dtype=int)
    p = int(sizes.sum())
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    X = equicorrelated_columns(n, p, correlation, rng)
    if beta is None:
        beta = np.zeros(p)
    beta = np.asarray(beta, dtype=float)
    y = X @ beta + sigma * rng.standard_normal(n)
    return X, y, labels, beta


def gaussian_design(n, sizes, beta=None, sigma=1.0, correlation=0.0, seed=0,
                    weights="sqrt", orthonormalize=True):
    X, y, labels, beta = gaussian_problem(n, sizes, beta, sigma, correlation, seed)
    design = build_design(X, y, labels, weights=weights, orthonormalize=orthonormalize)
    return design, beta


def cross_orthogonal_design(n, sizes, y=None, seed=0, weights="sqrt"):
    """A design whose group blocks are mutually orthogonal and orthonormal."""
    sizes = np.asarray(sizes, dtype=int)
    p = int(sizes.sum())
    assert p <= n
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, p))
    raw -= raw.mean(axis=0)  # keep columns centered after the QR
    q, _ = np.linalg.qr(raw)
    X = q[:, :p] * np.sqrt(n)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    if y is None:
        y = rng.standard_normal(n)
    return build_design(X, y, labels, weights=weights, orthonormalize=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def assert_close_to_reference(got, ref, where=""):
    """An accelerated fit against the step-for-step reference loop's fit.

    Extrapolation changes the path to the minimum, not the minimum: the
    objective agrees to 1e-12 relative, the coefficients to 1e-6, the zero
    pattern exactly, and the stationarity residual is at most 1e-6.
    """
    assert got.converged, where
    assert abs(got.objective - ref.objective) <= 1e-12 * abs(ref.objective), where
    np.testing.assert_allclose(got.coef, ref.coef, rtol=0, atol=1e-6, err_msg=where)
    assert np.array_equal(got.coef == 0.0, ref.coef == 0.0), where
    assert got.kkt_max_violation <= 1e-6, where


def record_extrapolations(monkeypatch):
    """A list that collects (window, point) for every Anderson attempt."""
    from grpsel import gcd

    calls, real = [], gcd._extrapolate

    def recording(window):
        point = real(window)
        calls.append(([w.copy() for w in window], point))
        return point

    monkeypatch.setattr(gcd, "_extrapolate", recording)
    return calls


def accepted_extrapolations(design, pen, calls):
    """The recorded attempts whose point the descent took: a strictly lower objective."""
    from grpsel.penalties import objective

    return [(window, point) for window, point in calls if point is not None
            and objective(design, point, pen) < objective(design, window[-1], pen)]


def assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
