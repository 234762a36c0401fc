"""A fit's objective, stationarity residual and gradient drift, computed on first read."""

import itertools
import pickle

import numpy as np
import pytest

from grpsel import cv, gcd
from grpsel.cv import kfold_cv
from grpsel.gcd import FitResult
from grpsel.paths import PathConfig, solution_path
from grpsel.penalties import TWO_NORM_FAMILIES, PenaltySpec, objective, stationarity

from conftest import gaussian_design

FAMILIES = ("glasso", "gmcp", "gscad", "gbridge", "cmcp", "sgl")
SCORES = ("objective", "kkt_max_violation", "residual_drift")
CONFIG = PathConfig(n_lambda=4, lambda_min_ratio=0.1)


def _design(family):
    beta = np.array([1.5, -1.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0])
    design, _ = gaussian_design(50, [2, 3, 1, 4, 2], beta=beta, sigma=0.5, correlation=0.3,
                                seed=7, orthonormalize=family in TWO_NORM_FAMILIES)
    return design


def _path(design, family):
    return solution_path(design, PenaltySpec(family, lam=0.0), CONFIG)


def _eager(design, pen, fit, c):
    # the expressions that ended every descent before they were deferred
    b = fit.coef
    r = design.y - design.X @ b
    g = design.X.T @ r / design.n
    drift = float(np.max(np.abs(c - g))) if design.p else 0.0
    return {"objective": objective(design, b, pen, r),
            "kkt_max_violation": stationarity(design, pen, b, g=g),
            "residual_drift": drift}


def _penalty(family, point):
    # the penalty that a grid point's fit holds: the sgl solver takes both levels as numbers
    lam, second = point
    if family == "sgl":
        return PenaltySpec(family, lam=lam, lam2=second)
    return PenaltySpec(family, lam=0.0).with_lam(lam)


@pytest.mark.parametrize("family", FAMILIES)
def test_deferred_values_equal_the_eager_expressions_in_any_read_order(family):
    design = _design(family)
    for order in itertools.permutations(SCORES):
        path = _path(design, family)
        for point, fit in zip(path.grid, path.fits):
            _, pen, c = fit._pending
            assert pen == _penalty(family, point)
            want = _eager(design, pen, fit, c)
            got = {name: getattr(fit, name) for name in order}
            assert got == want, (family, order, point)


@pytest.mark.parametrize("family", FAMILIES)
def test_deferred_values_are_computed_at_most_once(family, monkeypatch):
    calls = {"objective": 0, "stationarity": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fit = _path(_design(family), family).fits[-1]
    # the deferred read reaches both through grpsel.gcd's globals, as a tracer does
    monkeypatch.setattr(gcd, "objective", counted("objective", objective))
    monkeypatch.setattr(gcd, "stationarity", counted("stationarity", stationarity))
    for _ in range(3):
        for name in SCORES:
            getattr(fit, name)
    assert calls == {"objective": 1, "stationarity": 1}


@pytest.mark.parametrize("family", FAMILIES)
def test_paths_and_cross_validation_compute_no_diagnostics(family, monkeypatch):
    calls = {"objective": 0}

    def counted_objective(*args, **kwargs):
        calls["objective"] += 1
        return objective(*args, **kwargs)

    monkeypatch.setattr(cv, "_cpu_count", lambda: 1)  # every path in this process
    monkeypatch.setattr(gcd, "stationarity", lambda *a, **k: pytest.fail("stationarity"))
    monkeypatch.setattr(gcd, "objective", counted_objective)
    design = _design(family)
    _path(design, family)
    kfold_cv(design, PenaltySpec(family, lam=0.0), CONFIG, K=3, seed=1)
    if family in TWO_NORM_FAMILIES:
        assert calls["objective"] == 0  # the bi-level sweeps' Anderson steps call it


def test_coef_is_read_only_and_chains_still_warm_start():
    design = _design("gmcp")
    path = _path(design, "gmcp")
    fit = path.fits[-1]
    with pytest.raises(ValueError):
        fit.coef[0] = 1.0
    again = gcd.fit_gcd(design, PenaltySpec("gmcp", lam=path.grid[-1][0]), init=fit.coef)
    assert again.converged and again.coef.flags.writeable is False


@pytest.mark.parametrize("family", FAMILIES)
def test_pickling_computes_the_values_and_drops_the_design(family):
    design = _design(family)
    fit = _path(design, family).fits[-1]
    _, pen, c = fit._pending
    want = _eager(design, pen, fit, c)
    data = pickle.dumps(fit)
    assert b"GroupedDesign" not in data and fit._pending is None
    back = pickle.loads(data)
    assert {name: getattr(back, name) for name in SCORES} == want
    assert back._pending is None and not back.coef.flags.writeable
    np.testing.assert_array_equal(back.coef, fit.coef)
    np.testing.assert_array_equal(back.beta, fit.beta)
    assert (back.iterations, back.converged, back.max_descent_violation) == (
        fit.iterations, fit.converged, fit.max_descent_violation)


def test_given_values_are_kept():
    fit = FitResult(beta=np.ones(2), coef=np.array([1.0, 0.0]), objective=2.5, iterations=3,
                    converged=True, kkt_max_violation=1e-9)
    assert (fit.objective, fit.kkt_max_violation, fit.residual_drift) == (2.5, 1e-9, 0.0)
    assert fit.max_descent_violation is None and fit.n_nonzero == 2
    assert pickle.loads(pickle.dumps(fit)).objective == 2.5
