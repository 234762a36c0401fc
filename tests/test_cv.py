from dataclasses import replace

import numpy as np
import pytest

from grpsel.cv import CVReport, fold_assignments, kfold_cv
from grpsel.design import build_design, group_norms, rebuild_design
from grpsel.errors import FoldTooSmall
from grpsel.paths import PathConfig
from grpsel.penalties import PenaltySpec

from conftest import gaussian_problem

FAST = PathConfig(n_lambda=25, lambda_min_ratio=0.01)


def small_signal_problem(seed, n=60, sigma=0.5):
    beta = np.array([1.5, -1.0, 0.0, 0.0, 0.8, 0.9, 0.0, 0.0])
    return gaussian_problem(n, [2, 2, 2, 2], beta=beta, sigma=sigma, seed=seed)


def test_fold_assignments_partition_and_determinism():
    folds = fold_assignments(23, 5, seed=3)
    assert sorted(np.concatenate(folds).tolist()) == list(range(23))
    again = fold_assignments(23, 5, seed=3)
    for a, b in zip(folds, again):
        np.testing.assert_array_equal(a, b)
    different = fold_assignments(23, 5, seed=4)
    assert any(not np.array_equal(a, b) for a, b in zip(folds, different))


def test_fold_count_bounds():
    with pytest.raises(FoldTooSmall):
        fold_assignments(10, 1, 0)
    with pytest.raises(FoldTooSmall):
        fold_assignments(10, 11, 0)


def test_report_is_bitwise_reproducible():
    X, y, labels, _ = small_signal_problem(0)
    design = build_design(X, y, labels)
    pen = PenaltySpec("glasso", lam=0.0)
    a = kfold_cv(design, pen, FAST, K=5, seed=7)
    b = kfold_cv(design, pen, FAST, K=5, seed=7)
    assert a.grid == b.grid
    np.testing.assert_array_equal(a.mean_cv_error, b.mean_cv_error)
    np.testing.assert_array_equal(a.se, b.se)
    assert a.chosen_min == b.chosen_min and a.chosen_1se == b.chosen_1se


def test_chosen_points_satisfy_their_definitions():
    X, y, labels, _ = small_signal_problem(1)
    design = build_design(X, y, labels)
    report = kfold_cv(design, PenaltySpec("gmcp", lam=0.0, gamma=3.0), FAST,
                      K=5, seed=1)
    i_min = report.grid.index(report.chosen_min)
    assert report.mean_cv_error[i_min] == report.mean_cv_error.min()
    cutoff = report.mean_cv_error[i_min] + report.se[i_min]
    i_1se = report.grid.index(report.chosen_1se)
    assert report.mean_cv_error[i_1se] <= cutoff
    for i, (lam, _) in enumerate(report.grid):
        if report.mean_cv_error[i] <= cutoff:
            assert lam <= report.chosen_1se[0]


def test_noiseless_recovery_selects_true_support():
    beta = np.array([2.0, -1.5, 0.0, 0.0, 1.0, 1.2, 0.0, 0.0])
    X, y, labels, _ = gaussian_problem(80, [2, 2, 2, 2], beta=beta,
                                       sigma=1e-6, seed=2)
    design = build_design(X, y, labels)
    report = kfold_cv(design, PenaltySpec("glasso", lam=0.0),
                      PathConfig(n_lambda=40, lambda_min_ratio=1e-4), K=5, seed=2)
    fit = report.path.fits[report.grid.index(report.chosen_min)]
    norms = group_norms(design, fit.beta)
    assert set(np.flatnonzero(norms > 1e-3)) == {0, 2}


def test_pure_noise_one_se_rule_selects_zero():
    hits = 0
    for rep in range(100):
        X, y, labels, _ = gaussian_problem(60, [2, 2, 2], beta=None,
                                           sigma=1.0, seed=1000 + rep)
        design = build_design(X, y, labels)
        report = kfold_cv(design, PenaltySpec("glasso", lam=0.0),
                          PathConfig(n_lambda=15, lambda_min_ratio=0.05),
                          K=5, seed=rep)
        fit = report.path.fits[report.grid.index(report.chosen_1se)]
        if np.all(fit.beta == 0.0):
            hits += 1
    assert hits >= 90


def test_leave_one_out_on_tiny_data():
    X, y, labels, _ = gaussian_problem(12, [1, 1], beta=np.array([1.0, 0.0]),
                                       sigma=0.3, seed=3)
    design = build_design(X, y, labels)
    report = kfold_cv(design, PenaltySpec("glasso", lam=0.0),
                      PathConfig(n_lambda=8, lambda_min_ratio=0.05),
                      K=12, seed=3)
    assert np.all(np.isfinite(report.mean_cv_error))


def test_fold_designs_ignore_held_out_rows():
    X, y, labels, _ = small_signal_problem(4)
    design = build_design(X, y, labels)
    folds = fold_assignments(design.n, 5, seed=11)
    train = np.setdiff1d(np.arange(design.n), folds[0])
    baseline = rebuild_design(design, train)
    corrupted = X.copy()
    corrupted[folds[0]] += 100.0  # wreck only the held-out rows
    y_bad = y.copy()
    y_bad[folds[0]] -= 50.0
    other = rebuild_design(build_design(corrupted, y_bad, labels), train)
    for a, b in zip(baseline.U, other.U):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(baseline.X, other.X)


@pytest.mark.parametrize("family,kwargs", [
    ("gbridge", {}),
    ("cmcp", {}),
    ("sgl", {}),
])
def test_cv_supports_bilevel_families(family, kwargs):
    beta = np.array([1.5, 0.0, -1.2, 0.0, 0.0, 0.0])
    X, y, labels, _ = gaussian_problem(60, [2, 2, 2], beta=beta, sigma=0.5, seed=5)
    weights = ("pow", 0.5) if family == "gbridge" else "sqrt"
    design = build_design(X, y, labels, weights=weights, orthonormalize=False)
    pen = PenaltySpec(family, lam=0.0, **kwargs)
    report = kfold_cv(design, pen, PathConfig(n_lambda=12, lambda_min_ratio=0.05),
                      K=4, seed=5)
    assert isinstance(report, CVReport)
    assert len(report.grid) == 12
    assert np.all(np.isfinite(report.mean_cv_error))


def test_nonconverged_fits_are_counted():
    X, y, labels, _ = small_signal_problem(0)
    design = build_design(X, y, labels)
    pen = PenaltySpec("glasso", lam=0.0)
    assert kfold_cv(design, pen, FAST, K=3, seed=1).n_nonconverged == 0
    cut = kfold_cv(design, pen, replace(FAST, max_iter=1), K=3, seed=1)
    assert 0 < cut.n_nonconverged <= len(cut.grid) * 4
