import math

import numpy as np
import pytest

from grpsel.cv import DEFAULT_GAMMA_GRID, kfold_cv
from grpsel.errors import ConfigError
from grpsel.paths import MAX_N_LAMBDA, PathConfig, solution_path
from grpsel.penalties import PenaltySpec

from conftest import gaussian_design


def test_dispatch_covers_every_family():
    beta = np.array([1.0, 0.0, -0.7, 0.0, 0.4, 0.0])
    orth, _ = gaussian_design(60, [2, 2, 2], beta=beta, sigma=0.5, seed=1)
    flat, _ = gaussian_design(60, [2, 2, 2], beta=beta, sigma=0.5, seed=1,
                              orthonormalize=False)
    bridge, _ = gaussian_design(60, [2, 2, 2], beta=beta, sigma=0.5, seed=1,
                                orthonormalize=False, weights=("pow", 0.5))
    config = PathConfig(n_lambda=8, lambda_min_ratio=0.05)
    for family, design in [("glasso", orth), ("gmcp", orth), ("gscad", orth),
                           ("gbridge", bridge), ("cmcp", flat), ("sgl", flat)]:
        path = solution_path(design, PenaltySpec(family, lam=0.0), config)
        assert len(path.fits) == 8
        assert np.all(np.isfinite(path.coef_matrix()))
        assert np.all(path.fits[0].beta == 0.0)


def test_lcd_multi_gamma_sweep_concatenates_blocks():
    flat, _ = gaussian_design(50, [2, 2], sigma=0.5, seed=2,
                              beta=np.array([1.0, 0.0, 0.0, -0.5]),
                              orthonormalize=False)
    config = PathConfig(n_lambda=5, lambda_min_ratio=0.05,
                        gamma_grid=(2.0, 3.0))
    path = solution_path(flat, PenaltySpec("cmcp", lam=0.0), config)
    assert len(path.fits) == 10
    gammas = [g for _, g in path.grid]
    assert gammas == [2.0] * 5 + [3.0] * 5


@pytest.mark.parametrize("family,gammas", [("gmcp", (1.2, 1.2)), ("cmcp", (2.0, 3.0, 2.0)),
                                           ("gscad", (math.inf, 3.7, math.inf))])
def test_repeated_gamma_is_rejected_before_any_fit(family, gammas, monkeypatch):
    # a repeated gamma would fit the same grid twice; the config of both
    # entry points refuses it, so no solver runs
    from grpsel import paths

    design, _ = gaussian_design(40, [2, 2], sigma=0.5, seed=4, beta=[1.0, 0.0, 0.0, -0.5],
                                orthonormalize=family != "cmcp")
    monkeypatch.setattr(paths, "_chain", lambda *args, **kw: pytest.fail("a fit ran"))

    def config():
        return PathConfig(n_lambda=5, gamma_grid=gammas)

    repeated = str(gammas[-1])
    with pytest.raises(ConfigError, match=repeated):
        solution_path(design, PenaltySpec(family, lam=0.0), config())
    with pytest.raises(ConfigError, match=repeated):
        kfold_cv(design, PenaltySpec(family, lam=0.0), config(), K=3, seed=0)


@pytest.mark.parametrize("family", ["glasso", "sgl"])
def test_gamma_grid_is_refused_for_families_without_gamma(family, monkeypatch):
    # glasso and sgl ignore gamma, so a grid would fit the same path once per value
    from grpsel import paths

    design, _ = gaussian_design(40, [2, 2], sigma=0.5, seed=4, beta=[1.0, 0.0, 0.0, -0.5],
                                orthonormalize=family == "glasso")
    monkeypatch.setattr(paths, "_chain", lambda *args, **kw: pytest.fail("a fit ran"))
    config = PathConfig(n_lambda=5, gamma_grid=(2.7, math.inf))
    with pytest.raises(ConfigError, match=f"{family} has no gamma"):
        solution_path(design, PenaltySpec(family, lam=0.0), config)
    with pytest.raises(ConfigError, match=f"{family} has no gamma"):
        kfold_cv(design, PenaltySpec(family, lam=0.0), config, K=3, seed=0)


def test_sgl_fixed_lambda2():
    flat, _ = gaussian_design(50, [2, 2], sigma=0.5, seed=3,
                              beta=np.array([1.0, 0.0, 0.0, -0.5]),
                              orthonormalize=False)
    config = PathConfig(n_lambda=6, lambda_min_ratio=0.05)
    path = solution_path(flat, PenaltySpec("sgl", lam=0.0, lam2=0.02), config)
    assert all(l2 == 0.02 for _, l2 in path.grid)
    # a tied level follows the grid, at ratio 1 unless given
    for pen, ratio in ((PenaltySpec("sgl", lam=0.0), 1.0),
                       (PenaltySpec("sgl", lam=0.0, lam2_ratio=0.5), 0.5)):
        assert all(l2 == ratio * lam for lam, l2 in solution_path(flat, pen, config).grid)


def test_cv_with_lcd_gamma_sweep_keeps_folds_aligned():
    flat, _ = gaussian_design(60, [2, 2], sigma=0.5, seed=5,
                              beta=np.array([1.2, 0.0, 0.0, -0.8]),
                              orthonormalize=False)
    config = PathConfig(n_lambda=5, lambda_min_ratio=0.05,
                        gamma_grid=(2.0, 3.0))
    report = kfold_cv(flat, PenaltySpec("cmcp", lam=0.0), config, K=4, seed=5)
    assert len(report.grid) == 10
    assert np.all(np.isfinite(report.mean_cv_error))


def test_cv_applies_default_gamma_grid_for_concave_families():
    orth, _ = gaussian_design(60, [2, 2], sigma=0.5, seed=4,
                              beta=np.array([1.2, -0.8, 0.0, 0.0]))
    config = PathConfig(n_lambda=6, lambda_min_ratio=0.05)
    report = kfold_cv(orth, PenaltySpec("gmcp", lam=0.0), config, K=4, seed=4)
    assert len(report.grid) == 6 * len(DEFAULT_GAMMA_GRID["gmcp"])
    gammas = sorted({g for _, g in report.grid})
    assert gammas == [1.2, 2.7, 3.7, math.inf]
    scad = kfold_cv(orth, PenaltySpec("gscad", lam=0.0), config, K=4, seed=4)
    assert len(scad.grid) == 6 * len(DEFAULT_GAMMA_GRID["gscad"])
    assert all(g > 2 for _, g in scad.grid)


@pytest.mark.parametrize("settings", [
    dict(tol=-1.0), dict(tol=math.nan), dict(tol=math.inf), dict(max_iter=0), dict(max_iter=-5),
    dict(max_iter=-1), dict(n_lambda=1), dict(n_lambda=MAX_N_LAMBDA + 1),
    dict(lambda_min_ratio=0.0), dict(lambda_min_ratio=1.0), dict(lambda_min_ratio=2.0),
    dict(lambda_min_ratio=math.nan), dict(warm_start="bogus"), dict(gamma_grid=(1.2, 1.2)),
    dict(gamma_grid=()),
])
def test_path_config_refuses_bad_solver_settings(settings):
    # PathConfig owns every grid and solver setting: each rule names its field
    (name,) = settings
    with pytest.raises(ConfigError, match=rf"^{name} must") as caught:
        PathConfig(**settings)
    assert isinstance(caught.value, ValueError)
    # the edges are allowed
    PathConfig(n_lambda=2, lambda_min_ratio=5e-324, gamma_grid=(1.2, math.inf), tol=0.0,
               max_iter=1)
    PathConfig(n_lambda=MAX_N_LAMBDA, warm_start="group_lasso_init")


@pytest.mark.parametrize("family", ["gbridge", "cmcp", "sgl"])
def test_group_lasso_init_is_refused_for_coordinate_wise_families(family, monkeypatch):
    # the group LASSO start exists only for the 2-norm families; the others
    # would ignore it and fit the previous_lambda path
    from grpsel import bilevel, paths

    design, _ = gaussian_design(40, [2, 2], sigma=0.5, seed=4, beta=[1.0, 0.0, 0.0, -0.5],
                                orthonormalize=False)
    monkeypatch.setattr(paths, "_chain", lambda *args, **kw: pytest.fail("a fit ran"))
    monkeypatch.setattr(bilevel, "bridge_lambda_upper", lambda *a: pytest.fail("a fit ran"))
    config = PathConfig(n_lambda=5, warm_start="group_lasso_init")
    with pytest.raises(ConfigError, match=f"group_lasso_init .* not {family}"):
        solution_path(design, PenaltySpec(family, lam=0.0), config)
    with pytest.raises(ConfigError, match=f"group_lasso_init .* not {family}"):
        kfold_cv(design, PenaltySpec(family, lam=0.0), config, K=3, seed=0)
