import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpsel import gcd
from grpsel.bilevel import (
    BRIDGE_FREEZE_TOL,
    bridge_lambda_upper,
    cmcp_lambda_max,
    composite_threshold,
    fit_lcd,
    fit_path_lcd,
    fit_path_sgl,
    fit_sparse_group_lasso,
    least_squares_init,
    sgl_kkt,
    sgl_lambda_max,
)
from grpsel.design import build_design
from grpsel.errors import UnsupportedFamily
from grpsel.gcd import fit_gcd
from grpsel.penalties import (
    PenaltySpec,
    objective,
    soft_threshold,
    soft_threshold_vec,
)
from grpsel.scenarios import ScenarioSpec, make_scenario

from conftest import (accepted_extrapolations, assert_close_to_reference, gaussian_design,
                      gaussian_problem, record_extrapolations)
from oracles import (
    composite_mcp_value,
    fit_lcd_reference,
    fit_sparse_group_lasso_reference,
    lasso_cd_reference,
    sparse_group_prox_oracle,
    subgradient_descent_reference,
)


def fig3_design(n=200, sigma=0.5, seed=0, orthonormalize=False):
    data = make_scenario(ScenarioSpec(name="figure3", n=n, sigma=sigma, seed=seed))
    design = build_design(data.X, data.y, data.labels, orthonormalize=orthonormalize)
    return design, data


class TestCompositeThreshold:
    def test_outer_derivative_vanishes_when_all_saturated(self):
        b = np.array([1.0, 1.5, -1.2])  # all |b| >= gamma_inner*lam = 1.0
        for k in range(3):
            assert composite_threshold(b, k, 0.5, 2.0) == 0.0

    def test_zero_group_gives_lam_squared(self):
        assert composite_threshold(np.zeros(4), 0, 0.3, 2.7) == pytest.approx(0.09)

    def test_matches_finite_differences_of_composite_value(self, rng):
        lam, gi = 0.4, 2.5
        h = 1e-6
        for _ in range(25):
            b = rng.standard_normal(3) * 0.7
            k = int(rng.integers(0, 3))
            if abs(abs(b[k]) - gi * lam) < 1e-3 or abs(b[k]) < 1e-3:
                continue  # stay away from the kinks
            bp, bm = b.copy(), b.copy()
            bp[k] = abs(b[k]) + h
            bm[k] = abs(b[k]) - h
            num = (
                composite_mcp_value(bp, lam, gi) - composite_mcp_value(bm, lam, gi)
            ) / (2 * h)
            assert composite_threshold(np.abs(b), k, lam, gi) == pytest.approx(
                num, abs=1e-5
            )

    def test_saturation_point_is_sum_of_inner_maxima(self):
        # the outer concavity d * gi * lam / 2 saturates the outer MCP at
        # gamma_outer * lam = d * gi * lam**2 / 2, the sum of the inner maxima
        lam, gi, d = 0.6, 2.2, 4
        gamma_outer = d * gi * lam / 2
        at_max = composite_mcp_value(np.full(d, gi * lam), lam, gi)
        assert at_max == pytest.approx(gamma_outer * lam**2 / 2)
        assert composite_threshold(np.full(d, gi * lam), 0, lam, gi) == 0.0

    def test_single_member_group_chain(self):
        lam, gi = 0.5, 3.0
        h = 1e-6
        t = 0.4
        num = (
            composite_mcp_value(np.array([t + h]), lam, gi)
            - composite_mcp_value(np.array([t - h]), lam, gi)
        ) / (2 * h)
        assert composite_threshold(np.array([t]), 0, lam, gi) == pytest.approx(num, abs=1e-5)


class TestFitLcd:
    @pytest.mark.parametrize("family", ["gbridge", "cmcp"])
    def test_zero_penalty_gives_least_squares(self, family):
        X, y, labels, _ = gaussian_problem(60, [3, 3], sigma=0.6, seed=1,
                                           beta=np.array([1, 0.5, 0, -1, 0, 0.2]))
        design = build_design(X, y, labels, orthonormalize=False)
        fit = fit_lcd(design, PenaltySpec(family, lam=0.0), tol=1e-11)
        ls, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
        np.testing.assert_allclose(fit.coef, ls, atol=1e-6)

    def test_cmcp_at_the_smallest_accepted_level_is_least_squares(self):
        # gamma_inner * lam**2 / 2 is subnormal here, and the slopes divide by it
        X, y, labels, _ = gaussian_problem(60, [3, 3], sigma=0.6, seed=1,
                                           beta=np.array([1, 0.5, 0, -1, 0, 0.2]))
        design = build_design(X, y, labels, orthonormalize=False)
        fit = fit_lcd(design, PenaltySpec("cmcp", lam=1e-160), tol=1e-11)
        assert fit.converged and fit.kkt_max_violation < 1e-6
        ls, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
        np.testing.assert_allclose(fit.coef, ls, atol=1e-6)

    @pytest.mark.parametrize("family", ["gbridge", "cmcp"])
    def test_mm_descent_never_increases_objective(self, family):
        design, _ = gaussian_design(
            80, [3, 3, 2], beta=np.repeat([1.0, 0.0, -0.8], [3, 3, 2]),
            sigma=0.7, seed=2, orthonormalize=False,
            weights=("pow", 0.5) if family == "gbridge" else "sqrt",
        )
        lam = 0.1 if family == "gbridge" else 0.3
        fit = fit_lcd(design, PenaltySpec(family, lam=lam), check_descent=True)
        assert fit.max_descent_violation <= 1e-12
        assert fit.residual_drift <= 1e-8

    def test_bridge_groups_die_for_large_penalty(self):
        design, _ = gaussian_design(50, [2, 3], sigma=0.5, seed=3,
                                    beta=np.array([1, 1, 0, 0, 0.5]),
                                    orthonormalize=False, weights=("pow", 0.5))
        pen = PenaltySpec("gbridge", lam=0.0, gamma=0.5)
        lam_up = bridge_lambda_upper(design, pen)
        fit = fit_lcd(design, pen.with_lam(lam_up))
        assert np.all(fit.beta == 0.0)

    def test_bilevel_sparsity_on_two_group_scenario(self):
        design, data = fig3_design(seed=4)
        found = {"gbridge": False, "cmcp": False}
        for family in found:
            pen = PenaltySpec(family, lam=0.0, gamma=0.5 if family == "gbridge" else None,
                              gamma_inner=2.7 if family == "cmcp" else None)
            if family == "gbridge":
                design_b = build_design(data.X, data.y, data.labels,
                                        weights=("pow", 0.5), orthonormalize=False)
                path = fit_path_lcd(design_b, pen, n_lambda=40)
            else:
                path = fit_path_lcd(design, pen, n_lambda=40)
            for fit in path.fits:
                for j, (s, d) in enumerate(design.groups):
                    block = fit.coef[s:s + d]
                    if np.any(block == 0.0) and np.any(block != 0.0):
                        found[family] = True
        assert found["gbridge"] and found["cmcp"]

    def test_objective_recomputes(self):
        design, _ = gaussian_design(40, [2, 2], sigma=1.0, seed=5,
                                    orthonormalize=False)
        pen = PenaltySpec("cmcp", lam=0.2)
        fit = fit_lcd(design, pen)
        assert fit.objective == pytest.approx(objective(design, fit.coef, pen), rel=1e-10)

    def test_rejects_orthonormalized_design_and_wrong_family(self):
        design, _ = gaussian_design(30, [2, 2], sigma=1.0, seed=6)
        with pytest.raises(UnsupportedFamily, match="orthonormalize=False"):
            fit_lcd(design, PenaltySpec("cmcp", lam=0.1))
        flat, _ = gaussian_design(30, [2, 2], sigma=1.0, seed=6, orthonormalize=False)
        with pytest.raises(UnsupportedFamily):
            fit_lcd(flat, PenaltySpec("glasso", lam=0.1))

    def test_stationarity_residual_small(self):
        design, _ = gaussian_design(
            80, [3, 3], beta=np.array([1.0, 0.6, 0.0, 0.0, -0.9, 0.0]),
            sigma=0.4, seed=8, orthonormalize=False,
        )
        fit = fit_lcd(design, PenaltySpec("cmcp", lam=0.15), tol=1e-11)
        assert fit.kkt_max_violation <= 1e-6


class TestLcdPaths:
    def test_cmcp_path_descends_from_zero_fit(self):
        design, _ = fig3_design(seed=9)
        path = fit_path_lcd(design, PenaltySpec("cmcp", lam=0.0), n_lambda=25)
        lams = [lam for lam, _ in path.grid]
        assert lams == sorted(lams, reverse=True)
        assert np.all(path.fits[0].beta == 0.0)
        assert path.grid[0][0] == pytest.approx(cmcp_lambda_max(design))

    def test_bridge_path_reported_descending_with_zero_top(self):
        design, data = fig3_design(seed=10)
        design_b = build_design(data.X, data.y, data.labels,
                                weights=("pow", 0.5), orthonormalize=False)
        path = fit_path_lcd(design_b, PenaltySpec("gbridge", lam=0.0), n_lambda=25)
        lams = [lam for lam, _ in path.grid]
        assert lams == sorted(lams, reverse=True)
        assert np.all(path.fits[0].beta == 0.0)
        assert np.any(path.fits[-1].beta != 0.0)


class TestSparseGroupLasso:
    def test_two_stage_prox_is_exact(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            z = rng.standard_normal(d) * rng.uniform(0.2, 2.0)
            t1 = rng.uniform(0.0, 1.0)
            t2 = rng.uniform(0.0, 1.0)
            ours = soft_threshold_vec(soft_threshold(z, t1), t2)
            oracle = sparse_group_prox_oracle(z, t1, t2)
            np.testing.assert_allclose(ours, oracle, atol=1e-6)

    def test_convexity_same_solution_from_two_inits(self, rng):
        for seed in range(5):
            design, _ = gaussian_design(
                50, [3, 3, 3, 3], sigma=0.8, seed=seed, orthonormalize=False,
                beta=np.repeat([1.0, 0.0, -0.7, 0.0], 3),
            )
            a = fit_sparse_group_lasso(design, 0.08, 0.08, tol=1e-11)
            b = fit_sparse_group_lasso(design, 0.08, 0.08,
                                       init=rng.standard_normal(12), tol=1e-11)
            assert a.objective == pytest.approx(b.objective, abs=1e-8)
            np.testing.assert_allclose(a.coef, b.coef, atol=1e-5)
            assert sgl_kkt(design, a.coef, 0.08, 0.08) <= 1e-5

    def test_matches_slow_subgradient_descent(self):
        design, _ = gaussian_design(
            40, [3, 3], sigma=0.5, seed=21, orthonormalize=False,
            beta=np.array([1.0, 0.0, 0.4, 0.0, 0.0, -0.6]),
        )
        lam1, lam2 = 0.06, 0.05
        pen = PenaltySpec("sgl", lam=lam1, lam2=lam2)
        fit = fit_sparse_group_lasso(design, lam1, lam2, tol=1e-12)
        slow = subgradient_descent_reference(design.X, design.y, lam1, lam2,
                                             design.groups, iters=60_000)
        # the blockwise fit is the global minimizer; the subgradient run can
        # only ever be as good, and should land close
        assert fit.objective <= objective(design, slow, pen) + 1e-12
        np.testing.assert_allclose(fit.coef, slow, atol=5e-3)

    def test_lam2_zero_matches_plain_lasso(self):
        design, _ = gaussian_design(
            60, [2, 2, 2], sigma=0.5, seed=11, orthonormalize=False,
            beta=np.array([1.0, 0.0, 0.5, 0.0, 0.0, -0.8]),
        )
        fit = fit_sparse_group_lasso(design, 0.1, 0.0, tol=1e-12)
        ref = lasso_cd_reference(design.X, design.y, 0.1)
        np.testing.assert_allclose(fit.coef, ref, atol=1e-5)

    def test_lam1_zero_matches_group_lasso_on_orthonormal_blocks(self):
        # blocks orthonormal by construction, so standardization is a no-op
        # and the sgl problem with lam1=0 equals the unit-weight group LASSO
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((80, 6))
        raw -= raw.mean(axis=0)
        labels = np.array([0, 0, 1, 1, 2, 2])
        blocks = []
        for j in range(3):
            q, _ = np.linalg.qr(raw[:, 2 * j:2 * j + 2])
            blocks.append(q * np.sqrt(80))
        X = np.hstack(blocks)
        beta = np.array([0.8, -0.3, 0.0, 0.0, 0.4, 0.0])
        y = X @ beta + 0.3 * rng.standard_normal(80)
        flat = build_design(X, y, labels, orthonormalize=False)
        orth = build_design(X, y, labels, weights=np.ones(3), orthonormalize=True)
        sgl = fit_sparse_group_lasso(flat, 0.0, 0.15, tol=1e-12)
        gl = fit_gcd(orth, PenaltySpec("glasso", lam=0.15), tol=1e-12)
        np.testing.assert_allclose(sgl.beta, gl.beta, atol=1e-5)

    def test_path_starts_at_zero(self):
        design, _ = gaussian_design(
            40, [2, 2], sigma=0.8, seed=13, orthonormalize=False,
            beta=np.array([1.0, 0.0, -0.5, 0.0]),
        )
        path = fit_path_sgl(design, lam2_ratio=0.5, n_lambda=12)
        assert np.all(path.fits[0].beta == 0.0)
        assert path.grid[0][0] == pytest.approx(sgl_lambda_max(design))
        assert path.grid[0][1] == pytest.approx(0.5 * path.grid[0][0])

    def test_descent_flag(self):
        design, _ = gaussian_design(40, [2, 3], sigma=1.0, seed=14,
                                    orthonormalize=False)
        fit = fit_sparse_group_lasso(design, 0.05, 0.05, check_descent=True)
        assert fit.max_descent_violation <= 1e-12

    def test_negative_penalty_rejected(self):
        design, _ = gaussian_design(20, [2], sigma=1.0, seed=15,
                                    orthonormalize=False)
        with pytest.raises(ValueError):
            fit_sparse_group_lasso(design, -0.1, 0.0)


def test_descent_check_without_updates_reports_zero():
    # a bridge fit from zero freezes every group, so no update is made: the
    # largest objective increase is 0.0, as for a gcd fit that skips all groups
    design, _ = gaussian_design(40, [2, 3], sigma=1.0, seed=16, orthonormalize=False)
    fit = fit_lcd(design, PenaltySpec("gbridge", lam=0.1), init=np.zeros(design.p),
                  check_descent=True)
    assert not np.any(fit.coef)
    assert fit.max_descent_violation == 0.0


def _pending_freeze_start():
    # group 1 starts at (0.3, 2e-10, 0): the first visit zeroes coordinate 0,
    # leaving the 1-norm just above the freeze level, then zeroes coordinate
    # 1 and freezes the group while the move of coordinate 0 is still
    # pending; it must reach the running gradient along with the freeze
    beta = np.array([1.0, -0.8, 0.6, 0.0, 0.0, 0.0, 0.5, 0.0, -0.5])
    design, _ = gaussian_design(60, [3, 3, 3], beta=beta, sigma=0.5, seed=7,
                                orthonormalize=False)
    init = least_squares_init(design)
    init[3:6] = [0.3, 2 * BRIDGE_FREEZE_TOL, 0.0]
    return design, init, PenaltySpec("gbridge", lam=0.1)


def test_bridge_freeze_applies_pending_moves_to_the_residual(monkeypatch):
    design, init, pen = _pending_freeze_start()
    monkeypatch.setattr(gcd, "ANDERSON_K", 0)  # step for step: no extrapolation
    got = fit_lcd(design, pen, init=init)
    ref = fit_lcd_reference(design, pen, init=init)
    assert got.residual_drift <= 1e-12
    assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
    np.testing.assert_allclose(got.coef, ref.coef, rtol=0, atol=1e-10)
    assert not np.any(got.coef[3:6])


def test_accelerated_bridge_freeze_matches_the_reference():
    # the twin of the test above with Anderson extrapolation on
    design, init, pen = _pending_freeze_start()
    got = fit_lcd(design, pen, init=init)
    assert_close_to_reference(got, fit_lcd_reference(design, pen, init=init))
    assert got.residual_drift <= 1e-12
    assert not np.any(got.coef[3:6])


def test_bridge_group_frozen_between_extrapolations_stays_exactly_zero(monkeypatch):
    # group 1 freezes after the first extrapolation attempt, late inside the
    # second window; the accepted point combines iterates in which the group
    # was nonzero, but a coordinate that is zero in the current iterate stays
    # zero; without that rule the point is accepted here and leaves the
    # frozen group at a nonzero value for good (p = 40 > n = 30)
    beta = np.array([1.0, -0.8, 0.6, 0.5, 0.0, -0.5] + [0.0] * 34)
    design, _ = gaussian_design(30, [2] * 20, beta=beta, sigma=0.5, correlation=0.3,
                                seed=28, orthonormalize=False)
    top = bridge_lambda_upper(design, PenaltySpec("gbridge", lam=0.0))
    pen = PenaltySpec("gbridge", lam=0.1 * top)
    calls = record_extrapolations(monkeypatch)
    fit = fit_lcd(design, pen)
    frozen_inside = [
        j for window, _ in accepted_extrapolations(design, pen, calls[1:])
        for j in range(design.J)
        if not np.any(window[-1][design.group_slice(j)])
        and any(np.any(w[design.group_slice(j)]) for w in window[1:])
    ]
    assert fit.converged and len(calls) >= 2 and frozen_inside
    for j in frozen_inside:
        assert np.all(fit.coef[design.group_slice(j)] == 0.0)


def test_cmcp_descent_check_on_correlated_wide_design():
    # with check_descent the objective is evaluated after every coordinate
    # update; p = 60 > n = 40, common correlation 0.3
    beta = np.zeros(60)
    beta[:9] = np.tile([1.0, -0.6, 0.4], 3)
    design, _ = gaussian_design(40, [4] * 15, beta=beta, sigma=1.0, correlation=0.3,
                                seed=32, orthonormalize=False)
    pen = PenaltySpec("cmcp", lam=0.4 * cmcp_lambda_max(design))
    fit = fit_lcd(design, pen, check_descent=True)
    assert fit.converged and np.any(fit.coef)
    assert fit.max_descent_violation <= 1e-12
    assert fit.residual_drift <= 1e-12


@pytest.mark.parametrize("family,ratio", [("cmcp", 0.4), ("gbridge", 0.05)])
def test_descent_check_runs_the_production_sweep(family, ratio):
    # check_descent may only add objective evaluations: the fit must be the
    # one made without it, bit for bit; p = 60 > n = 40, correlation 0.3
    beta = np.zeros(60)
    beta[:9] = np.tile([1.0, -0.6, 0.4], 3)
    for seed in range(4):
        design, _ = gaussian_design(40, [4] * 15, beta=beta, sigma=1.0, correlation=0.3,
                                    seed=seed, orthonormalize=False,
                                    weights=("pow", 0.5) if family == "gbridge" else "sqrt")
        if family == "cmcp":
            top = cmcp_lambda_max(design)
        else:
            top = bridge_lambda_upper(design, PenaltySpec("gbridge", lam=0.0))
        pen = PenaltySpec(family, lam=ratio * top)
        plain = fit_lcd(design, pen)
        checked = fit_lcd(design, pen, check_descent=True)
        assert checked.iterations == plain.iterations
        assert np.array_equal(checked.coef, plain.coef)


def _standardized_design(seed, sizes, extra_rows, correlation):
    n = max(sizes) + extra_rows
    rng = np.random.default_rng(seed)
    X = (math.sqrt(1 - correlation) * rng.standard_normal((n, sum(sizes)))
         + math.sqrt(correlation) * rng.standard_normal((n, 1)))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return build_design(X, rng.standard_normal(n), labels, orthonormalize=False), rng


_DESIGNS = dict(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=6),
    extra_rows=st.integers(2, 20),
    correlation=st.floats(0.0, 0.95),
)


@settings(max_examples=60, deadline=None)
@given(**_DESIGNS)
def test_sgl_group_move_shifts_other_gradients_by_at_most_lipschitz_root(
    seed, sizes, extra_rows, correlation
):
    # the premise of the sgl zero-group skip: moving group k by d moves
    # X_j'r/n by ||X_j'X_k d||/n <= sqrt(L_j L_k)||d||, L the top eigenvalue
    # of a block's Gram X'X/n
    design, rng = _standardized_design(seed, sizes, extra_rows, correlation)
    n, X = design.n, design.X
    lips = np.array([np.linalg.eigvalsh(X[:, design.group_slice(j)].T
                                        @ X[:, design.group_slice(j)] / n)[-1]
                     for j in range(design.J)])
    k = int(rng.integers(design.J))
    d = rng.standard_normal(design.dims[k]) * 10.0 ** rng.uniform(-6, 3)
    shift = design.group_l2(X.T @ (X[:, design.group_slice(k)] @ d) / n)
    assert np.all(shift <= np.sqrt(lips * lips[k]) * np.linalg.norm(d) * (1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(**_DESIGNS)
def test_standardized_columns_have_correlations_at_most_one(
    seed, sizes, extra_rows, correlation
):
    # the premise of the cmcp zero-group skip: moving coordinate m by d moves
    # x_k'r/n by |x_k'x_m| |d| / n <= |d|
    design, _ = _standardized_design(seed, sizes, extra_rows, correlation)
    assert np.max(np.abs(design.X.T @ design.X / design.n)) <= 1 + 1e-12


def _sparse_fit_design():
    beta = np.zeros(60)
    beta[:9] = np.tile([1.0, -0.6, 0.4], 3)
    design, _ = gaussian_design(40, [3] * 20, beta=beta, sigma=1.0, correlation=0.3,
                                seed=32, orthonormalize=False)
    return design


@pytest.mark.parametrize("family", ["cmcp", "sgl"])
def test_zero_group_skip_thresholds_fewer_coordinates_with_the_same_fit(family, monkeypatch):
    # on a sparse fit the sweeps leave most zero groups untouched, so fewer
    # coordinates reach soft_threshold than coordinates x cycles; the fit is
    # still that of the reference loop that visits every group
    import grpsel.bilevel as bilevel

    design = _sparse_fit_design()
    thresholded = []

    def counting(z, t):
        thresholded.append(np.size(z))
        return soft_threshold(z, t)

    monkeypatch.setattr(bilevel, "soft_threshold", counting)
    monkeypatch.setattr(gcd, "ANDERSON_K", 0)  # step for step: no extrapolation
    if family == "cmcp":
        pen = PenaltySpec("cmcp", lam=0.5 * cmcp_lambda_max(design))
        got, ref = fit_lcd(design, pen), fit_lcd_reference(design, pen)
    else:
        lam = 0.5 * sgl_lambda_max(design)
        got = fit_sparse_group_lasso(design, lam, lam)
        ref = fit_sparse_group_lasso_reference(design, lam, lam)
    assert (got.iterations, got.converged) == (ref.iterations, True)
    np.testing.assert_allclose(got.coef, ref.coef, rtol=0, atol=1e-10)
    assert np.sum(design.group_l2(got.coef) == 0.0) >= design.J // 2
    assert 0 < sum(thresholded) < design.p * got.iterations


@pytest.mark.parametrize("family", ["cmcp", "sgl"])
def test_accelerated_zero_group_skip_fit_matches_the_reference(family):
    # the twin of the test above with Anderson extrapolation on
    design = _sparse_fit_design()
    if family == "cmcp":
        pen = PenaltySpec("cmcp", lam=0.5 * cmcp_lambda_max(design))
        got, ref = fit_lcd(design, pen), fit_lcd_reference(design, pen)
    else:
        lam = 0.5 * sgl_lambda_max(design)
        got = fit_sparse_group_lasso(design, lam, lam)
        ref = fit_sparse_group_lasso_reference(design, lam, lam)
    assert_close_to_reference(got, ref)
    assert got.iterations < ref.iterations


def test_acceleration_converges_where_the_plain_sweep_stops_at_max_iter(monkeypatch):
    # correlated composite MCP (n = 100, 12 groups of 4, correlation 0.7),
    # warm-started from the level above: the plain sweep needs about 1,200
    # cycles, the accelerated one about 240
    beta = np.zeros(48)
    beta[:12] = np.tile([1.0, -0.6, 0.4, 0.0], 3)
    design, _ = gaussian_design(100, [4] * 12, beta=beta, correlation=0.7, seed=0,
                                orthonormalize=False)
    top = cmcp_lambda_max(design)
    warm = fit_lcd(design, PenaltySpec("cmcp", lam=0.12 * top)).coef
    pen = PenaltySpec("cmcp", lam=0.09 * top)
    fast = fit_lcd(design, pen, init=warm, max_iter=600)
    monkeypatch.setattr(gcd, "ANDERSON_K", 0)
    plain = fit_lcd(design, pen, init=warm, max_iter=600)
    assert fast.converged and fast.kkt_max_violation <= 1e-6
    assert not plain.converged and plain.iterations == 600
