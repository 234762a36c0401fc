import numpy as np
import pytest

from grpsel.bilevel import (
    bridge_lambda_upper,
    cmcp_lambda_max,
    composite_threshold,
    fit_lcd,
    fit_path_lcd,
    fit_path_sgl,
    fit_sparse_group_lasso,
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

from conftest import gaussian_design, gaussian_problem
from oracles import (
    composite_mcp_value,
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
        with pytest.raises(ValueError):
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
