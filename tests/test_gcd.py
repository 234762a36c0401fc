import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpsel import gcd
from grpsel.bilevel import (
    bridge_lambda_upper,
    cmcp_lambda_max,
    fit_lcd,
    fit_sparse_group_lasso,
    least_squares_init,
    sgl_lambda_max,
)
from grpsel.design import GroupedDesign, build_design, group_norms, rebuild_design
from grpsel.errors import NonFiniteInput, NotOrthonormalized, UnsupportedFamily
from grpsel.gcd import fit_gcd, fit_gcd_columns, fit_path, kkt_check, lambda_grid, lambda_max
from grpsel.paths import PathConfig, solution_path
from grpsel.penalties import PenaltySpec, objective

from conftest import (accepted_extrapolations, assert_close_to_reference,
                      cross_orthogonal_design, gaussian_design, gaussian_problem,
                      record_extrapolations)
from oracles import solve_single_group_reference


def _hand_design():
    # one group of two, X = sqrt(2)*I at n=2, chosen so X'y/n = (3, 4)
    X = math.sqrt(2.0) * np.eye(2)
    y = np.array([3 * math.sqrt(2.0), 4 * math.sqrt(2.0)])
    return GroupedDesign(
        y=y,
        X=X,
        groups=((0, 2),),
        cj=np.array([1.0]),
        U=(np.eye(2),),
        orthonormalized=True,
        X_raw=X,
        y_raw=y,
        order=np.array([0, 1]),
        labels=np.array([0, 0]),
        y_mean=0.0,
        x_mean=np.zeros(2),
    )


class TestLambdaMax:
    def test_orthogonal_response_gives_zero(self):
        design = cross_orthogonal_design(20, [2, 2], seed=0)
        y = np.ones(20) - design.X @ np.linalg.lstsq(design.X, np.ones(20), rcond=None)[0]
        d2 = design.with_response(y)
        assert lambda_max(d2) < 1e-12

    def test_hand_norm(self):
        assert lambda_max(_hand_design()) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("family", ["glasso", "gmcp", "gscad"])
    def test_fit_at_lambda_max_is_exactly_zero(self, family):
        design, _ = gaussian_design(60, [2, 3, 1, 4], sigma=1.0, seed=3,
                                    beta=np.repeat([1.0, -0.5, 2.0, 0.0], [2, 3, 1, 4]))
        pen = PenaltySpec(family, lam=lambda_max(design))
        fit = fit_gcd(design, pen)
        assert np.all(fit.beta == 0.0)
        assert fit.converged and fit.iterations == 1
        slightly_less = fit_gcd(design, pen.with_lam(0.999 * lambda_max(design)))
        assert np.any(slightly_less.beta != 0.0)


class TestFitGcd:
    def test_orthogonal_groups_one_cycle_closed_form(self):
        design = cross_orthogonal_design(40, [2, 3, 1], seed=1)
        pen = PenaltySpec("gmcp", lam=0.2, gamma=2.7)
        fit = fit_gcd(design, pen)
        expected = np.concatenate([
            solve_single_group_reference(
                design.X[:, design.group_slice(j)].T @ design.y / design.n,
                design.cj[j] * 0.2,
                2.7,
                "gmcp",
            )
            for j in range(design.J)
        ])
        np.testing.assert_allclose(fit.coef, expected, atol=1e-12)
        assert fit.iterations <= 2

    @pytest.mark.parametrize("family", ["glasso", "gmcp", "gscad"])
    def test_kkt_small_after_convergence(self, family):
        beta = np.repeat([1.5, 0.0, -1.0, 0.0, 0.5], [3, 3, 3, 3, 3])
        design, _ = gaussian_design(50, [3] * 5, beta=beta, sigma=0.5,
                                    correlation=0.3, seed=5)
        pen = PenaltySpec(family, lam=0.3 * lambda_max(design))
        fit = fit_gcd(design, pen, tol=1e-10)
        assert fit.converged
        assert fit.kkt_max_violation <= 1e-6
        assert kkt_check(design, pen, fit.coef) == fit.kkt_max_violation

    def test_descent_and_residual_integrity(self):
        design, _ = gaussian_design(50, [2, 2, 2, 2], sigma=1.0, seed=6)
        pen = PenaltySpec("gscad", lam=0.2 * lambda_max(design))
        fit = fit_gcd(design, pen, tol=1e-10, check_descent=True)
        assert fit.max_descent_violation <= 1e-12
        assert fit.residual_drift <= 1e-8

    def test_objective_recomputes(self):
        design, _ = gaussian_design(40, [2, 3], sigma=1.0, seed=7)
        pen = PenaltySpec("glasso", lam=0.1)
        fit = fit_gcd(design, pen)
        assert fit.objective == pytest.approx(
            objective(design, fit.coef, pen), rel=1e-10
        )

    def test_convex_fit_unique_across_inits(self, rng):
        design, _ = gaussian_design(80, [2, 2, 3], sigma=1.0, seed=8)
        pen = PenaltySpec("glasso", lam=0.05)
        a = fit_gcd(design, pen, tol=1e-11)
        b = fit_gcd(design, pen, init=rng.standard_normal(7), tol=1e-11)
        assert a.objective == pytest.approx(b.objective, abs=1e-8)

    def test_strictly_convex_mcp_unique_across_inits(self, rng):
        design, _ = gaussian_design(200, [2, 2, 2], sigma=0.8, seed=9)
        sigma_full = design.X.T @ design.X / design.n
        c_min = np.linalg.eigvalsh(sigma_full)[0]
        gamma = 2.0 / c_min  # comfortably above the strict convexity level
        pen = PenaltySpec("gmcp", lam=0.1, gamma=gamma)
        a = fit_gcd(design, pen, tol=1e-11)
        b = fit_gcd(design, pen, init=rng.standard_normal(6), tol=1e-11)
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-5)

    def test_requires_orthonormalized_design(self):
        X, y, labels, _ = gaussian_problem(30, [2, 2], seed=10)
        design = build_design(X, y, labels, orthonormalize=False)
        with pytest.raises(NotOrthonormalized):
            fit_gcd(design, PenaltySpec("glasso", lam=0.1))
        with pytest.raises(UnsupportedFamily):
            fit_gcd(design, PenaltySpec("gbridge", lam=0.1))

    def test_max_iter_returns_unconverged(self):
        design, _ = gaussian_design(50, [2, 2], sigma=1.0, seed=11, correlation=0.6)
        fit = fit_gcd(design, PenaltySpec("glasso", lam=0.01), tol=1e-14, max_iter=1)
        assert not fit.converged
        assert fit.iterations == 1


class TestKktCheck:
    def test_zero_solution_above_lambda_max(self):
        design, _ = gaussian_design(40, [2, 3], sigma=1.0, seed=12)
        pen = PenaltySpec("glasso", lam=1.001 * lambda_max(design))
        assert kkt_check(design, pen, np.zeros(5)) == 0.0

    def test_exact_single_group_solution(self):
        design = cross_orthogonal_design(30, [3, 2], seed=13)
        pen = PenaltySpec("glasso", lam=0.15)
        coef = np.concatenate([
            solve_single_group_reference(
                design.X[:, design.group_slice(j)].T @ design.y / design.n,
                design.cj[j] * pen.lam,
                math.inf,
                "glasso",
            )
            for j in range(design.J)
        ])
        assert kkt_check(design, pen, coef) <= 1e-10


class TestFitPath:
    def test_first_fit_zero_and_descending_grid(self):
        design, _ = gaussian_design(
            60, [2, 3, 3], beta=np.repeat([2.0, -1.0, 0.0], [2, 3, 3]),
            sigma=0.5, seed=14,
        )
        path = fit_path(design, PenaltySpec("glasso", lam=0.0), n_lambda=25)
        assert np.all(path.fits[0].beta == 0.0)
        lams = [lam for lam, _ in path.grid]
        assert lams == sorted(lams, reverse=True)
        assert path.grid[0][0] == pytest.approx(path.lambda_max)
        coefs = path.coef_matrix()
        assert np.all(np.isfinite(coefs))
        norms = np.array([group_norms(design, f.beta) for f in path.fits])
        assert norms.shape == (25, 3)
        assert np.all(norms[0] == 0.0)

    def test_warm_start_descent_from_init(self):
        design, _ = gaussian_design(
            60, [2, 2, 2], beta=np.array([1.0, 1.0, 0.0, 0.0, -1.0, 0.5]),
            sigma=0.5, seed=15,
        )
        pen = PenaltySpec("gmcp", lam=0.0, gamma=3.0)
        path = fit_path(design, pen, n_lambda=20)
        for k in range(1, len(path.fits)):
            pen_k = pen.with_lam(path.grid[k][0])
            at_init = objective(design, path.fits[k - 1].coef, pen_k)
            assert path.fits[k].objective <= at_init + 1e-12

    def test_group_lasso_init_strategy(self):
        design, _ = gaussian_design(
            60, [2, 2, 2], beta=np.array([1.0, 1.0, 0.0, 0.0, -1.0, 0.5]),
            sigma=0.5, seed=15,
        )
        pen = PenaltySpec("gmcp", lam=0.0, gamma=2.0)
        path = fit_path(design, pen, n_lambda=20, warm_start="group_lasso_init")
        assert np.all(path.fits[0].beta == 0.0)
        assert all(f.converged for f in path.fits)
        # both strategies solve the same problems; converged objectives agree
        chained = fit_path(design, pen, n_lambda=20)
        for a, b in zip(path.fits, chained.fits):
            assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_noiseless_orthogonal_path_reaches_least_squares(self):
        design = cross_orthogonal_design(40, [2, 2], seed=16)
        beta = np.array([1.0, -2.0, 0.5, 0.0])
        d2 = design.with_response(design.X @ beta)
        path = fit_path(d2, PenaltySpec("glasso", lam=0.0), n_lambda=40,
                        lambda_min_ratio=1e-6, tol=1e-12)
        np.testing.assert_allclose(path.fits[-1].coef, beta, atol=1e-4)

    def test_infinite_gamma_sentinel_equals_group_lasso_path(self):
        design, _ = gaussian_design(
            50, [2, 3], beta=np.array([1.0, 0.0, 0.5, -0.5, 0.0]),
            sigma=0.3, seed=17,
        )
        mcp_inf = fit_path(design, PenaltySpec("gmcp", lam=0.0, gamma=math.inf),
                           n_lambda=15)
        glasso = fit_path(design, PenaltySpec("glasso", lam=0.0), n_lambda=15)
        for a, b in zip(mcp_inf.fits, glasso.fits):
            np.testing.assert_array_equal(a.beta, b.beta)

    def test_big_gamma_path_close_to_group_lasso(self):
        design, _ = gaussian_design(
            50, [2, 3], beta=np.array([1.0, 0.0, 0.5, -0.5, 0.0]),
            sigma=0.3, seed=17,
        )
        for family in ("gmcp", "gscad"):
            big = fit_path(design, PenaltySpec(family, lam=0.0, gamma=1e8),
                           n_lambda=15, tol=1e-9)
            glasso = fit_path(design, PenaltySpec("glasso", lam=0.0),
                              n_lambda=15, tol=1e-9)
            for a, b in zip(big.fits, glasso.fits):
                np.testing.assert_allclose(a.beta, b.beta, atol=1e-4)

    def test_gamma_grid_orders_points_within_gamma(self):
        design, _ = gaussian_design(40, [2, 2], sigma=1.0, seed=18)
        path = fit_path(design, PenaltySpec("gmcp", lam=0.0, gamma=3.0),
                        n_lambda=5, gamma_grid=[1.5, 3.0])
        gammas = [g for _, g in path.grid]
        assert gammas == [1.5] * 5 + [3.0] * 5


def test_lambda_grid_endpoints_exact():
    grid = lambda_grid(2.0, 7, 0.01)
    assert grid[0] == 2.0
    assert grid[-1] == pytest.approx(0.02, rel=1e-12)
    assert np.all(np.diff(grid) < 0)
    with pytest.raises(ValueError):
        lambda_grid(1.0, 1, 0.1)
    with pytest.raises(ValueError):
        lambda_grid(1.0, 5, 1.5)


# Seeded designs for the comparison against the every-group reference sweep:
# nine nonzero coefficients on correlated columns, with p < n, p > n and
# p = n, and once on columns so correlated that 16 of the 35 fit_gcd fits
# run past the 100-cycle refresh of the running gradient.
_REFERENCE_DESIGNS = {
    "p<n": dict(n=80, sizes=[3] * 12, seed=31, correlation=0.3),
    "p>n": dict(n=40, sizes=[4] * 15, seed=32, correlation=0.3),
    "p=n": dict(n=48, sizes=[4] * 12, seed=33, correlation=0.3),
    "correlated": dict(n=60, sizes=[3] * 10, seed=34, correlation=0.9),
}

_REFERENCE_PENALTIES = [
    ("glasso", math.inf),
    ("gmcp", 1.2), ("gmcp", 2.7), ("gmcp", math.inf),
    # SCAD needs gamma > 2, so 2.2 stands in for 1.2
    ("gscad", 2.2), ("gscad", 2.7), ("gscad", math.inf),
]


def _reference_design(case):
    spec = _REFERENCE_DESIGNS[case]
    p = sum(spec["sizes"])
    beta = np.zeros(p)
    beta[:9] = np.tile([1.0, -0.6, 0.4], 3)
    design, _ = gaussian_design(spec["n"], spec["sizes"], beta=beta, sigma=1.0,
                                correlation=spec["correlation"], seed=spec["seed"])
    return design


def _same_float(got, ref, scale):
    # relative 1e-12 against the larger of the value and the scale of the
    # quantities it is computed from: the KKT residual and the descent
    # violation are differences of numbers of that scale, so their rounding
    # error is set by it, not by their own (tiny) size
    return abs(got - ref) <= 1e-12 * max(abs(ref), scale)


@pytest.mark.parametrize("case", sorted(_REFERENCE_DESIGNS))
@pytest.mark.parametrize("family,gamma", _REFERENCE_PENALTIES)
def test_fit_gcd_matches_every_group_reference(case, family, gamma):
    from oracles import fit_gcd_reference

    design = _reference_design(case)
    lam_max = lambda_max(design)
    previous = None
    for ratio in (0.9, 0.5, 0.2):
        pen = PenaltySpec(family, lam=ratio * lam_max, gamma=gamma)
        starts = [None] if previous is None else [None, previous]
        for init in starts:
            ref = fit_gcd_reference(design, pen, init=init, check_descent=True)
            got = fit_gcd(design, pen, init=init, check_descent=True)
            where = f"{case} {family} gamma={gamma} ratio={ratio} warm={init is not None}"
            assert got.iterations == ref.iterations, where
            assert got.converged == ref.converged, where
            np.testing.assert_allclose(got.coef, ref.coef, rtol=0, atol=1e-10,
                                       err_msg=where)
            assert _same_float(got.objective, ref.objective, 0.0), where
            assert _same_float(got.kkt_max_violation, ref.kkt_max_violation,
                               pen.lam * np.max(design.cj)), where
            assert _same_float(got.max_descent_violation, ref.max_descent_violation,
                               ref.objective), where
        previous = ref.coef


@pytest.mark.parametrize("correlation", [0.0, 0.5])
def test_batched_fits_match_fit_gcd(correlation):
    sizes = [3, 1, 2, 4, 2, 1, 3]
    beta = np.zeros(sum(sizes))
    beta[:6] = [1.0, -0.6, 0.4, 0.8, -1.2, 0.5]
    design, _ = gaussian_design(60, sizes, beta=beta, correlation=correlation, seed=11)
    rng = np.random.default_rng(12)
    # eight signal responses, and four whose fit at these levels is exactly zero
    Y = np.hstack([design.X @ design.transform(beta)[:, None] + rng.standard_normal((60, 8)),
                   1e-3 * rng.standard_normal((60, 4))])
    inits = (None, 0.5 * rng.standard_normal((design.p, 12)))
    lam = 0.3 * lambda_max(design)
    for family, gamma in [("glasso", math.inf), ("gmcp", 1.5), ("gmcp", 3.0),
                          ("gmcp", math.inf), ("gscad", 3.7)]:
        pen = PenaltySpec(family, lam=lam, gamma=gamma)
        for init in inits:
            for max_iter in (10_000, 1):
                B, iterations, converged = fit_gcd_columns(design, pen, Y, init, tol=1e-10,
                                                           max_iter=max_iter)
                for k in range(Y.shape[1]):
                    ref = fit_gcd(design.with_response(Y[:, k]), pen, tol=1e-10,
                                  init=None if init is None else init[:, k],
                                  max_iter=max_iter)
                    where = (f"{family} gamma={gamma} init={init is not None} "
                             f"max_iter={max_iter} column {k}")
                    assert iterations[k] == ref.iterations, where
                    assert converged[k] == ref.converged, where
                    np.testing.assert_allclose(B[:, k], ref.coef, rtol=0, atol=1e-12,
                                               err_msg=where)
                if max_iter == 1:
                    # the zero fits stop after one cycle from a zero start only
                    assert not converged[:8].any()
                    assert converged[8:].all() == (init is None)
    # long fits, past the gradient refresh every 100 cycles
    slow, _ = gaussian_design(60, sizes, beta=beta, correlation=0.9, seed=11)
    pen = PenaltySpec("gmcp", lam=0.05 * lambda_max(slow), gamma=3.0)
    B, iterations, converged = fit_gcd_columns(slow, pen, Y[:, :2], tol=1e-10)
    for k in range(2):
        ref = fit_gcd(slow.with_response(Y[:, k]), pen, tol=1e-10)
        assert (iterations[k], converged[k]) == (ref.iterations, ref.converged)
        assert ref.iterations > 200
        np.testing.assert_allclose(B[:, k], ref.coef, rtol=0, atol=1e-12)
    bad = Y.copy()
    bad[3, 5] = np.nan
    with pytest.raises(NonFiniteInput):
        fit_gcd_columns(design, PenaltySpec("gmcp", lam=lam), bad)
    standardized, _ = gaussian_design(60, sizes, beta=beta, seed=11, orthonormalize=False)
    with pytest.raises(NotOrthonormalized):
        fit_gcd_columns(standardized, PenaltySpec("gmcp", lam=lam), Y)
    for family in ("gbridge", "cmcp"):
        with pytest.raises(UnsupportedFamily):
            fit_gcd_columns(design, PenaltySpec(family, lam=lam), Y)


def test_batched_skip_test_follows_moves_within_a_cycle():
    # group 2 sits under its threshold at the start of the first cycle in
    # every column, but group 0, which it hides behind, moves in five of the
    # columns and pushes c_2 past the threshold in three: each column's skip
    # test must be redone after the moves made earlier in the same cycle
    rng = np.random.default_rng(5)
    n, lam = 50, 0.5
    x0 = rng.standard_normal((n, 2))
    X = np.hstack([x0, rng.standard_normal((n, 2)),
                   0.8 * x0 + 0.6 * rng.standard_normal((n, 2))])
    design = build_design(X, rng.standard_normal(n), np.repeat(np.arange(3), 2))
    X0, X2 = design.X[:, :2], design.X[:, 4:]
    hide = X2.T @ X0 / n
    Y = []
    for k in range(12):  # eight signal columns, four whose group 0 stays zero
        u = 2.0 * rng.standard_normal(2)
        y = (1.0 if k < 8 else 0.05) * (X0 @ u - X2 @ (0.9 * hide @ u))
        y = y + 0.1 * rng.standard_normal(n)
        Y.append(y - y.mean())
    Y = np.column_stack(Y)
    assert all(design.group_l2(design.X.T @ y / n)[2] <= lam * design.cj[2] for y in Y.T)
    for family, gamma in [("glasso", math.inf), ("gmcp", 3.0), ("gscad", 3.7)]:
        pen = PenaltySpec(family, lam=lam, gamma=gamma)
        first = np.column_stack([fit_gcd(design.with_response(y), pen, max_iter=1).coef
                                 for y in Y.T])
        assert np.flatnonzero(first[:2].any(axis=0)).tolist() == [1, 4, 5, 6, 7]
        assert np.flatnonzero(first[4:].any(axis=0)).tolist() == [1, 4, 5]
        for max_iter in (10_000, 1):
            B, iterations, converged = fit_gcd_columns(design, pen, Y, tol=1e-10,
                                                       max_iter=max_iter)
            for k, y in enumerate(Y.T):
                ref = fit_gcd(design.with_response(y), pen, tol=1e-10, max_iter=max_iter)
                where = f"{family} max_iter={max_iter} column {k}"
                assert iterations[k] == ref.iterations, where
                assert converged[k] == ref.converged, where
                np.testing.assert_allclose(B[:, k], ref.coef, rtol=0, atol=1e-12,
                                           err_msg=where)


def _filled(design):
    return {j for j, row in enumerate(design.gram_rows) if row is not None}


def test_gram_rows_are_built_for_the_groups_that_move_only():
    # the running gradient needs X_j'X/n only for a group that moves; rows
    # are built on the first move, shared with with_response designs (same
    # X) and never with a rebuilt fold design (new X)
    design, _ = gaussian_design(50, [2, 3, 2, 4, 1, 3], beta=[1.0, -0.6] + [0.0] * 13,
                                correlation=0.5, seed=7)
    pen = PenaltySpec("gmcp", lam=0.3 * lambda_max(design), gamma=3.0)
    quiet = design.with_response(1e-3 * design.y)  # its fit is zero: nothing moves
    assert not fit_gcd(quiet, pen).coef.any() and not _filled(design)
    assert not fit_gcd_columns(quiet, pen, quiet.y[:, None])[0].any() and not _filled(design)
    coef, moved = np.zeros(design.p), set()
    for _ in range(6):
        # one cycle at a time: a group moved in the cycle iff its coefficients changed
        fit = fit_gcd(design, pen, init=coef, max_iter=1)
        moved |= set(np.flatnonzero(design.group_l2(fit.coef - coef)).tolist())
        coef = fit.coef
        assert _filled(design) == moved
    assert 0 < len(moved) < design.J
    for j in moved:
        exact = design.X[:, design.group_slice(j)].T @ design.X / design.n
        np.testing.assert_allclose(design.gram_rows[j], exact, rtol=0, atol=1e-14)

    other = design.with_response(np.roll(design.y, 1))
    assert other.gram_rows is design.gram_rows
    B, _, _ = fit_gcd_columns(other, pen, np.column_stack([other.y, 3.0 * other.y]))
    assert _filled(design) >= set(np.flatnonzero(design.group_l2(B[:, 0])).tolist())
    assert not _filled(rebuild_design(design, np.arange(40)))


def _rows_design(family):
    # p = 24 < n = 50, correlation 0.3; groups 0 and 3 are active
    beta = [1.0, -0.8, 0.6] + [0.0] * 6 + [0.5, 0.0, -0.5] + [0.0] * 12
    return gaussian_design(50, [3] * 8, beta=beta, sigma=0.5, correlation=0.3, seed=3,
                           orthonormalize=False,
                           weights=("pow", 0.5) if family == "gbridge" else "sqrt")[0]


def _rows_fitter(family, design):
    # the penalty, a fit from init for at most max_iter cycles, and the start
    if family == "sgl":
        lam = 0.4 * sgl_lambda_max(design)
        return (PenaltySpec("sgl", lam=lam, lam2=lam),
                lambda init, **kw: fit_sparse_group_lasso(design, lam, lam, init=init, **kw),
                np.zeros(design.p))
    if family == "cmcp":
        pen, start = PenaltySpec("cmcp", lam=0.5 * cmcp_lambda_max(design)), np.zeros(design.p)
    else:
        # the top comes from a copy, so that its fits build no rows on this design
        top = bridge_lambda_upper(_rows_design(family), PenaltySpec("gbridge", lam=0.0))
        pen, start = PenaltySpec("gbridge", lam=0.05 * top), least_squares_init(design)
    return pen, lambda init, **kw: fit_lcd(design, pen, init=init, **kw), start


@pytest.mark.parametrize("family", ["cmcp", "gbridge", "sgl"])
def test_bilevel_gram_rows_are_built_for_the_groups_that_move_only(family, monkeypatch):
    # the bi-level sweeps keep the same running gradient: a visit that moves
    # its group (a bridge freeze included) builds that group's X_j'X/n, and
    # no other visit does
    design = _rows_design(family)
    pen, fit_from, start = _rows_fitter(family, design)
    coef, moved, zeroed = start, set(), 0
    for _ in range(8):
        # one cycle at a time: a group moved in the cycle iff its coefficients changed
        fit = fit_from(coef, max_iter=1)
        moved |= set(np.flatnonzero(design.group_l2(fit.coef - coef)).tolist())
        if np.any((design.group_l2(coef) > 0) & (design.group_l2(fit.coef) == 0)):
            zeroed += 1  # for gbridge, a group froze in this cycle
            assert fit.residual_drift <= 1e-12
        coef = fit.coef
        assert _filled(design) == moved
    assert 0 < len(moved) and (family == "gbridge" or len(moved) < design.J)
    assert family != "gbridge" or zeroed > 0
    for j in moved:
        exact = design.X[:, design.group_slice(j)].T @ design.X / design.n
        np.testing.assert_allclose(design.gram_rows[j], exact, rtol=0, atol=1e-14)

    # an accepted Anderson point restarts the running gradient from b
    calls = record_extrapolations(monkeypatch)
    fit = fit_from(start)
    assert fit.converged and accepted_extrapolations(design, pen, calls)
    assert fit.residual_drift <= 1e-12


def test_wide_path_builds_fewer_gram_rows_than_groups():
    beta = np.zeros(300)
    beta[:10] = [1.0, -0.8, 0.6, 1.2, -0.5, 0.9, -1.1, 0.7, 0.4, -0.6]
    design, _ = gaussian_design(80, [5] * 60, beta=beta, seed=9)
    path = solution_path(design, PenaltySpec("gmcp", lam=0.0), PathConfig(n_lambda=20))
    filled = _filled(design)
    assert any(np.any(f.coef) for f in path.fits)
    assert 0 < len(filled) < design.J


# Penalty levels for the bi-level comparison, as fractions of the top of each
# family's grid and in warm-start order: the bridge path runs upward from
# least squares, and its top level is a loose upper bound, so its fits are
# nonzero only well below it.  The composite MCP levels avoid 0.2, where the
# p>n fit takes ~600 cycles of slow per-coordinate updates.
_BILEVEL_LEVELS = {
    "gbridge": (0.02, 0.05, 0.1),
    "cmcp": (0.7, 0.4, 0.25),
    "sgl": (0.5, 0.2, 0.1),
}
# The dense end of a cmcp path, where saturated coordinates get tangent weight
# 0; on the p>n and p=n designs this level runs 10,000 cycles unconverged.
_DENSE_LEVELS = {("p<n", "cmcp"): (0.02,)}


def _levels(case, family):
    return _BILEVEL_LEVELS[family] + _DENSE_LEVELS.get((case, family), ())


def _bilevel_design(case, family):
    """A standardized reference design for a bi-level family and the top of its grid."""
    spec = _REFERENCE_DESIGNS[case]
    beta = np.zeros(sum(spec["sizes"]))
    beta[:9] = np.tile([1.0, -0.6, 0.4], 3)
    design, _ = gaussian_design(
        spec["n"], spec["sizes"], beta=beta, sigma=1.0, correlation=spec["correlation"],
        seed=spec["seed"], orthonormalize=False,
        weights=("pow", 0.5) if family == "gbridge" else "sqrt",
    )
    if family == "gbridge":
        top = bridge_lambda_upper(design, PenaltySpec("gbridge", lam=0.0))
    elif family == "cmcp":
        top = cmcp_lambda_max(design)
    else:
        top = sgl_lambda_max(design)
    return design, top


@pytest.mark.parametrize("family", sorted(_BILEVEL_LEVELS))
@pytest.mark.parametrize("case", sorted(_REFERENCE_DESIGNS))
def test_bilevel_fits_match_separate_loop_reference(case, family, monkeypatch):
    from oracles import fit_lcd_reference, fit_sparse_group_lasso_reference

    monkeypatch.setattr(gcd, "ANDERSON_K", 0)  # step for step: no extrapolation
    design, top = _bilevel_design(case, family)
    # the stationarity residual is a difference of gradient entries and
    # weights of about this size
    scale = float(np.max(np.abs(design.X.T @ design.y))) / design.n
    previous = None
    for ratio in _levels(case, family):
        lam = ratio * top
        starts = [None] if previous is None else [None, previous]
        for init in starts:
            if family == "sgl":
                ref = fit_sparse_group_lasso_reference(design, lam, lam, init=init,
                                                       check_descent=True)
                got = fit_sparse_group_lasso(design, lam, lam, init=init,
                                             check_descent=True)
            else:
                pen = PenaltySpec(family, lam=lam)
                ref = fit_lcd_reference(design, pen, init=init, check_descent=True)
                got = fit_lcd(design, pen, init=init, check_descent=True)
            where = f"{case} {family} ratio={ratio} warm={init is not None}"
            assert got.iterations == ref.iterations, where
            assert got.converged == ref.converged, where
            np.testing.assert_allclose(got.coef, ref.coef, rtol=0, atol=1e-10,
                                       err_msg=where)
            assert _same_float(got.objective, ref.objective, 0.0), where
            assert _same_float(got.kkt_max_violation, ref.kkt_max_violation, scale), where
            assert _same_float(got.max_descent_violation, ref.max_descent_violation,
                               ref.objective), where
        previous = ref.coef
    assert np.any(previous), "the smallest level should give a nonzero fit"
    if (case, family) in _DENSE_LEVELS:
        from oracles import _lcd_weight_reference

        # at the dense level most coordinates are saturated: tangent weight exactly 0
        weights = [_lcd_weight_reference(pen, design.cj[j], previous[design.group_slice(j)], k)
                   for j in range(design.J) for k in range(design.dims[j])]
        assert weights.count(0.0) > len(weights) // 2


def test_extrapolation_solves_linear_iterations_and_skips_failed_systems():
    # on a linear contraction the Anderson point of six iterates lands much
    # closer to the fixed point than the last iterate; a window that does not
    # move (a singular system) or holds a non-finite iterate gives no point
    rng = np.random.default_rng(0)
    A, c = 0.1 * rng.standard_normal((8, 8)), rng.standard_normal(8)
    fixed = np.linalg.solve(np.eye(8) - A, c)
    x, window = np.zeros(8), []
    for _ in range(10):
        x = A @ x + c
        window = [*window, x][-(gcd.ANDERSON_K + 1):]
    point = gcd._extrapolate(window)
    assert np.max(np.abs(point - fixed)) < 1e-2 * np.max(np.abs(x - fixed))
    assert gcd._extrapolate([x] * len(window)) is None
    assert gcd._extrapolate([x + np.nan, *window[1:]]) is None


TWIN_TOL = 1e-9


@pytest.mark.parametrize("family", sorted(_BILEVEL_LEVELS))
@pytest.mark.parametrize("case", sorted(_REFERENCE_DESIGNS))
def test_accelerated_bilevel_fits_match_separate_loop_reference(case, family, monkeypatch):
    # the twin of the two step-for-step tests (this one and the LCD test
    # without check_descent) with Anderson extrapolation on: the same
    # designs, levels and starts reach the reference loop's minimum, and
    # with check_descent neither an update nor an accepted extrapolation
    # raises the objective beyond roundoff.  Both sides stop at TWIN_TOL: at
    # the default 1e-7 the reference's slow p>n cmcp fits stop up to 1.9e-6
    # away from the minimum, farther than the coefficient tolerance
    from oracles import fit_lcd_reference, fit_sparse_group_lasso_reference

    design, top = _bilevel_design(case, family)
    calls = record_extrapolations(monkeypatch)
    accepted = 0
    previous = None
    for ratio in _levels(case, family):
        lam = ratio * top
        pen = PenaltySpec(family, lam=lam, lam2=lam if family == "sgl" else 0.0)
        for init in [None] if previous is None else [None, previous]:
            if family == "sgl":
                ref = fit_sparse_group_lasso_reference(design, lam, lam, init=init, tol=TWIN_TOL)
            else:
                ref = fit_lcd_reference(design, pen, init=init, tol=TWIN_TOL)
            for check in (False, True):
                calls.clear()
                if family == "sgl":
                    got = fit_sparse_group_lasso(design, lam, lam, init=init, tol=TWIN_TOL,
                                                 check_descent=check)
                else:
                    got = fit_lcd(design, pen, init=init, tol=TWIN_TOL, check_descent=check)
                where = (f"{case} {family} ratio={ratio} warm={init is not None} "
                         f"check_descent={check}")
                assert_close_to_reference(got, ref, where)
                assert got.residual_drift <= 1e-12, where
                if check:
                    assert got.max_descent_violation <= 1e-12 * ref.objective, where
                    accepted += len(accepted_extrapolations(design, pen, calls))
        previous = ref.coef
    assert accepted > 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=6),
    extra_rows=st.integers(2, 20),
    correlation=st.floats(0.0, 0.95),
)
def test_group_update_moves_other_groups_by_at_most_its_length(
    seed, sizes, extra_rows, correlation
):
    # the premise of skipping zero groups: on an orthonormalized design,
    # changing group k by diff changes z_m = X_m'r/n + b_m of every other
    # group m by at most ||diff||
    n = 2 * max(sizes) + extra_rows
    rng = np.random.default_rng(seed)
    X = (math.sqrt(1 - correlation) * rng.standard_normal((n, sum(sizes)))
         + math.sqrt(correlation) * rng.standard_normal((n, 1)))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    design = build_design(X, rng.standard_normal(n), labels)
    k = int(rng.integers(design.J))
    diff = rng.standard_normal(sizes[k]) * 10.0 ** rng.uniform(-6, 3)
    shift = design.X.T @ (design.X[:, design.group_slice(k)] @ diff) / n
    moved = design.group_l2(shift)
    others = np.arange(design.J) != k
    assert np.all(moved[others] <= np.linalg.norm(diff) * (1 + 1e-12))


def _reports_converged(fit):
    try:
        return fit().converged
    except NonFiniteInput:
        return False  # back_transform refuses non-finite coefficients


_SOLVERS = {
    "gcd": (True, lambda d, init: fit_gcd(d, PenaltySpec("gmcp", lam=0.1), init=init)),
    "lcd": (False, lambda d, init: fit_lcd(d, PenaltySpec("cmcp", lam=0.1), init=init)),
    "sgl": (False, lambda d, init: fit_sparse_group_lasso(d, 0.05, 0.05, init=init)),
}


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_non_finite_step_never_reports_converged(solver):
    orthonormalize, fit = _SOLVERS[solver]
    design, _ = gaussian_design(50, [2, 3, 2], beta=[1.0, 1.0, 0, 0, 0, 0, 0],
                                seed=1, orthonormalize=orthonormalize)
    nan_start = np.full(design.p, np.nan)
    assert not _reports_converged(lambda: fit(design, nan_start))
    # a response that skipped validation: gcd and sgl never apply a NaN step,
    # so b stays finite and only the loop guard keeps them from converging
    y = design.y.copy()
    y[3] = np.nan
    nan_response = replace(design, y=y)
    assert not _reports_converged(lambda: fit(nan_response, np.zeros(design.p)))


_NON_FINITE_STARTS = {
    **_SOLVERS,
    "columns": (True, lambda d, init: fit_gcd_columns(
        d, PenaltySpec("gmcp", lam=0.1), np.column_stack([d.y, -d.y]),
        np.column_stack([np.zeros(d.p), init]))),
}


@pytest.mark.filterwarnings("error")  # no cycle runs on the bad start
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", sorted(_NON_FINITE_STARTS))
def test_non_finite_start_fails_before_any_work(solver, bad, monkeypatch):
    orthonormalize, fit = _NON_FINITE_STARTS[solver]
    design, _ = gaussian_design(50, [2, 3, 2], beta=[1.0, 1.0, 0, 0, 0, 0, 0],
                                seed=1, orthonormalize=orthonormalize)
    init = np.zeros(design.p)
    init[3] = bad
    # no sweep runs: a group move would build a Gram row first
    monkeypatch.setattr(GroupedDesign, "gram_row", lambda *a: pytest.fail("a sweep ran"))
    with pytest.raises(NonFiniteInput, match="init contains NaN or infinite entries"):
        fit(design, init)


def test_gcd_nan_move_is_not_applied_and_never_converges(monkeypatch):
    # a threshold value with a NaN entry (what a z_j overflowed to inf - inf
    # gives) must leave b and r as they are, and the fit must not count as
    # converged although r stays finite
    from grpsel import gcd

    design, _ = gaussian_design(50, [2, 3, 2], beta=[1.0, 1.0, 0, 0, 0, 0, 0], seed=1)
    monkeypatch.setattr(gcd, "solve_single_group", lambda z, *args: z[:-1] + [math.nan])
    fit = gcd.fit_gcd(design, PenaltySpec("gmcp", lam=0.1), max_iter=3)
    assert not fit.converged and fit.iterations == 3
    assert np.all(fit.coef == 0.0) and fit.residual_drift == 0.0


def test_gcd_columns_nan_move_is_not_applied_and_never_converges(monkeypatch):
    # the same rule for the batched twin: a NaN step must not be folded
    # away into a zero largest move, so no column counts as converged
    from grpsel import gcd

    def nan_row(Z, *args):
        out = Z.copy()
        out[-1] = math.nan
        return out

    design, _ = gaussian_design(50, [2, 3, 2], beta=[1.0, 1.0, 0, 0, 0, 0, 0], seed=1)
    monkeypatch.setattr(gcd, "solve_single_group_columns", nan_row)
    Y = np.column_stack([design.y, 2.0 * design.y])
    B, iterations, converged = gcd.fit_gcd_columns(design, PenaltySpec("gmcp", lam=0.1), Y,
                                                   max_iter=3)
    assert not converged.any() and iterations.tolist() == [3, 3]
    assert np.all(B == 0.0)


def test_sgl_nan_move_is_not_applied_and_never_converges(monkeypatch):
    # the same rule for the sparse group LASSO sweep: a NaN from the
    # coordinate threshold must leave b and r as they are, and the fit must
    # not count as converged
    from grpsel import bilevel

    design, _ = gaussian_design(50, [2, 3, 2], beta=[1.0, 1.0, 0, 0, 0, 0, 0], seed=1,
                                orthonormalize=False)
    monkeypatch.setattr(bilevel, "soft_threshold", lambda z, t: z * math.nan)
    fit = bilevel.fit_sparse_group_lasso(design, 0.05, 0.05, max_iter=3)
    assert not fit.converged and fit.iterations == 3
    assert np.all(fit.coef == 0.0) and fit.residual_drift == 0.0


@pytest.mark.parametrize("family", ["cmcp", "gbridge"])
@pytest.mark.parametrize("case", sorted(_REFERENCE_DESIGNS))
def test_lcd_without_descent_check_matches_separate_loop_reference(case, family, monkeypatch):
    # without check_descent the LCD sweep applies each group's moves to the
    # running gradient at once; the iterates must still be those of the
    # per-coordinate reference loop
    from oracles import fit_lcd_reference

    monkeypatch.setattr(gcd, "ANDERSON_K", 0)  # step for step: no extrapolation
    design, top = _bilevel_design(case, family)
    previous = None
    for ratio in _levels(case, family):
        pen = PenaltySpec(family, lam=ratio * top)
        for init in [None] if previous is None else [None, previous]:
            ref = fit_lcd_reference(design, pen, init=init)
            got = fit_lcd(design, pen, init=init)
            where = f"{case} {family} ratio={ratio} warm={init is not None}"
            assert got.iterations == ref.iterations, where
            assert got.converged == ref.converged, where
            np.testing.assert_allclose(got.coef, ref.coef, rtol=0, atol=1e-10,
                                       err_msg=where)
            assert got.residual_drift <= 1e-12, where
        previous = ref.coef
