import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grpsel.bilevel import lcd_stationarity, sgl_kkt
from grpsel.errors import DomainError, GammaOutOfRange, UnsupportedFamily
from grpsel.gcd import kkt_check
from grpsel.paths import PathConfig, solution_path
from grpsel.penalties import (
    _TIE_EPS,
    FAMILIES,
    TWO_NORM_FAMILIES,
    PenaltySpec,
    rho,
    rho_prime,
    soft_threshold,
    soft_threshold_vec,
    solve_single_group,
    stationarity,
)

from conftest import gaussian_design
from oracles import (
    hard_threshold,
    hard_threshold_star,
    kkt_reference,
    lcd_stationarity_reference,
    rho_quadrature,
    sgl_kkt_reference,
    single_group_oracle,
    solve_single_group_reference,
)

GROUP_FAMILIES = [("glasso", math.inf), ("gmcp", 2.7), ("gscad", 3.7)]


class TestPenaltySpec:
    def test_defaults(self):
        assert PenaltySpec("glasso", 0.1).gamma == math.inf
        assert PenaltySpec("gmcp", 0.1).gamma == 2.7
        assert PenaltySpec("gscad", 0.1).gamma == 3.7
        assert PenaltySpec("gbridge", 0.1).gamma == 0.5
        assert PenaltySpec("cmcp", 0.1).gamma_inner == 2.7

    @pytest.mark.parametrize(
        "family,gamma",
        [("gmcp", 1.0), ("gmcp", 0.5), ("gscad", 2.0), ("gbridge", 1.0), ("gbridge", 0.0)],
    )
    def test_gamma_ranges_enforced(self, family, gamma):
        with pytest.raises(GammaOutOfRange):
            PenaltySpec(family, 0.1, gamma=gamma)

    def test_lam2_only_for_sgl(self):
        PenaltySpec("sgl", 0.1, lam2=0.2)
        with pytest.raises(ValueError):
            PenaltySpec("glasso", 0.1, lam2=0.2)
        with pytest.raises(ValueError):
            PenaltySpec("glasso", -0.1)

    @pytest.mark.parametrize("lam", [1e-170, 5e-324])
    def test_cmcp_level_whose_square_underflows_rejected(self, lam):
        # the outer MCP's gamma*lam = gamma_inner*lam**2/2 would be 0.0
        with pytest.raises(ValueError, match="underflows"):
            PenaltySpec("cmcp", lam)
        with pytest.raises(ValueError, match="underflows"):
            PenaltySpec("cmcp", 0.0).with_lam(lam)
        assert PenaltySpec("gmcp", lam).lam == lam

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_nonfinite_levels_rejected(self, level):
        with pytest.raises(ValueError):
            PenaltySpec("gmcp", level)
        with pytest.raises(ValueError):
            PenaltySpec("sgl", 0.1, lam2=level)
        with pytest.raises(ValueError):
            PenaltySpec("sgl", 0.1).with_lam(level)

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamily):
            PenaltySpec("elastic", 0.1)

    def test_inf_gamma_sentinel_accepted(self):
        PenaltySpec("gmcp", 0.1, gamma=math.inf)
        PenaltySpec("gscad", 0.1, gamma=math.inf)


class TestSoftThresholdVec:
    def test_zero_vector(self):
        assert np.all(soft_threshold_vec(np.zeros(3), 2.0) == 0.0)

    def test_no_shrinkage(self):
        z = np.array([1.0, -2.0])
        np.testing.assert_array_equal(soft_threshold_vec(z, 0.0), z)

    def test_hand_case_and_brute_force(self):
        z = np.array([3.0, 4.0])
        out = soft_threshold_vec(z, 1.0)
        np.testing.assert_allclose(out, [2.4, 3.2], atol=1e-12)
        oracle = single_group_oracle(z, 1.0, math.inf, "glasso")
        np.testing.assert_allclose(out, oracle, atol=1e-8)

    def test_norm_at_threshold_goes_to_zero(self):
        z = np.array([0.6, 0.8])
        assert np.all(soft_threshold_vec(z, 1.0) == 0.0)

    def test_direction_preserved(self, rng):
        z = rng.standard_normal(5)
        out = soft_threshold_vec(z, 0.3)
        cos = out @ z / (np.linalg.norm(out) * np.linalg.norm(z))
        assert cos == pytest.approx(1.0, abs=1e-12)


class TestRho:
    @pytest.mark.parametrize("family,gamma", [("l1", None), ("mcp", 2.0),
                                              ("scad", 3.7), ("bridge", 0.5)])
    def test_zero_at_origin(self, family, gamma):
        assert rho(0.0, 1.3, gamma, family) == 0.0

    def test_mcp_saturation(self):
        # the integrand vanishes beyond gamma*lam, so the value is constant
        lam, gamma = 0.7, 2.5
        sat = gamma * lam**2 / 2
        assert rho(gamma * lam, lam, gamma, "mcp") == pytest.approx(sat, abs=1e-14)
        assert rho(10 * gamma * lam, lam, gamma, "mcp") == sat

    def test_mcp_hand_value(self):
        assert rho(1.0, 1.0, 2.0, "mcp") == pytest.approx(0.75, abs=1e-12)
        assert rho(1.0, 1.0, 2.0, "mcp") == pytest.approx(
            rho_quadrature(1.0, 1.0, 2.0, "mcp"), abs=1e-10
        )

    @pytest.mark.parametrize("family,gamma", [("mcp", 2.2), ("scad", 3.1)])
    def test_matches_quadrature_of_integrand(self, family, gamma):
        lam = 0.9
        for t in np.linspace(0.01, 2 * gamma * lam, 23):
            assert rho(t, lam, gamma, family) == pytest.approx(
                rho_quadrature(t, lam, gamma, family), abs=1e-9
            )

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            rho(-0.1, 1.0, 2.0, "mcp")

    @pytest.mark.parametrize("family,gamma", [("l1", None), ("mcp", 2.0),
                                              ("scad", 3.7), ("bridge", 0.5)])
    def test_nondecreasing_and_concave(self, family, gamma):
        grid = np.linspace(0.0, 5.0, 200)
        vals = rho(grid, 0.8, gamma, family)
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) <= 1e-10)


class TestRhoPrime:
    def test_mcp_vanishes_beyond_saturation(self):
        assert rho_prime(2.0, 1.0, 2.0, "mcp") == 0.0
        assert rho_prime(5.0, 1.0, 2.0, "mcp") == 0.0

    def test_scad_flat_near_origin(self):
        lam = 0.8
        assert rho_prime(0.5 * lam, lam, 3.7, "scad") == lam
        assert rho_prime(lam, lam, 3.7, "scad") == lam

    def test_mcp_hand_value(self):
        assert rho_prime(1.0, 1.0, 2.0, "mcp") == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("family,gamma", [("l1", None), ("mcp", 2.3),
                                              ("scad", 3.7), ("bridge", 0.6)])
    def test_matches_finite_differences(self, family, gamma):
        lam, h = 0.9, 1e-6
        pts = [0.2, 0.5, 1.3, 1.9, 2.5, 4.0]
        for t in pts:
            num = (rho(t + h, lam, gamma, family) - rho(t - h, lam, gamma, family)) / (2 * h)
            assert rho_prime(t, lam, gamma, family) == pytest.approx(num, abs=1e-4)

    def test_bridge_undefined_at_zero(self):
        with pytest.raises(DomainError):
            rho_prime(0.0, 1.0, 0.5, "bridge")


class TestInvariance:
    """Rescaling lam by sqrt(d) must equal rescaling the norm by sqrt(d)
    and the concavity by d, for the families where that identity holds."""

    @pytest.mark.parametrize("family", ["mcp", "l1"])
    def test_holds_exactly_for_mcp_l1_capped(self, family):
        count = 0
        for t in np.linspace(0.05, 3.0, 28):
            for lam in (0.2, 0.7, 1.5):
                for gamma in (1.5, 2.7, 4.0):
                    for d in (1, 2, 3, 5):
                        g = None if family == "l1" else gamma
                        left = rho(t, math.sqrt(d) * lam, g, family)
                        right = rho(
                            math.sqrt(d) * t, lam,
                            None if family == "l1" else d * gamma, family,
                        )
                        assert abs(left - right) <= 1e-12
                        count += 1
        assert count >= 1000

    def test_scad_counterexample(self):
        t, lam, gamma, d = 1.0, 0.8, 3.7, 4
        left = rho(t, math.sqrt(d) * lam, gamma, "scad")
        right = rho(math.sqrt(d) * t, lam, d * gamma, "scad")
        assert abs(left - right) > 1e-3


class TestSolveSingleGroup:
    def test_zero_input(self):
        for family, gamma in GROUP_FAMILIES:
            assert np.all(solve_single_group(np.zeros(3), 1.0, gamma, family) == 0.0)

    def test_gmcp_identity_beyond_saturation(self):
        z = np.array([3.0, 4.0])  # norm 5 > gamma*lam = 2
        np.testing.assert_array_equal(solve_single_group(z, 1.0, 2.0, "gmcp"), z)

    def test_gmcp_hand_case(self):
        out = solve_single_group(np.array([0.9, 1.2]), 1.0, 2.0, "gmcp")
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-12)
        oracle = single_group_oracle(np.array([0.9, 1.2]), 1.0, 2.0, "gmcp")
        np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_gscad_hand_case(self):
        out = solve_single_group(np.array([0.9, 1.2]), 1.0, 3.7, "gscad")
        np.testing.assert_allclose(out, [0.3, 0.4], atol=1e-12)
        oracle = single_group_oracle(np.array([0.9, 1.2]), 1.0, 3.7, "gscad")
        np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_gamma_range_errors(self):
        z = np.ones(2)
        with pytest.raises(GammaOutOfRange):
            solve_single_group(z, 1.0, 1.0, "gmcp")
        with pytest.raises(GammaOutOfRange):
            solve_single_group(z, 1.0, 2.0, "gscad")
        with pytest.raises(UnsupportedFamily):
            solve_single_group(z, 1.0, 2.0, "gbridge")

    @pytest.mark.parametrize("family,gamma", GROUP_FAMILIES)
    def test_objective_never_above_oracle(self, family, gamma, rng):
        def crit(theta, z, lam):
            fam = {"glasso": "l1", "gmcp": "mcp", "gscad": "scad"}[family]
            return 0.5 * np.sum((z - theta) ** 2) + rho(
                np.linalg.norm(theta), lam, gamma, fam
            )

        for _ in range(500):
            d = rng.integers(1, 6)
            z = rng.standard_normal(d) * rng.uniform(0.3, 3.0)
            lam = rng.uniform(0.05, 2.0)
            ours = solve_single_group(z, lam, gamma, family)
            oracle = single_group_oracle(z, lam, gamma, family)
            assert crit(ours, z, lam) <= crit(oracle, z, lam) + 1e-8

    def test_large_gamma_collapses_to_group_lasso(self, rng):
        z = rng.standard_normal(4)
        soft = soft_threshold_vec(z, 0.4)
        for family in ("gmcp", "gscad"):
            approx = solve_single_group(z, 0.4, 1e8, family)
            np.testing.assert_allclose(approx, soft, atol=1e-6)
            exact = solve_single_group(z, 0.4, math.inf, family)
            np.testing.assert_array_equal(exact, soft)

    def test_gamma_to_one_limit_is_hard_threshold(self, rng):
        lam = 0.8
        for _ in range(50):
            z = rng.standard_normal(3)
            nz = np.linalg.norm(z)
            if abs(nz - lam) < 0.01:
                continue
            mcp = solve_single_group(z, lam, 1 + 1e-6, "gmcp")
            np.testing.assert_allclose(mcp, hard_threshold(z, lam), atol=1e-4)

    def test_gamma_to_two_limit_of_scad(self, rng):
        lam = 0.6
        for _ in range(50):
            z = rng.standard_normal(3)
            if abs(np.linalg.norm(z) - 2 * lam) < 0.01:
                continue
            scad = solve_single_group(z, lam, 2 + 1e-7, "gscad")
            np.testing.assert_allclose(scad, hard_threshold_star(z, lam), atol=1e-4)

    @pytest.mark.parametrize("family,gamma", GROUP_FAMILIES + [("gmcp", 1.5), ("gscad", 2.5)])
    def test_list_in_list_out_array_in_array_out(self, family, gamma, rng):
        for d in range(1, 7):
            for scale in (0.1, 1.0, 3.0, 30.0):  # every branch of every family
                z = rng.standard_normal(d) * scale
                got_array = solve_single_group(z, 0.8, gamma, family)
                got_list = solve_single_group(z.tolist(), 0.8, gamma, family)
                assert type(got_array) is np.ndarray and got_array.shape == (d,)
                assert type(got_list) is list and all(type(v) is float for v in got_list)
                assert got_list == got_array.tolist()

    @pytest.mark.parametrize("family", ["gmcp", "gscad"])
    def test_infinite_gamma_is_group_lasso_bit_for_bit(self, family, rng):
        for _ in range(200):
            z = rng.standard_normal(int(rng.integers(1, 7))) * rng.uniform(0.1, 3.0)
            lam = rng.uniform(0.05, 2.0)
            for arg in (z, z.tolist()):
                exact = solve_single_group(arg, lam, math.inf, family)
                glasso = solve_single_group(arg, lam, math.inf, "glasso")
                assert np.array_equal(exact, glasso)

    @pytest.mark.parametrize("family,gamma", GROUP_FAMILIES + [("gmcp", 1.5), ("gscad", 2.5)])
    def test_nan_input_gives_nan(self, family, gamma):
        # a NaN norm fails every branch test: shrunk to all NaN, or z kept as is
        for z in ([math.nan], [1.0, math.nan, 0.5]):
            ref = solve_single_group_reference(np.array(z), 0.8, gamma, family)
            for arg in (z, np.array(z)):
                got = np.array(solve_single_group(arg, 0.8, gamma, family))
                assert np.isnan(got).any()
                np.testing.assert_array_equal(got, ref)


def _branch_factor(family, gamma):
    # the largest factor multiplying a shrink 1 - t/||z|| in the family's branches
    if family == "glasso" or math.isinf(gamma):
        return 1.0
    if family == "gmcp":
        return gamma / (gamma - 1)
    return max(1.0, (gamma - 1) / (gamma - 2))


def _family_gamma(family, *ranges):
    return st.tuples(st.just(family), st.one_of(
        st.just(math.inf), *(st.floats(lo, hi) for lo, hi in ranges)))


@settings(max_examples=400, deadline=None)
@given(
    z=st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    lam=st.floats(1e-3, 5.0),
    case=st.one_of(
        st.just(("glasso", math.inf)),
        _family_gamma("gmcp", (1 + 1e-9, 1 + 1e-3), (1.01, 10.0)),
        _family_gamma("gscad", (2 + 1e-9, 2 + 1e-3), (2.01, 10.0)),
    ),
    norm=st.sampled_from(["free", "zero", "lam", "two_lam", "gamma_lam"]),
)
@example(z=[0.6, 0.8], lam=1.0, case=("glasso", math.inf), norm="free")
@example(z=[3.0], lam=1.5, case=("gmcp", 2.0), norm="free")
@example(z=[1.0, -2.0], lam=0.5, case=("gmcp", 1 + 1e-9), norm="gamma_lam")
@example(z=[1.0, -2.0, 0.5], lam=0.5, case=("gscad", 2 + 1e-9), norm="two_lam")
def test_kernel_matches_numpy_reference_within_ulps(z, lam, case, norm):
    # the float kernel and the numpy formulas differ only in how ||z||**2 is
    # summed, so they agree to a few ulps of ||z||, times the branch's factor
    family, gamma = case
    z = np.array(z)
    nz = np.linalg.norm(z)
    targets = {"zero": 0.0, "lam": lam, "two_lam": 2 * lam,
               "gamma_lam": gamma * lam if math.isfinite(gamma) else lam}
    if norm in targets:
        z = z * (targets[norm] / nz) if nz > 0 else np.zeros_like(z)
        nz = np.linalg.norm(z)
    got = solve_single_group(z.tolist(), lam, gamma, family)
    ref = solve_single_group_reference(z, lam, gamma, family)
    tol = 16 * np.finfo(float).eps * _branch_factor(family, gamma) * nz
    assert np.max(np.abs(np.array(got) - ref)) <= tol


class TestHardThresholds:
    def test_boundary_goes_to_zero_branch(self):
        z = np.array([0.6, 0.8])  # norm exactly 1
        assert np.all(hard_threshold(z, 1.0) == 0.0)

    def test_star_identity_beyond_double(self):
        z = np.array([3.0, 4.0])
        np.testing.assert_array_equal(hard_threshold_star(z, 1.0), z)

    def test_star_soft_inside(self):
        z = np.array([0.9, 1.2])
        np.testing.assert_allclose(
            hard_threshold_star(z, 1.0), soft_threshold_vec(z, 1.0), atol=1e-14
        )


def test_soft_threshold_elementwise():
    z = np.array([2.0, -0.5, 0.1])
    np.testing.assert_allclose(soft_threshold(z, 0.5), [1.5, 0.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(z=st.floats(allow_nan=False),
       t=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300)),
       tie=st.sampled_from([None, -1, 0, 1]))
@example(z=0.0, t=0.0, tie=None)
@example(z=-0.0, t=0.0, tie=None)
@example(z=0.0, t=1.5, tie=None)
@example(z=-0.0, t=1.5, tie=None)
@example(z=-2.0, t=0.0, tie=None)
@example(z=-1.0, t=1.5, tie=-1)
@example(z=1.0, t=1.5, tie=1)
def test_scalar_soft_threshold_matches_array_path(z, t, tie):
    if tie is not None:
        # |z| at the tie boundary t*(1 + tie*_TIE_EPS)
        z = math.copysign(t * (1 + tie * _TIE_EPS), z)
    got = soft_threshold(z, t)
    ref = float(soft_threshold(np.array(z), t))
    assert type(got) is float
    # bit for bit: equal, and zeros of the same sign
    assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref)


def test_objective_rejects_unknown_family():
    from types import SimpleNamespace

    from grpsel.penalties import objective

    design, _ = gaussian_design(20, [2], sigma=1.0, seed=0)
    fake = SimpleNamespace(family="mystery", lam=0.1, gamma=2.0, lam2=0.0,
                           gamma_inner=None)
    with pytest.raises(UnsupportedFamily):
        objective(design, np.zeros(2), fake)


def test_stationarity_rejects_unknown_family():
    from types import SimpleNamespace

    design, _ = gaussian_design(20, [2], sigma=1.0, seed=0)
    fake = SimpleNamespace(family="mystery", lam=0.1, gamma=2.0, lam2=0.0,
                           gamma_inner=None)
    with pytest.raises(UnsupportedFamily):
        stationarity(design, fake, np.zeros(2))


def _stationarity_oracle(design, pen, coef, frozen):
    if pen.family in TWO_NORM_FAMILIES:
        return kkt_reference(design, pen, coef)
    if pen.family == "sgl":
        return sgl_kkt_reference(design, coef, pen.lam, pen.lam2)
    return lcd_stationarity_reference(design, pen, coef, frozen)


def _older_name(design, pen, coef, frozen):
    # the per-family names that the traced benchmark and its checker call
    if pen.family in TWO_NORM_FAMILIES:
        return kkt_check(design, pen, coef)
    if pen.family == "sgl":
        return sgl_kkt(design, coef, pen.lam, pen.lam2)
    return lcd_stationarity(design, pen, coef, frozen)


@pytest.mark.parametrize("family", FAMILIES)
def test_stationarity_is_the_fit_residual_and_matches_the_oracles(family):
    sizes = [2, 3, 1, 4, 2]
    beta = np.array([1.5, -1.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0])
    design, _ = gaussian_design(50, sizes, beta=beta, sigma=0.5, correlation=0.3, seed=7,
                                orthonormalize=family in TWO_NORM_FAMILIES)
    template = PenaltySpec(family, lam=0.0)
    path = solution_path(design, template, PathConfig(n_lambda=6, lambda_min_ratio=0.05))
    rng = np.random.default_rng(11)
    some_frozen = False
    for (lam, second), fit in zip(path.grid, path.fits):
        pen = template.with_lam(lam, second if family == "sgl" else None)
        # a frozen bridge group is pinned at exactly zero; the fit does not
        # pass the list, and stationarity skips a bridge group that small anyway
        zero = design.group_l2(fit.coef) == 0.0
        frozen = zero.tolist() if family == "gbridge" and lam > 0 else None
        some_frozen |= frozen is not None and any(frozen) and not all(frozen)
        assert stationarity(design, pen, fit.coef, frozen) == fit.kkt_max_violation
        assert stationarity(design, pen, fit.coef) == fit.kkt_max_violation
        for _ in range(4):
            # random coefficients with zero entries, zero groups and frozen
            # groups at nonzero values (which the LCD check must skip)
            coef = rng.normal(size=design.p) * (rng.random(design.p) < 0.6)
            coef[design.group_slice(int(rng.integers(design.J)))] = 0.0
            frozen = (rng.random(design.J) < 0.3).tolist()
            got = stationarity(design, pen, coef, frozen)
            ref = _stationarity_oracle(design, pen, coef, frozen)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)
            assert _older_name(design, pen, coef, frozen) == got
    assert some_frozen or family != "gbridge"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stationarity_of_non_finite_coefficients_is_nan(family, bad):
    # a NaN residual must not read as stationary: a Python max(0.0, nan)
    # over the group and coordinate parts once returned 0.0 for sgl
    design, _ = gaussian_design(30, [2, 2], sigma=1.0, seed=0,
                                orthonormalize=family in TWO_NORM_FAMILIES)
    pen = PenaltySpec(family, lam=0.1, lam2=0.1 if family == "sgl" else 0.0)
    for k in (0, 3):
        coef = np.ones(4)
        coef[k] = bad
        with np.errstate(invalid="ignore"):  # inf - inf in X @ coef
            assert math.isnan(stationarity(design, pen, coef))


@settings(max_examples=60, deadline=None)
@given(
    z=st.lists(st.floats(-5, 5), min_size=1, max_size=5),
    lam=st.floats(0.01, 2.0),
    gamma=st.floats(1.1, 10.0),
)
def test_minimizer_property_gmcp(z, lam, gamma):
    z = np.array(z)
    ours = solve_single_group(z, lam, gamma, "gmcp")
    oracle = single_group_oracle(z, lam, gamma, "gmcp")

    def crit(theta):
        return 0.5 * np.sum((z - theta) ** 2) + rho(
            np.linalg.norm(theta), lam, gamma, "mcp"
        )

    assert crit(ours) <= crit(oracle) + 1e-8


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(0.0, 6.0),
    lam=st.floats(0.01, 2.0),
    gamma=st.floats(1.05, 8.0),
    d=st.integers(1, 6),
)
def test_invariance_property_mcp(t, lam, gamma, d):
    left = rho(t, math.sqrt(d) * lam, gamma, "mcp")
    right = rho(math.sqrt(d) * t, lam, d * gamma, "mcp")
    assert abs(left - right) <= 1e-12 * max(1.0, left)
