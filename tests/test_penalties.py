import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpsel.errors import DomainError, GammaOutOfRange, UnsupportedFamily
from grpsel.penalties import (
    PenaltySpec,
    rho,
    rho_prime,
    soft_threshold,
    soft_threshold_vec,
    solve_single_group,
)

from oracles import hard_threshold, hard_threshold_star, rho_quadrature, single_group_oracle

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


def test_objective_rejects_unknown_family():
    from types import SimpleNamespace

    from grpsel.penalties import objective
    from conftest import gaussian_design

    design, _ = gaussian_design(20, [2], sigma=1.0, seed=0)
    fake = SimpleNamespace(family="mystery", lam=0.1, gamma=2.0, lam2=0.0,
                           gamma_inner=None)
    with pytest.raises(UnsupportedFamily):
        objective(design, np.zeros(2), fake)


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
