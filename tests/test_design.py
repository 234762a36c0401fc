import numpy as np
import pytest

from grpsel.design import build_design, group_norms, predict, rebuild_design
from grpsel.errors import (
    DimensionMismatch,
    DomainError,
    EmptyGroup,
    NonFiniteInput,
    SingularGroup,
)
from grpsel.penalties import PenaltySpec, objective, rho

from conftest import gaussian_problem


def test_columns_centered_and_blocks_orthonormal():
    # random 20x6 with groups (3, 3): the transformed Gram must be the
    # identity, checked against an independent Gram computation
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 6)) * np.array([1.0, 5.0, 0.2, 3.0, 1.0, 2.0])
    y = rng.standard_normal(20)
    design = build_design(X, y, [0, 0, 0, 1, 1, 1])
    assert np.all(np.abs(design.X.mean(axis=0)) < 1e-10)
    assert abs(design.y.mean()) < 1e-12
    for j in range(2):
        block = design.X[:, design.group_slice(j)]
        gram = block.T @ block / 20
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10
        U = design.U[j]
        assert np.all(np.diag(U) > 0)
        assert np.max(np.abs(np.tril(U, -1))) == 0.0


def test_singleton_groups_match_column_standardization():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 3)) * np.array([0.5, 2.0, 7.0])
    design = build_design(X, rng.standard_normal(30), [0, 1, 2])
    Xc = X - X.mean(axis=0)
    for j in range(3):
        scale = np.linalg.norm(Xc[:, j]) / np.sqrt(30)
        assert design.U[j].shape == (1, 1)
        assert design.U[j][0, 0] == pytest.approx(scale, rel=1e-12)
        np.testing.assert_allclose(
            design.X[:, j], Xc[:, j] / scale, rtol=0, atol=1e-12
        )


def test_already_orthonormal_blocks_are_untouched():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((40, 4))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    X = q * np.sqrt(40)
    design = build_design(X, rng.standard_normal(40), [0, 0, 1, 1])
    for U in design.U:
        np.testing.assert_allclose(U, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(design.X, X, atol=1e-9)
    # idempotence: building again from the transformed data changes nothing
    again = build_design(design.X, design.y, [0, 0, 1, 1])
    np.testing.assert_allclose(again.X, design.X, atol=1e-9)


def test_back_transform_zero_and_identity():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((25, 5))
    design = build_design(X, rng.standard_normal(25), [0, 0, 0, 1, 1])
    assert np.all(design.back_transform(np.zeros(5)) == 0.0)
    b = rng.standard_normal(5)
    identity = [np.eye(3), np.eye(2)]
    object.__setattr__(design, "U", tuple(identity))
    np.testing.assert_allclose(design.back_transform(b), b)


def test_back_transform_preserves_fitted_values():
    rng = np.random.default_rng(4)
    X, y, labels, _ = gaussian_problem(30, [2, 3, 1], seed=4)
    design = build_design(X, y, labels)
    coef = rng.standard_normal(6)
    beta = design.back_transform(coef)
    np.testing.assert_allclose(
        (X - X.mean(axis=0)) @ beta, design.X @ coef, atol=1e-10
    )
    np.testing.assert_allclose(design.transform(beta), coef, atol=1e-10)


def test_noncontiguous_labels_report_in_original_order():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 4))
    y = rng.standard_normal(40)
    interleaved = build_design(X, y, [0, 1, 0, 1])
    contiguous = build_design(X[:, [0, 2, 1, 3]], y, [0, 0, 1, 1])
    coef = rng.standard_normal(4)
    beta_i = interleaved.back_transform(coef)
    beta_c = contiguous.back_transform(coef)
    np.testing.assert_allclose(beta_i, beta_c[[0, 2, 1, 3]], atol=1e-12)
    np.testing.assert_allclose(X - interleaved.x_mean, X - X.mean(axis=0), atol=1e-12)


def test_objective_round_trip_matches_weighted_norm_form():
    # the criterion with the Gram-weighted norm penalty on the raw scale must
    # equal the plain 2-norm criterion on the transformed scale
    rng = np.random.default_rng(6)
    X, y, labels, _ = gaussian_problem(50, [2, 3, 2], seed=6)
    design = build_design(X, y, labels)
    beta = rng.standard_normal(7)
    for family, gamma in [("glasso", None), ("gmcp", 2.5), ("gscad", 3.7)]:
        pen = PenaltySpec(family, lam=0.3, gamma=gamma)
        resid = design.y - (X - X.mean(axis=0)) @ beta
        direct = 0.5 * resid @ resid / 50
        scalar = {"glasso": "l1", "gmcp": "mcp", "gscad": "scad"}[family]
        for j in range(design.J):
            bj = beta[design.order][design.group_slice(j)]
            weighted = np.linalg.norm(design.U[j] @ bj)
            direct += rho(weighted, design.cj[j] * 0.3, pen.gamma, scalar)
        transformed = objective(design, design.transform(beta), pen)
        assert transformed == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("pen", [
    PenaltySpec("glasso", lam=0.3),
    PenaltySpec("gmcp", lam=0.3, gamma=1.5),
    PenaltySpec("gscad", lam=0.3, gamma=3.7),
    PenaltySpec("gbridge", lam=0.3, gamma=0.5),
    PenaltySpec("cmcp", lam=0.3, gamma_inner=2.2),
    PenaltySpec("sgl", lam=0.3, lam2=0.2),
], ids=lambda pen: pen.family)
def test_objective_matches_per_group_reference(pen):
    from oracles import objective_reference

    rng = np.random.default_rng(9)
    X, y, labels, _ = gaussian_problem(40, [2, 3, 1, 4], seed=9)
    orthonormalize = pen.family in ("glasso", "gmcp", "gscad")
    design = build_design(X, y, labels, orthonormalize=orthonormalize)
    coef = rng.standard_normal(10) * 0.5
    coef[2:5] = 0.0  # one zero group
    coef[6] = 0.0  # one zero coordinate in a nonzero group
    assert objective(design, coef, pen) == pytest.approx(
        objective_reference(design, coef, pen), rel=1e-12
    )


def test_objective_trivial_cases():
    X, y, labels, _ = gaussian_problem(20, [2, 2], seed=7)
    design = build_design(X, y, labels)
    pen = PenaltySpec("glasso", lam=0.4)
    rss_only = 0.5 * design.y @ design.y / 20
    assert objective(design, np.zeros(4), pen) == pytest.approx(rss_only)
    coef = np.random.default_rng(7).standard_normal(4)
    r = design.y - design.X @ coef
    assert objective(design, coef, PenaltySpec("glasso", lam=0.0)) == pytest.approx(
        0.5 * r @ r / 20
    )


def test_objective_single_group_hand_case():
    # n=2, one group, X = sqrt(2)*I (orthonormal since X'X/n = I), y = (1, 1)
    from grpsel.design import GroupedDesign

    X = np.sqrt(2.0) * np.eye(2)
    y = np.array([1.0, 1.0])
    design = GroupedDesign(
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
    beta = np.array([0.5, -0.25])
    lam = 0.3
    resid = y - X @ beta
    by_hand = 0.25 * resid @ resid + lam * np.hypot(0.5, 0.25)
    value = objective(design, beta, PenaltySpec("glasso", lam=lam))
    assert value == pytest.approx(by_hand, abs=1e-12)


def test_standardized_mode_unit_rms_columns():
    X, y, labels, _ = gaussian_problem(40, [2, 3], seed=8)
    design = build_design(X, y, labels, orthonormalize=False)
    assert not design.orthonormalized
    rms = np.linalg.norm(design.X, axis=0) / np.sqrt(40)
    np.testing.assert_allclose(rms, 1.0, atol=1e-12)
    for U in design.U:
        assert np.max(np.abs(U - np.diag(np.diag(U)))) == 0.0


def test_weights_rules():
    X, y, labels, _ = gaussian_problem(30, [1, 2, 4], seed=9)
    d = build_design(X, y, labels)
    np.testing.assert_allclose(d.cj, np.sqrt([1, 2, 4]))
    d = build_design(X, y, labels, weights=("pow", 0.5))
    np.testing.assert_allclose(d.cj, np.sqrt([1, 2, 4]))
    d = build_design(X, y, labels, weights=[1.0, 1.0, 1.0])
    np.testing.assert_allclose(d.cj, 1.0)
    with pytest.raises(DimensionMismatch):
        build_design(X, y, labels, weights=[1.0, 2.0])
    for bad in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(DomainError):
            build_design(X, y, labels, weights=[1.0, bad, 1.0])
    for exponent in (np.inf, np.nan, -np.inf):
        with pytest.raises(DomainError):
            build_design(X, y, labels, weights=("pow", exponent))


def test_singular_and_empty_groups_rejected():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((10, 3))
    X[:, 2] = 2 * X[:, 1]  # collinear inside group 1
    with pytest.raises(SingularGroup):
        build_design(X, rng.standard_normal(10), [0, 1, 1])
    wide = rng.standard_normal((4, 6))
    with pytest.raises(SingularGroup):
        build_design(wide, rng.standard_normal(4), [0] * 6)
    const = rng.standard_normal((10, 2))
    const[:, 0] = 3.14
    with pytest.raises(SingularGroup):
        build_design(const, rng.standard_normal(10), [0, 1])
    with pytest.raises(EmptyGroup):
        build_design(np.empty((10, 0)), rng.standard_normal(10), [])
    with pytest.raises(DimensionMismatch):
        build_design(rng.standard_normal((10, 2)), rng.standard_normal(9), [0, 1])


def test_group_norms_and_predict():
    X, y, labels, _ = gaussian_problem(25, [2, 3], seed=11)
    design = build_design(X, y, labels)
    beta = np.array([3.0, 4.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(group_norms(design, beta), [5.0, 0.0])
    fitted = predict(design, beta)
    np.testing.assert_allclose(
        fitted, design.y_mean + (X - X.mean(axis=0)) @ beta, atol=1e-12
    )
    new = np.random.default_rng(11).standard_normal((4, 5))
    np.testing.assert_allclose(
        predict(design, beta, new),
        design.y_mean + (new - design.x_mean) @ beta,
        atol=1e-12,
    )


@pytest.mark.parametrize("weights", ["sqrt", ("pow", 0.5), np.array([0.7, 2.0])],
                         ids=["sqrt", "pow", "explicit"])
def test_rebuild_design_uses_only_given_rows(weights):
    X, y, labels, _ = gaussian_problem(40, [2, 2], seed=12)
    design = build_design(X, y, labels, weights=weights)
    rows = np.arange(30)
    sub = rebuild_design(design, rows)
    direct = build_design(X[:30], y[:30], labels, weights=weights)
    assert np.all(sub.cj == design.cj)
    for a, b in zip(sub.U, direct.U):
        np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(sub.y, direct.y, atol=1e-12)


def test_rebuild_design_after_with_response_uses_the_new_response():
    X, y, labels, _ = gaussian_problem(40, [2, 3], seed=12)
    y2 = np.random.default_rng(12).standard_normal(40) + 3.0
    rows = np.arange(5, 35)
    sub = rebuild_design(build_design(X, y, labels).with_response(y2), rows)
    assert np.all(sub.y == build_design(X[rows], y2[rows], labels).y)


def test_with_response_swaps_y_exactly():
    X, y, labels, _ = gaussian_problem(15, [2], seed=13)
    design = build_design(X, y, labels)
    y_new = np.arange(15.0)
    assert np.all(design.with_response(y_new).y == y_new)
    with pytest.raises(DimensionMismatch):
        design.with_response(np.zeros(3))
    y_new[4] = np.nan
    with pytest.raises(NonFiniteInput):
        design.with_response(y_new)


def test_with_response_shares_block_factors():
    # a Monte Carlo replicate reuses the factor inverses of its parent design
    X, y, labels, _ = gaussian_problem(30, [2, 3], seed=17)
    design = build_design(X, y, labels)
    copy = design.with_response(np.ones(30))
    assert copy._blocks() is design._blocks()
    coef = np.arange(5.0)
    assert np.all(copy.back_transform(coef) == design.back_transform(coef))
