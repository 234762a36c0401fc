"""Bi-level selection: fits that are sparse in groups and within groups.

Two machineries, both operating on standardized (not orthonormalized)
columns so that coordinate-wise zeros survive the mapping back to the
caller's coordinates:

* Local coordinate descent (``fit_lcd``) for concave group penalties
  applied to the group 1-norm (group bridge) and for the composite MCP
  (an MCP of summed per-coordinate MCPs).  Each coordinate update replaces
  the penalty by its tangent line at the current iterate, which majorizes
  the concave penalty, and solves the resulting one-dimensional LASSO with
  the soft-threshold operator.  The exact objective therefore never
  increases.

* Blockwise proximal descent (``fit_sparse_group_lasso``) for the convex
  additive penalty lam1*||b||_1 + lam2*sum_j ||b_j||_2.  Per group the
  quadratic is majorized with the block Lipschitz constant, and the exact
  proximal map of the additive penalty is the coordinate-wise soft
  threshold followed by the group soft threshold.
"""

import math

import numpy as np

from .errors import UnsupportedFamily
from .gcd import FitResult, SolutionPath, lambda_grid
from .penalties import (
    PenaltySpec,
    _mcp,
    _mcp_prime,
    objective,
    rho_prime,
    soft_threshold,
    soft_threshold_vec,
)

LCD_FAMILIES = ("gbridge", "cmcp")
EXPERIMENTAL_LCD_FAMILIES = ("gmcp1", "gscad1")

# Below this group 1-norm the bridge tangent slope is effectively unbounded
# and the group is frozen at zero for the remainder of the fit.
BRIDGE_FREEZE_TOL = 1e-10


class CompositeSpec:
    """Composite MCP parameters; the outer concavity is derived, not stored.

    The outer MCP's concavity for a group of size d is
    ``d * gamma_inner * lam / 2``, chosen so the outer penalty saturates
    exactly when every coordinate's inner penalty does.
    """

    def __init__(self, lam: float, gamma_inner: float):
        if not gamma_inner > 1:
            raise ValueError("gamma_inner must exceed 1")
        self.lam = float(lam)
        self.gamma_inner = float(gamma_inner)

    def gamma_outer(self, d: int) -> float:
        return d * self.gamma_inner * self.lam / 2


def composite_threshold(beta_group: np.ndarray, k: int, spec: CompositeSpec) -> float:
    """Per-coordinate soft-threshold level of the composite MCP.

    The chain rule on the composed penalty gives
    outer'(sum of inner values) * inner'(|beta_k|); both factors are MCP
    derivatives.  At an all-zero group this is lam**2, and it vanishes as
    soon as every |beta| in the group reaches gamma_inner * lam.
    """
    beta_group = np.asarray(beta_group, dtype=float)
    if not 0 <= k < beta_group.size:
        raise IndexError("coordinate index outside the group")
    lam, gi = spec.lam, spec.gamma_inner
    if lam == 0:
        return 0.0
    u = float(_mcp(np.abs(beta_group), lam, gi).sum())
    outer_slope = float(_mcp_prime(u, lam, spec.gamma_outer(beta_group.size)))
    inner_slope = float(_mcp_prime(abs(beta_group[k]), lam, gi))
    return outer_slope * inner_slope


def _lcd_weight(pen: PenaltySpec, cj: float, b_group: np.ndarray, k: int) -> float:
    """Tangent-line slope of the group penalty in coordinate k."""
    if pen.lam == 0:
        return 0.0
    if pen.family == "cmcp":
        return composite_threshold(b_group, k, CompositeSpec(pen.lam, pen.gamma_inner))
    l1 = float(np.abs(b_group).sum())
    if pen.family == "gbridge":
        return rho_prime(l1, cj * pen.lam, pen.gamma, "bridge")
    if pen.family == "gmcp1":
        return rho_prime(l1, cj * pen.lam, pen.gamma, "mcp")
    if pen.family == "gscad1":
        return rho_prime(l1, cj * pen.lam, pen.gamma, "scad")
    raise UnsupportedFamily(f"no LCD weight for family {pen.family!r}")


def least_squares_init(design) -> np.ndarray:
    """Unpenalized (or lightly ridged, when p >= n) internal-coordinate fit."""
    X, y = design.X, design.y
    if design.p < design.n:
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        return coef
    G = X.T @ X / design.n + 0.01 * np.eye(design.p)
    return np.linalg.solve(G, X.T @ y / design.n)


def fit_lcd(
    design,
    pen: PenaltySpec,
    init: np.ndarray = None,
    tol: float = 1e-7,
    max_iter: int = 10_000,
    check_descent: bool = False,
    allow_experimental: bool = False,
) -> FitResult:
    """Local coordinate descent for bi-level penalties.

    The design must be standardized, not orthonormalized.  ``init`` lives
    in internal coordinates; by default the composite MCP starts from zero
    while the group bridge starts from the least squares fit (its tangent
    slope is unbounded at an all-zero group, so zero is a fixed point).
    Once a group's 1-norm falls below ``BRIDGE_FREEZE_TOL`` during a bridge
    fit, the group is pinned at exactly zero for the rest of that fit.
    """
    if pen.family in EXPERIMENTAL_LCD_FAMILIES and not allow_experimental:
        raise UnsupportedFamily(
            f"{pen.family!r} is experimental; pass allow_experimental=True"
        )
    if pen.family not in LCD_FAMILIES + EXPERIMENTAL_LCD_FAMILIES:
        raise UnsupportedFamily(f"fit_lcd does not handle {pen.family!r}")
    if design.orthonormalized:
        raise ValueError(
            "fit_lcd needs a design built with orthonormalize=False; "
            "orthonormalization does not preserve coordinate-wise sparsity"
        )
    n, p, J = design.n, design.p, design.J
    X, y = design.X, design.y

    if init is None:
        b = least_squares_init(design) if pen.family == "gbridge" else np.zeros(p)
    else:
        b = np.asarray(init, dtype=float).ravel().copy()
        if b.shape != (p,):
            raise ValueError("init has the wrong length")
    r = y - X @ b if np.any(b) else y.copy()

    frozen = np.zeros(J, dtype=bool)
    if pen.family == "gbridge" and pen.lam > 0:
        for j in range(J):
            sl = design.group_slice(j)
            if np.abs(b[sl]).sum() < BRIDGE_FREEZE_TOL:
                if np.any(b[sl]):
                    r += X[:, sl] @ b[sl]
                    b[sl] = 0.0
                frozen[j] = True

    max_increase = -math.inf if check_descent else None
    prev_obj = objective(design, b, pen) if check_descent else None

    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        delta = 0.0
        for j in range(J):
            if frozen[j]:
                continue
            start, size = design.groups[j]
            bridge_here = pen.family == "gbridge" and pen.lam > 0
            for k in range(size):
                if bridge_here and np.abs(b[start:start + size]).sum() < BRIDGE_FREEZE_TOL:
                    break  # the tangent slope diverges; pin the group below
                col = X[:, start + k]
                w = _lcd_weight(pen, design.cj[j], b[start:start + size], k)
                z = col @ r / n + b[start + k]
                new = float(soft_threshold(z, w))
                diff = new - b[start + k]
                if diff != 0.0:
                    r -= col * diff
                    b[start + k] = new
                    delta = max(delta, abs(diff))
                if check_descent:
                    obj = objective(design, b, pen)
                    max_increase = max(max_increase, obj - prev_obj)
                    prev_obj = obj
            if bridge_here:
                sl = design.group_slice(j)
                if np.abs(b[sl]).sum() < BRIDGE_FREEZE_TOL:
                    if np.any(b[sl]):
                        r += X[:, sl] @ b[sl]
                        b[sl] = 0.0
                    frozen[j] = True
        if not np.isfinite(r).all():
            break  # a non-finite residual can never count as converged
        if delta <= tol:
            converged = True
            break
        if it % 100 == 0:
            r = y - X @ b

    drift = float(np.max(np.abs(r - (y - X @ b)))) if p else 0.0
    return FitResult(
        beta=design.back_transform(b),
        coef=b,
        objective=objective(design, b, pen),
        iterations=iterations,
        converged=converged,
        kkt_max_violation=lcd_stationarity(design, pen, b, frozen),
        lam=pen.lam,
        gamma=pen.shape_param,
        max_descent_violation=max_increase,
        residual_drift=drift,
    )


def lcd_stationarity(design, pen: PenaltySpec, coef: np.ndarray, frozen=None) -> float:
    """Fixed-point residual of the LCD map at ``coef``.

    Coordinates must satisfy the one-dimensional LASSO optimality condition
    under the tangent-line weight evaluated at ``coef``.  Groups frozen at
    zero by the bridge rule are stationary by convention (the tangent slope
    diverges there).
    """
    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    worst = 0.0
    for j in range(design.J):
        start, size = design.groups[j]
        b_group = coef[start:start + size]
        if pen.family == "gbridge" and pen.lam > 0 and np.abs(b_group).sum() < BRIDGE_FREEZE_TOL:
            continue
        if frozen is not None and frozen[j]:
            continue
        for k in range(size):
            w = _lcd_weight(pen, design.cj[j], b_group, k)
            g = design.X[:, start + k] @ r / design.n
            bk = b_group[k]
            if bk == 0.0:
                v = max(abs(g) - w, 0.0)
            else:
                v = abs(g - w * np.sign(bk))
            worst = max(worst, float(v))
    return worst


def fit_sparse_group_lasso(
    design,
    lam1: float,
    lam2: float,
    init: np.ndarray = None,
    tol: float = 1e-7,
    max_iter: int = 10_000,
    check_descent: bool = False,
) -> FitResult:
    """Blockwise proximal descent for the additive l1 + group-l2 penalty.

    The problem is convex, so the converged point is a global minimizer
    regardless of the starting value.  Per group, a gradient step with the
    exact block Lipschitz constant (largest eigenvalue of the block Gram,
    computed once) is followed by the two-stage proximal map.
    """
    if lam1 < 0 or lam2 < 0:
        raise ValueError("penalty levels must be nonnegative")
    if design.orthonormalized:
        raise ValueError(
            "fit_sparse_group_lasso needs a design built with orthonormalize=False"
        )
    pen = PenaltySpec("sgl", lam=lam1, lam2=lam2)
    n, p, J = design.n, design.p, design.J
    X, y = design.X, design.y
    lips = np.empty(J)
    for j in range(J):
        sl = design.group_slice(j)
        block = X[:, sl]
        lips[j] = float(np.linalg.eigvalsh(block.T @ block / n)[-1])

    if init is None:
        b = np.zeros(p)
        r = y.copy()
    else:
        b = np.asarray(init, dtype=float).ravel().copy()
        if b.shape != (p,):
            raise ValueError("init has the wrong length")
        r = y - X @ b

    max_increase = -math.inf if check_descent else None
    prev_obj = objective(design, b, pen) if check_descent else None

    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        delta = 0.0
        for j in range(J):
            sl = design.group_slice(j)
            Xj = X[:, sl]
            L = lips[j]
            zt = b[sl] + Xj.T @ r / (n * L)
            new = soft_threshold_vec(soft_threshold(zt, lam1 / L), lam2 / L)
            diff = new - b[sl]
            step = np.max(np.abs(diff)) if diff.size else 0.0
            if step > 0:
                r -= Xj @ diff
                b[sl] = new
            delta = max(delta, step)
            if check_descent:
                obj = objective(design, b, pen)
                max_increase = max(max_increase, obj - prev_obj)
                prev_obj = obj
        if not np.isfinite(r).all():
            break  # a non-finite residual can never count as converged
        if delta <= tol:
            converged = True
            break
        if it % 100 == 0:
            r = y - X @ b

    drift = float(np.max(np.abs(r - (y - X @ b)))) if p else 0.0
    return FitResult(
        beta=design.back_transform(b),
        coef=b,
        objective=objective(design, b, pen),
        iterations=iterations,
        converged=converged,
        kkt_max_violation=sgl_kkt(design, b, lam1, lam2),
        lam=lam1,
        gamma=None,
        lam2=lam2,
        max_descent_violation=max_increase,
        residual_drift=drift,
    )


def sgl_kkt(design, coef: np.ndarray, lam1: float, lam2: float) -> float:
    """Largest subgradient violation of the sparse group LASSO conditions.

    A zero group needs ||soft(g_j, lam1)||_2 <= lam2 for the gradient g_j of
    the loss; inside an active group, zero coordinates need |g_k| <= lam1
    and nonzero ones must balance g_k against lam1*sign(b_k) plus the group
    norm gradient.
    """
    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    worst = 0.0
    for j in range(design.J):
        sl = design.group_slice(j)
        g = design.X[:, sl].T @ r / design.n
        b = coef[sl]
        nb = np.linalg.norm(b)
        if nb == 0.0:
            v = max(float(np.linalg.norm(soft_threshold(g, lam1))) - lam2, 0.0)
        else:
            v = 0.0
            for k in range(b.size):
                if b[k] == 0.0:
                    v = max(v, max(abs(g[k]) - lam1, 0.0))
                else:
                    v = max(v, abs(g[k] - lam1 * np.sign(b[k]) - lam2 * b[k] / nb))
        worst = max(worst, float(v))
    return worst


def sgl_lambda_max(design) -> float:
    """Coordinate-level penalty at which the sgl solution is zero (any lam2)."""
    return float(np.max(np.abs(design.X.T @ design.y / design.n)))


def cmcp_lambda_max(design) -> float:
    """Penalty level at which zero is an LCD fixed point for composite MCP.

    The threshold at an all-zero group is lam**2, so zero is stationary as
    soon as lam**2 dominates every coordinate's marginal correlation.
    """
    zmax = float(np.max(np.abs(design.X.T @ design.y / design.n)))
    lam = math.sqrt(zmax)
    while lam * lam < zmax:  # round up so the squared level clears zmax
        lam = float(np.nextafter(lam, math.inf))
    return lam


def bridge_lambda_upper(design, pen: PenaltySpec, init: np.ndarray = None) -> float:
    """A penalty level at which the bridge LCD fit collapses to exactly zero.

    Starts from a first-sweep heuristic and doubles until the fit from the
    least squares start is identically zero.
    """
    if init is None:
        init = least_squares_init(design)
    z0 = np.abs(design.X.T @ design.y / design.n) + np.abs(init)
    guess = 0.0
    for j in range(design.J):
        sl = design.group_slice(j)
        l1 = np.abs(init[sl]).sum()
        if l1 < BRIDGE_FREEZE_TOL:
            continue
        slope = pen.gamma * design.cj[j] * l1 ** (pen.gamma - 1)
        guess = max(guess, float(np.max(z0[sl]) / slope))
    lam = max(guess, 1e-8)
    for _ in range(60):
        fit = fit_lcd(design, pen.with_lam(lam), init=init, max_iter=2000)
        if not np.any(fit.coef):
            return lam
        lam *= 2.0
    raise RuntimeError("could not bracket the all-zero bridge penalty level")


def fit_path_lcd(
    design,
    pen_template: PenaltySpec,
    n_lambda: int = 100,
    lambda_min_ratio: float = None,
    lambdas: np.ndarray = None,
    tol: float = 1e-7,
    max_iter: int = 10_000,
    allow_experimental: bool = False,
) -> SolutionPath:
    """Warm-started LCD path, reported with lambda descending.

    Composite MCP (and the experimental 1-norm families) chain downward from
    the level where zero is a fixed point.  The group bridge is fit in the
    opposite direction: starting from the least squares solution at the
    smallest lambda and warm-starting upward, since a bridge group that hits
    zero cannot re-enter (the tangent slope diverges at zero).
    """
    fam = pen_template.family
    if lambda_min_ratio is None:
        from .gcd import default_min_ratio

        lambda_min_ratio = default_min_ratio(design)
    ascending = fam == "gbridge"
    if lambdas is None:
        if ascending:
            lam_top = bridge_lambda_upper(design, pen_template)
        elif fam == "cmcp":
            lam_top = cmcp_lambda_max(design)
        else:
            zmax = np.abs(design.X.T @ design.y / design.n)
            lam_top = max(
                float(np.max(zmax[design.group_slice(j)]) / design.cj[j])
                for j in range(design.J)
            )
        lambdas = lambda_grid(lam_top, n_lambda, lambda_min_ratio)
    else:
        lambdas = np.sort(np.asarray(lambdas, dtype=float))[::-1]

    fits = [None] * len(lambdas)
    idx = range(len(lambdas) - 1, -1, -1) if ascending else range(len(lambdas))
    b = least_squares_init(design) if ascending else np.zeros(design.p)
    for i in idx:
        fit = fit_lcd(
            design,
            pen_template.with_lam(float(lambdas[i])),
            init=b,
            tol=tol,
            max_iter=max_iter,
            allow_experimental=allow_experimental,
        )
        fits[i] = fit
        b = fit.coef
    grid = [(float(lam), pen_template.shape_param) for lam in lambdas]
    return SolutionPath(
        family=fam, grid=grid, fits=fits, lambda_max=float(lambdas[0])
    )


def fit_path_sgl(
    design,
    lam2_ratio: float = 1.0,
    lam2: float = None,
    n_lambda: int = 100,
    lambda_min_ratio: float = None,
    lambdas: np.ndarray = None,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> SolutionPath:
    """Warm-started sparse group LASSO path over the coordinate-level grid.

    The group-level parameter is either tied to the grid
    (``lam2 = lam2_ratio * lam1``) or held fixed (``lam2=...``).
    """
    if lambda_min_ratio is None:
        from .gcd import default_min_ratio

        lambda_min_ratio = default_min_ratio(design)
    if lambdas is None:
        lambdas = lambda_grid(sgl_lambda_max(design), n_lambda, lambda_min_ratio)
    else:
        lambdas = np.asarray(lambdas, dtype=float)
    grid = []
    fits = []
    b = np.zeros(design.p)
    for lam1 in lambdas:
        l2 = lam2 if lam2 is not None else lam2_ratio * float(lam1)
        fit = fit_sparse_group_lasso(
            design, float(lam1), float(l2), init=b, tol=tol, max_iter=max_iter
        )
        grid.append((float(lam1), float(l2)))
        fits.append(fit)
        b = fit.coef
    return SolutionPath(
        family="sgl", grid=grid, fits=fits, lambda_max=float(lambdas[0])
    )
