"""Bi-level selection: fits that are sparse in groups and within groups.

Two sweeps for the block-descent engine (``gcd._descend``), both operating
on standardized (not orthonormalized) columns so that coordinate-wise zeros
survive the mapping back to the caller's coordinates:

* Local coordinate descent (``fit_lcd``) for the group bridge (a concave
  penalty of the group 1-norm) and for the composite MCP (an MCP of summed
  per-coordinate MCPs).  Each coordinate update replaces the penalty by its
  tangent line at the current iterate, which majorizes the concave penalty,
  and solves the resulting one-dimensional LASSO with the soft-threshold
  operator.  The exact objective therefore never increases.

* Blockwise proximal descent (``fit_sparse_group_lasso``) for the convex
  additive penalty lam1*||b||_1 + lam2*sum_j ||b_j||_2.  Per group the
  quadratic is majorized with the block Lipschitz constant, and the exact
  proximal map of the additive penalty is the coordinate-wise soft
  threshold followed by the group soft threshold.
"""

import math

import numpy as np

from .errors import UnsupportedFamily
from .gcd import FitResult, SolutionPath, _descend, _start
# ``objective`` is imported but not called here (the engine in ``gcd`` scores
# every fit); the traced benchmark looks it up in this module by name.
from .penalties import (  # noqa: F401
    PenaltySpec,
    _mcp,
    _mcp_prime,
    objective,
    rho_prime,
    soft_threshold,
    soft_threshold_vec,
)

LCD_FAMILIES = ("gbridge", "cmcp")

# Below this group 1-norm the bridge tangent slope is effectively unbounded
# and the group is frozen at zero for the remainder of the fit.
BRIDGE_FREEZE_TOL = 1e-10


def composite_threshold(beta_group: np.ndarray, k: int, lam: float,
                        gamma_inner: float) -> float:
    """Per-coordinate soft-threshold level of the composite MCP.

    The chain rule on the composed penalty gives
    outer'(sum of inner values) * inner'(|beta_k|); both factors are MCP
    derivatives.  The outer concavity of a group of size d is
    ``d * gamma_inner * lam / 2``, so the outer penalty saturates exactly
    when every coordinate's inner penalty does.  At an all-zero group this
    is lam**2, and it vanishes as soon as every |beta| in the group reaches
    gamma_inner * lam.
    """
    beta_group = np.asarray(beta_group, dtype=float)
    if not 0 <= k < beta_group.size:
        raise IndexError("coordinate index outside the group")
    if lam == 0:
        return 0.0
    u = float(_mcp(np.abs(beta_group), lam, gamma_inner).sum())
    outer_slope = float(_mcp_prime(u, lam, beta_group.size * gamma_inner * lam / 2))
    inner_slope = float(_mcp_prime(abs(beta_group[k]), lam, gamma_inner))
    return outer_slope * inner_slope


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
) -> FitResult:
    """Local coordinate descent for bi-level penalties.

    The design must be standardized, not orthonormalized.  ``init`` lives
    in internal coordinates; by default the composite MCP starts from zero
    while the group bridge starts from the least squares fit (its tangent
    slope is unbounded at an all-zero group, so zero is a fixed point).
    A bridge group whose 1-norm is below ``BRIDGE_FREEZE_TOL`` at the start
    or after any of its coordinate updates is pinned at exactly zero for
    the rest of the fit.
    """
    if pen.family not in LCD_FAMILIES:
        raise UnsupportedFamily(f"fit_lcd does not handle {pen.family!r}")
    if design.orthonormalized:
        raise ValueError(
            "fit_lcd needs a design built with orthonormalize=False; "
            "orthonormalization does not preserve coordinate-wise sparsity"
        )
    n, X, cj = design.n, design.X, design.cj
    lam, cmcp = pen.lam, pen.family == "cmcp"
    bounds = [(start, start + size) for start, size in design.groups]
    freezing = pen.family == "gbridge" and lam > 0
    frozen = np.zeros(design.J, dtype=bool)
    if pen.family == "gbridge":
        init = least_squares_init(design) if init is None else _start(design, init)
        if freezing:
            frozen = design.group_sums(np.abs(init)) < BRIDGE_FREEZE_TOL
            init[np.repeat(frozen, design.dims)] = 0.0

    def sweep(b, r, note):
        delta = 0.0
        for j, (a, e) in enumerate(bounds):
            if frozen[j]:
                continue
            for k in range(a, e):
                col = X[:, k]
                # the slope of the penalty's tangent line in this coordinate
                if lam == 0:
                    w = 0.0
                elif cmcp:
                    w = composite_threshold(b[a:e], k - a, lam, pen.gamma_inner)
                else:
                    w = rho_prime(float(np.abs(b[a:e]).sum()), cj[j] * lam, pen.gamma, "bridge")
                z = col @ r / n + b[k]
                new = float(soft_threshold(z, w))
                diff = new - b[k]
                if diff != 0.0:
                    r -= col * diff
                    b[k] = new
                    delta = max(delta, abs(diff))
                if note:
                    note()
                if freezing and np.abs(b[a:e]).sum() < BRIDGE_FREEZE_TOL:
                    # the tangent slope diverges at zero: pin the group there
                    if np.any(b[a:e]):
                        r += X[:, a:e] @ b[a:e]
                        b[a:e] = 0.0
                    frozen[j] = True
                    break
        return delta

    return _descend(design, pen, init, sweep,
                    lambda b: lcd_stationarity(design, pen, b, frozen),
                    tol, max_iter, check_descent)


def lcd_stationarity(design, pen: PenaltySpec, coef: np.ndarray, frozen=None) -> float:
    """Fixed-point residual of the LCD map at ``coef``.

    Coordinates must satisfy the one-dimensional LASSO optimality condition
    under the tangent-line weight evaluated at ``coef``.  Groups frozen at
    zero by the bridge rule are stationary by convention (the tangent slope
    diverges there).
    """
    if pen.family not in LCD_FAMILIES:
        raise UnsupportedFamily(f"no LCD weight for family {pen.family!r}")
    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    g = design.X.T @ r / design.n
    dims, lam = design.dims, pen.lam
    skip = np.zeros(design.J, dtype=bool) if frozen is None else np.array(frozen, dtype=bool)
    abs_b = np.abs(coef)
    if lam == 0:
        w = np.zeros_like(coef)
    elif pen.family == "cmcp":
        gi = pen.gamma_inner
        outer = _mcp_prime(design.group_sums(_mcp(abs_b, lam, gi)), lam, dims * gi * lam / 2)
        w = np.repeat(outer, dims) * _mcp_prime(abs_b, lam, gi)
    else:
        l1 = design.group_sums(abs_b)
        skip |= l1 < BRIDGE_FREEZE_TOL
        w = np.repeat(rho_prime(np.where(skip, 1.0, l1), design.cj * lam, pen.gamma,
                                "bridge"), dims)
    v = np.where(coef == 0.0, np.maximum(np.abs(g) - w, 0.0), np.abs(g - w * np.sign(coef)))
    v[np.repeat(skip, dims)] = 0.0
    return float(np.max(v, initial=0.0))


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
    n, X = design.n, design.X
    bounds = [(start, start + size) for start, size in design.groups]
    lips = [float(np.linalg.eigvalsh(X[:, a:e].T @ X[:, a:e] / n)[-1]) for a, e in bounds]

    def sweep(b, r, note):
        delta = 0.0
        for (a, e), L in zip(bounds, lips):
            Xj = X[:, a:e]
            zt = b[a:e] + Xj.T @ r / (n * L)
            new = soft_threshold_vec(soft_threshold(zt, lam1 / L), lam2 / L)
            diff = new - b[a:e]
            step = np.max(np.abs(diff)) if diff.size else 0.0
            if step > 0:
                r -= Xj @ diff
                b[a:e] = new
            delta = max(delta, step)
            if note:
                note()
        return delta

    return _descend(design, pen, init, sweep, lambda b: sgl_kkt(design, b, lam1, lam2),
                    tol, max_iter, check_descent)


def sgl_kkt(design, coef: np.ndarray, lam1: float, lam2: float) -> float:
    """Largest subgradient violation of the sparse group LASSO conditions.

    A zero group needs ||soft(g_j, lam1)||_2 <= lam2 for the gradient g_j of
    the loss; inside an active group, zero coordinates need |g_k| <= lam1
    and nonzero ones must balance g_k against lam1*sign(b_k) plus the group
    norm gradient.
    """
    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    g = design.X.T @ r / design.n
    dims = design.dims
    nb = design.group_l2(coef)
    zero = nb == 0.0
    zero_groups = np.maximum(design.group_l2(soft_threshold(g, lam1)) - lam2, 0.0)
    nb_rep = np.repeat(np.where(zero, 1.0, nb), dims)
    coords = np.where(coef == 0.0, np.maximum(np.abs(g) - lam1, 0.0),
                      np.abs(g - lam1 * np.sign(coef) - lam2 * coef / nb_rep))
    coords[np.repeat(zero, dims)] = 0.0
    return float(max(np.max(zero_groups[zero], initial=0.0), np.max(coords, initial=0.0)))


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
) -> SolutionPath:
    """``paths.solution_path`` for an LCD family, settings passed one by one."""
    from .paths import PathConfig, solution_path  # paths imports this module

    if pen_template.family not in LCD_FAMILIES:
        raise UnsupportedFamily(f"fit_path_lcd does not handle {pen_template.family!r}")
    config = PathConfig(n_lambda, lambda_min_ratio, tol=tol, max_iter=max_iter)
    return solution_path(design, pen_template, config, lambdas)


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
    """``paths.solution_path`` for the sparse group LASSO, settings passed one by one.

    The group-level parameter is either tied to the grid
    (``lam2 = lam2_ratio * lam1``) or held fixed (``lam2=...``).
    """
    from .paths import PathConfig, solution_path  # paths imports this module

    config = PathConfig(n_lambda, lambda_min_ratio, tol=tol, max_iter=max_iter,
                        sgl_lambda2_ratio=lam2_ratio, sgl_lambda2=lam2)
    return solution_path(design, PenaltySpec("sgl", lam=0.0), config, lambdas)
