"""Group coordinate descent for 2-norm group penalties.

One descent step exactly minimizes the penalized criterion over a single
group, holding the others fixed: with orthonormalized blocks the group
subproblem is a single-group model whose solution is one of the closed-form
threshold operators.  Cycling over groups until the coefficients stop moving
yields the group LASSO / group MCP / group SCAD fits; each step is
guaranteed not to increase the objective.  Pathwise fits proceed down a
log-spaced grid from ``lambda_max`` (where the solution is identically
zero), warm-starting each fit from its neighbor.

Skipping zero groups.  Each cycle starts with one product
``g = X'r/n + b`` over all groups.  Walking the groups in order, the sweep
keeps ``moved``, the sum of ``||diff||`` over the updates made so far in the
cycle, and leaves a zero group j untouched when
``||g_j|| + moved <= c_j * lam``.  Proof that this is the exact update:
with ``(1/n) X_j'X_j = I`` every block has spectral norm ``sqrt(n)``, so
updating group k by ``diff`` moves ``z_m = X_m'r/n + b_m`` of every other
group by ``||X_m'X_k diff||/n <= ||diff||``; hence ``||z_j|| <= ||g_j|| +
moved <= c_j * lam``, and every 2-norm threshold operator maps such a
``z_j`` to zero.  The iterates, the cycle count and the convergence test
are those of the sweep that updates every group.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotOrthonormalized, UnsupportedFamily
from .penalties import PenaltySpec, objective, rho_prime, solve_single_group

GCD_FAMILIES = ("glasso", "gmcp", "gscad")

_KKT_FAMILY = {"glasso": "l1", "gmcp": "mcp", "gscad": "scad"}


@dataclass
class FitResult:
    """A converged (or best-effort) fit at one penalty setting.

    ``beta`` is reported in the caller's coordinates and column order;
    ``coef`` is the same solution in the design's internal (transformed)
    coordinates, which is what warm starts and the objective use.
    """

    beta: np.ndarray
    coef: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_max_violation: float
    lam: float
    gamma: float = None
    lam2: float = None
    max_descent_violation: float = None
    residual_drift: float = 0.0

    @property
    def n_nonzero(self) -> int:
        return int(np.count_nonzero(self.beta))


@dataclass
class SolutionPath:
    """Fits along an ordered penalty grid.

    ``grid`` holds (lam, gamma) pairs with lam descending within each
    gamma; for the sgl family the second entry is lam2 instead.
    """

    family: str
    grid: list
    fits: list
    lambda_max: float

    def coef_matrix(self) -> np.ndarray:
        return np.array([f.beta for f in self.fits])

    def group_norm_matrix(self, design) -> np.ndarray:
        from .design import group_norms

        return np.array([group_norms(design, f.beta) for f in self.fits])


def lambda_max(design) -> float:
    """Smallest penalty level at which the solution is identically zero."""
    norms = design.group_l2(design.X.T @ design.y)
    return float(np.max(norms / (design.n * design.cj)))


def lambda_grid(lam_max: float, n_lambda: int, lambda_min_ratio: float) -> np.ndarray:
    """Log-spaced descending grid from lam_max to lambda_min_ratio * lam_max."""
    if n_lambda < 2:
        raise ValueError("need at least two grid points")
    if not 0 < lambda_min_ratio < 1:
        raise ValueError("lambda_min_ratio must lie in (0, 1)")
    if lam_max <= 0:
        return np.zeros(1)
    return np.geomspace(lam_max, lam_max * lambda_min_ratio, n_lambda)


def default_min_ratio(design) -> float:
    # the unidentified tail of the path is unreliable when p >= n
    return 1e-3 if design.n > design.p else 0.05


def fit_gcd(
    design,
    pen: PenaltySpec,
    init: np.ndarray = None,
    tol: float = 1e-7,
    max_iter: int = 10_000,
    check_descent: bool = False,
    n_starts: int = 1,
    seed: int = 0,
) -> FitResult:
    """Group coordinate descent fit at a single (lam, gamma).

    ``init`` is a starting value in the design's internal coordinates
    (zeros by default).  Convergence is declared when no coefficient moves
    by more than ``tol`` over a full cycle; if ``max_iter`` cycles pass
    without that, or the residual turns non-finite, the last iterate is
    returned with ``converged=False``.
    With ``check_descent`` the objective is evaluated after every group
    update and the largest observed increase is recorded (it should never
    exceed roundoff).

    For the concave families the result is a stationary point, not
    necessarily a global minimizer; ``n_starts > 1`` adds seeded random
    restarts and keeps the lowest objective.
    """
    if n_starts > 1:
        best = fit_gcd(design, pen, init, tol, max_iter, check_descent)
        rng = np.random.default_rng(seed)
        for _ in range(n_starts - 1):
            alt = fit_gcd(design, pen, rng.standard_normal(design.p), tol,
                          max_iter, check_descent)
            if alt.objective < best.objective:
                best = alt
        return best
    if pen.family not in GCD_FAMILIES:
        raise UnsupportedFamily(
            f"fit_gcd handles {GCD_FAMILIES}, not {pen.family!r}"
        )
    if not design.orthonormalized:
        raise NotOrthonormalized(
            "fit_gcd requires a design built with orthonormalize=True"
        )
    n, p = design.n, design.p
    X, y = design.X, design.y
    if init is None:
        b = np.zeros(p)
        r = y.copy()
    else:
        b = np.asarray(init, dtype=float).ravel().copy()
        if b.shape != (p,):
            raise ValueError("init has the wrong length")
        r = y - X @ b

    lam, gamma = pen.lam, pen.gamma
    bounds = [(start, start + size) for start, size in design.groups]
    thresholds = (design.cj * lam).tolist()
    max_increase = -math.inf if check_descent else None
    prev_obj = objective(design, b, pen) if check_descent else None

    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        g = X.T @ r / n + b
        g_norms = design.group_l2(g).tolist()
        nonzero = np.logical_or.reduceat(b != 0, design.starts).tolist()
        delta = moved = 0.0
        for j, (a, e) in enumerate(bounds):
            if not nonzero[j] and g_norms[j] + moved <= thresholds[j]:
                # the exact update leaves this zero group at zero (see above)
                if check_descent:
                    max_increase = max(max_increase, 0.0)
                continue
            # until something moves, r is the residual g was computed from
            z = g[a:e] if moved == 0.0 else X[:, a:e].T @ r / n + b[a:e]
            new = solve_single_group(z, thresholds[j], gamma, pen.family)
            diff = new - b[a:e]
            step = np.max(np.abs(diff))
            if step > 0:
                r -= X[:, a:e] @ diff
                b[a:e] = new
                moved += math.sqrt(diff @ diff)
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
            # guard against floating-point drift in the running residual
            r = y - X @ b

    drift = float(np.max(np.abs(r - (y - X @ b)))) if p else 0.0
    return FitResult(
        beta=design.back_transform(b),
        coef=b,
        objective=objective(design, b, pen),
        iterations=iterations,
        converged=converged,
        kkt_max_violation=kkt_check(design, pen, b),
        lam=lam,
        gamma=gamma,
        max_descent_violation=max_increase,
        residual_drift=drift,
    )


def kkt_check(design, pen: PenaltySpec, coef: np.ndarray) -> float:
    """Largest stationarity violation of an internal-coordinate solution.

    Nonzero groups must balance the loss gradient against the penalty
    gradient along the group direction; zero groups must have loss gradient
    norm at most the penalty's slope at zero (c_j * lam for every family
    here).  Returns the maximum over groups.
    """
    if pen.family not in GCD_FAMILIES:
        raise UnsupportedFamily(f"kkt_check handles {GCD_FAMILIES} only")
    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    g = design.X.T @ r / design.n
    nb = design.group_l2(coef)
    lam_j = design.cj * pen.lam
    slope = rho_prime(nb, lam_j, pen.gamma, _KKT_FAMILY[pen.family])
    nonzero = nb > 0
    dims = design.dims
    # a zero group keeps g_j itself (its coefficients are zero)
    v = design.group_l2(
        g - np.repeat(slope, dims) * coef / np.repeat(np.where(nonzero, nb, 1.0), dims)
    )
    return float(np.max(np.where(nonzero, v, np.maximum(v - lam_j, 0.0))))


def fit_path(
    design,
    pen_template: PenaltySpec,
    n_lambda: int = 100,
    lambda_min_ratio: float = None,
    gamma_grid=None,
    warm_start: str = "previous_lambda",
    lambdas: np.ndarray = None,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> SolutionPath:
    """Warm-started pathwise fits over a (lambda, gamma) grid.

    Two warm-start strategies are available: ``previous_lambda`` chains
    each fit from the solution at the previous (larger) lambda, and
    ``group_lasso_init`` starts every concave fit from the group LASSO
    solution at the same lambda (itself computed as a chained path).
    Non-converged points are recorded as such rather than aborting.
    """
    if warm_start not in ("previous_lambda", "group_lasso_init"):
        raise ValueError(f"unknown warm start strategy {warm_start!r}")
    lam_max = lambda_max(design)
    if lambdas is None:
        if lambda_min_ratio is None:
            lambda_min_ratio = default_min_ratio(design)
        lambdas = lambda_grid(lam_max, n_lambda, lambda_min_ratio)
    else:
        lambdas = np.asarray(lambdas, dtype=float)
    if gamma_grid is None:
        gamma_grid = [pen_template.gamma]

    glasso_chain = None
    if warm_start == "group_lasso_init":
        glasso_chain = []
        b = np.zeros(design.p)
        for lam in lambdas:
            fit = fit_gcd(
                design,
                PenaltySpec("glasso", lam=float(lam)),
                init=b,
                tol=tol,
                max_iter=max_iter,
            )
            glasso_chain.append(fit.coef)
            b = fit.coef

    grid = []
    fits = []
    for gamma in gamma_grid:
        pen_g = pen_template.with_gamma(float(gamma))
        b = np.zeros(design.p)
        for i, lam in enumerate(lambdas):
            if warm_start == "group_lasso_init":
                b = glasso_chain[i]
            fit = fit_gcd(
                design, pen_g.with_lam(float(lam)), init=b, tol=tol, max_iter=max_iter
            )
            grid.append((float(lam), float(gamma)))
            fits.append(fit)
            b = fit.coef
    return SolutionPath(
        family=pen_template.family, grid=grid, fits=fits, lambda_max=lam_max
    )
