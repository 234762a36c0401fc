"""The block-descent engine, and group coordinate descent for 2-norm penalties.

Every solver in the package cycles over the groups, exactly minimizes a
one-group (or one-coordinate) surrogate and keeps a running residual.  That
loop is written once, in ``_descend``: starting values, the residual and
its periodic refresh, the convergence and non-finite tests, the per-update
descent check and the ``FitResult``.  Each family supplies only one sweep
and its stationarity check: ``fit_gcd`` here, ``fit_lcd`` and
``fit_sparse_group_lasso`` in ``bilevel``.

One group coordinate descent step exactly minimizes the penalized criterion
over a single group, holding the others fixed: with orthonormalized blocks
the group subproblem is a single-group model whose solution is one of the
closed-form threshold operators.  Cycling over groups until the
coefficients stop moving yields the group LASSO / group MCP / group SCAD
fits; each step is guaranteed not to increase the objective.  Pathwise fits
(``paths.solution_path``) proceed down a log-spaced grid from
``lambda_max`` (where the solution is identically zero), warm-starting
each fit from its neighbor.

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
from .penalties import _GROUP_RHO, PenaltySpec, objective, rho_prime, solve_single_group

# the 2-norm group families and the scalar penalty applied to each group norm
_GROUP_PENALTY = {fam: kind for fam, (kind, norm) in _GROUP_RHO.items() if norm == "l2"}


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


def _start(design, init) -> np.ndarray:
    """A fresh copy of the starting coefficients (zeros when ``init`` is None)."""
    if init is None:
        return np.zeros(design.p)
    b = np.asarray(init, dtype=float).ravel().copy()
    if b.shape != (design.p,):
        raise ValueError("init has the wrong length")
    return b


def _descend(design, pen: PenaltySpec, init, sweep, stationarity, tol, max_iter,
             check_descent) -> FitResult:
    """The cycle loop shared by every solver.

    ``sweep(b, r, note)`` runs one cycle over the groups, updating the
    coefficients ``b`` and the running residual ``r`` in place, calls
    ``note()`` (when it is not None) after every group or coordinate
    update, and returns the largest coefficient move of the cycle.
    ``stationarity(b)`` is the family's stationarity residual.  Convergence
    is declared when no coefficient moves by more than ``tol`` over a cycle;
    if ``max_iter`` cycles pass without that, or the residual turns
    non-finite, the last iterate is returned with ``converged=False``.
    """
    p, X, y = design.p, design.X, design.y
    b = _start(design, init)
    r = y - X @ b if np.any(b) else y.copy()

    note = None
    max_increase = None
    if check_descent:
        # the largest objective increase over single updates (roundoff only)
        max_increase = -math.inf
        prev_obj = objective(design, b, pen)

        def note():
            nonlocal max_increase, prev_obj
            obj = objective(design, b, pen)
            max_increase = max(max_increase, obj - prev_obj)
            prev_obj = obj

    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        delta = sweep(b, r, note)
        if not np.isfinite(r).all():
            break  # a non-finite residual can never count as converged
        if delta <= tol:
            converged = True
            break
        if it % 100 == 0:
            # guard against floating-point drift in the running residual
            r = y - X @ b

    drift = float(np.max(np.abs(r - (y - X @ b)))) if p else 0.0
    sgl = pen.family == "sgl"
    return FitResult(
        beta=design.back_transform(b),
        coef=b,
        objective=objective(design, b, pen),
        iterations=iterations,
        converged=converged,
        kkt_max_violation=stationarity(b),
        lam=pen.lam,
        gamma=None if sgl else pen.shape_param,
        lam2=pen.lam2 if sgl else None,
        max_descent_violation=max_increase,
        residual_drift=drift,
    )


def fit_gcd(
    design,
    pen: PenaltySpec,
    init: np.ndarray = None,
    tol: float = 1e-7,
    max_iter: int = 10_000,
    check_descent: bool = False,
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
    necessarily a global minimizer.
    """
    if pen.family not in _GROUP_PENALTY:
        raise UnsupportedFamily(
            f"fit_gcd handles {tuple(_GROUP_PENALTY)}, not {pen.family!r}"
        )
    if not design.orthonormalized:
        raise NotOrthonormalized(
            "fit_gcd requires a design built with orthonormalize=True"
        )
    n, X = design.n, design.X
    gamma, family = pen.gamma, pen.family
    bounds = [(start, start + size) for start, size in design.groups]
    thresholds = (design.cj * pen.lam).tolist()

    def sweep(b, r, note):
        g = X.T @ r / n + b
        g_norms = design.group_l2(g).tolist()
        nonzero = np.logical_or.reduceat(b != 0, design.starts).tolist()
        delta = moved = 0.0
        for j, (a, e) in enumerate(bounds):
            if not nonzero[j] and g_norms[j] + moved <= thresholds[j]:
                # the exact update leaves this zero group at zero (see above)
                if note:
                    note()
                continue
            # until something moves, r is the residual g was computed from
            z = g[a:e] if moved == 0.0 else X[:, a:e].T @ r / n + b[a:e]
            new = solve_single_group(z, thresholds[j], gamma, family)
            diff = new - b[a:e]
            step = np.max(np.abs(diff))
            if step > 0:
                r -= X[:, a:e] @ diff
                b[a:e] = new
                moved += math.sqrt(diff @ diff)
            delta = max(delta, step)
            if note:
                note()
        return delta

    return _descend(design, pen, init, sweep, lambda b: kkt_check(design, pen, b),
                    tol, max_iter, check_descent)


def kkt_check(design, pen: PenaltySpec, coef: np.ndarray) -> float:
    """Largest stationarity violation of an internal-coordinate solution.

    Nonzero groups must balance the loss gradient against the penalty
    gradient along the group direction; zero groups must have loss gradient
    norm at most the penalty's slope at zero (c_j * lam for every family
    here).  Returns the maximum over groups.
    """
    if pen.family not in _GROUP_PENALTY:
        raise UnsupportedFamily(f"kkt_check handles {tuple(_GROUP_PENALTY)} only")
    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    g = design.X.T @ r / design.n
    nb = design.group_l2(coef)
    lam_j = design.cj * pen.lam
    slope = rho_prime(nb, lam_j, pen.gamma, _GROUP_PENALTY[pen.family])
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
    """``paths.solution_path`` for a 2-norm family, settings passed one by one.

    ``warm_start`` is ``previous_lambda`` (chain down the grid) or
    ``group_lasso_init`` (start each concave fit from the group LASSO path).
    """
    from .paths import PathConfig, solution_path  # paths imports this module

    if pen_template.family not in _GROUP_PENALTY:
        raise UnsupportedFamily(f"fit_path handles {tuple(_GROUP_PENALTY)} only")
    config = PathConfig(n_lambda, lambda_min_ratio, gamma_grid, warm_start, tol, max_iter)
    return solution_path(design, pen_template, config, lambdas)
