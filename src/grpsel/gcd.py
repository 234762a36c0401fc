"""The block-descent engine, and group coordinate descent for 2-norm penalties.

Every solver in the package cycles over the groups, exactly minimizes a
one-group (or one-coordinate) surrogate and keeps one running vector, the
loss gradient ``c = X'(y - Xb)/n``.  That loop is written once, in
``_descend``: starting values, the running gradient and its periodic
refresh, the convergence and non-finite tests, the per-update descent
check and the ``FitResult``, whose objective and stationarity residual
come from ``penalties.objective`` and ``penalties.stationarity`` for every
family.  Each family supplies only one sweep: ``fit_gcd`` here, ``fit_lcd``
and ``fit_sparse_group_lasso`` in ``bilevel``.

One group coordinate descent step exactly minimizes the penalized criterion
over a single group, holding the others fixed: with orthonormalized blocks
the group subproblem is a single-group model whose solution is one of the
closed-form threshold operators.  Cycling over groups until the
coefficients stop moving yields the group LASSO / group MCP / group SCAD
fits; each step is guaranteed not to increase the objective.  Pathwise fits
(``paths.solution_path``) proceed down a log-spaced grid from
``lambda_max`` (where the solution is identically zero), warm-starting
each fit from its neighbor.

The running gradient (glmnet's covariance updates: Friedman, Hastie &
Tibshirani 2010, JSS 33(1)).  Every sweep, and each column of
``fit_gcd_columns``, keeps ``c`` instead of the residual, so a visit of
group j reads ``c_j`` with no product (``z_j = c_j + b_j`` here), and a
move of group j by ``diff`` is one product ``c -= diff @ R_j`` with ``R_j
= X_j'X/n`` (``design.gram_row``, built the first time group j moves and
kept on the design).  Only the groups that ever move get their d_j x p
rows, which on a wide design is a small share of the p x p Gram matrix.

Skipping zero groups.  ``fit_gcd`` and ``fit_sparse_group_lasso`` share
one sweep, ``_group_sweep``, and supply only its visit.  Walking the groups
in order, it keeps ``moved``, the sum of ``w_k ||diff_k||`` over the
cycle's updates so far, and leaves a zero group j untouched when ``need_j
+ rate_j * moved <= level_j``, ``need_j`` from ``c`` at the cycle's start.
Here ``need_j = ||c_j||``, rates and weights are 1 (``1.0 * x == x``) and
``level_j = lam_j = design.cj[j] * lam``; sgl's proof is in ``bilevel``.
Proof that the skip is exact here: with ``(1/n) X_j'X_j = I`` every block
has spectral norm ``sqrt(n)``, so updating group k by ``diff`` moves
``c_m`` of every other group by ``||X_m'X_k diff||/n <= ||diff||``; hence
``||z_j|| <= ||c_j|| + moved <= lam_j`` at the visit, and every 2-norm
threshold operator maps such a ``z_j`` to zero.  The iterates, the cycle
count and the convergence test are those of the sweep that updates every
group.

Python floats.  A group update makes one numpy product, ``c -= diff @
R_j``, and only when the group moves; a visit makes none.  The rest, from
the visit through the move's largest entry and length, works on lists of
floats with the IEEE operations of the numpy formulas; only sums of
squares, such as the threshold's ``||z||**2`` (see ``solve_single_group``),
are taken left to right.  A move with a NaN entry has a NaN step, as
``np.max`` would give: it is not applied, and the cycle's largest move is
NaN, so the fit cannot count as converged.

Anderson acceleration (Anderson 1965; for coordinate descent, Bertrand &
Massias 2021).  For the bi-level sweeps, ``_descend`` extrapolates after
every ``ANDERSON_K + 1`` cycles to the affine combination of the window's
iterates with the smallest residual, keeping the current iterate's zeros at
zero (so a bridge group frozen inside the window stays frozen).  The point
is taken only if ``objective`` strictly decreases, so descent stays
monotone; the window restarts either way.  ``fit_gcd`` does not extrapolate:
its fits take about 8 cycles, too few for the window to pay off.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NotOrthonormalized, UnsupportedFamily
from .penalties import (TWO_NORM_FAMILIES, PenaltySpec, objective, solve_single_group,
                        solve_single_group_columns, stationarity)
# the group KKT check's older name, which the traced benchmark wraps
from .penalties import stationarity as kkt_check  # noqa: F401

# Anderson extrapolates from windows of ANDERSON_K + 1 cycle iterates; 0 turns it off.
ANDERSON_K = 5


@dataclass
class FitResult:
    """A converged (or best-effort) fit at one penalty setting.

    ``beta`` is reported in the caller's coordinates and column order;
    ``coef`` is the same solution in the design's internal (transformed)
    coordinates, which is what warm starts and the objective use.  The
    penalty point is the solver's ``PenaltySpec`` or ``SolutionPath.grid``.
    ``residual_drift`` is the largest entry of the difference between the
    solver's running gradient at the end and the loss gradient ``X'r/n``
    recomputed from ``coef``.
    """

    beta: np.ndarray
    coef: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_max_violation: float
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

    grid: list
    fits: list
    lambda_max: float

    def coef_matrix(self) -> np.ndarray:
        return np.array([f.beta for f in self.fits])


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
    """A fresh copy of the starting coefficients (zeros when ``init`` is None).

    A NaN or infinite start raises ``NonFiniteInput`` before any work.
    """
    if init is None:
        return np.zeros(design.p)
    b = np.asarray(init, dtype=float).ravel().copy()
    if b.shape != (design.p,):
        raise ValueError("init has the wrong length")
    if not np.isfinite(b).all():
        raise NonFiniteInput("init contains NaN or infinite entries")
    return b


def _extrapolate(window):
    """The Anderson point of the window's K+1 iterates; None when the system fails.

    With ``U`` the K successive differences, the weights ``c`` summing to one
    that minimize ``||U'c||`` are ``(UU')^{-1} 1`` normalized.  The point is
    ``sum_k c_k x_k`` over the last K iterates, zero wherever the last one is.
    """
    iterates = np.array(window)
    U = np.diff(iterates, axis=0)
    try:
        z = np.linalg.solve(U @ U.T, np.ones(len(U)))
    except np.linalg.LinAlgError:
        return None  # a singular system
    total = float(z.sum())
    if not (np.isfinite(z).all() and total != 0.0):
        return None
    point = z / total @ iterates[1:]
    point[iterates[-1] == 0.0] = 0.0
    return point


def _descend(design, pen: PenaltySpec, init, sweep, tol, max_iter, check_descent,
             accelerate=False) -> FitResult:
    """The cycle loop shared by every solver.

    ``sweep(b, c, note)`` runs one cycle over the groups, updating the
    coefficients ``b`` and the running gradient ``c = X'(y - Xb)/n`` in
    place, calls ``note()`` (when it is not None) after every group or
    coordinate update, and returns the largest coefficient move of the
    cycle.  ``c`` is recomputed from ``b`` at the start and every 100
    cycles.  Convergence is declared when no coefficient moves by more than
    ``tol`` over a cycle; if ``max_iter`` cycles pass without that, or ``c``
    turns non-finite, the last iterate is returned with ``converged=False``.
    With ``accelerate``, every ``ANDERSON_K + 1`` unconverged cycles end in
    an Anderson attempt (module docstring).  An accepted point refreshes
    ``c`` and is ``note()``d; a singular or non-finite system skips it.
    """
    n, p, X, y = design.n, design.p, design.X, design.y
    b = _start(design, init)

    def fresh(b):
        return X.T @ (y - X @ b if np.any(b) else y) / n

    c = fresh(b)

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
    window, size = [], ANDERSON_K + 1 if accelerate and ANDERSON_K else 0
    for it in range(1, max_iter + 1):
        iterations = it
        delta = sweep(b, c, note)
        if not np.isfinite(c).all():
            break  # a non-finite running gradient can never count as converged
        if delta <= tol:
            converged = True
            break
        if size:
            window.append(b.copy())
            if len(window) == size:
                point, window = _extrapolate(window), []
                if point is not None and objective(design, point, pen) < objective(design, b, pen):
                    b[:] = point
                    c = fresh(b)
                    if note:
                        note()
        if it % 100 == 0:
            c = fresh(b)  # guard against floating-point drift in the running gradient

    # one residual and one gradient for the drift, the objective and the stationarity
    r = y - X @ b
    g = X.T @ r / n
    drift = float(np.max(np.abs(c - g))) if p else 0.0
    return FitResult(
        beta=design.back_transform(b),
        coef=b,
        objective=objective(design, b, pen, r),
        iterations=iterations,
        converged=converged,
        kkt_max_violation=stationarity(design, pen, b, g=g),
        # no update noted (every group frozen) means no increase either
        max_descent_violation=0.0 if max_increase == -math.inf else max_increase,
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
    without that, or the running gradient turns non-finite, the last
    iterate is returned with ``converged=False``.
    With ``check_descent`` the objective is evaluated after every group
    update and the largest observed increase is recorded (it should never
    exceed roundoff).

    For the concave families the result is a stationary point, not
    necessarily a global minimizer.
    """
    _check_gcd(design, pen, "fit_gcd")
    gamma, family = pen.gamma, pen.family
    thresholds, ones = (design.cj * pen.lam).tolist(), [1.0] * design.J

    def visit(j, c_j, b_j):
        z = [ck + bk for ck, bk in zip(c_j, b_j)]
        return solve_single_group(z, thresholds[j], gamma, family)

    sweep = _group_sweep(design, lambda c: design.group_l2(c).tolist(), thresholds,
                         ones, ones, visit)
    return _descend(design, pen, init, sweep, tol, max_iter, check_descent)


def _group_sweep(design, skip_norms, levels, rates, weights, visit):
    """``_descend``'s ``sweep(b, c, note)`` for an exact group move (module docstring).

    ``visit(j, c_j, b_j)`` maps group j's gradient and coefficients, lists
    of floats, to its new coefficients; ``skip_norms(c)`` lists ``need_j``.
    """
    bounds = [(start, start + size) for start, size in design.groups]

    def sweep(b, c, note):
        need = skip_norms(c)
        nonzero = np.logical_or.reduceat(b != 0, design.starts).tolist()
        delta = moved = 0.0
        for j, (a, e) in enumerate(bounds):
            if not nonzero[j] and need[j] + rates[j] * moved <= levels[j]:
                # the exact update leaves this zero group at zero
                if note:
                    note()
                continue
            old = b[a:e].tolist()
            new = visit(j, c[a:e].tolist(), old)
            diff = [v - w for v, w in zip(new, old)]
            ss = 0.0
            for v in diff:
                ss += v * v
            # a NaN move is a NaN step, as np.max would give: it is not
            # applied, and it leaves delta NaN so the cycle cannot converge
            step = ss if ss != ss else max(map(abs, diff))
            if step > 0:
                c -= np.dot(np.array(diff), design.gram_row(j))
                b[a:e] = new
                moved += weights[j] * math.sqrt(ss)
            delta = max(delta, step) if step == step else step
            if note:
                note()
        return delta

    return sweep


def _check_gcd(design, pen, name):
    if pen.family not in TWO_NORM_FAMILIES:
        raise UnsupportedFamily(f"{name} handles {TWO_NORM_FAMILIES}, not {pen.family!r}")
    if not design.orthonormalized:
        raise NotOrthonormalized(f"{name} requires a design built with orthonormalize=True")


def fit_gcd_columns(design, pen: PenaltySpec, Y: np.ndarray, init: np.ndarray = None,
                    tol: float = 1e-7, max_iter: int = 10_000):
    """``fit_gcd`` on every column of the n x R response matrix ``Y``, in one descent.

    Returns the p x R internal coefficients and the per-column cycle counts
    and convergence flags.  Column k takes the steps of ``fit_gcd`` on
    ``design.with_response(Y[:, k])`` from ``init[:, k]``: its own ``moved``
    sum, zero-group skip and stops.  Only the order of floating-point sums
    differs.  A column that has stopped no longer changes.  Each column
    keeps its running gradient, as ``fit_gcd`` does.

    The per-call cost is numpy overhead, so each cycle evaluates the skip
    test of every group and column at once, as a J x R mask of the columns
    whose group j must be updated, and reads from a list of Python bools
    whether some column needs group j.  ``moved`` changes only when a group
    moves, so the mask is recomputed only then, and a group that no column
    needs costs one list lookup.  A group that some column needs is updated
    on the whole slices ``c[a:e]`` and ``b[a:e]``: a column that skips it,
    or has a NaN step, gets a zero move.  The last bits of a column may
    still depend on R: BLAS rounds ``R_j' diff`` otherwise on fewer than
    about 8 columns, and ``einsum`` the norms of 3+-column groups when wide.
    """
    _check_gcd(design, pen, "fit_gcd_columns")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != design.n:
        raise DimensionMismatch(f"Y must be a matrix with {design.n} rows")
    if not np.isfinite(Y).all():
        raise NonFiniteInput("Y contains NaN or infinite entries")
    n, X, R = design.n, design.X, Y.shape[1]
    B = np.zeros((design.p, R)) if init is None else np.array(init, dtype=float)
    if B.shape != (design.p, R):
        raise ValueError("init has the wrong shape")
    if not np.isfinite(B).all():
        raise NonFiniteInput("init contains NaN or infinite entries")
    thresholds = (design.cj * pen.lam).tolist()
    lam_j = np.array(thresholds)[:, None]
    bounds = [(a, a + d) for a, d in design.groups]
    iterations, converged = np.zeros(R, dtype=int), np.zeros(R, dtype=bool)
    run, b = np.arange(R), B.copy()  # the columns still cycling, and their coefficients
    c = X.T @ (Y - X @ b if b.any() else Y) / n  # their running gradients
    for it in range(1, max_iter + 1):
        c_norms = np.sqrt(np.add.reduceat(c * c, design.starts))
        nonzero = np.logical_or.reduceat(b != 0, design.starts)
        delta, moved = np.zeros((2, run.size))
        stale = True
        for j, (a, e) in enumerate(bounds):
            if stale:  # moved has changed: redo the skip test of every group and column
                mask = nonzero | ~(c_norms + moved <= lam_j)
                some, stale = mask.any(axis=1).tolist(), False
            if not some[j]:
                continue  # the skip of fit_gcd leaves group j at zero in every column
            old = b[a:e]
            new = solve_single_group_columns(c[a:e] + old, thresholds[j], pen.gamma,
                                             pen.family)
            diff = new - old
            step = np.max(np.abs(diff), axis=0)
            np.maximum(delta, step, out=delta, where=mask[j])  # a NaN step stays NaN
            up = mask[j] & (step > 0)  # False for a NaN step, as in fit_gcd
            if not up.any():
                continue
            diff = np.where(up, diff, 0.0)  # a column that skips or has a NaN step stays put
            c -= design.gram_row(j).T @ diff
            b[a:e] = np.where(up, new, old)
            moved += np.sqrt(np.einsum("ij,ij->j", diff, diff))
            stale = True
        iterations[run] = it
        finite = np.isfinite(c).all(axis=0)  # a non-finite gradient stops unconverged
        converged[run] = finite & (delta <= tol)
        stop = ~finite | (delta <= tol)
        if stop.any():
            B[:, run[stop]] = b[:, stop]
            run, b, c = run[~stop], b[:, ~stop], c[:, ~stop]
            if not run.size:
                break
        if it % 100 == 0:
            c = X.T @ (Y[:, run] - X @ b) / n  # guard against drift in the running gradients
    B[:, run] = b
    return B, iterations, converged


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

    if pen_template.family not in TWO_NORM_FAMILIES:
        raise UnsupportedFamily(f"fit_path handles {TWO_NORM_FAMILIES} only")
    config = PathConfig(n_lambda, lambda_min_ratio, gamma_grid, warm_start, tol, max_iter)
    return solution_path(design, pen_template, config, lambdas)
