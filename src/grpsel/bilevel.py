"""Bi-level selection: fits that are sparse in groups and within groups.

Two sweeps for the block-descent engine (``gcd._descend``), both operating
on standardized (not orthonormalized) columns so that coordinate-wise zeros
survive the mapping back to the caller's coordinates:

* Local coordinate descent (``fit_lcd``) for the group bridge (a concave
  penalty of the group 1-norm) and for the composite MCP (an MCP of summed
  per-coordinate MCPs).  Each coordinate update replaces the penalty by its
  tangent line at the current iterate, which majorizes the concave penalty,
  and solves the resulting one-dimensional LASSO with the soft-threshold
  operator.  The exact objective therefore never increases.  Like every
  solver here it runs on the engine's running gradient ``c = X'r/n``
  (``gcd`` docstring): a group visit reads ``c_j``, takes for each
  coordinate in order ``z_k = c_k - sum_l G_kl * diff_l + b_k`` over the
  coordinates already moved in the visit (``G = X_j'X_j/n``, cached per
  design), and applies its moves at the end, a bridge freeze included, as
  one ``c -= diff @ R_j``.  The tangent slopes are computed inline in
  Python floats, in the order of operations of ``_mcp``/``_mcp_prime`` and
  ``rho_prime``: a group's inner MCPs (bridge: its ``|b_k|``) are summed left
  to right, and summed again only after a move changes one.  ``soft_threshold``
  takes its scalar path, so the iterates are those of the per-coordinate
  loop up to rounding.  ``note()`` (with ``check_descent``) reads ``b`` alone.

* Blockwise proximal descent (``fit_sparse_group_lasso``) for the convex
  additive penalty lam1*||b||_1 + lam2*sum_j ||b_j||_2.  Per group the
  quadratic is majorized with the block Lipschitz constant L_j (top
  eigenvalue of ``X_j'X_j/n``, cached per design), and the exact proximal map
  is the coordinate-wise soft threshold followed by the group soft
  threshold.  It runs ``fit_gcd``'s sweep (``gcd`` docstring) with its
  own visit and skip values.

Both sweeps run with the engine's Anderson extrapolation (``gcd``
docstring), which keeps the current iterate's zeros at zero: frozen bridge
groups stay frozen, and the skips below read ``b`` afresh each cycle.

Zero-group skips, as in ``fit_gcd``: from ``c`` at the cycle's start, a
zero group whose visit provably moves nothing is left alone (one ``note()``).
sgl (Simon et al. 2013, JCGS 22:231): a visit keeps group j at zero when
``||soft(c_j, lam1)|| <= lam2``; a move ``diff_k`` shifts ``c_j`` by
``X_j'X_k diff_k/n``, at most ``sqrt(L_j L_k)||diff_k||``, and soft
thresholding is 1-Lipschitz, so ``||soft(c_j, lam1)|| + sqrt(L_j) * moved
<= lam2``, with ``moved`` the sum of ``sqrt(L_k)||diff_k||`` over the
cycle so far, is enough.  cmcp (lam > 0): each tangent weight at a zero
group is ``lam*(lam*1.0)``, and a move ``diff_m`` shifts ``c_k`` by at most
``|diff_m|`` on standardized columns, so ``max_k |c_k| + shift <= lam**2``
(``shift``: the cycle's summed ``|diff|``) is enough.  Rounding: the test
and the visit read the same running vector, so only the in-cycle updates
of ``c`` and the visit's own threshold round, and each test adds
``SKIP_SLACK * (moved + lam1 + lam2)`` per entry (cmcp: ``lam**2`` for the
levels; sgl: times ``sqrt(d_j)``).  An update by group k rounds each entry
by at most ``n u`` per unit of ``|diff_k|`` in the ``n``-term products that
built ``R_k``, ``(d_k + 1) u`` relative in ``diff_k @ R_k`` and ``u |c_i|``
in the subtraction (``u = 2**-53``, any summation order); with ``L_k >= 1``
and ``|c_i|`` within the levels plus ``moved`` wherever a test passes,
``SKIP_SLACK`` exceeds these and the thresholds' few ``u (lam1 + lam2)``
while ``n * sqrt(d) + p < 2**22`` for every group size ``d``; tie rules
only zero more.
"""

import math

import numpy as np

from .errors import UnsupportedFamily
from .gcd import FitResult, SolutionPath, _descend, _group_sweep, _start
# ``objective``, ``soft_threshold_vec`` and ``lcd_stationarity`` (the LCD
# fixed-point residual under its older name) are not called here; the traced
# benchmark looks them up in this module by name.
from .penalties import (  # noqa: F401
    BRIDGE_FREEZE_TOL,
    PenaltySpec,
    _mcp,
    _mcp_prime,
    _shrunk,
    objective,
    soft_threshold,
    soft_threshold_vec,
    stationarity,
)
from .penalties import stationarity as lcd_stationarity  # noqa: F401

LCD_FAMILIES = ("gbridge", "cmcp")

SKIP_SLACK = 2.0 ** -30  # the zero-group skips' rounding margin (module docstring)


def composite_threshold(beta_group: np.ndarray, k: int, lam: float,
                        gamma_inner: float) -> float:
    """Per-coordinate soft-threshold level of the composite MCP.

    The chain rule on the composed penalty gives
    outer'(sum of inner values) * inner'(|beta_k|); both factors are MCP
    derivatives.  The outer concavity of a group of size d is
    ``d * gamma_inner * lam / 2``, so the outer penalty saturates exactly
    when every coordinate's inner penalty does.  At an all-zero group this
    is lam**2, and it vanishes as soon as every |beta| in the group reaches
    gamma_inner * lam.  ``fit_lcd`` computes the same product in Python
    floats inside its sweep and does not call this function.
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
    the rest of the fit, where ``stationarity`` counts it as stationary.
    """
    if pen.family not in LCD_FAMILIES:
        raise UnsupportedFamily(f"fit_lcd does not handle {pen.family!r}")
    if design.orthonormalized:
        raise ValueError(
            "fit_lcd needs a design built with orthonormalize=False; "
            "orthonormalization does not preserve coordinate-wise sparsity"
        )
    lam, cmcp = pen.lam, pen.family == "cmcp"
    bounds = [(start, start + size) for start, size in design.groups]
    grams, rows = design.block_grams, design.gram_rows
    freezing = pen.family == "gbridge" and lam > 0
    frozen = [False] * design.J
    if pen.family == "gbridge":
        init = least_squares_init(design) if init is None else _start(design, init)
        if freezing:
            frozen = (design.group_sums(np.abs(init)) < BRIDGE_FREEZE_TOL).tolist()
            init[np.repeat(frozen, design.dims)] = 0.0
    skipping = cmcp and lam > 0
    if skipping:
        gi = pen.gamma_inner
        gil, two_gi, cap = gi * lam, 2 * gi, gi * lam**2 / 2
        room = lam * lam - SKIP_SLACK * (lam * lam)  # the skip test's bound (module docstring)
        # gamma*lam of each group's outer MCP, whose gamma is d_j*gamma_inner*lam/2
        outer_gl = [size * gi * lam / 2 * lam for _, size in design.groups]
    elif freezing:
        gm1 = pen.gamma - 1
        scales = [pen.gamma * v for v in (design.cj * lam).tolist()]

    def sweep(b, c, note):
        delta = shift = 0.0  # shift: the sum of |diff| over the cycle's moves
        if skipping:
            cmax = np.maximum.reduceat(np.abs(c), design.starts).tolist()
            nonzero = np.logical_or.reduceat(b != 0, design.starts).tolist()
        b_in = b.tolist()  # b at the cycle's start; group j's entries change at its visit
        for j, (a, e) in enumerate(bounds):
            if frozen[j]:
                continue
            if skipping and not nonzero[j] and cmax[j] + (1.0 + SKIP_SLACK) * shift <= room:
                # the exact visit leaves this zero group at zero (see above)
                if note:
                    note()
                continue
            old = b_in[a:e]
            bj, c_j = list(old), c[a:e].tolist()
            diffs, moved = [0.0] * (e - a), []  # moves not yet applied to c
            w, fresh = 0.0, bool(lam)  # fresh: the terms changed since factor was summed
            if skipping:  # terms: the visit's inner MCPs (cmcp) or |b_k| (gbridge)
                ogl = outer_gl[j]
                terms = [lam * t - t * t / two_gi if t <= gil else cap for t in map(abs, bj)]
            elif freezing:
                terms, scale = list(map(abs, bj)), scales[j]
            for k, Gk in enumerate(grams[j]):
                if fresh:  # factor: the terms added left to right, as numpy adds so few
                    factor, fresh = 0.0, False
                    for v in terms:
                        factor += v
                    if skipping:  # the outer MCP slope at the sum
                        u = 1.0 - factor / ogl
                        factor = 0.0 if u < 0.0 else lam * u
                # the slope of the penalty's tangent line in this coordinate
                if skipping:
                    t = abs(bj[k])
                    w = 0.0 if t >= gil else factor * (lam * (1.0 - t / gil))
                elif freezing:
                    w = scale * factor ** gm1
                # z = c_k + b_k, with c_k moved by the visit's earlier moves
                s = 0.0
                for m in moved:
                    s += Gk[m] * diffs[m]
                new = soft_threshold(c_j[k] - s + bj[k], w)
                diff = new - bj[k]
                if diff != 0.0:
                    bj[k] = new
                    diffs[k] = diff
                    moved.append(k)
                    diff = abs(diff)
                    delta = diff if diff > delta else delta
                    shift += diff
                    if lam:
                        t = abs(new)
                        if skipping:
                            t = lam * t - t * t / two_gi if t <= gil else cap
                        fresh = t != terms[k]  # an unchanged term leaves the factor as it is
                        terms[k] = t
                if note:
                    b[a:e] = bj
                    note()
                if freezing:
                    if fresh:  # the freeze test reads the new 1-norm
                        factor, fresh = 0.0, False
                        for v in terms:
                            factor += v
                    if factor < BRIDGE_FREEZE_TOL:
                        # the tangent slope diverges at zero: pin the group there
                        bj, diffs = [0.0] * (e - a), [0.0 - v for v in old]
                        frozen[j] = True
                        break
            if any(diffs):  # the visit's moves, a freeze included, reach c in one product
                c -= np.dot(diffs, design.gram_row(j) if rows[j] is None else rows[j])
            if moved or frozen[j]:
                b[a:e] = bj
        return delta

    return _descend(design, pen, init, sweep, tol, max_iter, check_descent, accelerate=True)


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
    regardless of the starting value.
    """
    pen = PenaltySpec("sgl", lam=lam1, lam2=lam2)
    if design.orthonormalized:
        raise ValueError(
            "fit_sparse_group_lasso needs a design built with orthonormalize=False"
        )
    lips = design.block_lipschitz
    steps = [(L, lam1 / L, lam2 / L) for L in lips]  # L, both thresholds in units of zt
    slack = SKIP_SLACK * np.sqrt(design.dims)

    def visit(j, c_j, b_j):
        L, t1, t2 = steps[j]
        u = [soft_threshold(bk + ck / L, t1) for ck, bk in zip(c_j, b_j)]
        ss = 0.0
        for v in u:
            ss += v * v
        return _shrunk(u, t2, math.sqrt(ss))

    sweep = _group_sweep(
        design,
        lambda c: (design.group_l2(np.maximum(np.abs(c) - lam1, 0.0))
                   + slack * (lam1 + lam2)).tolist(),
        [lam2] * design.J, (np.sqrt(lips) + slack).tolist(), np.sqrt(lips).tolist(), visit)
    return _descend(design, pen, init, sweep, tol, max_iter, check_descent, accelerate=True)


def sgl_kkt(design, coef: np.ndarray, lam1: float, lam2: float) -> float:
    """``stationarity`` of the sparse group LASSO at levels ``lam1`` and ``lam2``."""
    return stationarity(design, PenaltySpec("sgl", lam=lam1, lam2=lam2), coef)


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
