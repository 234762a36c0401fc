"""Independent reference computations used as test oracles.

Everything here recomputes expected values by a route separate from the
package code: quadrature of the defining penalty integrands, brute-force
radial grids with golden-section polish for the group threshold operators,
numeric minimization for proximal maps, and a plain coordinate-descent
LASSO.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize


def rho_quadrature(t, lam, gamma, family):
    """Penalty value by numerical quadrature of its defining integrand."""
    if family == "l1":
        return lam * t
    if family == "mcp":
        kinks = [s for s in (gamma * lam,) if 0 < s < t]
        val, _ = quad(lambda s: lam * max(1 - s / (gamma * lam), 0.0), 0, t,
                      points=kinks or None, epsabs=1e-12, limit=200)
        return val
    if family == "scad":
        kinks = [s for s in (lam, gamma * lam) if 0 < s < t]
        val, _ = quad(
            lambda s: lam * min(1.0, max(gamma - s / lam, 0.0) / (gamma - 1)), 0, t,
            points=kinks or None, epsabs=1e-12, limit=200,
        )
        return val
    if family == "bridge":
        return lam * t**gamma
    raise ValueError(family)


def _pen_radial(r, lam, gamma, family):
    # independent closed forms, written out separately from the package;
    # vectorized over r so the oracle grid stays cheap
    r = np.asarray(r, dtype=float)
    if family == "glasso" or math.isinf(gamma):
        return lam * r
    if family == "gmcp":
        return np.where(
            r < gamma * lam, lam * r - r * r / (2 * gamma), gamma * lam * lam / 2
        )
    if family == "gscad":
        mid = (2 * gamma * lam * r - r * r - lam * lam) / (2 * (gamma - 1))
        out = np.where(r <= lam, lam * r, mid)
        return np.where(r <= gamma * lam, out, lam * lam * (gamma + 1) / 2)
    raise ValueError(family)


def golden_section(g, lo, hi, iters=90):
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - inv_phi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv_phi * (b - a)
            gd = g(d)
    return 0.5 * (a + b)


def single_group_oracle(z, lam, gamma, family, grid_points=4001):
    """Brute-force minimizer of 0.5*||z - theta||^2 + rho(||theta||; lam, gamma).

    The minimizer is collinear with z because, at a fixed radius, the
    quadratic term is smallest along z; the search therefore runs over the
    radius in [0, ||z||] (shrinkage keeps the solution inside), with a dense
    grid followed by golden-section polish around the best cell.
    """
    z = np.asarray(z, dtype=float)
    nz = np.linalg.norm(z)
    if nz == 0:
        return np.zeros_like(z)

    def g(r):
        return 0.5 * (r - nz) ** 2 + _pen_radial(r, lam, gamma, family)

    grid = np.linspace(0.0, nz, grid_points)
    vals = g(grid)
    i = int(np.argmin(vals))
    lo = grid[max(i - 2, 0)]
    hi = grid[min(i + 2, grid_points - 1)]
    r_best = golden_section(g, lo, hi)
    for candidate in (0.0, nz):
        if g(candidate) < g(r_best):
            r_best = candidate
    return (r_best / nz) * z


def hard_threshold(z, lam):
    """Zero below the norm cutoff, identity above: the gamma -> 1 MCP limit."""
    z = np.asarray(z, dtype=float)
    if np.linalg.norm(z) <= lam:
        return np.zeros_like(z)
    return z.copy()


def hard_threshold_star(z, lam):
    """The gamma -> 2 SCAD limit: soft threshold below 2*lam, identity above."""
    from grpsel.penalties import soft_threshold_vec

    z = np.asarray(z, dtype=float)
    if np.linalg.norm(z) <= 2 * lam:
        return soft_threshold_vec(z, lam)
    return z.copy()


def _soft_vec_reference(z, t, nz):
    # (1 - t/||z||)_+ * z with the package's tie rule, in numpy
    if nz == 0.0:
        return np.zeros_like(z)
    shrink = 1.0 - t / nz
    if shrink <= 4 * np.finfo(float).eps:
        return np.zeros_like(z)
    return shrink * z


def solve_single_group_reference(z, lam, gamma, family):
    """The closed-form 2-norm group thresholds in numpy array operations.

    The same branches, tie rule and products as
    ``grpsel.penalties.solve_single_group``, with ||z|| from numpy's dot
    product; ``gamma = inf`` gives the group LASSO operator exactly.
    """
    z = np.asarray(z, dtype=float)
    nz = math.sqrt(z @ z)
    if family == "glasso" or math.isinf(gamma):
        return _soft_vec_reference(z, lam, nz)
    if family == "gmcp":
        if nz <= gamma * lam:
            return (gamma / (gamma - 1)) * _soft_vec_reference(z, lam, nz)
        return z.copy()
    if family == "gscad":
        if nz <= 2 * lam:
            return _soft_vec_reference(z, lam, nz)
        if nz <= gamma * lam:
            t = gamma * lam / (gamma - 1)
            return ((gamma - 1) / (gamma - 2)) * _soft_vec_reference(z, t, nz)
        return z.copy()
    raise ValueError(family)


def sparse_group_prox_oracle(z, t1, t2):
    """Numeric minimizer of 0.5*||z - x||^2 + t1*||x||_1 + t2*||x||_2."""
    z = np.asarray(z, dtype=float)

    def f(x):
        return (
            0.5 * float((x - z) @ (x - z))
            + t1 * float(np.abs(x).sum())
            + t2 * float(np.linalg.norm(x))
        )

    best = np.zeros_like(z)
    best_val = f(best)
    for start in (z, 0.5 * z, np.sign(z) * np.maximum(np.abs(z) - t1 - t2, 0)):
        res = minimize(f, start, method="Powell",
                       options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 20000})
        if res.fun < best_val:
            best, best_val = res.x, res.fun
    return best


def lasso_cd_reference(X, y, lam, tol=1e-13, max_iter=100_000):
    """Plain cyclic coordinate descent for (1/2n)||y - Xb||^2 + lam*||b||_1."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    diag = (X * X).sum(axis=0) / n
    b = np.zeros(p)
    r = y.copy()
    for _ in range(max_iter):
        delta = 0.0
        for k in range(p):
            zk = X[:, k] @ r / n + diag[k] * b[k]
            new = math.copysign(max(abs(zk) - lam, 0.0), zk) / diag[k]
            step = new - b[k]
            if step != 0.0:
                r -= X[:, k] * step
                b[k] = new
                delta = max(delta, abs(step))
        if delta <= tol:
            break
    return b


def subgradient_descent_reference(X, y, lam1, lam2, groups, iters=200_000, seed=0):
    """Slow projected-free subgradient descent for the sparse group LASSO.

    Used only as a corroborating route; accuracy is limited, so compare at
    loose tolerances.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(p) * 0.01
    best = b.copy()

    def obj(v):
        r = y - X @ v
        val = 0.5 * float(r @ r) / n + lam1 * float(np.abs(v).sum())
        for s, d in groups:
            val += lam2 * float(np.linalg.norm(v[s:s + d]))
        return val

    best_val = obj(b)
    for t in range(1, iters + 1):
        r = y - X @ b
        g = -X.T @ r / n + lam1 * np.sign(b)
        for s, d in groups:
            block = b[s:s + d]
            nb = np.linalg.norm(block)
            if nb > 0:
                g[s:s + d] += lam2 * block / nb
        b = b - (0.5 / math.sqrt(t)) * g
        val = obj(b)
        if val < best_val:
            best, best_val = b.copy(), val
    return best


# Per-group references: the group coordinate descent loop that updates every
# group in every cycle, and the per-fit checks computed one group at a time.
# The package versions, which skip zero groups and reduce over all groups at
# once, must reproduce these up to floating-point rounding.


def _mcp_value(t, lam, gamma):
    # MCP without a range check on gamma (the composite outer concavity
    # can drop below 1)
    return lam * t - t * t / (2 * gamma) if t <= gamma * lam else gamma * lam * lam / 2


def composite_mcp_value(b_group, lam, gamma_inner):
    """MCP-of-MCP group penalty: outer MCP of the summed inner MCP values.

    The outer concavity is d * gamma_inner * lam / 2, which makes the outer
    saturation point coincide with the maximum of the summed inner
    penalties: the group penalty tops out exactly when every coordinate
    does.
    """
    if lam == 0:
        return 0.0
    b_group = np.asarray(b_group, dtype=float)
    inner = sum(_mcp_value(abs(float(b)), lam, gamma_inner) for b in b_group)
    return _mcp_value(inner, lam, b_group.size * gamma_inner * lam / 2)


def objective_reference(design, coef, pen):
    """Penalized least squares objective, one group at a time."""
    from grpsel.penalties import rho

    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    value = 0.5 * float(r @ r) / design.n
    lam = pen.lam
    fam = pen.family
    for j, (start, size) in enumerate(design.groups):
        b = coef[start:start + size]
        if fam == "glasso":
            value += lam * design.cj[j] * np.linalg.norm(b)
        elif fam == "gmcp":
            value += rho(np.linalg.norm(b), design.cj[j] * lam, pen.gamma, "mcp")
        elif fam == "gscad":
            value += rho(np.linalg.norm(b), design.cj[j] * lam, pen.gamma, "scad")
        elif fam == "gbridge":
            value += rho(np.abs(b).sum(), design.cj[j] * lam, pen.gamma, "bridge")
        elif fam == "cmcp":
            value += composite_mcp_value(b, lam, pen.gamma_inner)
        elif fam == "sgl":
            value += lam * np.abs(b).sum() + pen.lam2 * np.linalg.norm(b)
        else:
            raise ValueError(fam)
    return value


_KKT_FAMILY = {"glasso": "l1", "gmcp": "mcp", "gscad": "scad"}


def kkt_reference(design, pen, coef):
    """Largest group stationarity violation, one group at a time."""
    from grpsel.penalties import rho_prime

    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    fam = _KKT_FAMILY[pen.family]
    worst = 0.0
    for j in range(design.J):
        sl = design.group_slice(j)
        g = design.X[:, sl].T @ r / design.n
        b = coef[sl]
        nb = np.linalg.norm(b)
        lam_j = design.cj[j] * pen.lam
        if nb == 0.0:
            v = max(np.linalg.norm(g) - lam_j, 0.0)
        else:
            slope = rho_prime(nb, lam_j, pen.gamma, fam)
            v = np.linalg.norm(g - slope * b / nb)
        worst = max(worst, float(v))
    return worst


def fit_gcd_reference(design, pen, init=None, tol=1e-7, max_iter=10_000,
                      check_descent=False):
    """Group coordinate descent that updates every group in every cycle."""
    from grpsel.gcd import FitResult

    n, p, J = design.n, design.p, design.J
    X, y = design.X, design.y
    if init is None:
        b = np.zeros(p)
        r = y.copy()
    else:
        b = np.asarray(init, dtype=float).ravel().copy()
        r = y - X @ b
    lam, gamma = pen.lam, pen.gamma
    max_increase = -math.inf if check_descent else None
    prev_obj = objective_reference(design, b, pen) if check_descent else None
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        delta = 0.0
        for j in range(J):
            sl = design.group_slice(j)
            Xj = X[:, sl]
            z = Xj.T @ r / n + b[sl]
            new = solve_single_group_reference(z, design.cj[j] * lam, gamma, pen.family)
            diff = new - b[sl]
            step = np.max(np.abs(diff)) if diff.size else 0.0
            if step > 0:
                r -= Xj @ diff
                b[sl] = new
            delta = max(delta, step)
            if check_descent:
                obj = objective_reference(design, b, pen)
                max_increase = max(max_increase, obj - prev_obj)
                prev_obj = obj
        if delta <= tol:
            converged = True
            break
        if it % 100 == 0:
            r = y - X @ b
    return FitResult(
        beta=design.back_transform(b),
        coef=b,
        objective=objective_reference(design, b, pen),
        iterations=iterations,
        converged=converged,
        kkt_max_violation=kkt_reference(design, pen, b),
        max_descent_violation=max_increase,
    )


# Local coordinate descent and blockwise proximal descent as separate loops,
# with their stationarity checks computed one group and one coordinate at a
# time.  The package runs both sweeps through the shared descent engine and
# vectorizes the checks; it must reproduce these up to floating-point
# rounding.  The per-update descent checks use the package objective (itself
# checked against objective_reference), which keeps them affordable; the
# reported objective is the per-group one.

BRIDGE_FREEZE_TOL = 1e-10


def _mcp_array(t, lam, gamma):
    return np.where(
        t <= gamma * lam, lam * t - np.square(t) / (2 * gamma), gamma * lam**2 / 2
    )


def _mcp_slope(t, lam, gamma):
    return lam * np.maximum(1.0 - t / (gamma * lam), 0.0)


def _lcd_weight_reference(pen, cj, b_group, k):
    from grpsel.penalties import rho_prime

    if pen.lam == 0:
        return 0.0
    if pen.family == "cmcp":
        lam, gi = pen.lam, pen.gamma_inner
        u = float(_mcp_array(np.abs(b_group), lam, gi).sum())
        outer = float(_mcp_slope(u, lam, b_group.size * gi * lam / 2))
        return outer * float(_mcp_slope(abs(b_group[k]), lam, gi))
    l1 = float(np.abs(b_group).sum())
    return rho_prime(l1, cj * pen.lam, pen.gamma, "bridge")


def least_squares_reference(design):
    X, y = design.X, design.y
    if design.p < design.n:
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        return coef
    G = X.T @ X / design.n + 0.01 * np.eye(design.p)
    return np.linalg.solve(G, X.T @ y / design.n)


def lcd_stationarity_reference(design, pen, coef, frozen=None):
    """Largest LCD fixed-point residual, one coordinate at a time."""
    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    worst = 0.0
    for j in range(design.J):
        start, size = design.groups[j]
        b_group = coef[start:start + size]
        if (pen.family == "gbridge" and pen.lam > 0
                and np.abs(b_group).sum() < BRIDGE_FREEZE_TOL):
            continue
        if frozen is not None and frozen[j]:
            continue
        for k in range(size):
            w = _lcd_weight_reference(pen, design.cj[j], b_group, k)
            g = design.X[:, start + k] @ r / design.n
            bk = b_group[k]
            if bk == 0.0:
                v = max(abs(g) - w, 0.0)
            else:
                v = abs(g - w * np.sign(bk))
            worst = max(worst, float(v))
    return worst


def fit_lcd_reference(design, pen, init=None, tol=1e-7, max_iter=10_000,
                      check_descent=False):
    """Local coordinate descent with its own cycle loop and bridge freezing."""
    from grpsel.gcd import FitResult
    from grpsel.penalties import objective, soft_threshold

    n, p, J = design.n, design.p, design.J
    X, y = design.X, design.y
    if init is None:
        b = least_squares_reference(design) if pen.family == "gbridge" else np.zeros(p)
    else:
        b = np.asarray(init, dtype=float).ravel().copy()
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
                    break
                col = X[:, start + k]
                w = _lcd_weight_reference(pen, design.cj[j], b[start:start + size], k)
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
            break
        if delta <= tol:
            converged = True
            break
        if it % 100 == 0:
            r = y - X @ b
    return FitResult(
        beta=design.back_transform(b),
        coef=b,
        objective=objective_reference(design, b, pen),
        iterations=iterations,
        converged=converged,
        kkt_max_violation=lcd_stationarity_reference(design, pen, b, frozen),
        # no update noted (every group frozen) means no increase either
        max_descent_violation=0.0 if max_increase == -math.inf else max_increase,
    )


def sgl_kkt_reference(design, coef, lam1, lam2):
    """Largest sparse group LASSO subgradient violation, group by group."""
    from grpsel.penalties import soft_threshold

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


def fit_sparse_group_lasso_reference(design, lam1, lam2, init=None, tol=1e-7,
                                     max_iter=10_000, check_descent=False):
    """Blockwise proximal descent with its own cycle loop."""
    from grpsel.gcd import FitResult
    from grpsel.penalties import PenaltySpec, objective, soft_threshold, soft_threshold_vec

    pen = PenaltySpec("sgl", lam=lam1, lam2=lam2)
    n, p, J = design.n, design.p, design.J
    X, y = design.X, design.y
    lips = np.empty(J)
    for j in range(J):
        block = X[:, design.group_slice(j)]
        lips[j] = float(np.linalg.eigvalsh(block.T @ block / n)[-1])
    if init is None:
        b = np.zeros(p)
        r = y.copy()
    else:
        b = np.asarray(init, dtype=float).ravel().copy()
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
            break
        if delta <= tol:
            converged = True
            break
        if it % 100 == 0:
            r = y - X @ b
    return FitResult(
        beta=design.back_transform(b),
        coef=b,
        objective=objective_reference(design, b, pen),
        iterations=iterations,
        converged=converged,
        kkt_max_violation=sgl_kkt_reference(design, b, lam1, lam2),
        max_descent_violation=max_increase,
    )


def fmt_reference(x) -> str:
    """The CLI's former per-cell CSV encoder, with its type dispatch."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # shortest round-trip representation
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)
