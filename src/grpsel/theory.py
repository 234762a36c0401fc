"""Finite-sample selection theory, checked numerically.

The 2-norm group MCP, fit globally, equals the oracle least squares
estimator (least squares restricted to the truly nonzero groups) with
probability at least 1 - eta1 - eta2 under explicit conditions on
(lam, gamma, design, signal).  The bound components come from a chi-square
tail inequality; everything here evaluates those quantities exactly and
then stress-tests them by Monte Carlo at desk scale.  A third component
eta3 extends the bound to designs that only control eigenvalues over small
group subsets (sparse Riesz condition), at the price of stronger
requirements on gamma and lam.
"""

import inspect
import itertools
import math
import typing
from dataclasses import asdict, dataclass

import numpy as np

from .design import PIVOT_RTOL, GroupedDesign, build_design
from .errors import ConfigError, DomainError, SingularSupport, TooLarge
# ``fit_gcd`` is not called here; the traced benchmark looks it up in this module.
from .gcd import fit_gcd, fit_gcd_columns  # noqa: F401
from .penalties import PenaltySpec, objective
from .scenarios import equicorrelated_columns

SUBSET_GUARD = 1_000_000
# Columns (replicates x starts) per batched descent.  A cycle of
# fit_gcd_columns costs about the same numpy call overhead at any width, so
# a wider block spreads it over more fits.  Memory bounds it: while a block
# is set up, its draws and Y are alive, n x _MC_BLOCK floats each (0.8 MB at
# n = 200), and nonzero starts add X @ B and the residual for the first
# gradient.  At 500, the benchmark's theory-mc pass peaks 1.1 MB above
# blocks of 100 (median RSS 43.1 against 42.0 MB).
_MC_BLOCK = 500

# Restarts whose objectives agree to this relative tolerance count as one
# minimum: the first of them is kept, so rounding does not pick the fit.
_KEEP_RTOL = 1e-12


@dataclass(frozen=True)
class OracleProblem:
    """A grouped model with known truth, in the design's internal coordinates.

    ``true_coef`` multiplies ``design.X`` directly (so for an orthonormalized
    design it lives on the orthonormalized scale); replicated responses are
    drawn as ``X @ true_coef + sigma * noise``.  Derived quantities:
    ``beta_star`` is the smallest size-adjusted signal norm
    ``min_j ||b_j|| / sqrt(d_j)`` over the support (inf when empty);
    ``c_min`` is the smallest eigenvalue of the full Gram X'X/n,
    ``c1 <= c2`` bound the spectrum of the support-restricted Gram, and
    ``support_cols`` lists the internal columns of the support groups.
    """

    design: GroupedDesign
    true_coef: np.ndarray
    sigma: float
    support: tuple
    beta_star: float
    c_min: float
    c1: float
    c2: float
    support_cols: np.ndarray

    def d_min_support(self) -> float:
        dims = self.design.dims
        return float(min(dims[j] for j in self.support)) if self.support else math.inf

    def d_min_null(self) -> float:
        dims = self.design.dims
        null = [dims[j] for j in range(self.design.J) if j not in self.support]
        return float(min(null)) if null else math.inf

    def d_max_support(self) -> float:
        dims = self.design.dims
        return float(max(dims[j] for j in self.support)) if self.support else 0.0


def make_oracle_problem(design: GroupedDesign, true_coef, sigma: float) -> OracleProblem:
    true_coef = np.asarray(true_coef, dtype=float).ravel()
    if true_coef.shape != (design.p,):
        raise ValueError("true_coef length does not match the design")
    norms = design.group_l2(true_coef)
    support = tuple(j for j in range(design.J) if norms[j] > 0)
    beta_star = min(
        (float(norms[j]) / math.sqrt(design.dims[j]) for j in support), default=math.inf
    )
    sigma_full = design.X.T @ design.X / design.n
    c_min = float(np.linalg.eigvalsh(sigma_full)[0])
    cols = _subset_cols(design.groups, support)
    if cols.size:
        eigs = np.linalg.eigvalsh(sigma_full[np.ix_(cols, cols)])
        c1, c2 = float(eigs[0]), float(eigs[-1])
    else:
        c1 = c2 = math.nan
    return OracleProblem(
        design=design,
        true_coef=true_coef,
        sigma=float(sigma),
        support=support,
        beta_star=beta_star,
        c_min=c_min,
        c1=c1,
        c2=c2,
        support_cols=cols,
    )


def oracle_ls(problem: OracleProblem, y: np.ndarray = None) -> np.ndarray:
    """Least squares restricted to the true support groups, zeros elsewhere.

    An n x R matrix ``y`` gives the p x R fits of its columns in one solve.
    """
    design = problem.design
    if y is None:
        y = design.y
    coef = np.zeros((design.p, *np.shape(y)[1:]))
    cols = problem.support_cols
    if cols.size == 0:
        return coef
    Xs = design.X[:, cols]
    coef[cols] = _support_solve(Xs, Xs.T @ y)
    return coef


def _support_solve(Xs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``(Xs'Xs)^{-1} rhs``; SingularSupport unless the Gram matrix passes
    the Cholesky pivot test of ``build_design``."""
    gram = Xs.T @ Xs
    try:
        pivots = np.diag(np.linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        pivots = np.zeros(1)  # a failed factorization counts as a zero pivot
    if np.min(pivots) ** 2 <= PIVOT_RTOL * np.max(np.diag(gram)):
        raise SingularSupport("support Gram matrix is not positive definite")
    return np.linalg.solve(gram, rhs)


def _h(t, k):
    return np.exp(-k * (np.sqrt(2 * t - 1) - 1) ** 2 / 4)


def chisq_tail_bound(t: float, k: int) -> float:
    """Exponential chi-square tail bound: P(chisq_k >= k*t) <= h(t, k), t > 1."""
    if not t > 1:
        raise DomainError("tail bound requires t > 1")
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError("degrees of freedom must be a positive integer")
    return float(_h(float(t), int(k)))


def eta_bounds(problem: OracleProblem, lam: float, gamma: float):
    """The two bound components for the exact-oracle event.

    eta1 controls false selection outside the support; eta2 controls the
    oracle estimator's group norms dropping below gamma*lam.  Values above
    one are vacuous and returned as-is.
    """
    J, s = problem.design.J, len(problem.support)
    n, sig = problem.design.n, problem.sigma
    if s == J:
        eta1 = 0.0
    else:
        t1 = n * lam**2 / sig**2
        if not t1 > 1:
            raise DomainError(f"n*lam^2 > sigma^2 fails (n*lam^2/sigma^2 = {t1:.4g})")
        eta1 = (J - s) * float(_h(t1, problem.d_min_null()))
    if s == 0:
        eta2 = 0.0
    else:
        gap = problem.beta_star - gamma * lam
        if not gap > 0:
            raise DomainError("beta_star > gamma*lam fails")
        t2 = problem.c1 * n * gap**2 / sig**2
        if not t2 > 1:
            raise DomainError(
                f"c1*n*(beta_star - gamma*lam)^2 > sigma^2 fails (ratio = {t2:.4g})"
            )
        eta2 = s * float(_h(t2, problem.d_min_support()))
    return eta1, eta2


def eta3(problem: OracleProblem, lam: float, c_star: float, c_sup: float) -> float:
    """Dimension-reduction bound component under sparse Riesz spectrum bounds.

    Uses K* = c_sup/c_star - 1/2, m* = K*|S| (evaluated as given, possibly
    non-integer) and xi = 1/(4*c_sup*d_s) with d_s = max(d_max over S, 1).
    """
    J, s = problem.design.J, len(problem.support)
    if s == 0:
        return 0.0
    n, sig = problem.design.n, problem.sigma
    d_s = max(problem.d_max_support(), 1.0)
    d_max = float(np.max(problem.design.dims))
    k_star = c_sup / c_star - 0.5
    m_star = k_star * s
    xi = 1.0 / (4 * c_sup * d_s)
    t3 = xi * n * lam**2 / (sig**2 * d_max)
    if not t3 > 1:
        raise DomainError(f"xi*n*lam^2 > sigma^2*d_max fails (ratio = {t3:.4g})")
    count = (J - s) ** m_star * math.exp(m_star) / m_star**m_star
    return float(count * _h(t3, m_star * d_max))


def _group_subsets(groups, max_dim=None, base=(), extra=None):
    """Group index subsets that add at least one group to ``base``.

    Optionally capped by total dimension (``max_dim``), or restricted to the
    subsets whose groups outside ``base`` hold exactly ``extra`` columns.
    """
    dims = [d for _, d in groups]
    candidates = [j for j in range(len(groups)) if j not in base]
    if 2 ** len(candidates) > SUBSET_GUARD:
        raise TooLarge(
            f"{2 ** len(candidates)} candidate subsets exceed the enumeration guard"
        )
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            subset = tuple(sorted(base + combo))
            if max_dim is not None and sum(dims[j] for j in subset) > max_dim:
                continue
            if extra is not None and sum(dims[j] for j in combo) != extra:
                continue
            yield subset


def _subset_cols(groups, subset):
    return np.concatenate(
        [np.arange(s, s + d) for j, (s, d) in enumerate(groups) if j in subset]
    ) if subset else np.array([], dtype=int)


def src_spectrum(X: np.ndarray, groups, d_star: int):
    """Exact sparse Riesz spectrum bounds by subset enumeration.

    Returns (c_star, c_sup): the extreme eigenvalues of X_A'X_A/n over all
    nonempty group subsets A of total dimension at most ``d_star``.  Only
    feasible at desk scale; guarded against combinatorial blowup.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    c_star, c_sup = math.inf, -math.inf
    found = False
    for subset in _group_subsets(groups, max_dim=d_star):
        cols = _subset_cols(groups, subset)
        eigs = np.linalg.eigvalsh(X[:, cols].T @ X[:, cols] / n)
        c_star = min(c_star, float(eigs[0]))
        c_sup = max(c_sup, float(eigs[-1]))
        found = True
    if not found:
        raise DomainError("no group subset fits within d_star columns")
    return c_star, c_sup


def irrepresentable_lhs(X: np.ndarray, groups, support, beta_o, lam: float, gamma: float) -> float:
    """Largest null-group correlation with the penalty gradient on the support.

    The gradient vector stacks, over support groups, the MCP slope
    lam * (1 - ||b_j|| / (sqrt(d_j)*gamma*lam))_+ times the unit vector
    b_j/||b_j||; whenever every size-adjusted support norm exceeds
    gamma*lam the slope vanishes and the value is exactly zero.
    """
    if lam <= 0:
        raise DomainError("lam must be positive")
    support = tuple(sorted(support))
    if not support:
        return 0.0
    X = np.asarray(X, dtype=float)
    beta_o = np.asarray(beta_o, dtype=float).ravel()
    blocks = []
    for j in support:
        s, d = groups[j]
        b = beta_o[s:s + d]
        nb = np.linalg.norm(b)
        if nb == 0:
            raise ValueError(f"support group {j} has zero coefficients")
        slope = lam * max(1.0 - nb / (math.sqrt(d) * gamma * lam), 0.0)
        blocks.append(slope * b / nb)
    v = np.concatenate(blocks)
    cols = _subset_cols(groups, support)
    Xs = X[:, cols]
    proj = Xs @ _support_solve(Xs, v)
    worst = 0.0
    for j in range(len(groups)):
        if j in support:
            continue
        s, d = groups[j]
        worst = max(worst, float(np.linalg.norm(X[:, s:s + d].T @ proj)) / lam)
    return worst


def zeta_norm(v: np.ndarray, m: int, B, X: np.ndarray, groups) -> float:
    """Worst projection increment over group supersets adding exactly m columns.

    For each superset A of B whose extra groups contribute exactly m
    columns, measures ||(P_A - P_B) v||_2 / sqrt(m*n) with P the orthogonal
    projection onto the group columns; returns the maximum.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    X = np.asarray(X, dtype=float)
    v = np.asarray(v, dtype=float).ravel()
    n = X.shape[0]
    base = tuple(sorted(B))

    def project(subset):
        if not subset:
            return np.zeros_like(v)
        cols = _subset_cols(groups, subset)
        coef, *_ = np.linalg.lstsq(X[:, cols], v, rcond=None)
        return X[:, cols] @ coef

    pb_v = project(base)
    worst = None
    for subset in _group_subsets(groups, base=base, extra=m):
        val = float(np.linalg.norm(project(subset) - pb_v)) / math.sqrt(m * n)
        worst = val if worst is None else max(worst, val)
    if worst is None:
        raise DomainError(f"no group superset adds exactly {m} columns")
    return worst


@dataclass
class OracleReport:
    """Bound values, condition flags, and the Monte Carlo exceedance rate."""

    eta1: float
    eta2: float
    eta3: float
    bound_total: float
    empirical_prob: float
    mismatches: int
    n_nonconverged: int
    cycles_median: float
    cycles_max: int
    reps: int
    ci99_margin: float
    conditions: dict
    condition_values: dict
    lam: float
    gamma: float
    seed: int
    generator: str

    @property
    def condition_violated(self) -> bool:
        return not all(self.conditions.values())

    @property
    def bound_holds(self) -> bool:
        return self.empirical_prob <= self.bound_total + self.ci99_margin


def monte_carlo_theorem1(
    problem: OracleProblem,
    lam: float,
    gamma: float,
    reps: int = 500,
    seed: int = 0,
    n_starts: int = 1,
    src_bounds: tuple = None,
    coef_tol: float = 1e-6,
    fit_tol: float = 1e-10,
) -> OracleReport:
    """Monte Carlo check of the exact-oracle probability bound.

    Each replicate redraws Gaussian noise around the fixed design, fits the
    2-norm group MCP at (lam, gamma) by group coordinate descent, and
    compares against the oracle least squares fit; a mismatch is a support
    difference or any coefficient further than ``coef_tol`` away.  Condition
    failures are flagged in the report rather than raised, so the bound can
    be probed outside its hypotheses.  ``src_bounds = (c_star, c_sup,
    d_star)`` switches on the sparse Riesz variant: eta3 joins the bound and
    its extra conditions are flagged; fits then use ``n_starts`` random
    restarts since strict convexity is no longer guaranteed, keeping the
    first start whose objective is within ``_KEEP_RTOL`` of the smallest.
    The replicates and their restarts are the columns of one
    ``fit_gcd_columns`` descent per block of ``_MC_BLOCK // n_starts``
    replicates (at least one), drawn in the stream order of one fit at a
    time, so the report does not depend on the block size.
    ``n_nonconverged`` counts the replicates whose kept fit stopped without
    converging; they are still compared against the oracle.
    ``cycles_median`` and ``cycles_max`` are taken over the kept fits' cycle
    counts.
    """
    if reps < 1 or n_starts < 1:
        raise ValueError("need at least one replicate and one start")
    design = problem.design
    n, sig = design.n, problem.sigma
    s = len(problem.support)

    conditions = {
        "gamma_gt_inv_cmin": problem.c_min > 0 and gamma > 1 / problem.c_min,
        "beta_star_gt_gamma_lam": problem.beta_star > gamma * lam,
        "n_lam2_gt_sigma2": n * lam**2 > sig**2,
    }
    values = {
        "gamma": gamma,
        "inv_c_min": math.inf if problem.c_min <= 0 else 1 / problem.c_min,
        "beta_star": problem.beta_star,
        "gamma_lam": gamma * lam,
        "n_lam2": n * lam**2,
        "sigma2": sig**2,
        "strict_convexity_margin": gamma * problem.c_min - 1,
    }
    try:
        e1, e2 = eta_bounds(problem, lam, gamma)
    except DomainError:
        e1 = e2 = math.inf
    e3 = 0.0
    if src_bounds is not None:
        c_star, c_sup, d_star = src_bounds
        d_s = max(problem.d_max_support(), 1.0)
        k_star = c_sup / c_star - 0.5
        conditions["gamma_ge_src_level"] = gamma >= math.sqrt(4 + c_star / c_sup) / c_star
        conditions["d_star_ge_reduced_dim"] = d_star >= (k_star + 1) * s * d_s
        values["src_c_star"] = c_star
        values["src_c_sup"] = c_sup
        try:
            e3 = eta3(problem, lam, c_star, c_sup)
        except DomainError:
            e3 = math.inf
        conditions["xi_n_lam2_gt_sigma2_dmax"] = math.isfinite(e3)

    pen = PenaltySpec("gmcp", lam=lam, gamma=gamma)
    rng = np.random.default_rng(seed)
    p, mean = design.p, design.X @ problem.true_coef
    mismatches = n_nonconverged = 0
    cycles = []  # of each replicate's kept fit
    block = max(1, _MC_BLOCK // n_starts)  # replicates per descent
    for first in range(0, reps, block):
        k = min(block, reps - first)
        # per replicate in stream order: its noise, then the start of each restart
        draws = rng.standard_normal((k, n + (n_starts - 1) * p))
        # column i*n_starts + s fits replicate i from start s (start 0 is zero)
        inits = np.hstack([np.zeros((k, p)), draws[:, n:]]).reshape(-1, p).T
        noise = draws[:, :n]
        noise *= sig
        noise += mean  # each row is now a replicate's response, built in place
        # one C-ordered copy, n_starts columns per replicate (np.repeat makes two)
        Y = np.ascontiguousarray(np.broadcast_to(noise.T[:, :, None], (n, k, n_starts)))
        Y = Y.reshape(n, k * n_starts)
        del draws, noise  # unused during the descent
        B, its, conv = fit_gcd_columns(design, pen, Y, inits, tol=fit_tol)
        Y = Y[:, ::n_starts]  # one column per replicate
        B = B.reshape(p, k, n_starts)
        its, conv = its.reshape(k, n_starts), conv.reshape(k, n_starts)
        rows, keep = np.arange(k), np.zeros(k, dtype=int)
        for i in range(k if n_starts > 1 else 0):
            d_rep = design.with_response(Y[:, i])
            objs = [objective(d_rep, b, pen) for b in B[:, i].T]
            least = min(objs)
            keep[i] = next(s for s, v in enumerate(objs) if v <= least + _KEEP_RTOL * abs(least))
        coef, oracle = B[:, rows, keep], oracle_ls(problem, Y)
        n_nonconverged += int(np.sum(~conv[rows, keep]))
        cycles.extend(its[rows, keep].tolist())
        fit_support = np.logical_or.reduceat(coef != 0, design.starts)
        ora_support = np.logical_or.reduceat(oracle != 0, design.starts)
        mismatches += int(np.sum(np.any(fit_support != ora_support, axis=0)
                                 | (np.max(np.abs(coef - oracle), axis=0) > coef_tol)))

    phat = mismatches / reps
    margin = 2.326 * math.sqrt(phat * (1 - phat) / reps) + 1.0 / reps
    return OracleReport(
        eta1=e1,
        eta2=e2,
        eta3=e3,
        bound_total=e1 + e2 + e3,
        empirical_prob=phat,
        mismatches=mismatches,
        n_nonconverged=n_nonconverged,
        cycles_median=float(np.median(cycles)),
        cycles_max=max(cycles),
        reps=reps,
        ci99_margin=margin,
        conditions=conditions,
        condition_values=values,
        lam=lam,
        gamma=gamma,
        seed=seed,
        generator=f"numpy.random.default_rng(PCG64), seed={seed}",
    )


def _random_design(n, sizes, correlation, rng) -> GroupedDesign:
    """An orthonormalized equicorrelated Gaussian design with the given group sizes."""
    sizes = np.asarray(sizes, dtype=int)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    X = equicorrelated_columns(n, int(sizes.sum()), correlation, rng)
    return build_design(X, np.zeros(n), labels, orthonormalize=True)


def random_problem(
    n: int,
    group_sizes,
    support,
    beta_star: float,
    sigma: float,
    correlation: float = 0.0,
    seed: int = 0,
) -> OracleProblem:
    """A seeded Gaussian-design problem with every support coordinate equal.

    Groups are orthonormalized, so each support group's size-adjusted norm
    is exactly ``beta_star`` on the fitting scale.
    """
    design = _random_design(n, group_sizes, correlation, np.random.default_rng(seed))
    coef = np.zeros(design.p)
    for j in support:
        coef[design.group_slice(j)] = beta_star
    return make_oracle_problem(design, coef, sigma)


def _qr_project(X, cols, v):
    if cols.size == 0:
        return np.zeros_like(v)
    q, _ = np.linalg.qr(X[:, cols])
    return q @ (q.T @ v)


# The experiments of ``run_experiment`` take their parameters as keywords:
# a config value is converted to the annotated type, the default fills in.


def _check_groups(sizes, n=None, **members):
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"group_sizes must be a nonempty list of positive sizes, got {sizes}")
    for key, js in members.items():
        if len(set(js)) < len(js) or not all(0 <= j < len(sizes) for j in js):
            raise ConfigError(f"{key} must list distinct group indices below {len(sizes)}, "
                              f"got {js}")
    # centering leaves rank n - 1 for every group and for the support together
    dim = max(max(sizes), sum(sizes[j] for j in members.get("support", ())))
    if n is not None and dim > n - 1:
        raise ConfigError(f"n = {n} leaves rank {n - 1} after centering, below the "
                          f"{dim} columns of the largest group or of the support")


def _verdict(ok, violated=False) -> dict:
    """The ``status`` and ``pass`` entries; a violated hypothesis is neither."""
    if violated:
        return {"status": "CONDITION_VIOLATED", "pass": None}
    return {"status": "PASS" if ok else "FAIL", "pass": ok}


def _tail_bound(seed: int = 0, t_values: list[float] = (2.0, 2.5, 4.0),
                k_values: list[int] = (1, 3, 5, 10), draws: int = 100_000) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for t in t_values:
        for k in k_values:
            bound = chisq_tail_bound(t, k)
            emp = float(np.mean(rng.chisquare(k, draws) >= k * t))
            status = "PASS" if emp <= bound else "FAIL"
            cases.append({"t": t, "k": k, "bound": bound, "empirical": emp, "status": status})
    return {"draws": draws, "cases": cases,
            "pass": all(c["status"] == "PASS" for c in cases)}


def _theorem1(seed: int = 0, n: int = 200, group_sizes: list[int] = (2,) * 10,
              support: list[int] = (0, 1), beta_star: float = 2.0, sigma: float = 1.0,
              correlation: float = 0.0, lam: float = 0.4, gamma: float = 3.0,
              reps: int = 500, n_starts: int = 1) -> dict:
    _check_groups(group_sizes, n, support=support)
    problem = random_problem(n, group_sizes, support, beta_star, sigma, correlation, seed)
    report = monte_carlo_theorem1(problem, lam, gamma, reps=reps, seed=seed + 1,
                                  n_starts=n_starts)
    # every report field but eta3 (zero here), the fit point and the replicate seed
    fields = {k: v for k, v in asdict(report).items()
              if k not in ("eta3", "lam", "gamma", "seed")}
    return {**fields, **_verdict(report.bound_holds, report.condition_violated)}


def _src(seed: int = 0, n: int = 30, group_sizes: list[int] = (2, 2, 2, 2),
         d_star: int = None, correlation: float = 0.0) -> dict:
    _check_groups(group_sizes)
    design = _random_design(n, group_sizes, correlation, np.random.default_rng(seed))
    if d_star is None:
        d_star = design.p
    c_star, c_sup = src_spectrum(design.X, design.groups, d_star)
    # independent route: singular values per enumerated subset
    lo, hi = math.inf, -math.inf
    for subset in _group_subsets(design.groups, max_dim=d_star):
        cols = _subset_cols(design.groups, subset)
        sv = np.linalg.svd(design.X[:, cols] / math.sqrt(n), compute_uv=False)
        lo, hi = min(lo, float(sv[-1] ** 2)), max(hi, float(sv[0] ** 2))
    err = max(abs(c_star - lo), abs(c_sup - hi))
    return {"c_star": c_star, "c_sup": c_sup, "cross_check_error": err,
            **_verdict(err <= 1e-10 and c_star > 0)}


def _irrepresentable(seed: int = 0, n: int = 50, group_sizes: list[int] = (2,) * 5,
                     support: list[int] = (0, 1), gamma: float = 3.0,
                     problems: int = 100) -> dict:
    _check_groups(group_sizes, n, support=support)
    worst = 0.0
    for i in range(problems):
        prob = random_problem(n, group_sizes, support, beta_star=2.0, sigma=1.0, seed=seed + i)
        lam = 0.9 * prob.beta_star / gamma  # keeps beta_star > gamma*lam
        design = prob.design
        worst = max(worst, irrepresentable_lhs(design.X, design.groups, prob.support,
                                               prob.true_coef, lam, gamma))
    return {"problems": problems, "worst_lhs": worst, **_verdict(worst <= 1e-12)}


def _zeta(seed: int = 0, n: int = 30, group_sizes: list[int] = (2, 2, 2, 2), m: int = 2,
          base: list[int] = (0,)) -> dict:
    _check_groups(group_sizes, base=base)
    base = tuple(base)
    rng = np.random.default_rng(seed)
    design = _random_design(n, group_sizes, 0.0, rng)
    v = rng.standard_normal(n)
    value = zeta_norm(v, m, base, design.X, design.groups)
    # independent route: QR-based projections over the same subsets
    pb = _qr_project(design.X, _subset_cols(design.groups, base), v)
    ref = -math.inf
    for subset in _group_subsets(design.groups, base=base, extra=m):
        pa = _qr_project(design.X, _subset_cols(design.groups, subset), v)
        ref = max(ref, float(np.linalg.norm(pa - pb)) / math.sqrt(m * n))
    err = abs(value - ref)
    return {"value": value, "cross_check_error": err, **_verdict(err <= 1e-10)}


EXPERIMENTS = {
    "tail-bound": _tail_bound,
    "theorem1": _theorem1,
    "src": _src,
    "irrepresentable": _irrepresentable,
    "zeta": _zeta,
}


def _convert(name, key, value, kind):
    """A config value as the annotated type: ``int``, ``float`` or ``list[...]``.

    Nothing is truncated: an ``int`` parameter (or item) refuses a float with
    a fractional part, such as ``2.5``, and accepts an integral float, such
    as ``500.0``, as that integer.  A boolean is not a number for any
    parameter.
    """
    item = typing.get_args(kind)
    try:
        if not item:
            return _number(value, kind)
        if isinstance(value, (list, tuple)):
            return [_number(v, item[0]) for v in value]
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name!r} parameter {key!r} must be {kind.__name__}, got {value!r}")


def _number(value, kind):
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise TypeError(f"{value!r} is not an exact {kind.__name__}")
    return kind(value)


_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
# The range of each numeric parameter (of every item, for a list).
_RANGES = {
    "seed": (lambda v: v >= 0, "nonnegative"),
    "n": (lambda v: v >= 2, "at least 2"),
    **dict.fromkeys(("reps", "draws", "problems", "n_starts", "d_star", "m", "k_values"),
                    _AT_LEAST_1),
    "t_values": (lambda v: v > 1, "above 1"),
    "sigma": (lambda v: 0 < v < math.inf, "positive and finite"),
    "lam": (lambda v: 0 <= v < math.inf, "finite and nonnegative"),
    "beta_star": (lambda v: 0 <= v < math.inf, "finite and nonnegative"),
    "gamma": (lambda v: v > 1, "above 1"),
    "correlation": (lambda v: 0 <= v < 1, "in [0, 1)"),
}


def _check_range(name, key, value):
    """``value`` (already converted) if it lies in the parameter's range."""
    if key in _RANGES:
        ok, text = _RANGES[key]
        if not all(map(ok, value if isinstance(value, list) else [value])):
            raise ConfigError(f"{name!r} parameter {key!r} must be {text}, got {value!r}")
    return value


def run_experiment(config: dict) -> dict:
    """Run a named theory experiment and return a structured report.

    Known experiments are the keys of ``EXPERIMENTS``: ``tail-bound``,
    ``theorem1``, ``src``, ``irrepresentable``, ``zeta``.  An unknown name,
    an unknown parameter, a value of the wrong type or a value outside the
    parameter's range (``_RANGES``) raises ``ConfigError`` before anything
    runs.  Reports carry one PASS/FAIL entry per checked invariant plus all
    numeric values; condition violations in ``theorem1`` are reported as
    such rather than failed.
    """
    if not isinstance(config, dict) or "experiment" not in config:
        raise ConfigError("config needs an 'experiment' key")
    name = config["experiment"]
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"'params' must be an object, got {params!r}")
    run = EXPERIMENTS[name]
    signature = inspect.signature(run).parameters
    unknown = sorted(set(params) - set(signature))
    if unknown:
        raise ConfigError(f"unknown parameters for {name!r}: {unknown}")
    kwargs = {k: _check_range(name, k, _convert(name, k, v, signature[k].annotation))
              for k, v in params.items()}
    seed = kwargs.get("seed", signature["seed"].default)
    return {"experiment": name, "seed": seed, **run(**kwargs)}
