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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .design import GroupedDesign, build_design
from .errors import ConfigError, DomainError, SingularSupport, TooLarge
from .gcd import fit_gcd
from .penalties import PenaltySpec
from .scenarios import equicorrelated_columns

SUBSET_GUARD = 1_000_000


@dataclass(frozen=True)
class OracleProblem:
    """A grouped model with known truth, in the design's internal coordinates.

    ``true_coef`` multiplies ``design.X`` directly (so for an orthonormalized
    design it lives on the orthonormalized scale); replicated responses are
    drawn as ``X @ true_coef + sigma * noise``.  Derived quantities:
    ``beta_star`` is the smallest size-adjusted signal norm
    ``min_j ||b_j|| / sqrt(d_j)`` over the support (inf when empty);
    ``c_min`` is the smallest eigenvalue of the full Gram X'X/n, and
    ``c1 <= c2`` bound the spectrum of the support-restricted Gram.
    """

    design: GroupedDesign
    true_coef: np.ndarray
    sigma: float
    support: tuple
    beta_star: float
    c_min: float
    c1: float
    c2: float

    @property
    def support_cols(self) -> np.ndarray:
        idx = [
            np.arange(s, s + d)
            for j, (s, d) in enumerate(self.design.groups)
            if j in self.support
        ]
        return np.concatenate(idx) if idx else np.array([], dtype=int)

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
    support = tuple(
        j
        for j in range(design.J)
        if np.linalg.norm(true_coef[design.group_slice(j)]) > 0
    )
    dims = design.dims
    if support:
        beta_star = min(
            float(np.linalg.norm(true_coef[design.group_slice(j)])) / math.sqrt(dims[j])
            for j in support
        )
    else:
        beta_star = math.inf
    sigma_full = design.X.T @ design.X / design.n
    c_min = float(np.linalg.eigvalsh(sigma_full)[0])
    cols = np.concatenate(
        [np.arange(s, s + d) for j, (s, d) in enumerate(design.groups) if j in support]
    ) if support else np.array([], dtype=int)
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
    )


def oracle_ls(problem: OracleProblem, y: np.ndarray = None) -> np.ndarray:
    """Least squares restricted to the true support groups, zeros elsewhere."""
    design = problem.design
    if y is None:
        y = design.y
    coef = np.zeros(design.p)
    cols = problem.support_cols
    if cols.size == 0:
        return coef
    Xs = design.X[:, cols]
    gram = Xs.T @ Xs
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SingularSupport("support Gram matrix is not positive definite") from None
    coef[cols] = np.linalg.solve(gram, Xs.T @ y)
    return coef


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


def rate_constants(problem: OracleProblem, c_sup: float = None):
    """The scaling constants (lam_n, tau_n, lam_n_star) behind the corollaries.

    lam_n is the noise level of the null-group correlations, tau_n the
    accuracy scale of the oracle norms; lam_n_star is the counterpart under
    sparse Riesz bounds and needs ``c_sup`` (None is returned otherwise).
    """
    J, s = problem.design.J, len(problem.support)
    n, sig = problem.design.n, problem.sigma
    num1 = 2 * math.log(max(J - s, 1))
    lam_n = sig * math.sqrt(num1 / (n * problem.d_min_null())) if num1 > 0 else 0.0
    num2 = 2 * math.log(max(s, 1))
    tau_n = (
        sig * math.sqrt(num2 / (n * problem.c1 * problem.d_min_support()))
        if num2 > 0
        else 0.0
    )
    lam_n_star = None
    if c_sup is not None:
        d_s = max(problem.d_max_support(), 1.0)
        lam_n_star = (
            2 * sig * math.sqrt(2 * c_sup * d_s * math.log(J - s) / n)
            if J - s > 1
            else 0.0
        )
    return lam_n, tau_n, lam_n_star


def _group_subsets(groups, max_dim=None, base=()):
    """All group index subsets (optionally capped by total dimension)."""
    dims = [d for _, d in groups]
    candidates = [j for j in range(len(groups)) if j not in base]
    if 2 ** len(candidates) > SUBSET_GUARD:
        raise TooLarge(
            f"{2 ** len(candidates)} candidate subsets exceed the enumeration guard"
        )
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            subset = tuple(sorted(base + combo))
            if max_dim is not None and sum(dims[j] for j in subset) > max_dim:
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
        if not subset:
            continue
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
    try:
        w = np.linalg.solve(Xs.T @ Xs, v)
    except np.linalg.LinAlgError:
        raise SingularSupport("support Gram matrix is singular") from None
    proj = Xs @ w
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
    dims = [d for _, d in groups]

    def project(subset):
        if not subset:
            return np.zeros_like(v)
        cols = _subset_cols(groups, subset)
        coef, *_ = np.linalg.lstsq(X[:, cols], v, rcond=None)
        return X[:, cols] @ coef

    pb_v = project(base)
    worst = None
    for subset in _group_subsets(groups, base=base):
        extra = sum(dims[j] for j in subset if j not in base)
        if extra != m:
            continue
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
    restarts since strict convexity is no longer guaranteed.
    ``n_nonconverged`` counts the replicates whose kept fit stopped without
    converging; they are still compared against the oracle.
    """
    if reps < 1:
        raise ValueError("need at least one replicate")
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
    mismatches = n_nonconverged = 0
    for _ in range(reps):
        y = design.X @ problem.true_coef + sig * rng.standard_normal(n)
        d_rep = design.with_response(y)
        fit = fit_gcd(d_rep, pen, tol=fit_tol)
        for _ in range(n_starts - 1):
            alt = fit_gcd(d_rep, pen, init=rng.standard_normal(design.p), tol=fit_tol)
            if alt.objective < fit.objective:
                fit = alt
        n_nonconverged += not fit.converged
        oracle = oracle_ls(problem, y)
        fit_support = np.logical_or.reduceat(fit.coef != 0, design.starts)
        ora_support = np.logical_or.reduceat(oracle != 0, design.starts)
        if np.any(fit_support != ora_support) or np.max(np.abs(fit.coef - oracle)) > coef_tol:
            mismatches += 1

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
        reps=reps,
        ci99_margin=margin,
        conditions=conditions,
        condition_values=values,
        lam=lam,
        gamma=gamma,
        seed=seed,
        generator=f"numpy.random.default_rng(PCG64), seed={seed}",
    )


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
    sizes = np.asarray(group_sizes, dtype=int)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    X = equicorrelated_columns(n, int(sizes.sum()), correlation, rng)
    design = build_design(X, np.zeros(n), labels, orthonormalize=True)
    coef = np.zeros(design.p)
    for j in support:
        coef[design.group_slice(j)] = beta_star
    return make_oracle_problem(design, coef, sigma)


def _qr_project(X, cols, v):
    if cols.size == 0:
        return np.zeros_like(v)
    q, _ = np.linalg.qr(X[:, cols])
    return q @ (q.T @ v)


def run_experiment(config: dict) -> dict:
    """Run a named theory experiment and return a structured report.

    Known experiments: ``tail-bound``, ``theorem1``, ``src``,
    ``irrepresentable``, ``zeta``.  Reports carry one PASS/FAIL entry per
    checked invariant plus all numeric values; condition violations in
    ``theorem1`` are reported as such rather than failed.
    """
    if "experiment" not in config:
        raise ConfigError("config needs an 'experiment' key")
    name = config["experiment"]
    params = dict(config.get("params", {}))
    seed = int(params.pop("seed", 0))

    if name == "tail-bound":
        t_values = params.pop("t_values", [2.0, 2.5, 4.0])
        k_values = params.pop("k_values", [1, 3, 5, 10])
        draws = int(params.pop("draws", 100_000))
        _reject_unknown(name, params)
        rng = np.random.default_rng(seed)
        cases = []
        for t in t_values:
            for k in k_values:
                bound = chisq_tail_bound(float(t), int(k))
                emp = float(np.mean(rng.chisquare(int(k), draws) >= int(k) * float(t)))
                cases.append(
                    {
                        "t": float(t),
                        "k": int(k),
                        "bound": bound,
                        "empirical": emp,
                        "status": "PASS" if emp <= bound else "FAIL",
                    }
                )
        return {
            "experiment": name,
            "seed": seed,
            "draws": draws,
            "cases": cases,
            "pass": all(c["status"] == "PASS" for c in cases),
        }

    if name == "theorem1":
        problem = random_problem(
            n=int(params.pop("n", 200)),
            group_sizes=params.pop("group_sizes", [2] * 10),
            support=params.pop("support", [0, 1]),
            beta_star=float(params.pop("beta_star", 2.0)),
            sigma=float(params.pop("sigma", 1.0)),
            correlation=float(params.pop("correlation", 0.0)),
            seed=seed,
        )
        report = monte_carlo_theorem1(
            problem,
            lam=float(params.pop("lam", 0.4)),
            gamma=float(params.pop("gamma", 3.0)),
            reps=int(params.pop("reps", 500)),
            seed=seed + 1,
            n_starts=int(params.pop("n_starts", 1)),
        )
        _reject_unknown(name, params)
        if report.condition_violated:
            status = "CONDITION_VIOLATED"
        else:
            status = "PASS" if report.bound_holds else "FAIL"
        return {
            "experiment": name,
            "seed": seed,
            "eta1": report.eta1,
            "eta2": report.eta2,
            "bound_total": report.bound_total,
            "empirical_prob": report.empirical_prob,
            "mismatches": report.mismatches,
            "n_nonconverged": report.n_nonconverged,
            "reps": report.reps,
            "ci99_margin": report.ci99_margin,
            "conditions": report.conditions,
            "condition_values": report.condition_values,
            "generator": report.generator,
            "status": status,
            "pass": None if status == "CONDITION_VIOLATED" else status == "PASS",
        }

    if name == "src":
        n = int(params.pop("n", 30))
        sizes = np.asarray(params.pop("group_sizes", [2, 2, 2, 2]), dtype=int)
        d_star = int(params.pop("d_star", int(sizes.sum())))
        correlation = float(params.pop("correlation", 0.0))
        _reject_unknown(name, params)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        rng = np.random.default_rng(seed)
        X = equicorrelated_columns(n, int(sizes.sum()), correlation, rng)
        design = build_design(X, np.zeros(n), labels, orthonormalize=True)
        c_star, c_sup = src_spectrum(design.X, design.groups, d_star)
        # independent route: singular values per enumerated subset
        lo, hi = math.inf, -math.inf
        for subset in _group_subsets(design.groups, max_dim=d_star):
            if not subset:
                continue
            cols = _subset_cols(design.groups, subset)
            sv = np.linalg.svd(design.X[:, cols] / math.sqrt(n), compute_uv=False)
            lo, hi = min(lo, float(sv[-1] ** 2)), max(hi, float(sv[0] ** 2))
        err = max(abs(c_star - lo), abs(c_sup - hi))
        ok = err <= 1e-10 and c_star > 0
        return {
            "experiment": name,
            "seed": seed,
            "c_star": c_star,
            "c_sup": c_sup,
            "cross_check_error": err,
            "status": "PASS" if ok else "FAIL",
            "pass": ok,
        }

    if name == "irrepresentable":
        n = int(params.pop("n", 50))
        sizes = params.pop("group_sizes", [2] * 5)
        support = params.pop("support", [0, 1])
        gamma = float(params.pop("gamma", 3.0))
        problems = int(params.pop("problems", 100))
        _reject_unknown(name, params)
        worst = 0.0
        for i in range(problems):
            prob = random_problem(
                n, sizes, support, beta_star=2.0, sigma=1.0, seed=seed + i
            )
            lam = 0.9 * prob.beta_star / gamma  # keeps beta_star > gamma*lam
            worst = max(
                worst,
                irrepresentable_lhs(
                    prob.design.X,
                    prob.design.groups,
                    prob.support,
                    prob.true_coef,
                    lam,
                    gamma,
                ),
            )
        ok = worst <= 1e-12
        return {
            "experiment": name,
            "seed": seed,
            "problems": problems,
            "worst_lhs": worst,
            "status": "PASS" if ok else "FAIL",
            "pass": ok,
        }

    if name == "zeta":
        n = int(params.pop("n", 30))
        sizes = np.asarray(params.pop("group_sizes", [2, 2, 2, 2]), dtype=int)
        m = int(params.pop("m", 2))
        base = tuple(params.pop("base", [0]))
        _reject_unknown(name, params)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        rng = np.random.default_rng(seed)
        X = equicorrelated_columns(n, int(sizes.sum()), 0.0, rng)
        design = build_design(X, np.zeros(n), labels, orthonormalize=True)
        v = rng.standard_normal(n)
        value = zeta_norm(v, m, base, design.X, design.groups)
        # independent route: QR-based projections over the same subsets
        dims = [d for _, d in design.groups]
        pb = _qr_project(design.X, _subset_cols(design.groups, base), v)
        ref = -math.inf
        for subset in _group_subsets(design.groups, base=base):
            extra = sum(dims[j] for j in subset if j not in base)
            if extra != m:
                continue
            pa = _qr_project(design.X, _subset_cols(design.groups, subset), v)
            ref = max(ref, float(np.linalg.norm(pa - pb)) / math.sqrt(m * n))
        err = abs(value - ref)
        ok = err <= 1e-10
        return {
            "experiment": name,
            "seed": seed,
            "value": value,
            "cross_check_error": err,
            "status": "PASS" if ok else "FAIL",
            "pass": ok,
        }

    raise ConfigError(f"unknown experiment {name!r}")


def _reject_unknown(name, params):
    if params:
        raise ConfigError(f"unknown parameters for {name!r}: {sorted(params)}")
