"""Warm-started pathwise fits, one driver for every penalty family.

``FAMILIES`` records, per family, the solver that fits it, the penalty
level at which that fit is identically zero (the top of the grid) and
which way the path runs (the design kind each family needs is
``penalties.TWO_NORM_FAMILIES``);
``solution_path`` walks the grid for any family from that table: ``PathConfig``
checks the settings, ``path_grid`` lays out the grid and ``fit_grid`` fits it.
``fit_path`` (2-norm families), ``fit_path_lcd`` and ``fit_path_sgl`` are
the same driver with the settings passed one by one.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bilevel, gcd
from .bilevel import fit_path_lcd, fit_path_sgl, least_squares_init
from .errors import ConfigError
from .gcd import SolutionPath, default_min_ratio, fit_path, lambda_grid
from .penalties import TWO_NORM_FAMILIES, PenaltySpec

__all__ = ["FAMILIES", "Family", "PathConfig", "fit_grid", "fit_path", "fit_path_lcd",
           "fit_path_sgl", "grid_top", "path_grid", "solution_path"]

WARM_STARTS = ("previous_lambda", "group_lasso_init")
MAX_N_LAMBDA = 10_000  # a larger grid is a mistake: every point is a fit, per gamma and fold


@dataclass(frozen=True)
class Family:
    """How one penalty family is fitted.

    ``fit(design, pen, init=..., tol=..., max_iter=...)`` is its solver and
    ``top(design, pen, start)`` the smallest penalty level at which that solver
    returns zero from ``start`` (None: its default).  ``ascending`` paths start
    from the least squares fit at the smallest lambda and chain upward.  Both
    functions look the solver up in its module at call time, so a replaced
    module attribute (as in the traced benchmark) is the one that runs.
    """

    fit: Callable
    top: Callable
    ascending: bool = False


_GROUP = Family(
    fit=lambda design, pen, **kw: gcd.fit_gcd(design, pen, **kw),
    top=lambda design, pen, start: gcd.lambda_max(design),
)


FAMILIES = {
    "glasso": _GROUP,
    "gmcp": _GROUP,
    "gscad": _GROUP,
    # a bridge group at zero cannot re-enter (its tangent slope diverges)
    "gbridge": Family(
        fit=lambda design, pen, **kw: bilevel.fit_lcd(design, pen, **kw),
        top=lambda design, pen, start: bilevel.bridge_lambda_upper(design, pen, start),
        ascending=True,
    ),
    "cmcp": Family(
        fit=lambda design, pen, **kw: bilevel.fit_lcd(design, pen, **kw),
        top=lambda design, pen, start: bilevel.cmcp_lambda_max(design),
    ),
    "sgl": Family(
        fit=lambda design, pen, **kw: bilevel.fit_sparse_group_lasso(
            design, pen.lam, pen.lam2, **kw),
        top=lambda design, pen, start: bilevel.sgl_lambda_max(design),
    ),
}


@dataclass(frozen=True)
class PathConfig:
    """Grid and solver settings shared by path fits and cross-validation.

    ``gamma_grid`` sets each family's shape parameter through
    ``PenaltySpec.with_gamma``, which refuses it for a family without one;
    ``None`` means the single value carried by the penalty spec.
    Construction checks every field, the stop rule by ``gcd.check_stop_rule``;
    a bad one raises ``ConfigError``, which names the field and its range.
    """

    n_lambda: int = 100
    lambda_min_ratio: float = None
    gamma_grid: tuple = None
    warm_start: str = "previous_lambda"
    tol: float = 1e-7
    max_iter: int = 10_000

    def __post_init__(self):
        ratio, gammas = self.lambda_min_ratio, self.gamma_grid
        for name, ok, rule in (
            ("n_lambda", 2 <= self.n_lambda <= MAX_N_LAMBDA, f"in [2, {MAX_N_LAMBDA}]"),
            ("lambda_min_ratio", ratio is None or 0 < ratio < 1, "None or in (0, 1)"),
            ("gamma_grid", gammas is None or 0 < len(set(gammas)) == len(gammas),
             "None or nonempty, with no value listed more than once"),
            ("warm_start", self.warm_start in WARM_STARTS, f"a warm start in {WARM_STARTS}"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, not {getattr(self, name)!r}")
        gcd.check_stop_rule(self.tol, self.max_iter)


def _chain(family: Family, design, pens, config, start, inits=None) -> list:
    """Fit ``pens`` in path order, each warm-started from the previous fit.

    The first fit starts from ``start``; with ``inits`` (one starting value
    per point) nothing is chained.
    """
    fits = [None] * len(pens)
    b = start
    order = range(len(pens))
    for i in reversed(order) if family.ascending else order:
        fits[i] = family.fit(design, pens[i], init=b if inits is None else inits[i],
                             tol=config.tol, max_iter=config.max_iter)
        b = fits[i].coef
    return fits


def path_grid(design, pen_template: PenaltySpec, config: PathConfig, lambdas=None):
    """A path's family, penalty per gamma, descending lambdas and start; checked, not fitted."""
    name = pen_template.family
    family = FAMILIES[name]
    if config.warm_start == "group_lasso_init" and name not in TWO_NORM_FAMILIES:
        raise ConfigError(f"warm_start group_lasso_init starts {TWO_NORM_FAMILIES} fits "
                          f"only, not {name}")
    if config.gamma_grid is None:
        pens = [pen_template]
    else:  # a family without a gamma refuses one
        pens = [pen_template.with_gamma(g) for g in config.gamma_grid]
    start = least_squares_init(design) if family.ascending else np.zeros(design.p)
    if lambdas is not None:
        return family, pens, np.sort(np.asarray(lambdas, dtype=float))[::-1], start
    ratio = config.lambda_min_ratio
    ratio = default_min_ratio(design) if ratio is None else ratio
    top = grid_top(design, pens, start)
    return family, pens, lambda_grid(top, config.n_lambda, ratio), start


def grid_top(design, pens, start=None) -> float:
    """``Family.top`` for ``pens``, one family's penalties; ``ConfigError`` when a
    penalty cannot be stated there, such as an sgl ``lam2`` whose ratio overflows."""
    top = FAMILIES[pens[0].family].top(design, pens[0], start)
    try:
        for pen in pens:
            pen.with_lam(top)
    except ValueError as exc:
        raise ConfigError(f"the grid top: {exc}") from None
    return top


def solution_path(
    design, pen_template: PenaltySpec, config: PathConfig = PathConfig(), lambdas=None
) -> SolutionPath:
    """Warm-started fits along a descending lambda grid, for any family.

    The grid runs from the family's top level down to ``lambda_min_ratio``
    times it, unless ``lambdas`` is given (it is then sorted descending).
    Every gamma of ``config.gamma_grid`` gets the grid of the first one, so
    grids built on different data (cross-validation folds) stay aligned
    point-for-point.  Each fit starts from the previous lambda's solution,
    the first from zero, or from least squares for an ascending family.
    With ``group_lasso_init`` every fit of a 2-norm family starts instead
    from the group LASSO solution at the same lambda (itself a chained
    path).  ``grid`` holds (lam, gamma) pairs, (lam1, lam2) for sgl.
    Non-converged points are recorded, not raised; a ``gamma_grid`` for a
    family without a gamma, or ``group_lasso_init`` for a family outside
    ``TWO_NORM_FAMILIES``, raises ``ConfigError``.
    """
    return fit_grid(design, config, *path_grid(design, pen_template, config, lambdas))


def fit_grid(design, config: PathConfig, family: Family, pens, lambdas, start) -> SolutionPath:
    """``solution_path``'s fits on the grid that ``path_grid`` returned."""
    inits = None
    if config.warm_start == "group_lasso_init":  # a 2-norm family (path_grid)
        glasso = [PenaltySpec("glasso", lam=float(lam)) for lam in lambdas]
        inits = [fit.coef for fit in _chain(_GROUP, design, glasso, config, start)]

    grid, fits = [], []
    for pen in pens:
        points = [pen.with_lam(lam) for lam in lambdas]
        grid += [(p.lam, p.second) for p in points]
        fits += _chain(family, design, points, config, start, inits)
    return SolutionPath(grid=grid, fits=fits, lambda_max=float(lambdas[0]))
