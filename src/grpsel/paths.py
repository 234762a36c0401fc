"""Warm-started pathwise fits, one driver for every penalty family.

``FAMILIES`` records, per family, the solver that fits it, the penalty
level at which that fit is identically zero (the top of the grid), whether
the design must be orthonormalized and which way the path runs;
``solution_path`` walks the grid for any family from that table.
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
from .penalties import PenaltySpec

__all__ = ["FAMILIES", "Family", "PathConfig", "fit_path", "fit_path_lcd",
           "fit_path_sgl", "solution_path"]

WARM_STARTS = ("previous_lambda", "group_lasso_init")
GAMMALESS = ("glasso", "sgl")  # families without a gamma to vary


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
    orthonormalized: bool
    ascending: bool = False


_GROUP = Family(
    fit=lambda design, pen, **kw: gcd.fit_gcd(design, pen, **kw),
    top=lambda design, pen, start: gcd.lambda_max(design),
    orthonormalized=True,
)


def _fit_lcd(design, pen, **kw):
    return bilevel.fit_lcd(design, pen, **kw)


FAMILIES = {
    "glasso": _GROUP,
    "gmcp": _GROUP,
    "gscad": _GROUP,
    # a bridge group at zero cannot re-enter (its tangent slope diverges)
    "gbridge": Family(
        fit=_fit_lcd,
        top=lambda design, pen, start: bilevel.bridge_lambda_upper(design, pen, start),
        orthonormalized=False,
        ascending=True,
    ),
    "cmcp": Family(
        fit=_fit_lcd,
        top=lambda design, pen, start: bilevel.cmcp_lambda_max(design),
        orthonormalized=False,
    ),
    "sgl": Family(
        fit=lambda design, pen, **kw: bilevel.fit_sparse_group_lasso(
            design, pen.lam, pen.lam2, **kw),
        top=lambda design, pen, start: bilevel.sgl_lambda_max(design),
        orthonormalized=False,
    ),
}


@dataclass(frozen=True)
class PathConfig:
    """Grid and solver settings shared by path fits and cross-validation.

    ``gamma_grid`` applies to every family but glasso and sgl, which
    refuse one; ``None`` means the single value carried by the penalty
    spec.  For the sgl family the group-level parameter follows the grid as
    ``lam2 = sgl_lambda2_ratio * lam1`` unless ``sgl_lambda2`` pins it.
    """

    n_lambda: int = 100
    lambda_min_ratio: float = None
    gamma_grid: tuple = None
    warm_start: str = "previous_lambda"
    tol: float = 1e-7
    max_iter: int = 10_000
    sgl_lambda2_ratio: float = 1.0
    sgl_lambda2: float = None


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
    if config.warm_start not in WARM_STARTS:
        raise ValueError(f"unknown warm start strategy {config.warm_start!r}")
    family = FAMILIES[pen_template.family]
    if config.gamma_grid is None:
        pens = [pen_template]
    elif pen_template.family in GAMMALESS:
        raise ConfigError(f"{pen_template.family} has no gamma to vary; "
                          "gamma_grid must be None")
    else:
        for i, g in enumerate(config.gamma_grid):
            if g in config.gamma_grid[:i]:
                raise ConfigError(f"gamma_grid lists {g} more than once")
        pens = [pen_template.with_gamma(g) for g in config.gamma_grid]
    start = least_squares_init(design) if family.ascending else np.zeros(design.p)
    if lambdas is not None:
        return family, pens, np.sort(np.asarray(lambdas, dtype=float))[::-1], start
    ratio = config.lambda_min_ratio
    ratio = default_min_ratio(design) if ratio is None else ratio
    top = family.top(design, pens[0], start)
    return family, pens, lambda_grid(top, config.n_lambda, ratio), start


def solution_path(
    design, pen_template: PenaltySpec, config: PathConfig = None, lambdas=None
) -> SolutionPath:
    """Warm-started fits along a descending lambda grid, for any family.

    The grid runs from the family's top level down to ``lambda_min_ratio``
    times it, unless ``lambdas`` is given (it is then sorted descending).
    Every gamma of ``config.gamma_grid`` gets the grid of the first one, so
    grids built on different data (cross-validation folds) stay aligned
    point-for-point.  Each fit starts from the previous lambda's solution,
    the first from zero, or from least squares for an ascending family.
    With ``group_lasso_init`` every 2-norm fit starts instead from the
    group LASSO solution at the same lambda (itself a chained path).
    ``grid`` holds (lam, gamma) pairs, (lam1, lam2) for sgl.
    Non-converged points are recorded, not raised; a repeated gamma, or a
    ``gamma_grid`` for glasso or sgl, raises ``ConfigError``.
    """
    if config is None:
        config = PathConfig()
    family, pens, lambdas, start = path_grid(design, pen_template, config, lambdas)
    inits = None
    if config.warm_start == "group_lasso_init" and family.orthonormalized:
        glasso = [PenaltySpec("glasso", lam=float(lam)) for lam in lambdas]
        inits = [fit.coef for fit in _chain(_GROUP, design, glasso, config, start)]

    grid, fits = [], []
    for pen in pens:
        if pen.family == "sgl":
            lam2 = config.sgl_lambda2
            points = [pen.with_lam(lam, config.sgl_lambda2_ratio * float(lam)
                                   if lam2 is None else lam2) for lam in lambdas]
            grid += [(p.lam, p.lam2) for p in points]
        else:
            points = [pen.with_lam(lam) for lam in lambdas]
            grid += [(p.lam, float(p.shape_param)) for p in points]
        fits += _chain(family, design, points, config, start, inits)
    return SolutionPath(grid=grid, fits=fits, lambda_max=float(lambdas[0]))
