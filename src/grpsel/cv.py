"""Penalty parameter selection by K-fold cross-validation.

Each fold re-centers and re-standardizes from its own training rows only,
fits the full path on the shared penalty grid, and scores squared
prediction error on the held-out rows.  AIC/BIC-style criteria are not
offered: degrees-of-freedom estimates for these fits lean on the least
squares solution, which does not exist when p >> n.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .design import GroupedDesign, predict, rebuild_design
from .errors import FoldTooSmall
from .paths import PathConfig, solution_path
from .penalties import PenaltySpec

# joint (lambda, gamma) selection grids for the concave 2-norm families;
# the SCAD grid drops values below its gamma > 2 floor
DEFAULT_GAMMA_GRID = {
    "gmcp": (1.2, 2.7, 3.7, math.inf),
    "gscad": (2.7, 3.7, math.inf),
}


@dataclass
class CVReport:
    """Cross-validation error surface and the two standard choices.

    ``chosen_min`` minimizes the mean error; ``chosen_1se`` is the sparsest
    (largest lambda) grid point whose mean error is within one standard
    error of that minimum.  ``path`` is the full-data path on the same
    grid, convenient for refits at the chosen points.  ``n_nonconverged``
    counts the fits, over the full path and every fold path, that stopped
    without converging.
    """

    grid: list
    mean_cv_error: np.ndarray
    se: np.ndarray
    chosen_min: tuple
    chosen_1se: tuple
    fold_sizes: tuple
    path: object
    n_nonconverged: int


def fold_assignments(n: int, K: int, seed: int):
    """Deterministic fold index sets: a seeded shuffle cut into K chunks."""
    if K < 2:
        raise FoldTooSmall("need at least two folds")
    if K > n:
        raise FoldTooSmall(f"cannot form {K} folds from {n} observations")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, K)]


def kfold_cv(
    design: GroupedDesign,
    pen_template: PenaltySpec,
    config: PathConfig = None,
    K: int = 10,
    seed: int = 0,
) -> CVReport:
    """K-fold cross-validation of a pathwise fit over its (lambda, gamma) grid.

    The grid is fixed from the full data so every fold scores the same
    points; fold designs are rebuilt from raw training rows, so no held-out
    information enters the centering or the group factors.
    """
    if config is None:
        config = PathConfig()
    if config.gamma_grid is None and pen_template.family in DEFAULT_GAMMA_GRID:
        config = replace(config, gamma_grid=DEFAULT_GAMMA_GRID[pen_template.family])
    full_path = solution_path(design, pen_template, config)
    lambdas = np.array(sorted({lam for lam, _ in full_path.grid}, reverse=True))
    folds = fold_assignments(design.n, K, seed)
    n_nonconverged = sum(not fit.converged for fit in full_path.fits)

    n_points = len(full_path.grid)
    fold_means = np.empty((K, n_points))
    all_rows = np.arange(design.n)
    for f, test_rows in enumerate(folds):
        train_rows = np.setdiff1d(all_rows, test_rows)
        if train_rows.size < 2:
            raise FoldTooSmall("training folds need at least two rows")
        fold_design = rebuild_design(design, train_rows)
        fold_path = solution_path(design=fold_design, pen_template=pen_template,
                                  config=config, lambdas=lambdas)
        if fold_path.grid != full_path.grid:
            raise RuntimeError("fold grid does not align with the full-data grid")
        n_nonconverged += sum(not fit.converged for fit in fold_path.fits)
        X_test = design.X_raw[test_rows]
        y_test = design.y_raw[test_rows]
        for i, fit in enumerate(fold_path.fits):
            resid = y_test - predict(fold_design, fit.beta, X_test)
            fold_means[f, i] = float(resid @ resid) / test_rows.size
    mean_err = fold_means.mean(axis=0)
    se = fold_means.std(axis=0, ddof=1) / np.sqrt(K)

    i_min = int(np.argmin(mean_err))
    cutoff = mean_err[i_min] + se[i_min]
    candidates = [
        i for i in range(n_points) if mean_err[i] <= cutoff
    ]
    # sparsest first: largest lambda, then grid order for determinism
    i_1se = min(candidates, key=lambda i: (-full_path.grid[i][0], i))
    return CVReport(
        grid=list(full_path.grid),
        mean_cv_error=mean_err,
        se=se,
        chosen_min=full_path.grid[i_min],
        chosen_1se=full_path.grid[i_1se],
        fold_sizes=tuple(len(f) for f in folds),
        path=full_path,
        n_nonconverged=n_nonconverged,
    )
