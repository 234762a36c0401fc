"""Penalty parameter selection by K-fold cross-validation.

Each fold re-centers and re-standardizes from its own training rows only,
fits the full path on the shared penalty grid, and scores squared
prediction error on the held-out rows; the K + 1 paths run in forked
processes, one per usable CPU.  AIC/BIC-style criteria are not offered:
degrees-of-freedom estimates for these fits lean on the least squares
solution, which does not exist when p >> n.
"""

import math
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .design import GroupedDesign, predict, rebuild_design
from .errors import ConfigError, FoldTooSmall, GrpselError
from .paths import PathConfig, fit_grid, path_grid, solution_path
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
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, not {seed!r}")
    if K < 2:
        raise FoldTooSmall("need at least two folds")
    if K > n:
        raise FoldTooSmall(f"cannot form {K} folds from {n} observations")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, K)]


def _cpu_count() -> int:
    """CPUs this process may use; 1 where unknown (every platform that knows can fork)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _forked_map(fn, n_jobs: int) -> list:
    """``[fn(j) for j in range(n_jobs)]``; process k of w = CPU count runs jobs k, k + w, ...

    Process 0 is the caller, the others are forked and pickle their outcomes
    into a pipe.  All are reaped before the lowest failing job's error is raised.
    """
    w = min(_cpu_count(), n_jobs)
    children, outcomes = [], []

    def share(first):  # (job, exception, result) triples up to the first failure
        done = []
        for j in range(first, n_jobs, w):
            try:
                done.append((j, None, fn(j)))
            except Exception as exc:
                return done + [(j, exc, None)]
        return done

    try:
        for first in range(1, w):
            read_end, write_end = os.pipe()
            if (pid := os.fork()) == 0:  # never returns into the caller's stack
                try:
                    with os.fdopen(write_end, "wb") as pipe:
                        pickle.dump(share(first), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            children.append((pid, read_end, first))
        outcomes += share(0)
    finally:
        for pid, read_end, first in children:
            with os.fdopen(read_end, "rb") as pipe:
                try:  # unpickled as it is read: the pickle's bytes are never held whole
                    shared = pickle.load(pipe)
                except Exception as exc:  # cut short (a dead child) or not loadable
                    shared = [(first, exc, None)]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            lost = GrpselError(f"cross-validation folds {[*range(first, n_jobs, w)]} lost: "
                               f"their process ended with returncode {status}")
            outcomes += shared if status == 0 else [(first, lost, None)]
    failed = [(j, exc) for j, exc, _ in outcomes if exc is not None]
    if failed:
        raise min(failed, key=lambda failure: failure[0])[1]
    return [result for _, _, result in sorted(outcomes, key=lambda outcome: outcome[0])]


def kfold_cv(
    design: GroupedDesign,
    pen_template: PenaltySpec,
    config: PathConfig = PathConfig(),
    K: int = 10,
    seed: int = 0,
) -> CVReport:
    """K-fold cross-validation of a pathwise fit over its (lambda, gamma) grid.

    The grid is fixed from the full data so every fold scores the same
    points; fold designs are rebuilt from raw training rows, so no held-out
    information enters the centering or the group factors.  Grid and folds
    are checked before any fit; fold paths run in forked children (``_forked_map``).
    """
    if config.gamma_grid is None and pen_template.family in DEFAULT_GAMMA_GRID:
        config = replace(config, gamma_grid=DEFAULT_GAMMA_GRID[pen_template.family])
    folds = fold_assignments(design.n, K, seed)  # before path_grid, whose gbridge top fits
    if design.n - max(map(len, folds)) < 2:
        raise FoldTooSmall("training folds need at least two rows")
    grid = path_grid(design, pen_template, config)
    lambdas = grid[2]

    def job(j):  # job 0 is the full-data path, job j > 0 scores fold j (counted from 1)
        if j == 0:  # the full-data path fits the grid laid out above
            return fit_grid(design, config, *grid)
        fold_design = rebuild_design(design, np.setdiff1d(np.arange(design.n), folds[j - 1]))
        fold_path = solution_path(design=fold_design, pen_template=pen_template,
                                  config=config, lambdas=lambdas)
        X_test, y_test = design.X_raw[folds[j - 1]], design.y_raw[folds[j - 1]]
        resids = [y_test - predict(fold_design, fit.beta, X_test) for fit in fold_path.fits]
        errors = [float(resid @ resid) / y_test.size for resid in resids]
        return errors, sum(not fit.converged for fit in fold_path.fits), fold_path.grid

    full_path, *fold_results = _forked_map(job, K + 1)
    fold_means, counts, grids = zip(*fold_results)
    if any(grid != full_path.grid for grid in grids):
        raise RuntimeError("fold grid does not align with the full-data grid")
    n_nonconverged = sum(counts) + sum(not fit.converged for fit in full_path.fits)
    mean_err = np.mean(fold_means, axis=0)
    se = np.std(fold_means, axis=0, ddof=1) / np.sqrt(K)

    i_min = int(np.argmin(mean_err))
    cutoff = mean_err[i_min] + se[i_min]
    # sparsest first: largest lambda, then grid order for determinism
    i_1se = min((i for i in range(len(mean_err)) if mean_err[i] <= cutoff),
                key=lambda i: (-full_path.grid[i][0], i))
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
