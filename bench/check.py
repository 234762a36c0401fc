"""Checks the files the CLI wrote, fit by fit.

* ``path`` outputs: every coefficient row is mapped into a design rebuilt
  from the same input CSVs and its stationarity residual is recomputed with
  the library's public check for the family (``kkt_check``,
  ``lcd_stationarity`` or ``sgl_kkt``); a row fails above ``KKT_TOL``.  The
  group-norm companion file must match the coefficients.
* ``cv`` outputs: the grid, the chosen points and the fold sizes must agree
  with the reference values stored in ``reference/`` for the seed, and the
  chosen points must follow from the written grid.
* ``verify-theory`` outputs: ``mismatches``, ``eta1``, ``eta2`` and ``status``
  must agree with the stored reference, and the report must be consistent.

With ``ref`` None only the consistency checks run; ``run.py`` always passes
the stored reference for ``cv-concave`` and ``theory-mc``.
A command that exited nonzero fails all of its fits.
"""

import csv
import json
import math
import os

import numpy as np

from grpsel.bilevel import lcd_stationarity, sgl_kkt
from grpsel.design import build_design
from grpsel.errors import GrpselError
from grpsel.gcd import kkt_check
from grpsel.penalties import PenaltySpec

# Largest stationarity residual accepted for a written fit.  The solvers stop
# when no coefficient moves by more than 1e-7 over a cycle; the residuals
# they leave are below 1e-6 on every workload.
KKT_TOL = 1e-5
# Relative tolerances against the stored reference values.
LAMBDA_RTOL = 1e-9
CV_ERROR_RTOL = 1e-6
ETA_RTOL = 1e-9

CV_GAMMAS = 4  # the default joint grid of gmcp: 1.2, 2.7, 3.7, inf


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _column_groups(argv, names):
    _, grows = _read_csv(flag(argv, "--groups"))
    group_of = {name: int(g) for name, g in grows}
    return np.array([group_of[c] for c in names])


def _group_norms(beta, labels):
    return np.array([np.linalg.norm(beta[labels == g]) for g in np.unique(labels)])


def _load_design(argv, penalty):
    names, rows = _read_csv(flag(argv, "--x"))
    X = np.array(rows, dtype=float)
    _, yrows = _read_csv(flag(argv, "--y"))
    y = np.array([r[0] for r in yrows], dtype=float)
    labels = _column_groups(argv, names)
    if penalty == "gbridge":
        weights = ("pow", PenaltySpec("gbridge", lam=0.0).gamma)
    else:
        weights = "sqrt"
    orth = penalty in ("glasso", "gmcp", "gscad")
    return build_design(X, y, labels, weights=weights, orthonormalize=orth)


def _residual(design, penalty, lam, second, coef):
    if penalty == "sgl":
        return sgl_kkt(design, coef, lam, second)
    if penalty == "cmcp":
        return lcd_stationarity(design, PenaltySpec("cmcp", lam=lam, gamma_inner=second), coef)
    if penalty == "gbridge":
        return lcd_stationarity(design, PenaltySpec("gbridge", lam=lam, gamma=second), coef)
    return kkt_check(design, PenaltySpec(penalty, lam=lam, gamma=second), coef)


def _gamma_tags(argv):
    gammas = flag(argv, "--gamma")
    if gammas is None or "," not in gammas:
        return [""]
    tags = []
    for g in gammas.split(","):
        g = float(g)
        tags.append("_gamma" + ("inf" if math.isinf(g) else repr(g)))
    return tags


def expected_fits(argv):
    if argv[0] == "path":
        return int(flag(argv, "--nlambda")) * len(_gamma_tags(argv))
    if argv[0] == "cv":
        return int(flag(argv, "--nlambda")) * CV_GAMMAS * (int(flag(argv, "--folds")) + 1)
    with open(flag(argv, "--config")) as handle:
        return int(json.load(handle)["params"]["reps"])


class Outcome:
    """Fits attempted and failed, the largest residual, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kkt_max = 0.0
        self.problems = []

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.kkt_max = max(self.kkt_max, other.kkt_max)
        self.problems += other.problems

    def fail_all(self, expected, why):
        self.attempted, self.failed = expected, expected
        self.problems.append(why)
        return self


def check_path(argv):
    try:
        return _check_path(argv)
    except (OSError, ValueError, IndexError, GrpselError) as exc:
        return Outcome().fail_all(expected_fits(argv), f"path output unusable: {exc}")


def _check_path(argv):
    expected = expected_fits(argv)
    out = Outcome()
    penalty, prefix = flag(argv, "--penalty"), flag(argv, "--out")
    design = _load_design(argv, penalty)
    for tag in _gamma_tags(argv):
        coef_path, norm_path = f"{prefix}_path{tag}.csv", f"{prefix}_norms{tag}.csv"
        if not (os.path.exists(coef_path) and os.path.exists(norm_path)):
            return out.fail_all(expected, f"missing {coef_path} or its norms file")
        _, coef_rows = _read_csv(coef_path)
        _, norm_rows = _read_csv(norm_path)
        if len(coef_rows) != len(norm_rows):
            return out.fail_all(expected, f"{norm_path}: row count differs from coefficients")
        for row, norm_row in zip(coef_rows, norm_rows):
            out.attempted += 1
            lam, second = float(row[0]), float(row[2])
            beta = np.array(row[3:], dtype=float)
            residual = _residual(design, penalty, lam, second, design.transform(beta))
            norms_ok = np.allclose(np.array(norm_row[3:], dtype=float),
                                   _group_norms(beta, design.labels), rtol=1e-12, atol=0)
            out.kkt_max = max(out.kkt_max, residual)
            where = f"{coef_path} lambda={lam!r}"
            if not residual <= KKT_TOL:
                out.problems.append(f"{where}: residual {residual:.3g} above the KKT tolerance")
            if not norms_ok:
                out.problems.append(f"{where}: group norms disagree with the coefficients")
            out.failed += not (residual <= KKT_TOL and norms_ok)
    if out.attempted != expected:
        out.problems.append(f"{prefix}: {out.attempted} fits written, {expected} expected")
        out.failed += max(expected - out.attempted, 0)
        out.attempted = max(expected, out.attempted)
    return out


def extract_cv(argv):
    """The values of a ``cv`` run that the stored reference holds.

    Raises ValueError when the grid is not gamma-major blocks over one
    shared lambda sequence of the requested length.
    """
    prefix = flag(argv, "--out")
    _, rows = _read_csv(prefix + "_cvgrid.csv")
    with open(prefix + "_cv.json") as handle:
        report = json.load(handle)
    grid = np.array(rows, dtype=float)
    n_lambda = int(flag(argv, "--nlambda"))
    lambdas, gammas = grid[:n_lambda, 0], grid[::n_lambda, 1]
    if (len(grid) != n_lambda * CV_GAMMAS
            or not np.array_equal(grid[:, 0], np.tile(lambdas, CV_GAMMAS))
            or not np.array_equal(grid[:, 1], np.repeat(gammas, n_lambda))):
        raise ValueError("cv grid is not the (gamma, lambda) product")
    chosen = {key: [report[key]["lambda"], report[key]["gamma"], report[key]["n_nonzero"]]
              for key in ("chosen_min", "chosen_1se")}
    return {"lambda": lambdas.tolist(), "gamma": gammas.tolist(),
            "mean": grid[:, 2].tolist(), "se": grid[:, 3].tolist(),
            "fold_sizes": report["fold_sizes"], "min_cv_error": report["min_cv_error"],
            **chosen}


def _cv_consistency(argv, got):
    n = len(_read_csv(flag(argv, "--y"))[1])
    mean, se = np.array(got["mean"]), np.array(got["se"])
    n_lambda = len(got["lambda"])
    point = [(lam, g) for g in got["gamma"] for lam in got["lambda"]]
    if not (np.all(np.isfinite(mean)) and np.all(mean > 0) and np.all(np.isfinite(se))):
        return "cv errors not finite and positive"
    i_min = int(np.argmin(mean))
    cutoff = mean[i_min] + se[i_min]
    i_1se = min((i for i in range(len(mean)) if mean[i] <= cutoff),
                key=lambda i: (-point[i][0], i))
    if tuple(got["chosen_min"][:2]) != point[i_min]:
        return "chosen_min is not the grid minimum"
    if tuple(got["chosen_1se"][:2]) != point[i_1se]:
        return "chosen_1se does not follow the one-standard-error rule"
    if got["min_cv_error"] != mean[i_min]:
        return "min_cv_error differs from the grid minimum"
    if sum(got["fold_sizes"]) != n or len(got["fold_sizes"]) != int(flag(argv, "--folds")):
        return "fold sizes do not partition the rows"
    if n_lambda != int(flag(argv, "--nlambda")):
        return "lambda grid has the wrong length"
    return None


def _cv_against(ref, got):
    if got["fold_sizes"] != ref["fold_sizes"] or got["gamma"] != ref["gamma"]:
        return "gamma grid or folds differ from the reference"
    if not np.allclose(got["lambda"], ref["lambda"], rtol=LAMBDA_RTOL, atol=0):
        return "lambda grid differs from the reference"
    for key in ("mean", "se"):
        if not np.allclose(got[key], ref[key], rtol=CV_ERROR_RTOL, atol=0):
            return f"cv {key} differs from the reference"
    for key in ("chosen_min", "chosen_1se"):
        (lam, g, nnz), (rlam, rg, rnnz) = got[key], ref[key]
        if g != rg or nnz != rnnz or not math.isclose(lam, rlam, rel_tol=LAMBDA_RTOL):
            return f"{key} differs from the reference"
    return None


def check_cv(argv, ref):
    expected = expected_fits(argv)
    out = Outcome()
    try:
        got = extract_cv(argv)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return out.fail_all(expected, f"cv output unreadable: {exc}")
    why = _cv_consistency(argv, got) or (ref is not None and _cv_against(ref, got))
    if why:
        return out.fail_all(expected, f"{flag(argv, '--out')}: {why}")
    out.attempted = expected
    return out


def extract_theory(argv):
    with open(flag(argv, "--out")) as handle:
        report = json.load(handle)
    return {k: report[k] for k in ("mismatches", "eta1", "eta2", "status")}


def _theory_problem(argv, report, ref):
    reps = expected_fits(argv)
    if report["reps"] != reps or not 0 <= report["mismatches"] <= reps:
        return "replicate count or mismatch count out of range"
    if report["empirical_prob"] != report["mismatches"] / reps:
        return "empirical_prob is not mismatches / reps"
    if report["status"] != "CONDITION_VIOLATED":
        holds = report["empirical_prob"] <= report["bound_total"] + report["ci99_margin"]
        if report["status"] != ("PASS" if holds else "FAIL"):
            return "status does not follow from the bound"
    if ref is None:
        return None
    if report["mismatches"] != ref["mismatches"] or report["status"] != ref["status"]:
        return "mismatches or status differ from the reference"
    for key in ("eta1", "eta2"):
        if not math.isclose(report[key], ref[key], rel_tol=ETA_RTOL):
            return f"{key} differs from the reference"
    return None


def check_theory(argv, ref):
    expected = expected_fits(argv)
    out = Outcome()
    try:
        with open(flag(argv, "--out")) as handle:
            report = json.load(handle)
        why = _theory_problem(argv, report, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        why = f"report unreadable: {exc}"
    if why:
        return out.fail_all(expected, f"{flag(argv, '--out')}: {why}")
    out.attempted = expected
    return out


def check_instance(argvs, exit_codes, ref):
    """Check one instance's commands; ``ref`` is its stored reference or None."""
    total = Outcome()
    for argv, rc in zip(argvs, exit_codes):
        if rc != 0:
            total.add(Outcome().fail_all(expected_fits(argv), f"{argv[0]} exited with {rc}"))
        elif argv[0] == "path":
            total.add(check_path(argv))
        elif argv[0] == "cv":
            total.add(check_cv(argv, ref))
        else:
            total.add(check_theory(argv, ref))
    return total


def _rewrite_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header] + rows)


def corrupt(argvs):
    """Damage the first output of an instance in place (the negative control).

    Each damage keeps the outputs consistent with each other, so that only
    one check can catch it: a path's coefficient row (with its group norms
    rewritten to match) only by the KKT residual, a cv grid (its errors
    doubled, which keeps every choice and ``min_cv_error`` consistent) and a
    theorem1 ``eta1`` (off by a relative 1e-6) only by the stored reference.
    Returns the text every reported problem must contain.
    """
    argv = argvs[0]
    prefix = flag(argv, "--out")
    if argv[0] == "path":
        tag = _gamma_tags(argv)[-1]
        names, _ = _read_csv(flag(argv, "--x"))
        header, rows = _read_csv(f"{prefix}_path{tag}.csv")
        norm_header, norm_rows = _read_csv(f"{prefix}_norms{tag}.csv")
        beta = np.array(rows[-1][3:], dtype=float)
        k = int(np.argmax(np.abs(beta)))
        beta[k] = beta[k] * 1.5 + 0.1
        rows[-1][3 + k] = repr(float(beta[k]))
        norm_rows[-1][3:] = [repr(float(v)) for v in _group_norms(beta, _column_groups(argv, names))]
        _rewrite_csv(f"{prefix}_path{tag}.csv", header, rows)
        _rewrite_csv(f"{prefix}_norms{tag}.csv", norm_header, norm_rows)
        return "above the KKT tolerance"
    if argv[0] == "cv":
        header, rows = _read_csv(prefix + "_cvgrid.csv")
        for row in rows:
            row[2], row[3] = repr(2 * float(row[2])), repr(2 * float(row[3]))
        _rewrite_csv(prefix + "_cvgrid.csv", header, rows)
        with open(prefix + "_cv.json") as handle:
            report = json.load(handle)
        report["min_cv_error"] *= 2
        with open(prefix + "_cv.json", "w") as handle:
            json.dump(report, handle)
        return "cv mean differs from the reference"
    with open(prefix) as handle:
        report = json.load(handle)
    report["eta1"] *= 1 + 1e-6
    with open(prefix, "w") as handle:
        json.dump(report, handle)
    return "eta1 differs from the reference"
