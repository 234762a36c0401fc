"""Command-line entry points.

Subcommands: ``simulate`` (scenario data sets), ``fit`` (single fit),
``path`` (pathwise fits plus a plot-ready group-norm companion file),
``cv`` (K-fold cross-validation report), ``verify-theory`` (runs a named
theory experiment from a JSON config).  Inputs are headered CSV files:
predictors with column names, a single-column response, and a two-column
(column_name, group_id) group map.  All outputs are deterministic given
the inputs, flags and seed; files are written atomically
(write-temp-then-rename).  Exit status: 0 on success, 2 on bad inputs or
configs, 1 on solver failures, 3 when a ``verify-theory`` report says FAIL.
"""

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import warnings
from collections import Counter

import numpy as np

from .cv import kfold_cv
from .design import build_design, group_norms
from .errors import (ConfigError, FoldTooSmall, GammaOutOfRange, GrpselError, NonFiniteInput,
                     ParseError)
from .paths import FAMILIES, GAMMALESS, WARM_STARTS, PathConfig, solution_path
from .penalties import PenaltySpec
from .scenarios import ScenarioSpec, make_scenario
from .theory import run_experiment

# verify-theory's status for a report that says FAIL (PASS and
# CONDITION_VIOLATED exit 0); distinct from 1 and 2
EXIT_FAIL = 3


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_grpsel_")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """Rows of Python values, each cell written as ``str``.

    A Python float's ``str`` is its shortest round-trip repr (``inf`` for
    infinity); callers pass numpy data as ``.tolist()`` rows.
    """
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _loadtxt(path: str, source, **options) -> np.ndarray:
    """Numeric CSV body parsed by numpy; an empty body gives zero rows."""
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on an empty body; the callers count the rows
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(source, delimiter=",", comments=None, quotechar='"',
                              **options)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_matrix_csv(path: str):
    """Headered CSV of predictors: returns (column names, float matrix)."""
    with open(path, newline="") as handle:
        names = [c.strip() for c in next(csv.reader(handle), [])]
        X = _loadtxt(path, handle, ndmin=2)
    if not X.shape[0]:
        raise ParseError(f"{path}: no data rows")
    if X.shape[1] != len(names):
        raise ParseError(f"{path}: rows with {X.shape[1]} cells, expected {len(names)}")
    return names, X


def read_vector_csv(path: str) -> np.ndarray:
    """First column of a CSV; an initial non-numeric line is taken as a header."""
    with open(path, newline="") as handle:
        first = next((line for line in handle if line.strip()), "")
        try:
            head = _loadtxt(path, [first], ndmin=1, usecols=0)
        except ParseError:
            head = np.empty(0)  # a header
        y = np.concatenate([head, _loadtxt(path, handle, ndmin=1, usecols=0)])
    if not y.size:
        raise ParseError(f"{path}: no data rows")
    return y


def _read_map(path: str, key_name: str, keys, key_type, value_type) -> np.ndarray:
    """Values of a two-column (key, value) CSV, one per entry of ``keys``.

    A first row whose first cell is ``key_name`` is a header.  Every key
    must appear exactly once, and no other key may appear.
    """
    with open(path, newline="") as handle:
        header = next(csv.reader([handle.readline()]))
        if not header or header[0].strip() != key_name:
            handle.seek(0)
        rows = _loadtxt(path, handle, ndmin=1,
                        dtype=[("key", key_type), ("value", value_type)])
    found = rows["key"].tolist()
    if key_type is object:
        found = [k.strip() for k in found]
    table = dict(zip(found, rows["value"].tolist()))
    for bad, what in (
        ([k for k, m in Counter(found).items() if m > 1], "listed more than once"),
        (sorted(table.keys() - set(keys)), "not in the data"),
        ([k for k in keys if k not in table], "without a row"),
    ):
        if bad:
            raise ParseError(f"{path}: {key_name} {bad} {what}")
    return np.array([table[k] for k in keys])


def read_groups_csv(path: str, names) -> np.ndarray:
    """Two-column (column_name, group_id) CSV mapped onto the predictor names."""
    return _read_map(path, "column_name", names, object, np.int64)


def _weights_arg(args, pen: PenaltySpec, labels):
    if args.weights == "sqrt":
        if pen.family == "gbridge":
            return ("pow", pen.gamma)  # the size adjustment matching the bridge
        return "sqrt"
    if args.weights == "pow":
        exponent = args.weights_exponent
        if exponent is None or not math.isfinite(exponent):
            raise ParseError("--weights pow needs a finite --weights-exponent")
        with np.errstate(over="ignore", under="ignore"):
            powers = np.unique(labels, return_counts=True)[1] ** exponent
        if not np.all(np.isfinite(powers) & (powers > 0)):
            raise ParseError(f"--weights-exponent {exponent!r}: the group sizes to that "
                             "power are not all finite and positive")
        return ("pow", exponent)
    if args.weights == "file":
        if args.weights_file is None:
            raise ParseError("--weights file needs --weights-file")
        uniq = np.unique(labels).tolist()
        weights = _read_map(args.weights_file, "group_id", uniq, np.int64, float)
        bad = {g: w for g, w in zip(uniq, weights.tolist()) if not 0 < w < math.inf}
        if bad:
            raise ParseError(f"{args.weights_file}: weights must be finite and positive: {bad}")
        return weights
    raise ParseError(f"unknown weights rule {args.weights!r}")


def _parse_gammas(text):
    if text is None:
        return None
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = float(part)
        except ValueError:
            raise ConfigError(f"--gamma: cannot parse {part!r} as a number") from None
        if value in out:
            raise ConfigError(f"--gamma: {value} is listed more than once")
        out.append(value)
    if not out:
        raise ParseError("empty --gamma list")
    return out


def _load_problem(args):
    """The command's gamma list, penalty template, column names and design,
    and the name of its grid's second column (``lambda2`` for sgl)."""
    if not 0 <= args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and nonnegative, not {args.tol!r}")
    if args.max_iter < 1:
        raise ConfigError(f"--max-iter must be at least 1, not {args.max_iter}")
    gammas = _parse_gammas(args.gamma)
    if gammas and args.penalty in GAMMALESS:
        raise ConfigError(f"--penalty {args.penalty} has no gamma; drop --gamma")
    try:
        if args.penalty == "sgl":
            pen = PenaltySpec("sgl", lam=0.0, lam2=args.lambda2 or 0.0)
        else:
            pen = PenaltySpec(args.penalty, lam=0.0)
            # every listed gamma is checked before any data is read
            checked = [pen.with_gamma(g) for g in gammas or ()]
            pen = checked[0] if checked else pen
    except (ValueError, GammaOutOfRange) as exc:
        flag = "--lambda2" if args.penalty == "sgl" else "--gamma"
        raise ConfigError(f"bad {flag} value: {exc}") from None
    names, X = read_matrix_csv(args.x)
    y = read_vector_csv(args.y)
    labels = read_groups_csv(args.groups, names)
    design = build_design(X, y, labels, weights=_weights_arg(args, pen, labels),
                          orthonormalize=FAMILIES[pen.family].orthonormalized)
    return gammas, pen, names, design, "lambda2" if pen.family == "sgl" else "gamma"


def _lambda_value(args, design, pen):
    if args.lam == "max":
        return FAMILIES[pen.family].top(design, pen, None)
    try:
        return pen.with_lam(float(args.lam)).lam
    except ValueError as exc:
        raise ConfigError(f"bad --lambda value {args.lam!r}: {exc}") from None


def cmd_simulate(args) -> int:
    spec = ScenarioSpec(
        name=args.scenario,
        n=args.n,
        sigma=args.sigma,
        correlation=args.correlation,
        seed=args.seed,
        group_sizes=tuple(int(v) for v in args.group_sizes.split(",")) if args.group_sizes else None,
        beta=tuple(float(v) for v in args.beta.split(",")) if args.beta else None,
    )
    data = make_scenario(spec)
    prefix = args.out
    write_csv(prefix + "_X.csv", data.column_names, data.X.tolist())
    write_csv(prefix + "_y.csv", ["y"], [[v] for v in data.y.tolist()])
    write_csv(
        prefix + "_groups.csv",
        ["column_name", "group_id"],
        [[name, int(g)] for name, g in zip(data.column_names, data.labels)],
    )
    write_csv(
        prefix + "_truth.csv",
        ["column_name", "group_id", "beta_true", "group_in_support"],
        [
            [name, int(g), float(b), int(g in data.support)]
            for name, g, b in zip(data.column_names, data.labels, data.beta_true)
        ],
    )
    print(f"wrote {prefix}_{{X,y,groups,truth}}.csv")
    return 0


def _report_nonconverged(k: int, total: int) -> None:
    if k:
        print(f"{k} of {total} fits did not converge", file=sys.stderr)


def cmd_fit(args) -> int:
    _, pen0, names, design, second_name = _load_problem(args)
    lam = _lambda_value(args, design, pen0)
    pen = pen0.with_lam(lam, args.lambda2 if pen0.family == "sgl" else None)
    fit = FAMILIES[pen.family].fit(design, pen, tol=args.tol, max_iter=args.max_iter)
    second_val = pen.lam2 if pen.family == "sgl" else pen.shape_param
    write_csv(
        args.out + "_coef.csv",
        ["lambda", second_name] + names,
        [[pen.lam, second_val] + fit.beta.tolist()],
    )
    write_json(
        args.out + "_fit.json",
        {
            "penalty": pen.family,
            "lambda": pen.lam,
            second_name: second_val,
            "objective": fit.objective,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "kkt_max_violation": fit.kkt_max_violation,
            "n_nonzero": fit.n_nonzero,
        },
    )
    print(
        f"fit {pen.family}: lambda={pen.lam} objective={fit.objective} "
        f"nonzero={fit.n_nonzero} converged={fit.converged}"
    )
    return 0


def _path_config(args, gammas=None) -> PathConfig:
    if args.nlambda < 2:
        raise ConfigError("--nlambda must be at least 2")
    if args.lambda_min_ratio is not None and not 0 < args.lambda_min_ratio < 1:
        raise ConfigError("--lambda-min-ratio must lie in (0, 1)")
    if not 0 <= args.lambda2_ratio < math.inf:
        raise ConfigError("--lambda2-ratio must be finite and nonnegative")
    return PathConfig(
        n_lambda=args.nlambda,
        lambda_min_ratio=args.lambda_min_ratio,
        gamma_grid=tuple(gammas) if gammas else None,
        warm_start=args.warm_start,
        tol=args.tol,
        max_iter=args.max_iter,
        sgl_lambda2_ratio=args.lambda2_ratio,
        sgl_lambda2=args.lambda2,
    )


def cmd_path(args) -> int:
    gammas, pen0, names, design, second = _load_problem(args)
    path = solution_path(design, pen0, _path_config(args, gammas))
    _report_nonconverged(sum(not f.converged for f in path.fits), len(path.fits))
    grid = np.array(path.grid)
    lead = np.column_stack([grid[:, 0], grid[:, 0] / (path.lambda_max or 1.0), grid[:, 1]])
    norms = np.array([group_norms(design, f.beta) for f in path.fits])
    tables = {
        "path": (names, np.hstack([lead, path.coef_matrix()])),
        "norms": ([f"group_{g}" for g in np.unique(design.labels).tolist()],
                  np.hstack([lead, norms])),
    }
    blocks = [("", slice(None))]
    if FAMILIES[pen0.family].orthonormalized and gammas and len(gammas) > 1:
        # solution_path lays out one equal-length block per gamma, in list order
        size = len(path.grid) // len(gammas)
        blocks = [(f"_gamma{g}", slice(k * size, (k + 1) * size))
                  for k, g in enumerate(gammas)]
    for kind, (columns, table) in tables.items():
        header = ["lambda", "lambda_ratio", second] + columns
        for tag, block in blocks:
            # one row of Python floats at a time keeps the peak memory down
            write_csv(f"{args.out}_{kind}{tag}.csv", header,
                      (row.tolist() for row in table[block]))
    written = f"{len(blocks)} path file pairs" if len(blocks) > 1 else "path files"
    print(f"wrote {written} under prefix {args.out}")
    return 0


def cmd_cv(args) -> int:
    if args.folds < 2:
        raise ConfigError("--folds must be at least 2")
    gammas, pen0, names, design, second = _load_problem(args)
    config = _path_config(args, gammas)
    report = kfold_cv(design, pen0, config, K=args.folds, seed=args.seed)
    _report_nonconverged(report.n_nonconverged, len(report.grid) * (args.folds + 1))
    write_csv(
        args.out + "_cvgrid.csv",
        ["lambda", second, "mean_cv_error", "se"],
        np.column_stack([report.grid, report.mean_cv_error, report.se]).tolist(),
    )
    chosen_fit_min = report.path.fits[report.grid.index(report.chosen_min)]
    chosen_fit_1se = report.path.fits[report.grid.index(report.chosen_1se)]
    write_json(
        args.out + "_cv.json",
        {
            "penalty": pen0.family,
            "folds": args.folds,
            "seed": args.seed,
            "fold_sizes": list(report.fold_sizes),
            "chosen_min": {"lambda": report.chosen_min[0], second: report.chosen_min[1],
                           "n_nonzero": chosen_fit_min.n_nonzero},
            "chosen_1se": {"lambda": report.chosen_1se[0], second: report.chosen_1se[1],
                           "n_nonzero": chosen_fit_1se.n_nonzero},
            "min_cv_error": float(np.min(report.mean_cv_error)),
            "n_nonconverged": report.n_nonconverged,
        },
    )
    print(
        f"cv {pen0.family}: chosen_min lambda={report.chosen_min[0]} "
        f"chosen_1se lambda={report.chosen_1se[0]}"
    )
    return 0


def cmd_verify_theory(args) -> int:
    with open(args.config) as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    report = run_experiment(config)
    write_json(args.out, report)
    if "n_nonconverged" in report:
        _report_nonconverged(report["n_nonconverged"], report["reps"])
    if "cases" in report:
        for case in report["cases"]:
            print(f"{case['status']}: t={case['t']} k={case['k']} "
                  f"empirical={case['empirical']} bound={case['bound']}")
    status = report.get("status", "PASS" if report.get("pass") else "FAIL")
    print(f"{status}: {report['experiment']}")
    return EXIT_FAIL if status == "FAIL" else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpsel", description="Group-penalized regression toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a simulated scenario data set")
    sim.add_argument("--scenario", default="figure1",
                     choices=["figure1", "figure3", "custom"])
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--sigma", type=float, default=0.5)
    sim.add_argument("--correlation", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--group-sizes", default=None, help="custom: comma list")
    sim.add_argument("--beta", default=None, help="custom: comma list")
    sim.add_argument("--out", required=True, help="output file prefix")
    sim.set_defaults(func=cmd_simulate)

    def add_grid_flags(p):
        add_data_flags(p)
        p.add_argument("--nlambda", type=int, default=100)
        p.add_argument("--lambda-min-ratio", type=float, default=None)
        p.add_argument("--warm-start", default="previous_lambda", choices=WARM_STARTS)
        p.add_argument("--lambda2-ratio", type=float, default=1.0)

    def add_data_flags(p):
        p.add_argument("--x", required=True, help="predictor CSV (headered)")
        p.add_argument("--y", required=True, help="response CSV (single column)")
        p.add_argument("--groups", required=True,
                       help="column_name,group_id CSV")
        p.add_argument("--penalty", required=True, choices=list(FAMILIES))
        p.add_argument("--gamma", default=None,
                       help="concavity parameter(s), comma list; 'inf' allowed; "
                            "not for glasso or sgl")
        p.add_argument("--lambda2", type=float, default=None,
                       help="sgl group-level penalty")
        p.add_argument("--weights", default="sqrt", choices=["sqrt", "pow", "file"])
        p.add_argument("--weights-exponent", type=float, default=None)
        p.add_argument("--weights-file", default=None)
        p.add_argument("--tol", type=float, default=1e-7)
        p.add_argument("--max-iter", type=int, default=10_000)
        p.add_argument("--out", required=True, help="output file prefix")

    fit = sub.add_parser("fit", help="fit at a single penalty level")
    add_data_flags(fit)
    fit.add_argument("--lambda", dest="lam", required=True,
                     help="penalty level, or 'max'")
    fit.set_defaults(func=cmd_fit)

    path = sub.add_parser("path", help="pathwise fits over a lambda grid")
    add_grid_flags(path)
    path.set_defaults(func=cmd_path)

    cv = sub.add_parser("cv", help="K-fold cross-validation over the grid")
    add_grid_flags(cv)
    cv.add_argument("--folds", type=int, default=10)
    cv.add_argument("--seed", type=int, default=0)
    cv.set_defaults(func=cmd_cv)

    verify = sub.add_parser("verify-theory", help="run a theory experiment")
    verify.add_argument("--config", required=True, help="JSON experiment config")
    verify.add_argument("--out", required=True, help="report JSON path")
    verify.set_defaults(func=cmd_verify_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, NonFiniteInput, FoldTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GrpselError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
