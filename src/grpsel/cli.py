"""Command-line entry points.

Subcommands: ``simulate`` (scenario data sets), ``fit`` (single fit),
``path`` (pathwise fits plus a plot-ready group-norm companion file),
``cv`` (K-fold cross-validation report), ``verify-theory`` (runs a named
theory experiment from a JSON config).  Inputs are headered CSV files:
predictors with column names, a single-column response, and a two-column
(column_name, group_id) group map.  All outputs are deterministic given
the inputs, flags and seed; files are written atomically
(write-temp-then-rename).  Exit status: 0 on success, 2 on bad inputs or
configs, 1 on solver failures.
"""

import argparse
import csv
import json
import math
import os
import sys
import tempfile

import numpy as np

from .cv import kfold_cv
from .design import build_design, group_norms
from .errors import ConfigError, GrpselError, NonFiniteInput, ParseError
from .paths import FAMILIES, WARM_STARTS, PathConfig, solution_path
from .penalties import PenaltySpec
from .scenarios import ScenarioSpec, make_scenario
from .theory import run_experiment


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # shortest round-trip representation
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_cell(cell: str, path: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"{path}: cannot parse {cell!r} as a number") from None


def read_matrix_csv(path: str):
    """Headered CSV of predictors: returns (column names, float matrix)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            names = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        names = [c.strip() for c in names]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(f"{path}: row with {len(row)} cells, expected {len(names)}")
            rows.append([_parse_cell(c, path) for c in row])
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return names, np.array(rows)


def read_vector_csv(path: str) -> np.ndarray:
    """Single-column CSV; an initial non-numeric line is taken as a header."""
    with open(path, newline="") as handle:
        cells = [row[0] for row in csv.reader(handle) if row]
    if not cells:
        raise ParseError(f"{path}: empty file")
    try:
        float(cells[0])
    except ValueError:
        cells = cells[1:]
    if not cells:
        raise ParseError(f"{path}: no data rows")
    return np.array([_parse_cell(c, path) for c in cells])


def read_groups_csv(path: str, names) -> np.ndarray:
    """Two-column (column_name, group_id) CSV mapped onto the predictor names."""
    mapping = {}
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: expected two columns per row")
            name, gid = row[0].strip(), row[1].strip()
            if name == "column_name" and not mapping:
                continue  # header
            try:
                mapping[name] = int(gid)
            except ValueError:
                raise ParseError(f"{path}: group id {gid!r} is not an integer") from None
    missing = [c for c in names if c not in mapping]
    if missing:
        raise ParseError(f"{path}: no group for column(s) {missing}")
    unknown = [c for c in mapping if c not in set(names)]
    if unknown:
        raise ParseError(f"{path}: group map names unknown column(s) {unknown}")
    return np.array([mapping[c] for c in names])


def _weights_arg(args, pen: PenaltySpec, labels):
    if args.weights == "sqrt":
        if pen.family == "gbridge":
            return ("pow", pen.gamma)  # the size adjustment matching the bridge
        return "sqrt"
    if args.weights == "pow":
        if args.weights_exponent is None:
            raise ParseError("--weights pow needs --weights-exponent")
        return ("pow", args.weights_exponent)
    if args.weights == "file":
        if args.weights_file is None:
            raise ParseError("--weights file needs --weights-file")
        table = {}
        with open(args.weights_file, newline="") as handle:
            for row in csv.reader(handle):
                if not row or row[0].strip() == "group_id":
                    continue
                if len(row) != 2:
                    raise ParseError(f"{args.weights_file}: expected two columns per row")
                try:
                    table[int(row[0])] = float(row[1])
                except ValueError:
                    raise ParseError(
                        f"{args.weights_file}: cannot parse weight row {row}") from None
        uniq = np.unique(labels)
        try:
            return np.array([table[int(g)] for g in uniq])
        except KeyError as exc:
            raise ParseError(f"missing weight for group {exc}") from None
    raise ParseError(f"unknown weights rule {args.weights!r}")


def _parse_gammas(text):
    if text is None:
        return None
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        out.append(math.inf if part in ("inf", "Inf", "INF") else float(part))
    if not out:
        raise ParseError("empty --gamma list")
    return out


def _load_problem(args):
    """The command's gamma list, penalty template, column names and design."""
    gammas = _parse_gammas(args.gamma)
    if args.penalty == "sgl":
        pen = PenaltySpec("sgl", lam=0.0, lam2=args.lambda2 or 0.0)
    else:
        pen = PenaltySpec(args.penalty, lam=0.0)
        if gammas:
            pen = pen.with_gamma(gammas[0])
    names, X = read_matrix_csv(args.x)
    y = read_vector_csv(args.y)
    labels = read_groups_csv(args.groups, names)
    design = build_design(X, y, labels, weights=_weights_arg(args, pen, labels),
                          orthonormalize=FAMILIES[pen.family].orthonormalized)
    return gammas, pen, names, design


def _lambda_value(args, design, pen):
    if args.lam != "max":
        return float(args.lam)
    return FAMILIES[pen.family].top(design, pen)


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
    _, pen0, names, design = _load_problem(args)
    lam = _lambda_value(args, design, pen0)
    pen = pen0.with_lam(lam, args.lambda2 if pen0.family == "sgl" else None)
    fit = FAMILIES[pen.family].fit(design, pen, tol=args.tol, max_iter=args.max_iter)
    second_name = "lambda2" if pen.family == "sgl" else "gamma"
    second_val = pen.lam2 if pen.family == "sgl" else pen.shape_param
    write_csv(
        args.out + "_coef.csv",
        ["lambda", second_name] + names,
        [[fit.lam, second_val] + list(fit.beta)],
    )
    write_json(
        args.out + "_fit.json",
        {
            "penalty": pen.family,
            "lambda": fit.lam,
            second_name: second_val,
            "objective": fit.objective,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "kkt_max_violation": fit.kkt_max_violation,
            "n_nonzero": fit.n_nonzero,
        },
    )
    print(
        f"fit {pen.family}: lambda={_fmt(fit.lam)} objective={_fmt(fit.objective)} "
        f"nonzero={fit.n_nonzero} converged={fit.converged}"
    )
    return 0


def _path_config(args, gammas=None) -> PathConfig:
    if args.nlambda < 2:
        raise ConfigError("--nlambda must be at least 2")
    if args.lambda_min_ratio is not None and not 0 < args.lambda_min_ratio < 1:
        raise ConfigError("--lambda-min-ratio must lie in (0, 1)")
    if getattr(args, "folds", 2) < 2:
        raise ConfigError("--folds must be at least 2")
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


def _write_path_files(prefix, tag, design, names, lambda_max, second_name, rows):
    """One coefficient file and one group-norm companion per path block."""
    lam_max = lambda_max if lambda_max > 0 else 1.0
    coef_header = ["lambda", "lambda_ratio", second_name] + names
    uniq = np.unique(design.labels)
    norm_header = ["lambda", "lambda_ratio", second_name] + [
        f"group_{int(g)}" for g in uniq
    ]
    coef_rows, norm_rows = [], []
    for (lam, second), fit in rows:
        ratio = lam / lam_max
        coef_rows.append([lam, ratio, second] + list(fit.beta))
        norm_rows.append([lam, ratio, second] + list(group_norms(design, fit.beta)))
    write_csv(f"{prefix}_path{tag}.csv", coef_header, coef_rows)
    write_csv(f"{prefix}_norms{tag}.csv", norm_header, norm_rows)


def cmd_path(args) -> int:
    gammas, pen0, names, design = _load_problem(args)
    path = solution_path(design, pen0, _path_config(args, gammas))
    _report_nonconverged(sum(not f.converged for f in path.fits), len(path.fits))
    second = "lambda2" if pen0.family == "sgl" else "gamma"
    rows = list(zip(path.grid, path.fits))
    if FAMILIES[pen0.family].orthonormalized and gammas and len(gammas) > 1:
        for g in gammas:
            tag = "_gamma" + ("inf" if math.isinf(g) else _fmt(float(g)))
            block = [row for row in rows if row[0][1] == g]
            _write_path_files(args.out, tag, design, names, path.lambda_max, second, block)
        print(f"wrote {len(gammas)} path file pairs under prefix {args.out}")
        return 0
    _write_path_files(args.out, "", design, names, path.lambda_max, second, rows)
    print(f"wrote path files under prefix {args.out}")
    return 0


def cmd_cv(args) -> int:
    gammas, pen0, names, design = _load_problem(args)
    config = _path_config(args, gammas)
    report = kfold_cv(design, pen0, config, K=args.folds, seed=args.seed)
    _report_nonconverged(report.n_nonconverged, len(report.grid) * (report.n_folds + 1))
    second = "lambda2" if pen0.family == "sgl" else "gamma"
    write_csv(
        args.out + "_cvgrid.csv",
        ["lambda", second, "mean_cv_error", "se"],
        [
            [lam, g, float(m), float(s)]
            for (lam, g), m, s in zip(report.grid, report.mean_cv_error, report.se)
        ],
    )
    chosen_fit_min = report.path.fits[report.grid.index(report.chosen_min)]
    chosen_fit_1se = report.path.fits[report.grid.index(report.chosen_1se)]
    write_json(
        args.out + "_cv.json",
        {
            "penalty": report.family,
            "folds": report.n_folds,
            "seed": report.seed,
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
        f"cv {report.family}: chosen_min lambda={_fmt(report.chosen_min[0])} "
        f"chosen_1se lambda={_fmt(report.chosen_1se[0])}"
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
                  f"empirical={_fmt(case['empirical'])} bound={_fmt(case['bound'])}")
    status = report.get("status", "PASS" if report.get("pass") else "FAIL")
    print(f"{status}: {report['experiment']}")
    return 0


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
                       help="concavity parameter(s), comma list; 'inf' allowed")
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
    except (ParseError, ConfigError, NonFiniteInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GrpselError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
