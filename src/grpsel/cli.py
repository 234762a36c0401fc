"""Command-line entry points.

Subcommands: ``simulate`` (scenario data sets), ``fit`` (single fit),
``path`` (pathwise fits plus a plot-ready group-norm companion file),
``cv`` (K-fold cross-validation report), ``verify-theory`` (runs a named
theory experiment from a JSON config).  Inputs are headered CSV files:
predictors with column names, a single-column response, and a two-column
(column_name, group_id) group map.  A predictor file body of at least two
``_READ_JOB_BYTES`` is parsed in row blocks, one forked job per usable CPU
(``cv._forked_map``), to the one-process parse bit for bit.  All outputs
are deterministic given the inputs, flags and seed; files are written
atomically (write-temp-then-rename).  Exit status: 0 on success, 2 on bad
inputs or configs, 1 on solver failures, 3 when a ``verify-theory`` report
says FAIL, 4 when the files are written but a fit did not converge.
"""

import argparse
import codecs
import csv
import io
import json
import math
import os
import sys
import tempfile
import warnings
from collections import Counter

import numpy as np

from . import cv
from .cv import kfold_cv
from .design import build_design, group_norms
from .errors import (ConfigError, FoldTooSmall, GammaOutOfRange, GrpselError, NonFiniteInput,
                     ParseError)
from .gcd import check_stop_rule
from .paths import FAMILIES, MAX_N_LAMBDA, WARM_STARTS, PathConfig, grid_top, solution_path
from .penalties import TWO_NORM_FAMILIES, PenaltySpec
from .scenarios import ScenarioSpec, make_scenario
from .theory import run_experiment

# verify-theory's status for a report that says FAIL (PASS and
# CONDITION_VIOLATED exit 0), and any command's when a fit did not converge
# (its files are still written; FAIL wins); distinct from 1 and 2
EXIT_FAIL, EXIT_NONCONVERGED = 3, 4

# the body bytes per parse job of a predictor file: a fork plus the return
# of a 1.6 MB block costs 4-10 ms, the parse time of 0.2-0.4 MB
_READ_JOB_BYTES = 1 << 20


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


class _ByteRange(io.RawIOBase):
    """Bytes ``start`` to ``stop`` of an open file, read with ``os.pread``
    (which leaves the descriptor's shared offset alone), counting quotes."""

    def __init__(self, fd: int, start: int, stop: int):
        self.fd, self.pos, self.stop, self.quotes = fd, start, stop, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.stop - self.pos), self.pos)
        buffer[:len(data)] = data
        self.pos += len(data)
        self.quotes += data.count(b'"')
        return len(data)


def _line_end(fd: int, pos: int) -> int:
    """The offset just past the first newline at or after ``pos`` (the end if none)."""
    while chunk := os.pread(fd, 1 << 16, pos):
        if (k := chunk.find(b"\n")) >= 0:
            return pos + k + 1
        pos += len(chunk)
    return pos


def _read_body(path: str, handle, start: int) -> np.ndarray:
    """The predictor matrix from byte ``start`` of ``handle`` (a text file
    positioned there): ``_loadtxt`` on the handle, or, for a large UTF-8
    body, the same parse of row blocks cut after newlines, one job per CPU
    (``cv._forked_map``).  The caller parses the first block; the children
    write theirs to an unlinked temporary file, which the caller reads
    straight into the matrix, so it holds no block twice.  A block that
    fails, ends inside a quoted cell or differs in width sends the whole
    body back to the serial parse, so the result, and every error message,
    is the serial one."""
    size = os.fstat(handle.fileno()).st_size  # 0 for a pipe: one job
    jobs = min(cv._cpu_count(), (size - start) // _READ_JOB_BYTES)
    if jobs < 2 or codecs.lookup(handle.encoding).name != "utf-8":
        return _loadtxt(path, handle, ndmin=2)
    fd = handle.fileno()
    cuts = [start, *(_line_end(fd, start + k * (size - start) // jobs)
                     for k in range(1, jobs)), size]

    def parse(k):
        raw = _ByteRange(fd, cuts[k], cuts[k + 1])
        with io.TextIOWrapper(io.BufferedReader(raw), encoding=handle.encoding,
                              errors=handle.errors, newline="") as text:
            block = _loadtxt(path, text, ndmin=2)
        if raw.quotes % 2:
            raise ParseError(f"{path}: a quoted cell spans the cut at byte {cuts[k + 1]}")
        if k == 0:
            return block
        # a value takes at least one byte of text, so the blocks' places in
        # the file, 8 bytes per byte of text past the first cut, never overlap
        if os.pwrite(spill.fileno(), block, 8 * (cuts[k] - cuts[1])) != block.nbytes:
            raise OSError(f"short write of block {k}")
        return block.shape

    try:
        with tempfile.TemporaryFile() as spill:
            X, *shapes = cv._forked_map(parse, jobs)
            if any(width != X.shape[1] for _, width in shapes):
                raise ParseError(f"{path}: the row blocks differ in width")
            # block 0, parsed in this process, owns its data and has no views:
            # it grows in place to the whole matrix
            row = len(X)
            X.resize((row + sum(rows for rows, _ in shapes), X.shape[1]), refcheck=False)
            for k, (rows, _) in enumerate(shapes, 1):
                block = X[row:row + rows]
                if os.preadv(spill.fileno(), [block], 8 * (cuts[k] - cuts[1])) != block.nbytes:
                    raise OSError(f"short read of block {k}")
                row += rows
    except (GrpselError, OSError):  # the serial parse raises the error the file deserves
        return _loadtxt(path, handle, ndmin=2)
    return X


def read_matrix_csv(path: str):
    """Headered CSV of predictors: returns (column names, float matrix)."""
    with open(path, newline="") as handle:
        header = []  # the lines of the header row; the body starts after them
        rows = csv.reader(header.append(line) or line for line in handle)
        names = [c.strip() for c in next(rows, [])]
        start = len("".join(header).encode(handle.encoding, handle.errors))
        X = _read_body(path, handle, start)
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


def _check_weights_flags(args) -> None:
    """Each weights flag is read by the ``--weights`` rule or refused; no data
    is needed, so the command checks this before it reads any."""
    for flag, value, rule in (("--weights-exponent", args.weights_exponent, "pow"),
                              ("--weights-file", args.weights_file, "file")):
        if value is not None and args.weights != rule:
            raise ConfigError(f"{flag} is read only with --weights {rule}, "
                              f"not --weights {args.weights}")
        if value is None and args.weights == rule:
            raise ConfigError(f"--weights {rule} needs {flag}")
    if args.weights == "pow" and not math.isfinite(args.weights_exponent):
        raise ConfigError("--weights pow needs a finite --weights-exponent")


def _weights_arg(args, pen: PenaltySpec, labels):
    if args.weights == "sqrt":
        if pen.family == "gbridge":
            return ("pow", pen.gamma)  # the size adjustment matching the bridge
        return "sqrt"
    if args.weights == "pow":
        exponent = args.weights_exponent
        with np.errstate(over="ignore", under="ignore"):
            powers = np.unique(labels, return_counts=True)[1] ** exponent
        if not np.all(np.isfinite(powers) & (powers > 0)):
            raise ParseError(f"--weights-exponent {exponent!r}: the group sizes to that "
                             "power are not all finite and positive")
        return ("pow", exponent)
    if args.weights == "file":
        uniq = np.unique(labels).tolist()
        weights = _read_map(args.weights_file, "group_id", uniq, np.int64, float)
        bad = {g: w for g, w in zip(uniq, weights.tolist()) if not 0 < w < math.inf}
        if bad:
            raise ParseError(f"{args.weights_file}: weights must be finite and positive: {bad}")
        return weights
    raise ParseError(f"unknown weights rule {args.weights!r}")


def _parse_numbers(text, flag):
    """The numbers of a flag's comma list, a tuple (None when the flag is absent)."""
    if text is None:
        return None
    out = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            out.append(float(part))
        except ValueError:
            raise ConfigError(f"{flag}: cannot parse {part!r} as a number") from None
    if not out:
        raise ConfigError(f"empty {flag} list")
    return tuple(out)


def _penalty(args):
    """The command's gamma list and penalty template, checked before any data
    is read, and the name of its grid's second column (``lambda2`` for sgl)."""
    gammas = _parse_numbers(args.gamma, "--gamma")
    try:  # every listed gamma is checked; each message starts with the family
        pen = PenaltySpec(args.penalty, 0.0, lam2=args.lambda2, lam2_ratio=args.lambda2_ratio)
        pen = ([pen.with_gamma(g) for g in gammas or ()] or [pen])[0]
    except (ValueError, GammaOutOfRange) as exc:
        raise ConfigError(f"--penalty {exc}") from None
    return gammas, pen, "lambda2" if pen.family == "sgl" else "gamma"


def _load_design(args, pen):
    """The column names and design of the command's data files."""
    _check_weights_flags(args)
    names, X = read_matrix_csv(args.x)
    y = read_vector_csv(args.y)
    labels = read_groups_csv(args.groups, names)
    return names, build_design(X, y, labels, weights=_weights_arg(args, pen, labels),
                               orthonormalize=pen.family in TWO_NORM_FAMILIES)


def cmd_simulate(args) -> int:
    spec = ScenarioSpec(
        name=args.scenario,
        n=args.n,
        sigma=args.sigma,
        correlation=args.correlation,
        seed=args.seed,
        group_sizes=_parse_numbers(args.group_sizes, "--group-sizes"),
        beta=_parse_numbers(args.beta, "--beta"),
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


def _report_nonconverged(k: int, total: int) -> int:
    """The exit status when ``k`` of ``total`` fits did not converge, said on stderr."""
    if k:
        print(f"{k} of {total} fits did not converge", file=sys.stderr)
    return EXIT_NONCONVERGED if k else 0


def cmd_fit(args) -> int:
    gammas, pen0, second_name = _penalty(args)
    if gammas and len(gammas) > 1:
        raise ConfigError(f"fit takes one --gamma value, not {len(gammas)}")
    try:  # a number is checked before any data is read
        pen = pen0 if args.lam == "max" else pen0.with_lam(float(args.lam))
    except ValueError as exc:
        raise ConfigError(f"bad --lambda value {args.lam!r}: {exc}") from None
    check_stop_rule(args.tol, args.max_iter)
    names, design = _load_design(args, pen0)
    if args.lam == "max":  # the family's grid top, which needs the data
        pen = pen0.with_lam(grid_top(design, [pen0]))
    fit = FAMILIES[pen.family].fit(design, pen, tol=args.tol, max_iter=args.max_iter)
    write_csv(
        args.out + "_coef.csv",
        ["lambda", second_name] + names,
        [[pen.lam, pen.second] + fit.beta.tolist()],
    )
    write_json(
        args.out + "_fit.json",
        {
            "penalty": pen.family,
            "lambda": pen.lam,
            second_name: pen.second,
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
    return _report_nonconverged(int(not fit.converged), 1)


def _path_config(args, gammas) -> PathConfig:
    return PathConfig(n_lambda=args.nlambda, lambda_min_ratio=args.lambda_min_ratio,
                      gamma_grid=gammas, warm_start=args.warm_start,
                      tol=args.tol, max_iter=args.max_iter)


def cmd_path(args) -> int:
    gammas, pen0, second = _penalty(args)
    config = _path_config(args, gammas)  # every grid flag is checked before any data is read
    names, design = _load_design(args, pen0)
    path = solution_path(design, pen0, config)
    code = _report_nonconverged(sum(not f.converged for f in path.fits), len(path.fits))
    grid = np.array(path.grid)
    lead = np.column_stack([grid[:, 0], grid[:, 0] / (path.lambda_max or 1.0), grid[:, 1]])
    norms = np.array([group_norms(design, f.beta) for f in path.fits])
    tables = {
        "path": (names, np.hstack([lead, path.coef_matrix()])),
        "norms": ([f"group_{g}" for g in np.unique(design.labels).tolist()],
                  np.hstack([lead, norms])),
    }
    blocks = [("", slice(None))]
    if gammas and len(gammas) > 1:
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
    return code


def cmd_cv(args) -> int:
    gammas, pen0, second = _penalty(args)
    config = _path_config(args, gammas)
    names, design = _load_design(args, pen0)  # kfold_cv checks --folds against the rows
    report = kfold_cv(design, pen0, config, K=args.folds, seed=args.seed)
    code = _report_nonconverged(report.n_nonconverged, len(report.grid) * (args.folds + 1))
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
    return code


def cmd_verify_theory(args) -> int:
    with open(args.config) as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    report = run_experiment(config)
    write_json(args.out, report)
    code = _report_nonconverged(report.get("n_nonconverged", 0), report.get("reps"))
    if "cases" in report:
        for case in report["cases"]:
            print(f"{case['status']}: t={case['t']} k={case['k']} "
                  f"empirical={case['empirical']} bound={case['bound']}")
    status = report.get("status", "PASS" if report.get("pass") else "FAIL")
    print(f"{status}: {report['experiment']}")
    return EXIT_FAIL if status == "FAIL" else code


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
        p.add_argument("--nlambda", type=int, default=100,
                       help=f"grid points per gamma, 2 to {MAX_N_LAMBDA}")
        p.add_argument("--lambda-min-ratio", type=float, default=None)
        p.add_argument("--warm-start", default="previous_lambda", choices=WARM_STARTS)
        p.add_argument("--lambda2-ratio", type=float, default=None,
                       help="sgl only: lambda2 = this times lambda (default 1)")

    def add_data_flags(p):
        p.add_argument("--x", required=True, help="predictor CSV (headered)")
        p.add_argument("--y", required=True, help="response CSV (single column)")
        p.add_argument("--groups", required=True,
                       help="column_name,group_id CSV")
        p.add_argument("--penalty", required=True, choices=list(FAMILIES))
        p.add_argument("--gamma", default=None,
                       help="concavity parameter (path, cv: a comma list); 'inf' "
                            "allowed; refused by a family without one")
        p.add_argument("--lambda2", type=float, default=None,
                       help="sgl only: lambda2 at every lambda (default: lambda)")
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
    fit.set_defaults(func=cmd_fit, lambda2_ratio=None)

    path = sub.add_parser("path", help="pathwise fits over a lambda grid")
    add_grid_flags(path)
    path.set_defaults(func=cmd_path)

    cross = sub.add_parser("cv", help="K-fold cross-validation over the grid")
    add_grid_flags(cross)
    cross.add_argument("--folds", type=int, default=10)
    cross.add_argument("--seed", type=int, default=0)
    cross.set_defaults(func=cmd_cv)

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
