"""Which grpsel functions are traced, and the per-layer metrics built from them.

Layers are the library's modules.  Each span is named ``layer.function``;
the layer of a span is the part before the first dot, so self times add up
per layer.  ``predict`` is counted in the ``cv`` layer because only the fold
loop calls it.  ``scenarios`` and ``errors`` are not timed.
"""

import os

from grpsel.design import GroupedDesign

LAYERS = ("cli", "design", "penalties", "gcd", "bilevel", "paths", "cv", "theory")


def _fit_counter(prefix):
    def hook(tracer, args, kwargs, fit):
        tracer.count(prefix + "fits")
        tracer.count(prefix + "cycles", fit.iterations)
        tracer.count(prefix + "nonconverged", int(not fit.converged))
    return hook


def _bytes_written(tracer, args, kwargs, result):
    tracer.count("cli.bytes_written", os.path.getsize(args[0]))


def _path_points(tracer, args, kwargs, path):
    tracer.count("paths.points", len(path.grid))


def _replicates(tracer, args, kwargs, report):
    tracer.count("theory.replicates", report.reps)


def _cv_path_name(args, kwargs):
    fold = kwargs.get("lambdas") is not None or len(args) > 3
    return "paths.solution_path[fold]" if fold else "paths.solution_path[full]"


# (module where the function is looked up, attribute, span name, result hook)
PATCHES = (
    ("grpsel.cli", "main", "cli.main", None),
    ("grpsel.cli", "read_matrix_csv", "cli.read_matrix_csv", None),
    ("grpsel.cli", "read_vector_csv", "cli.read_vector_csv", None),
    ("grpsel.cli", "read_groups_csv", "cli.read_groups_csv", None),
    ("grpsel.cli", "write_csv", "cli.write_csv", _bytes_written),
    ("grpsel.cli", "write_json", "cli.write_json", _bytes_written),
    ("grpsel.cli", "build_design", "design.build_design", None),
    ("grpsel.cli", "group_norms", "design.group_norms", None),
    ("grpsel.cli", "solution_path", "paths.solution_path", _path_points),
    ("grpsel.cli", "kfold_cv", "cv.kfold_cv", None),
    ("grpsel.cli", "run_experiment", "theory.run_experiment", None),
    ("grpsel.design", "build_design", "design.build_design", None),
    (GroupedDesign, "back_transform", "design.back_transform", None),
    ("grpsel.paths", "fit_path", "gcd.fit_path", None),
    ("grpsel.paths", "fit_path_lcd", "bilevel.fit_path_lcd", None),
    ("grpsel.paths", "fit_path_sgl", "bilevel.fit_path_sgl", None),
    ("grpsel.gcd", "fit_gcd", "gcd.fit_gcd", _fit_counter("gcd.")),
    ("grpsel.gcd", "solve_single_group", "penalties.solve_single_group", None),
    ("grpsel.gcd", "objective", "penalties.objective", None),
    ("grpsel.gcd", "kkt_check", "gcd.kkt_check", None),
    ("grpsel.gcd", "lambda_max", "gcd.lambda_max", None),
    ("grpsel.bilevel", "fit_lcd", "bilevel.fit_lcd", _fit_counter("bilevel.lcd_")),
    ("grpsel.bilevel", "fit_sparse_group_lasso", "bilevel.fit_sparse_group_lasso",
     _fit_counter("bilevel.sgl_")),
    ("grpsel.bilevel", "composite_threshold", "bilevel.composite_threshold", None),
    ("grpsel.bilevel", "soft_threshold", "penalties.soft_threshold", None),
    ("grpsel.bilevel", "soft_threshold_vec", "penalties.soft_threshold_vec", None),
    ("grpsel.bilevel", "objective", "penalties.objective", None),
    ("grpsel.bilevel", "lcd_stationarity", "bilevel.lcd_stationarity", None),
    ("grpsel.bilevel", "sgl_kkt", "bilevel.sgl_kkt", None),
    ("grpsel.bilevel", "bridge_lambda_upper", "bilevel.bridge_lambda_upper", None),
    ("grpsel.cv", "rebuild_design", "design.rebuild_design", None),
    ("grpsel.cv", "solution_path", _cv_path_name, _path_points),
    ("grpsel.cv", "predict", "cv.predict", None),
    ("grpsel.theory", "monte_carlo_theorem1", "theory.monte_carlo_theorem1", _replicates),
    ("grpsel.theory", "oracle_ls", "theory.oracle_ls", None),
    ("grpsel.theory", "fit_gcd", "gcd.fit_gcd", _fit_counter("gcd.")),
    ("grpsel.theory", "random_problem", "theory.random_problem", None),
    ("grpsel.theory", "build_design", "design.build_design", None),
)

THRESHOLDS = ("penalties.solve_single_group", "penalties.soft_threshold",
              "penalties.soft_threshold_vec")
PATH_SPANS = ("paths.solution_path", "paths.solution_path[full]",
              "paths.solution_path[fold]")


def install(tracer):
    for target, attr, name, hook in PATCHES:
        tracer.patch(target, attr, name, hook)


def _ratio(num, den):
    return num / den if den else 0.0


def rep_metrics(tracer):
    """Per-layer metrics of one traced repetition (see BENCHMARK.json)."""
    T, C, S, n = tracer.total, tracer.calls, tracer.self_time, tracer.counts.get
    fits, lcd_fits = n("gcd.fits", 0), n("bilevel.lcd_fits", 0)
    gcd_self, lcd_self = S("gcd.fit_gcd"), S("bilevel.fit_lcd")
    updates = C("penalties.solve_single_group", "gcd.fit_gcd")
    coord_updates = C("penalties.soft_threshold", "bilevel.fit_lcd")
    coord_time = (lcd_self + T("bilevel.composite_threshold", "bilevel.fit_lcd")
                  + T("penalties.soft_threshold", "bilevel.fit_lcd"))
    replicates = n("theory.replicates", 0)
    out = {
        "cli.read_s": T("cli.read_matrix_csv") + T("cli.read_vector_csv")
        + T("cli.read_groups_csv"),
        "cli.write_s": T("cli.write_csv") + T("cli.write_json"),
        "cli.bytes_written": n("cli.bytes_written", 0),
        "design.build_s": T("design.build_design"),
        "design.build_calls": C("design.build_design"),
        "design.back_transform_s": T("design.back_transform"),
        "design.back_transform_calls": C("design.back_transform"),
        "penalties.threshold_s": sum(T(k) for k in THRESHOLDS),
        "penalties.threshold_calls": sum(C(k) for k in THRESHOLDS),
        "penalties.objective_s": T("penalties.objective"),
        "penalties.objective_calls": C("penalties.objective"),
        "gcd.fits": fits,
        "gcd.cycles": n("gcd.cycles", 0),
        "gcd.cycles_per_fit": _ratio(n("gcd.cycles", 0), fits),
        "gcd.nonconverged": n("gcd.nonconverged", 0),
        "gcd.fit_self_s": gcd_self,
        "gcd.update_us": 1e6 * _ratio(
            gcd_self + T("penalties.solve_single_group", "gcd.fit_gcd"), updates),
        "gcd.kkt_s": T("gcd.kkt_check"),
        "gcd.lambda_max_s": T("gcd.lambda_max"),
        "bilevel.lcd_fits": lcd_fits,
        "bilevel.lcd_cycles": n("bilevel.lcd_cycles", 0),
        "bilevel.lcd_nonconverged": n("bilevel.lcd_nonconverged", 0),
        "bilevel.lcd_fit_self_s": lcd_self,
        "bilevel.coord_updates": coord_updates,
        "bilevel.composite_threshold_calls": C("bilevel.composite_threshold"),
        "bilevel.coord_update_us": 1e6 * _ratio(coord_time, coord_updates),
        "bilevel.stationarity_s": T("bilevel.lcd_stationarity"),
        "bilevel.bridge_upper_s": T("bilevel.bridge_lambda_upper"),
        "bilevel.sgl_fit_self_s": S("bilevel.fit_sparse_group_lasso"),
        "bilevel.sgl_kkt_s": T("bilevel.sgl_kkt"),
        "bilevel.sgl_cycles": n("bilevel.sgl_cycles", 0),
        "paths.solution_path_s": sum(T(k) for k in PATH_SPANS),
        "paths.points": n("paths.points", 0),
        "cv.full_path_s": T("paths.solution_path[full]"),
        "cv.fold_path_s": T("paths.solution_path[fold]"),
        "cv.predict_s": T("cv.predict"),
        "cv.folds": C("design.rebuild_design"),
        "theory.replicates": replicates,
        "theory.replicate_us": 1e6 * _ratio(T("theory.monte_carlo_theorem1"), replicates),
        "theory.oracle_ls_s": T("theory.oracle_ls"),
        "theory.oracle_ls_calls": C("theory.oracle_ls"),
        "theory.problem_s": T("theory.random_problem"),
    }
    self_times = tracer.layer_self()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    return out
