import json
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grpsel import cli, cv
from grpsel.cli import main, read_groups_csv, read_matrix_csv, read_vector_csv, write_csv
from grpsel.design import build_design
from grpsel.paths import solution_path
from grpsel.penalties import PenaltySpec

from conftest import assert_no_child
from oracles import fmt_reference


@pytest.fixture
def fig3_files(tmp_path):
    prefix = str(tmp_path / "fig3")
    assert main(["simulate", "--scenario", "figure3", "--n", "120",
                 "--sigma", "0.4", "--seed", "5", "--out", prefix]) == 0
    return prefix


def data_args(prefix):
    return ["--x", prefix + "_X.csv", "--y", prefix + "_y.csv",
            "--groups", prefix + "_groups.csv"]


def test_simulate_writes_consistent_files(tmp_path):
    prefix = str(tmp_path / "fig1")
    assert main(["simulate", "--scenario", "figure1", "--n", "40",
                 "--seed", "3", "--out", prefix]) == 0
    names, X = read_matrix_csv(prefix + "_X.csv")
    assert X.shape == (40, 59)
    y = read_vector_csv(prefix + "_y.csv")
    assert y.shape == (40,)
    labels = read_groups_csv(prefix + "_groups.csv", names)
    assert len(np.unique(labels)) == 20


def test_simulate_deterministic_bytes(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for prefix in (a, b):
        main(["simulate", "--scenario", "figure3", "--n", "30", "--seed", "7",
              "--out", prefix])
    for suffix in ("_X.csv", "_y.csv", "_groups.csv", "_truth.csv"):
        assert open(a + suffix, "rb").read() == open(b + suffix, "rb").read()


def _random_magnitudes(k, seed=0):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=k)
    return (signs * rng.random(k) * 10.0 ** rng.integers(-325, 309, size=k)).tolist()


@pytest.mark.parametrize("values", [
    [0.0], [-0.0], [math.inf], [-math.inf], [math.nan], [5e-324], [-5e-324],
    [1.7976931348623157e308], [1e16], [9999999999999998.0], [1e-4], [1e-5],
    [0.1], [2.0], [0], [-7], [10**20], [True], [False],
    _random_magnitudes(20_000),
], ids=lambda v: repr(v[0]) if len(v) == 1 else f"random_{len(v)}")
def test_csv_cells_match_the_reference_encoder(tmp_path, values):
    out = str(tmp_path / "cells.csv")
    write_csv(out, ["v"] * len(values), [values, values[::-1]])
    rows = open(out, newline="").read().split("\n")[1:3]
    assert rows == [",".join(map(fmt_reference, values)),
                    ",".join(map(fmt_reference, values[::-1]))]


def test_fit_at_lambda_max_writes_zeros(tmp_path, fig3_files):
    out = str(tmp_path / "fit")
    assert main(["fit", *data_args(fig3_files), "--penalty", "glasso",
                 "--lambda", "max", "--out", out]) == 0
    names, row = read_matrix_csv(out + "_coef.csv")
    assert names[:2] == ["lambda", "gamma"]
    assert np.all(row[0, 2:] == 0.0)
    summary = json.load(open(out + "_fit.json"))
    assert summary["n_nonzero"] == 0
    assert summary["converged"] is True


@pytest.mark.parametrize("penalty,extra", [
    ("gmcp", ["--gamma", "2.7"]),
    ("gbridge", []),
    ("cmcp", []),
    ("sgl", ["--lambda2", "0.05"]),
])
def test_fit_families_run(tmp_path, fig3_files, penalty, extra):
    out = str(tmp_path / ("fit_" + penalty))
    assert main(["fit", *data_args(fig3_files), "--penalty", penalty,
                 "--lambda", "0.05", *extra, "--out", out]) == 0
    _, row = read_matrix_csv(out + "_coef.csv")
    assert np.any(row[0, 2:] != 0.0)


def test_path_files_ordered_and_zero_first(tmp_path, fig3_files):
    out = str(tmp_path / "path")
    assert main(["path", *data_args(fig3_files), "--penalty", "gmcp",
                 "--gamma", "1.2,2.5,inf", "--nlambda", "20", "--out", out]) == 0
    for tag in ("_gamma1.2", "_gamma2.5", "_gammainf"):
        names, coefs = read_matrix_csv(out + "_path" + tag + ".csv")
        assert names[:3] == ["lambda", "lambda_ratio", "gamma"]
        lams = coefs[:, 0]
        assert np.all(np.diff(lams) < 0)
        assert np.all(coefs[0, 3:] == 0.0)
        assert coefs[0, 1] == 1.0  # lambda/lambda_max
        nnames, norms = read_matrix_csv(out + "_norms" + tag + ".csv")
        assert nnames[3:] == [f"group_{j}" for j in range(2)]
        assert norms.shape[0] == 20


def test_gamma_split_files_equal_single_gamma_runs(tmp_path, fig3_files):
    # every family but gbridge (below) runs each gamma on the same grid
    for penalty, gammas in (("gmcp", "1.2,inf"), ("cmcp", "2,3")):
        both = str(tmp_path / f"{penalty}_both")
        args = ["path", *data_args(fig3_files), "--penalty", penalty, "--nlambda", "15"]
        assert main([*args, "--gamma", gammas, "--out", both]) == 0
        assert not (tmp_path / f"{penalty}_both_path.csv").exists()
        for gamma in gammas.split(","):
            alone = str(tmp_path / f"{penalty}_{gamma}")
            assert main([*args, "--gamma", gamma, "--out", alone]) == 0
            for kind in ("path", "norms"):
                split = open(f"{both}_{kind}_gamma{float(gamma)}.csv", "rb").read()
                assert split == open(f"{alone}_{kind}.csv", "rb").read()


def test_bridge_gamma_list_writes_one_file_pair_per_gamma(tmp_path, fig3_files):
    # a gbridge gamma list shares the first gamma's grid top and d_j**gamma
    # weights, so its files differ from single-gamma runs; each still holds
    # one descending path
    out = str(tmp_path / "bridge")
    assert main(["path", *data_args(fig3_files), "--penalty", "gbridge", "--gamma", "0.5,0.7",
                 "--nlambda", "8", "--out", out]) == 0
    assert not (tmp_path / "bridge_path.csv").exists()
    for gamma in ("0.5", "0.7"):
        names, coefs = read_matrix_csv(f"{out}_path_gamma{gamma}.csv")
        assert names[2] == "gamma" and np.all(coefs[:, 2] == float(gamma))
        assert coefs.shape[0] == 8 and np.all(np.diff(coefs[:, 0]) < 0)
        _, norms = read_matrix_csv(f"{out}_norms_gamma{gamma}.csv")
        assert np.array_equal(norms[:, :3], coefs[:, :3])


def test_path_single_family_bridge(tmp_path, fig3_files):
    out = str(tmp_path / "bridge")
    assert main(["path", *data_args(fig3_files), "--penalty", "gbridge",
                 "--nlambda", "12", "--out", out]) == 0
    _, coefs = read_matrix_csv(out + "_path.csv")
    assert np.all(coefs[0, 3:] == 0.0)
    assert np.all(np.diff(coefs[:, 0]) < 0)


def test_cv_deterministic_bytes(tmp_path, fig3_files):
    a = str(tmp_path / "cva")
    b = str(tmp_path / "cvb")
    for out in (a, b):
        assert main(["cv", *data_args(fig3_files), "--penalty", "glasso",
                     "--nlambda", "12", "--folds", "4", "--seed", "2",
                     "--out", out]) == 0
    assert open(a + "_cv.json", "rb").read() == open(b + "_cv.json", "rb").read()
    assert open(a + "_cvgrid.csv", "rb").read() == open(b + "_cvgrid.csv", "rb").read()
    report = json.load(open(a + "_cv.json"))
    assert report["folds"] == 4
    assert "chosen_min" in report and "chosen_1se" in report


def test_verify_theory_tail_bound(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tail-bound",
                               "params": {"draws": 5000, "seed": 0}}))
    out = str(tmp_path / "report.json")
    assert main(["verify-theory", "--config", str(cfg), "--out", out]) == 0
    report = json.load(open(out))
    assert report["pass"] is True
    stdout = capsys.readouterr().out
    assert "PASS: tail-bound" in stdout


def test_verify_theory_condition_violated_is_not_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "theorem1",
        "params": {"n": 60, "beta_star": 0.2, "lam": 0.6, "gamma": 3.0,
                   "reps": 5, "seed": 1},
    }))
    out = str(tmp_path / "report.json")
    assert main(["verify-theory", "--config", str(cfg), "--out", out]) == 0
    assert "CONDITION_VIOLATED" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["src", "zeta", "irrepresentable"])
def test_verify_theory_refuses_the_cross_check_experiments(tmp_path, capsys, name):
    # src_spectrum, zeta_norm and irrepresentable_lhs are library functions
    # (acceptance criteria 10 and 12), not experiments that test a bound
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": name}))
    out = tmp_path / "report.json"
    assert main(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown experiment {name!r}\n"
    assert not out.exists()


def test_bad_config_and_bad_csv_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bogus"}))
    assert main(["verify-theory", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,notanumber\n")
    ok_y = tmp_path / "y.csv"
    ok_y.write_text("y\n1.0\n2.0\n")
    groups = tmp_path / "g.csv"
    groups.write_text("column_name,group_id\na,0\nb,0\n")
    code = main(["fit", "--x", str(bad), "--y", str(ok_y),
                 "--groups", str(groups), "--penalty", "glasso",
                 "--lambda", "0.1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _replace_first_value(path, new_path, value):
    # swap the first data cell of a headered CSV for `value`
    lines = open(path).read().splitlines()
    cells = lines[1].split(",")
    cells[0] = value
    lines[1] = ",".join(cells)
    with open(new_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_nan_response_cell_exits_2(tmp_path, fig3_files, capsys):
    y_nan = str(tmp_path / "y_nan.csv")
    _replace_first_value(fig3_files + "_y.csv", y_nan, "nan")
    out = str(tmp_path / "fit")
    code = main(["fit", "--x", fig3_files + "_X.csv", "--y", y_nan,
                 "--groups", fig3_files + "_groups.csv", "--penalty", "gmcp",
                 "--lambda", "0.1", "--out", out])
    assert code == 2
    assert "NaN or infinite" in capsys.readouterr().err
    assert not (tmp_path / "fit_fit.json").exists()


def test_inf_predictor_cell_exits_2(tmp_path, fig3_files, capsys):
    x_inf = str(tmp_path / "X_inf.csv")
    _replace_first_value(fig3_files + "_X.csv", x_inf, "inf")
    code = main(["fit", "--x", x_inf, "--y", fig3_files + "_y.csv",
                 "--groups", fig3_files + "_groups.csv", "--penalty", "gmcp",
                 "--lambda", "0.1", "--out", str(tmp_path / "fit")])
    assert code == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_groups_file_must_cover_all_columns(tmp_path, fig3_files, capsys):
    rows = open(fig3_files + "_groups.csv").read()
    cases = {
        "incomplete.csv": "column_name,group_id\ng0_0,0\n",
        "extra.csv": rows + "not_a_column,1\n",
        "repeated.csv": rows + "g0_0,1\n",  # would otherwise move g0_0 to group 1
    }
    for name, text in cases.items():
        groups = tmp_path / name
        groups.write_text(text)
        code = main(["fit", "--x", fig3_files + "_X.csv", "--y", fig3_files + "_y.csv",
                     "--groups", str(groups), "--penalty", "glasso",
                     "--lambda", "0.1", "--out", str(tmp_path / "o")])
        assert code == 2, name
        assert name in capsys.readouterr().err


def test_truth_file_marks_support(tmp_path):
    prefix = str(tmp_path / "t")
    main(["simulate", "--scenario", "figure3", "--n", "30", "--seed", "1",
          "--out", prefix])
    lines = open(prefix + "_truth.csv").read().strip().splitlines()
    assert lines[0] == "column_name,group_id,beta_true,group_in_support"
    flags = [int(line.split(",")[3]) for line in lines[1:]]
    assert flags == [1] * 6  # both groups carry signal in this scenario


def test_sgl_path_uses_lambda2_column(tmp_path, fig3_files):
    out = str(tmp_path / "sgl")
    assert main(["path", *data_args(fig3_files), "--penalty", "sgl",
                 "--lambda2-ratio", "0.5", "--nlambda", "8", "--out", out]) == 0
    names, coefs = read_matrix_csv(out + "_path.csv")
    assert names[2] == "lambda2"
    np.testing.assert_allclose(coefs[:, 2], 0.5 * coefs[:, 0], rtol=1e-12)
    assert np.all(coefs[0, 3:] == 0.0)


@pytest.mark.parametrize("row,message", [
    ("0", "2 columns"),
    ("0,heavy", "heavy"),
    ("g0,1.0", "g0"),
    ("0,inf", "finite and positive"),
    ("0,nan", "finite and positive"),
    ("0,0", "finite and positive"),
    ("0,-1", "finite and positive"),
    ("0,1.0\n1,2.0", "listed more than once"),
    ("0,1.0\n7,1.0", "not in the data"),
    ("", "without a row"),
], ids=["one_cell", "weight_not_a_number", "group_not_an_integer", "weight_inf",
        "weight_nan", "weight_zero", "weight_negative", "group_repeated",
        "group_not_in_data", "group_missing"])
def test_malformed_weights_file_row_exits_2(tmp_path, fig3_files, capsys, row, message):
    weights = tmp_path / "weights.csv"
    weights.write_text(f"group_id,weight\n{row}\n1,1.0\n")
    code = main(["fit", *data_args(fig3_files), "--penalty", "glasso",
                 "--lambda", "0.1", "--weights", "file",
                 "--weights-file", str(weights), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "weights.csv" in err and message in err


def test_readers_parse_with_numpy(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_bytes(text.encode())
        return str(path)

    names, X = read_matrix_csv(write("one.csv", "a,b\n1.5,-2\n"))
    assert names == ["a", "b"] and X.tolist() == [[1.5, -2.0]]
    # CRLF line endings, a blank line and a quoted number
    names, X = read_matrix_csv(write("crlf.csv", 'a, b\r\n1,2\r\n\r\n"3",4e-1\r\n'))
    assert names == ["a", "b"] and X.tolist() == [[1.0, 2.0], [3.0, 0.4]]
    assert read_vector_csv(write("y1.csv", "y\r\n1\r\n2\r\n")).tolist() == [1.0, 2.0]
    assert read_vector_csv(write("y2.csv", "\n1\n2\n")).tolist() == [1.0, 2.0]
    assert read_vector_csv(write("y3.csv", "y,z\n1,9\n2\n")).tolist() == [1.0, 2.0]


READ_WORKERS = (1, 2, 3)


def read_with_workers(monkeypatch, path, workers, job_bytes=1):
    """``read_matrix_csv(path)`` with ``workers`` CPUs and ``job_bytes`` per job."""
    with monkeypatch.context() as patch:
        patch.setattr(cv, "_cpu_count", lambda: workers)
        patch.setattr(cli, "_READ_JOB_BYTES", job_bytes)
        try:
            return read_matrix_csv(str(path))
        finally:
            assert_no_child()


@pytest.mark.parametrize("flag,text,message", [
    ("--x", "", "no data rows"),
    ("--x", "a,b\n", "no data rows"),
    ("--x", "a,b\n1,2\n3\n", "columns"),
    ("--x", "a,b\n1,2,3\n4,5,6\n", "expected 2"),
    ("--x", "a,b\n1,#\n", "'#'"),
    ("--x", "a,b\n1,x\n", "'x'"),
    ("--x", "a,b\n1_000,2\n", "'1_000'"),
    ("--y", "y\n", "no data rows"),
    ("--y", "y\n1\nabc\n", "'abc'"),
    # with one-byte jobs, 2 and 3 workers cut this body after "3,4\n", so the
    # ragged row lands in the second block (with 3, a block of its own)
    ("--x", "a,b\n1,2\n3,4\n5,6\n7\n", "from 2 to 1 at row 4"),
    # 2 and 3 workers cut after the newline inside the quotes
    ("--x", 'a,b\n1,2\n3,"4\n5"\n', "'4\\n5' to float64 at row 1, column 2"),
], ids=["empty", "header_only", "ragged_row", "header_row_mismatch", "hash_cell",
        "non_numeric_cell", "underscore_cell", "response_header_only",
        "response_non_numeric_cell", "ragged_row_in_second_block",
        "quoted_newline_across_a_cut"])
def test_malformed_data_csv_exits_2(tmp_path, capsys, monkeypatch, flag, text, message):
    files = {"--x": "a,b\n1,2\n3,5\n", "--y": "y\n1\n2\n",
             "--groups": "column_name,group_id\na,0\nb,0\n"}
    files[flag] = text
    args = []
    for option, content in files.items():
        path = tmp_path / (option[2:] + ".csv")
        path.write_text(content)
        args += [option, str(path)]
    errors = set()
    # the predictor file's body is parsed in one-byte jobs: one per worker
    monkeypatch.setattr(cli, "_READ_JOB_BYTES", 1)
    for workers in READ_WORKERS:
        monkeypatch.setattr(cv, "_cpu_count", lambda: workers)
        code = main(["fit", *args, "--penalty", "glasso", "--lambda", "0.1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        errors.add(capsys.readouterr().err)
        assert_no_child()
    assert len(errors) == 1
    err = errors.pop()
    assert err.startswith("error:") and f"{flag[2:]}.csv" in err and message in err
    assert err.count("\n") == 1


@st.composite
def csv_texts(draw):
    """A headered predictor CSV and its values: mixed LF and CRLF endings,
    blank lines, quoted cells (some holding a newline after the number),
    infinite cells and, sometimes, a last line without a newline."""
    width = draw(st.integers(1, 4))
    cell = st.floats(allow_nan=False, min_value=-1e6, max_value=1e6) | st.sampled_from(
        [math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308])
    quoting = st.sampled_from(["{}", '"{}"', '"{}\n"', " {} "])
    ending = st.sampled_from(["\n", "\r\n"])
    values = draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                           min_size=1, max_size=8))
    lines = [",".join(f"x{j}" for j in range(width)) + draw(ending)]
    for row in values:
        lines += [draw(ending)] * draw(st.integers(0, 2))  # blank lines
        lines.append(",".join(draw(quoting).format(repr(v)) for v in row) + draw(ending))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines), np.array(values)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_texts())
def test_blocks_parse_like_the_one_job_read(tmp_path, monkeypatch, case):
    text, values = case
    path = tmp_path / "X.csv"
    path.write_bytes(text.encode())
    names, X = read_with_workers(monkeypatch, path, 1)
    assert X.shape == values.shape and X.tobytes() == values.tobytes()
    for workers in READ_WORKERS[1:]:
        got_names, got = read_with_workers(monkeypatch, path, workers)
        assert got_names == names
        assert got.shape == X.shape and got.tobytes() == X.tobytes()


def test_a_multi_job_read_forks_one_child_per_extra_worker(tmp_path, monkeypatch):
    rows = np.arange(60.0).reshape(20, 3) / 7
    path = tmp_path / "X.csv"
    write_csv(str(path), ["a", "b", "c"], rows.tolist())
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    for workers in READ_WORKERS:
        names, X = read_with_workers(monkeypatch, path, workers)
        assert len(forks) == workers - 1
        assert names == ["a", "b", "c"] and X.tobytes() == rows.tobytes()
        forks.clear()
    # a body under two jobs' bytes stays in one process
    read_with_workers(monkeypatch, path, 3, job_bytes=path.stat().st_size)
    assert forks == []


def test_a_read_without_a_temporary_file_parses_in_one_process(tmp_path, monkeypatch):
    rows = np.arange(60.0).reshape(20, 3) / 7
    path = tmp_path / "X.csv"
    write_csv(str(path), ["a", "b", "c"], rows.tolist())

    def no_file():
        raise PermissionError("no temporary directory")

    monkeypatch.setattr(cli.tempfile, "TemporaryFile", no_file)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the read forked"))
    names, X = read_with_workers(monkeypatch, path, 2)
    assert names == ["a", "b", "c"] and X.tobytes() == rows.tobytes()


def test_a_fifo_is_read_in_one_job(tmp_path, monkeypatch):
    path = tmp_path / "X.fifo"
    os.mkfifo(path)
    text = "a,b\n" + "1.5,-2\n" * 50

    def write():
        with open(path, "w") as fifo:
            fifo.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a FIFO read forked"))
    try:
        names, X = read_with_workers(monkeypatch, path, 3)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert names == ["a", "b"] and X.tolist() == [[1.5, -2.0]] * 50


@pytest.mark.parametrize("command,flags", [
    ("path", ["--nlambda", "1"]),
    ("path", ["--lambda-min-ratio", "0"]),
    ("path", ["--lambda-min-ratio", "1.5"]),
    ("cv", ["--folds", "1"]),
    ("cv", ["--folds", "121"]),  # the data have 120 rows
    ("path", ["--penalty", "gmcp", "--tol", "-1"]),
    ("path", ["--penalty", "gmcp", "--tol", "nan"]),
    ("path", ["--penalty", "gmcp", "--tol", "inf"]),
    ("path", ["--penalty", "gmcp", "--max-iter", "0"]),
    ("cv", ["--max-iter", "-5"]),
    ("fit", ["--lambda", "0.1", "--max-iter", "-5"]),
    ("path", ["--penalty", "sgl", "--lambda2-ratio", "-1"]),
    ("path", ["--penalty", "sgl", "--lambda2-ratio", "nan"]),
    ("path", ["--nlambda", "10001"]),
    ("path", ["--nlambda", "100000000"]),
    ("cv", ["--nlambda", "1"]),
    ("path", ["--lambda-min-ratio", "1"]),
    ("cv", ["--lambda-min-ratio", "nan"]),
    ("path", ["--penalty", "sgl", "--lambda2-ratio", "inf"]),
    ("cv", ["--penalty", "sgl", "--lambda2", "-1"]),
    ("cv", ["--tol", "nan"]),
    ("fit", ["--lambda", "-1"]),
    ("fit", ["--lambda", "nan"]),
    ("fit", ["--lambda", "abc"]),
    ("fit", ["--lambda", "0.1", "--tol", "nan"]),
    ("cv", ["--seed", "-1"]),
], ids=["nlambda_1", "min_ratio_0", "min_ratio_1.5", "folds_1", "folds_above_rows",
        "tol_negative", "tol_nan", "tol_inf", "max_iter_0", "cv_max_iter_negative",
        "fit_max_iter_negative", "lambda2_ratio_negative", "lambda2_ratio_nan",
        "nlambda_above_bound", "nlambda_huge", "cv_nlambda_1", "min_ratio_1",
        "cv_min_ratio_nan", "lambda2_ratio_inf", "cv_lambda2_negative", "cv_tol_nan",
        "fit_lambda_negative", "fit_lambda_nan", "fit_lambda_text", "fit_tol_nan",
        "cv_seed_negative"])
def test_out_of_range_grid_flags_exit_2(tmp_path, fig3_files, capsys, monkeypatch, command,
                                        flags):
    if not {"--folds", "--seed"} & set(flags):
        # path and cv check every grid setting, and fit its --lambda and stop
        # rule, before they read the data; --folds is checked against the rows,
        # with --seed
        monkeypatch.setattr(cli, "read_matrix_csv", lambda path: pytest.fail("data was read"))
    # a later --penalty replaces the first one
    code = main([command, *data_args(fig3_files), "--penalty", "glasso", *flags,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("o*"))


@pytest.mark.parametrize("command,penalty", [("path", "cmcp"), ("path", "sgl"),
                                             ("cv", "gbridge")])
def test_group_lasso_init_is_refused_for_coordinate_wise_families(tmp_path, fig3_files, capsys,
                                                                  command, penalty):
    # only a 2-norm fit can start from the group LASSO; the others would ignore the flag
    code = main([command, *data_args(fig3_files), "--penalty", penalty, "--nlambda", "5",
                 "--warm-start", "group_lasso_init", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: warm_start group_lasso_init")
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("flags", [
    ["--sigma", "nan"],
    ["--sigma", "inf"],
    ["--sigma", "-1"],
    ["--scenario", "custom", "--group-sizes", "2,2", "--beta", "1,0,0,nan"],
    ["--scenario", "custom", "--group-sizes", "0,2", "--beta", "1,1"],
    ["--scenario", "custom", "--group-sizes", "a,2", "--beta", "1,1,1"],
    ["--scenario", "custom", "--group-sizes", "2,-1", "--beta", "1"],
    ["--scenario", "custom", "--group-sizes", "1.5,1", "--beta", "1,1"],
    ["--scenario", "custom", "--group-sizes", "2,2", "--beta", "1,1,1"],
    ["--scenario", "custom", "--group-sizes", "2", "--beta", "1,x"],
    ["--scenario", "custom", "--group-sizes", "", "--beta", "1"],
    ["--scenario", "custom", "--group-sizes", "2"],
    ["--seed", "-3"],
], ids=["sigma_nan", "sigma_inf", "sigma_negative", "beta_nan", "size_0", "size_text",
        "size_negative", "size_fraction", "lengths_differ", "beta_text", "sizes_empty",
        "beta_missing", "seed_negative"])
def test_simulate_refuses_bad_inputs_with_exit_2(tmp_path, capsys, flags):
    # a NaN or infinite sigma or beta would write a noise-free or non-finite y,
    # and a zero group size an empty group
    code = main(["simulate", "--n", "20", *flags, "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_a_response_that_overflows_with_exit_2(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--scenario", "custom", "--group-sizes", "2",
                     "--beta", "1e308,1e308", "--n", "40", "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: beta") and "not finite" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cv_refuses_one_fold_before_the_bridge_grid_top_runs(tmp_path, fig3_files, capsys,
                                                            monkeypatch):
    from grpsel import bilevel

    monkeypatch.setattr(bilevel, "bridge_lambda_upper", lambda *a: pytest.fail("a fit ran"))
    code = main(["cv", *data_args(fig3_files), "--penalty", "gbridge", "--folds", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: need at least two folds")
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("penalty", ["gmcp", "cmcp"])
def test_fit_with_a_gamma_list_exits_2_before_reading(tmp_path, fig3_files, capsys,
                                                      monkeypatch, penalty):
    # fit has one gamma; a list used to fit its first value and drop the rest
    monkeypatch.setattr(cli, "read_matrix_csv", lambda path: pytest.fail("data was read"))
    code = main(["fit", *data_args(fig3_files), "--penalty", penalty, "--gamma", "2.7,3.7",
                 "--lambda", "0.1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: fit takes one --gamma value")
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("penalty", ["glasso", "gmcp", "gscad", "gbridge", "cmcp", "sgl"])
def test_fit_at_huge_lambda_warns_nothing(tmp_path, capsys, penalty):
    # gamma * lam, lam**2, the group levels lam_j and the saturated penalty
    # overflow to inf, which are their limits
    prefix = str(tmp_path / "d")
    assert main(["simulate", "--scenario", "figure1", "--n", "40", "--seed", "1",
                 "--out", prefix]) == 0
    for lam in ("1e308", "1.7e308"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", *data_args(prefix), "--penalty", penalty, "--lambda", lam,
                         "--out", str(tmp_path / "f")])
        assert code == 0, lam
        report = json.load(open(tmp_path / "f_fit.json"))
        assert report["n_nonzero"] == 0 and report["converged"], lam
        assert report["kkt_max_violation"] == 0.0, lam
        assert math.isfinite(report["objective"]), lam


def test_path_reports_nonconverged_fits_on_stderr(tmp_path, fig3_files, capsys):
    args = ["path", *data_args(fig3_files), "--penalty", "gmcp", "--gamma", "1.2,inf",
            "--nlambda", "6"]
    assert main([*args, "--out", str(tmp_path / "ok")]) == 0
    converged = capsys.readouterr()
    assert converged.err == ""
    # the files are written, and the status says that a fit did not converge
    assert main([*args, "--max-iter", "1", "--out", str(tmp_path / "cut")]) == 4
    cut = capsys.readouterr()
    assert cut.out == converged.out.replace("ok", "cut")
    k, total = cut.err.split(" fits did not converge")[0].split(" of ")
    assert 0 < int(k) <= int(total) == 12


def test_cv_counts_nonconverged_fits(tmp_path, fig3_files, capsys):
    out = str(tmp_path / "cv")
    assert main(["cv", *data_args(fig3_files), "--penalty", "glasso", "--nlambda", "5",
                 "--folds", "3", "--max-iter", "1", "--out", out]) == 4
    report = json.load(open(out + "_cv.json"))
    assert 0 < report["n_nonconverged"] <= 5 * 4
    err = capsys.readouterr().err
    assert err == f"{report['n_nonconverged']} of 20 fits did not converge\n"


def test_fit_that_did_not_converge_exits_4(tmp_path, fig3_files, capsys):
    out = str(tmp_path / "f")
    assert main(["fit", *data_args(fig3_files), "--penalty", "gmcp", "--lambda", "0.01",
                 "--max-iter", "1", "--out", out]) == 4
    assert json.load(open(out + "_fit.json"))["converged"] is False
    assert os.path.exists(out + "_coef.csv")
    assert capsys.readouterr().err == "1 of 1 fits did not converge\n"


def test_verify_theory_passing_report_with_nonconverged_replicates_exits_4(
    tmp_path, capsys, monkeypatch
):
    from grpsel import gcd, theory

    def unconverged(*args, **kwargs):  # the fits as they are, each flagged as not converged
        B, iterations, converged = gcd.fit_gcd_columns(*args, **kwargs)
        return B, iterations, np.zeros_like(converged)

    monkeypatch.setattr(theory, "fit_gcd_columns", unconverged)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1",
                               "params": {"n": 60, "group_sizes": [2] * 4,
                                          "reps": 8, "seed": 3}}))
    out = tmp_path / "report.json"
    assert main(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 4
    report = json.load(open(out))
    assert (report["status"], report["n_nonconverged"]) == ("PASS", 8)
    assert capsys.readouterr().err == "8 of 8 fits did not converge\n"


def test_verify_theory_counts_nonconverged_replicates(tmp_path, capsys, monkeypatch):
    from grpsel import gcd, theory

    monkeypatch.setattr(theory, "fit_gcd_columns",
                        lambda *args, **kwargs: gcd.fit_gcd_columns(*args, max_iter=1, **kwargs))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1",
                               "params": {"n": 60, "group_sizes": [2] * 4,
                                          "reps": 8, "seed": 3}}))
    out = tmp_path / "report.json"
    code = main(["verify-theory", "--config", str(cfg), "--out", str(out)])
    report = json.load(open(out))
    # one cycle per fit leaves replicates off the oracle fit: the check
    # fails, and a FAIL exits 3 whether or not every fit converged
    assert (code, report["status"]) == (3, "FAIL")
    assert 0 < report["n_nonconverged"] <= 8
    assert capsys.readouterr().err == f"{report['n_nonconverged']} of 8 fits did not converge\n"


@pytest.mark.parametrize("config", [
    {"experiment": "theorem1", "params": {"group_sizes": 3}},
    {"experiment": "theorem1", "params": [1]},
    {"experiment": "theorem1", "params": {"reps": "abc"}},
    {"experiment": "theorem1", "params": {"support": [12]}},
    {"experiment": "theorem1", "params": {"support": [-1]}},
    {"experiment": "theorem1", "params": {"support": [1, 1]}},
    {"experiment": "theorem1", "params": {"group_sizes": [2, 0]}},
    {"experiment": "tail-bound", "params": {"k_values": [1, "two"]}},
    3,
    {"experiment": "theorem1", "params": {"n": 2}},
    {"experiment": "theorem1", "params": {"n": 3}},
    {"experiment": "theorem1", "params": {"n": 5, "group_sizes": [2, 2, 5]}},
], ids=["sizes_not_a_list", "params_not_an_object", "reps_not_an_integer",
        "support_out_of_range", "support_negative", "support_repeated",
        "empty_group", "k_not_an_integer", "config_not_an_object",
        "theorem1_n_below_group", "theorem1_n_below_support",
        "theorem1_n_below_largest_group"])
def test_malformed_theory_config_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_theorem1_unknown_key_raises_before_any_replicate(tmp_path, capsys, monkeypatch):
    from grpsel import theory

    def no_replicates(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran before the config was checked")

    monkeypatch.setattr(theory, "monte_carlo_theorem1", no_replicates)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1",
                               "params": {"reps": 5, "bogus": 1}}))
    assert main(["verify-theory", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("experiment,params", [
    ("tail-bound", {"draws": 0}),
    ("tail-bound", {"t_values": [2.0, 1.0]}),
    ("tail-bound", {"k_values": [0]}),
    ("theorem1", {"reps": 0}),
    ("theorem1", {"n": 1}),
    ("theorem1", {"sigma": 0.0}),
    ("theorem1", {"lam": -0.1}),
    ("theorem1", {"gamma": 1.0}),
    ("theorem1", {"correlation": 1.0}),
    ("theorem1", {"beta_star": -1.0}),
    ("theorem1", {"n_starts": 0}),
    ("theorem1", {"seed": -1}),
    # integer parameters are never truncated, and a boolean is no integer
    ("theorem1", {"reps": 2.5}),
    ("theorem1", {"seed": 1.5}),
    ("theorem1", {"n": 40.9}),
    ("theorem1", {"reps": True}),
    ("theorem1", {"group_sizes": [2.5, 2]}),
], ids=["draws_0", "t_at_1", "k_0", "reps_0", "n_1", "sigma_0", "lam_negative",
        "gamma_1", "correlation_1", "beta_star_negative", "n_starts_0", "seed_negative",
        "reps_fraction", "seed_fraction", "n_fraction",
        "reps_bool", "sizes_fraction"])
def test_out_of_range_theory_parameter_exits_2(tmp_path, capsys, experiment, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "params": params}))
    out = tmp_path / "report.json"
    assert main(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(next(iter(params))) in err
    assert not out.exists()


def test_verify_theory_fail_exits_3(tmp_path, capsys, monkeypatch):
    from grpsel import theory

    # a bound below every frequency makes every tail-bound case fail
    monkeypatch.setattr(theory, "chisq_tail_bound", lambda t, k: -1.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tail-bound",
                               "params": {"draws": 100, "k_values": [1]}}))
    out = tmp_path / "report.json"
    assert main(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 3
    assert json.load(open(out))["pass"] is False
    assert capsys.readouterr().out.endswith("FAIL: tail-bound\n")


@pytest.mark.parametrize("command,flags", [
    ("fit", ["--penalty", "gmcp", "--lambda", "abc"]),
    ("fit", ["--penalty", "gmcp", "--lambda", "-1"]),
    ("fit", ["--penalty", "gmcp", "--lambda", "nan"]),
    ("fit", ["--penalty", "gmcp", "--lambda", "inf"]),
    ("fit", ["--penalty", "gmcp", "--gamma", "x", "--lambda", "0.1"]),
    ("fit", ["--penalty", "gmcp", "--gamma", "0.5", "--lambda", "0.1"]),
    ("fit", ["--penalty", "gbridge", "--gamma", "2", "--lambda", "0.1"]),
    ("fit", ["--penalty", "sgl", "--lambda2", "-1", "--lambda", "0.1"]),
    ("fit", ["--penalty", "sgl", "--lambda2", "nan", "--lambda", "0.1"]),
    ("path", ["--penalty", "gmcp", "--gamma", "2.7,0.5"]),
    ("path", ["--penalty", "sgl", "--lambda2", "inf"]),
    ("cv", ["--penalty", "gscad", "--gamma", "inf,1.5"]),
    ("path", ["--penalty", "gmcp", "--gamma", "1.2,1.2"]),
    ("cv", ["--penalty", "gmcp", "--gamma", "inf,INF"]),
    ("fit", ["--penalty", "cmcp", "--lambda", "1e-170"]),
    ("fit", ["--penalty", "glasso", "--lambda", "0.1", "--weights", "pow",
             "--weights-exponent", "inf"]),
    ("fit", ["--penalty", "glasso", "--lambda", "0.1", "--weights", "pow",
             "--weights-exponent", "1e308"]),
    ("fit", ["--penalty", "glasso", "--lambda", "0.1", "--weights", "pow",
             "--weights-exponent=-1e308"]),
], ids=["lambda_abc", "lambda_negative", "lambda_nan", "lambda_inf", "gamma_x",
        "gmcp_gamma_0.5", "gbridge_gamma_2", "lambda2_negative", "lambda2_nan",
        "path_second_gamma", "path_lambda2_inf", "cv_second_gamma",
        "gamma_repeated", "gamma_repeated_inf", "cmcp_lambda_underflow",
        "weights_exponent_inf", "weights_exponent_overflow", "weights_exponent_underflow"])
def test_bad_penalty_values_exit_2(tmp_path, fig3_files, capsys, command, flags):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, *data_args(fig3_files), *flags, "--out", str(tmp_path / "o")])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Warning" not in err
    if any(flag.startswith("--weights-exponent") for flag in flags):
        assert "--weights-exponent" in err
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("command,penalty", [("path", "glasso"), ("cv", "glasso"),
                                             ("path", "sgl"), ("fit", "sgl")])
def test_gamma_for_a_family_without_one_exits_2_before_reading(
    tmp_path, fig3_files, capsys, monkeypatch, command, penalty
):
    # glasso and sgl have no gamma: a list would fit (and score) the same
    # grid once per value, a single value would be ignored
    monkeypatch.setattr(cli, "read_matrix_csv", lambda path: pytest.fail("data was read"))
    level = ["--lambda", "0.1"] if command == "fit" else []
    code = main([command, *data_args(fig3_files), "--penalty", penalty, "--gamma", "2.7,inf",
                 *level, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --penalty {penalty} has no gamma")
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("command,flags,message", [
    ("fit", ["--weights-exponent", "2"], "--weights-exponent is read only with --weights pow"),
    ("path", ["--weights", "file", "--weights-file", "w.csv", "--weights-exponent", "2"],
     "--weights-exponent is read only with --weights pow"),
    ("cv", ["--weights-file", "w.csv"], "--weights-file is read only with --weights file"),
    ("fit", ["--weights", "pow", "--weights-exponent", "1", "--weights-file", "w.csv"],
     "--weights-file is read only with --weights file"),
    ("path", ["--weights", "pow"], "--weights pow needs --weights-exponent"),
    ("cv", ["--weights", "file"], "--weights file needs --weights-file"),
    ("fit", ["--weights", "pow", "--weights-exponent", "nan"],
     "--weights pow needs a finite --weights-exponent"),
], ids=["exponent_with_sqrt", "exponent_with_file", "file_with_sqrt", "file_with_pow",
        "pow_without_exponent", "file_without_file", "pow_exponent_nan"])
def test_weights_flags_are_read_or_refused_before_reading(tmp_path, fig3_files, capsys,
                                                          monkeypatch, command, flags,
                                                          message):
    monkeypatch.setattr(cli, "read_matrix_csv", lambda path: pytest.fail("data was read"))
    level = ["--lambda", "0.1"] if command == "fit" else []
    code = main([command, *data_args(fig3_files), "--penalty", "glasso", *level, *flags,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("command,flags,message", [
    ("path", ["--penalty", "gmcp", "--lambda2-ratio", "5"], "--penalty gmcp has no lam2_ratio"),
    ("cv", ["--penalty", "glasso", "--lambda2-ratio", "2"], "--penalty glasso has no lam2_ratio"),
    ("path", ["--penalty", "sgl", "--lambda2", "0.5", "--lambda2-ratio", "3"],
     "--penalty sgl takes lam2 or lam2_ratio, not both"),
    ("path", ["--penalty", "gmcp", "--lambda2", "0"], "--penalty gmcp has no lam2"),
], ids=["ratio_gmcp", "ratio_glasso_cv", "ratio_and_lambda2_sgl", "lambda2_0_gmcp"])
def test_sgl_level_flags_are_read_or_refused_before_reading(tmp_path, fig3_files, capsys,
                                                            monkeypatch, command, flags,
                                                            message):
    monkeypatch.setattr(cli, "read_matrix_csv", lambda path: pytest.fail("data was read"))
    code = main([command, *data_args(fig3_files), *flags, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.glob("o*")) == []


@pytest.mark.parametrize("command,flags", [
    ("path", ["--nlambda", "5"]),
    ("cv", ["--nlambda", "5", "--folds", "3"]),
])
def test_sgl_ratio_overflowing_at_the_grid_top_exits_2_before_any_fit(
    tmp_path, capsys, monkeypatch, command, flags
):
    from grpsel import bilevel

    prefix = str(tmp_path / "d")
    assert main(["simulate", "--scenario", "figure1", "--n", "60", "--seed", "1",
                 "--out", prefix]) == 0
    capsys.readouterr()
    monkeypatch.setattr(bilevel, "fit_sparse_group_lasso", lambda *a, **k: pytest.fail("fit"))
    code = main([command, *data_args(prefix), "--penalty", "sgl", "--lambda2-ratio", "1e308",
                 *flags, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the grid top: sgl lam2 must be finite and nonnegative, "
                          "not inf (lam2_ratio 1e+308 * lam ")
    assert err.count("\n") == 1
    assert list(tmp_path.glob("o*")) == []


def test_fit_at_a_grid_top_that_is_not_finite_exits_2_before_any_fit(tmp_path, capsys,
                                                                       monkeypatch):
    from grpsel import bilevel

    # X'y/n overflows: the sgl top, and the group level tied to it, are inf
    (tmp_path / "X.csv").write_text("a,b\n1,0.5\n-1,0.2\n1,-0.3\n-1,0.1\n")
    (tmp_path / "y.csv").write_text("y\n1e308\n-1e308\n1e308\n-1e308\n")
    (tmp_path / "g.csv").write_text("column_name,group_id\na,1\nb,2\n")
    monkeypatch.setattr(bilevel, "fit_sparse_group_lasso", lambda *a, **k: pytest.fail("fit"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow of X'y
        code = main(["fit", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
                     "--groups", str(tmp_path / "g.csv"), "--penalty", "sgl",
                     "--lambda", "max", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the grid top: sgl lam must be finite and nonnegative, not inf\n")
    assert list(tmp_path.glob("o*")) == []


def test_sgl_fit_equals_a_one_point_path(tmp_path, fig3_files):
    # without --lambda2 both tie the group level to lambda
    out = str(tmp_path / "fit")
    assert main(["fit", *data_args(fig3_files), "--penalty", "sgl", "--lambda", "0.05",
                 "--out", out]) == 0
    assert json.load(open(out + "_fit.json"))["lambda2"] == 0.05
    names, X = read_matrix_csv(fig3_files + "_X.csv")
    design = build_design(X, read_vector_csv(fig3_files + "_y.csv"),
                          read_groups_csv(fig3_files + "_groups.csv", names),
                          orthonormalize=False)
    path = solution_path(design, PenaltySpec("sgl", lam=0.0), lambdas=[0.05])
    assert path.grid == [(0.05, 0.05)]
    _, row = read_matrix_csv(out + "_coef.csv")
    assert row[0].tolist() == [0.05, 0.05, *path.fits[0].beta.tolist()]
