import json

import numpy as np
import pytest

from grpsel.cli import main, read_groups_csv, read_matrix_csv, read_vector_csv


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


def test_verify_theory_irrepresentable_reports_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "irrepresentable",
                               "params": {"problems": 5, "seed": 0}}))
    out = str(tmp_path / "rep.json")
    assert main(["verify-theory", "--config", str(cfg), "--out", out]) == 0
    assert json.load(open(out))["worst_lhs"] <= 1e-12


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
    groups = tmp_path / "incomplete.csv"
    groups.write_text("column_name,group_id\ng0_0,0\n")
    code = main(["fit", "--x", fig3_files + "_X.csv", "--y", fig3_files + "_y.csv",
                 "--groups", str(groups), "--penalty", "glasso",
                 "--lambda", "0.1", "--out", str(tmp_path / "o")])
    assert code == 2
    inconsistent = tmp_path / "extra.csv"
    rows = open(fig3_files + "_groups.csv").read()
    inconsistent.write_text(rows + "not_a_column,1\n")
    code = main(["fit", "--x", fig3_files + "_X.csv", "--y", fig3_files + "_y.csv",
                 "--groups", str(inconsistent), "--penalty", "glasso",
                 "--lambda", "0.1", "--out", str(tmp_path / "o")])
    assert code == 2


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


@pytest.mark.parametrize("row", ["0", "0,heavy", "g0,1.0"],
                         ids=["one_cell", "weight_not_a_number", "group_not_an_integer"])
def test_malformed_weights_file_row_exits_2(tmp_path, fig3_files, capsys, row):
    weights = tmp_path / "weights.csv"
    weights.write_text(f"group_id,weight\n{row}\n1,1.0\n")
    code = main(["fit", *data_args(fig3_files), "--penalty", "glasso",
                 "--lambda", "0.1", "--weights", "file",
                 "--weights-file", str(weights), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "weights.csv" in err


@pytest.mark.parametrize("command,flags", [
    ("path", ["--nlambda", "1"]),
    ("path", ["--lambda-min-ratio", "0"]),
    ("path", ["--lambda-min-ratio", "1.5"]),
    ("cv", ["--folds", "1"]),
], ids=["nlambda_1", "min_ratio_0", "min_ratio_1.5", "folds_1"])
def test_out_of_range_grid_flags_exit_2(tmp_path, fig3_files, capsys, command, flags):
    code = main([command, *data_args(fig3_files), "--penalty", "glasso", *flags,
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_path_reports_nonconverged_fits_on_stderr(tmp_path, fig3_files, capsys):
    args = ["path", *data_args(fig3_files), "--penalty", "gmcp", "--gamma", "1.2,inf",
            "--nlambda", "6"]
    assert main([*args, "--out", str(tmp_path / "ok")]) == 0
    converged = capsys.readouterr()
    assert converged.err == ""
    assert main([*args, "--max-iter", "1", "--out", str(tmp_path / "cut")]) == 0
    cut = capsys.readouterr()
    assert cut.out == converged.out.replace("ok", "cut")
    k, total = cut.err.split(" fits did not converge")[0].split(" of ")
    assert 0 < int(k) <= int(total) == 12


def test_cv_counts_nonconverged_fits(tmp_path, fig3_files, capsys):
    out = str(tmp_path / "cv")
    assert main(["cv", *data_args(fig3_files), "--penalty", "glasso", "--nlambda", "5",
                 "--folds", "3", "--max-iter", "1", "--out", out]) == 0
    report = json.load(open(out + "_cv.json"))
    assert 0 < report["n_nonconverged"] <= 5 * 4
    err = capsys.readouterr().err
    assert err == f"{report['n_nonconverged']} of 20 fits did not converge\n"


def test_verify_theory_counts_nonconverged_replicates(tmp_path, capsys, monkeypatch):
    from grpsel import gcd, theory

    monkeypatch.setattr(theory, "fit_gcd",
                        lambda *args, **kwargs: gcd.fit_gcd(*args, max_iter=1, **kwargs))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theorem1",
                               "params": {"n": 60, "group_sizes": [2] * 4,
                                          "reps": 8, "seed": 3}}))
    out = tmp_path / "report.json"
    assert main(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.load(open(out))
    assert 0 < report["n_nonconverged"] <= 8
    assert capsys.readouterr().err == f"{report['n_nonconverged']} of 8 fits did not converge\n"
