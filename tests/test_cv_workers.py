"""Cross-validation over forked worker processes.

The worker count is the CPU count that ``grpsel.cv._cpu_count`` reports;
these tests set it by monkeypatching that one function.  Every report must
be bit-for-bit the one-worker report, every failure the serial failure, and
no test may leave a child process behind.
"""

import os
import signal

import numpy as np
import pytest

from grpsel import cv
from grpsel.cli import main
from grpsel.cv import fold_assignments, kfold_cv
from grpsel.design import build_design
from grpsel.errors import FoldTooSmall, GrpselError, SingularGroup
from grpsel.paths import PathConfig
from grpsel.penalties import PenaltySpec

from conftest import assert_no_child, gaussian_problem

WORKERS = (1, 2, 3, 8)
GRID = PathConfig(n_lambda=6, lambda_min_ratio=0.05)


def with_workers(monkeypatch, workers, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with ``workers`` CPUs; checks that no child is left."""
    monkeypatch.setattr(cv, "_cpu_count", lambda: workers)
    try:
        return fn(*args, **kwargs)
    finally:
        assert_no_child()


def _design(family):
    beta = np.array([1.5, 0.0, -1.2, 0.0, 0.0, 0.0])
    X, y, labels, _ = gaussian_problem(40, [2, 2, 2], beta=beta, sigma=0.5, seed=9)
    if family in ("glasso", "gmcp"):
        return build_design(X, y, labels)
    weights = ("pow", 0.5) if family == "gbridge" else "sqrt"
    return build_design(X, y, labels, weights=weights, orthonormalize=False)


def assert_same_report(a, b):
    assert a.grid == b.grid
    assert a.mean_cv_error.tobytes() == b.mean_cv_error.tobytes()
    assert a.se.tobytes() == b.se.tobytes()
    assert (a.chosen_min, a.chosen_1se) == (b.chosen_min, b.chosen_1se)
    assert a.fold_sizes == b.fold_sizes
    assert a.n_nonconverged == b.n_nonconverged
    assert len(a.path.fits) == len(b.path.fits)
    for fa, fb in zip(a.path.fits, b.path.fits):
        assert fa.coef.tobytes() == fb.coef.tobytes()


@pytest.mark.parametrize("K", [2, 3, 5, 10])
@pytest.mark.parametrize("family", ["gmcp", "glasso", "sgl", "cmcp", "gbridge"])
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, family, K):
    design, pen = _design(family), PenaltySpec(family, lam=0.0)
    serial = with_workers(monkeypatch, 1, kfold_cv, design, pen, GRID, K=K, seed=4)
    if family == "gmcp":
        assert len({gamma for _, gamma in serial.grid}) == len(cv.DEFAULT_GAMMA_GRID["gmcp"])
    for workers in WORKERS[1:]:
        report = with_workers(monkeypatch, workers, kfold_cv, design, pen, GRID,
                              K=K, seed=4)
        assert_same_report(report, serial)


def _singular_fold_problem():
    """n = 20: column 3 is zero except in one row, held out by the first fold."""
    X, y, labels, _ = gaussian_problem(20, [2, 2, 2], beta=np.ones(6), seed=3)
    X[:, 3] = 0.0
    X[fold_assignments(20, 5, seed=0)[0][0], 3] = 1.0
    return X, y, labels


@pytest.mark.parametrize("workers", WORKERS)
def test_a_child_raises_the_serial_typed_error(monkeypatch, workers):
    design = build_design(*_singular_fold_problem())
    pen = PenaltySpec("glasso", lam=0.0)
    with pytest.raises(SingularGroup) as serial:
        with_workers(monkeypatch, 1, kfold_cv, design, pen, GRID, K=5, seed=0)
    with pytest.raises(SingularGroup) as forked:
        with_workers(monkeypatch, workers, kfold_cv, design, pen, GRID, K=5, seed=0)
    assert str(forked.value) == str(serial.value)
    assert "constant after centering" in str(serial.value)


def test_cli_exits_1_with_the_serial_error_line(monkeypatch, tmp_path, capsys):
    X, y, labels = _singular_fold_problem()
    names = [f"x{k}" for k in range(X.shape[1])]
    np.savetxt(tmp_path / "X.csv", X, delimiter=",", header=",".join(names), comments="")
    np.savetxt(tmp_path / "y.csv", y)
    (tmp_path / "groups.csv").write_text(
        "".join(f"{name},{g}\n" for name, g in zip(names, labels)))
    argv = ["cv", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
            "--groups", str(tmp_path / "groups.csv"), "--penalty", "glasso",
            "--nlambda", "6", "--folds", "5", "--seed", "0", "--out", str(tmp_path / "cv")]
    lines = set()
    for workers in WORKERS:
        assert with_workers(monkeypatch, workers, main, argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines.add(captured.err)
    assert len(lines) == 1
    assert lines.pop().startswith("error: column(s) [")


@pytest.mark.parametrize("workers", WORKERS)
def test_results_come_back_in_job_order(monkeypatch, workers):
    got = with_workers(monkeypatch, workers, cv._forked_map, lambda j: (j, j * j), 7)
    assert got == [(j, j * j) for j in range(7)]


@pytest.mark.parametrize("failing", [(1, 2), (2, 3), (1, 4), (3, 6)])
@pytest.mark.parametrize("workers", WORKERS)
def test_the_lowest_failing_job_is_raised(monkeypatch, workers, failing):
    def job(j):
        if j in failing:
            raise (SingularGroup if j == failing[0] else FoldTooSmall)(f"job {j}")
        return j

    with pytest.raises(SingularGroup, match=f"job {failing[0]}$"):
        with_workers(monkeypatch, workers, cv._forked_map, job, 7)


@pytest.fixture
def alarm():
    """Fail instead of hanging: SIGALRM after 60 s raises in the test."""
    def expired(signum, frame):
        raise TimeoutError("the forked map did not return")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_killed_child_raises_and_does_not_hang(monkeypatch, alarm, workers):
    caller, rebuild = os.getpid(), cv.rebuild_design

    def killing_rebuild(design, rows):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return rebuild(design, rows)

    monkeypatch.setattr(cv, "rebuild_design", killing_rebuild)
    design = _design("glasso")
    with pytest.raises(GrpselError, match=r"folds \[1, .*\] lost: .* returncode -9$"):
        with_workers(monkeypatch, workers, kfold_cv, design,
                     PenaltySpec("glasso", lam=0.0), GRID, K=5, seed=0)


def test_a_child_never_returns_into_the_caller(monkeypatch, alarm):
    caller = os.getpid()

    def job(j):
        if os.getpid() != caller:
            raise SystemExit(3)  # not an Exception: it ends the child's share
        return j

    with pytest.raises(GrpselError, match=r"folds \[1, 3\] lost: .* returncode 1$"):
        with_workers(monkeypatch, 2, cv._forked_map, job, 5)


def test_an_interrupted_caller_reaps_its_children(monkeypatch, alarm):
    def job(j):
        if j == 0:
            raise KeyboardInterrupt
        return j

    with pytest.raises(KeyboardInterrupt):
        with_workers(monkeypatch, 3, cv._forked_map, job, 6)
