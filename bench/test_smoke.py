"""The benchmark's own test, on tiny inputs.

    python3 -m pytest bench/test_smoke.py

Checks that a run prints every metric BENCHMARK.json declares, with its
unit, that each corruption of the negative control is rejected by the check
meant for it, that a failed command in any pass counts, and that the
benchmark fails without a result when the library is absent.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, unit in declared.items():
        assert printed.get(name) == unit, name
    assert "negative control: rejected as it should be" in lines


def _run_first_instance(workload, directory):
    import grpsel.cli as cli

    instances = workloads.make_inputs(workload, 0, directory, "smoke")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for inst in instances for argv in inst]
    assert not any(codes)
    return instances


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_corruption_is_caught_by_its_own_check(workload, tmp_path):
    argvs = _run_first_instance(workload, str(tmp_path))[0]
    refs = run.load_reference("smoke", workload, 0)
    ref = refs[0] if refs else None
    clean = check.check_instance(argvs, [0] * len(argvs), ref)
    assert clean.attempted > 0 and clean.failed == 0, clean.problems
    expected = check.corrupt(argvs)
    damaged = check.check_instance(argvs, [0] * len(argvs), ref)
    assert damaged.failed > 0
    assert damaged.attempted == clean.attempted
    assert damaged.problems and all(expected in p for p in damaged.problems), damaged.problems
    if ref is not None:
        # the damage is consistent, so only the stored reference reveals it
        assert check.check_instance(argvs, [0] * len(argvs), None).failed == 0


def test_a_crash_in_any_pass_counts_as_failed(tmp_path):
    instances = _run_first_instance("bilevel-path", str(tmp_path))
    commands = [{"rc": 0} for inst in instances for _ in inst]
    crashed = [{"rc": 1}] + commands[1:]
    passes = [{"digest": "d", "commands": crashed}, {"digest": "d", "commands": commands}]
    outcome = run.check_passes(instances, passes, None)
    per_pass = sum(check.expected_fits(argv) for inst in instances for argv in inst)
    assert outcome.attempted == 2 * per_pass
    assert outcome.failed == check.expected_fits(instances[0][0])


def test_nonzero_exit_counts_every_fit_as_failed(tmp_path):
    argvs = workloads.make_inputs("bilevel-path", 0, str(tmp_path), "smoke")[0]
    outcome = check.check_instance(argvs, [1] * len(argvs), None)
    assert outcome.failed == outcome.attempted == sum(check.expected_fits(a) for a in argvs)


def test_fails_without_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("path-wide", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
