"""End-to-end and per-layer benchmark of the grpsel CLI.

    python3 bench/run.py --workload cv-concave --seed 3 --seconds 24 --trace 0

Run from anywhere; paths are resolved from this file, and the library is
taken from ``src/`` next to this directory, so the checkout needs no install.
One run:

1. writes the workload's seeded inputs under ``.bench_work/`` (removed at
   the end);
2. in fresh interpreters, measures ``setup_s``, the median time to
   ``import grpsel.cli`` alone, and ``cold_start_s``, that import plus every
   command of the workload's first data set at smoke size, so work moved
   from import time into first calls still shows end to end (with
   ``--trace 1``, the import is split into numpy, scipy and the rest);
3. starts one worker process that repeats whole passes over the workload's
   CLI commands for ``--seconds`` (with ``--trace 1``, half of the time with
   every public library function wrapped in a span, half without), timing
   a fixed reference computation (the probe, in an interpreter of its own)
   after every data set;
4. checks the written outputs and the exit code of every command in every
   pass (see ``check.py``), plus a corrupted copy that the check meant for
   it must reject (the negative control);
5. prints the environment, each metric with its unit, and, as the last
   line, one JSON object: ``correct``, ``attempted``, ``failed`` (fits,
   over all passes) and ``metrics``, the end-to-end metrics of
   BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
   ``--trace 1``.

The end-to-end time is ``wall_rel``: the median over the worker's passes of
the workload's wall time in units of the probe measured around it, not raw
seconds.  On a shared 2-vCPU host the quartile spread over ten seeds of the
raw median of a 26-second run reached 0.2-0.45 of the median in noisy hours,
and that of ``wall_rel`` 0.05-0.2.  Passes after the first run in a warm
process; first-call costs are what ``cold_start_s`` measures.  Raw seconds
are printed too, and reported per layer as ``run.wall_s`` (the first, cold
pass as ``run.first_pass_s``).

``--smoke`` runs tiny sizes for the benchmark's own test.  The exit status
is nonzero, with no result printed, when the library or a worker is missing
or broken.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER_TIMEOUT_S = 150
SETUP_IMPORTS = 8

END_TO_END_UNITS = {"wall_rel": "1", "setup_s": "s", "cold_start_s": "s", "peak_rss_mb": "MB"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    return env


# Run in fresh interpreters: the import of grpsel.cli alone, then every
# command of the workload on one tiny data set ("first" in workloads.SIZES),
# which pays the first-call costs (anything deferred from import time shows
# there).
SETUP_CODE = """
import sys, time
print("--import--", file=sys.stderr, flush=True)
t0 = time.perf_counter()
import grpsel.cli
t1 = time.perf_counter()
modules = len(sys.modules)
print("--import--", file=sys.stderr, flush=True)
import contextlib, io, json
with open(sys.argv[1]) as handle:
    argvs = json.load(handle)
t2 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [grpsel.cli.main(argv) for argv in argvs]
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "first_s": t3 - t2, "modules": modules,
                  "codes": codes}))
"""
IMPORT_GROUPS = ("numpy", "scipy")


def import_breakdown(stderr):
    """Self time of the import of grpsel.cli, from ``-X importtime``, by group.

    A module's self time goes to ``numpy`` or ``scipy`` when it or a module
    that imported it belongs to that package, otherwise to ``other`` (grpsel
    itself and the standard library modules it pulls in).
    """
    entries = []
    for line in stderr.split("--import--")[1].splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        label = fields[2]
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        entries.append((depth, label.strip(), int(fields[0])))
    totals = dict.fromkeys(IMPORT_GROUPS + ("other",), 0.0)
    open_groups = []  # (depth, group) of the ancestors of the current entry
    # importtime prints a module after its children; reversed, parents come first
    for depth, name, self_us in reversed(entries):
        while open_groups and open_groups[-1][0] >= depth:
            open_groups.pop()
        inherited = open_groups[-1][1] if open_groups else "other"
        top = name.split(".")[0]
        group = inherited if inherited != "other" else (top if top in IMPORT_GROUPS else "other")
        open_groups.append((depth, group))
        totals[group] += self_us * 1e-6
    return totals


def setup_samples(first_argvs, work, breakdown, count):
    """Import time and first-command time in ``count`` fresh interpreters.

    With ``breakdown``, the interpreters run under ``-X importtime`` (which
    slows imports a little), and the import is split by ``import_breakdown``.
    """
    argv_path = os.path.join(work, "first_commands.json")
    with open(argv_path, "w") as handle:
        json.dump(first_argvs, handle)
    flags = ["-X", "importtime"] if breakdown else []
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE, argv_path],
                              env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        sample = json.loads(done.stdout.splitlines()[-1])
        if any(sample["codes"]):
            raise RuntimeError(f"first commands exited with {sample['codes']}")
        if breakdown:
            sample.update(import_breakdown(done.stderr))
        samples.append(sample)
    return samples


def setup_metrics(samples):
    """Medians over the fresh interpreters."""
    def median(key):
        return statistics.median(key(s) for s in samples)

    setup = {
        "setup_s": median(lambda s: s["import_s"]),
        "cold_start_s": median(lambda s: s["import_s"] + s["first_s"]),
        "setup.first_command_s": median(lambda s: s["first_s"]),
        "setup.modules_loaded": median(lambda s: s["modules"]),
    }
    for group in IMPORT_GROUPS + ("other",):
        if group in samples[0]:
            setup[f"setup.{group}_import_s"] = median(lambda s: s[group])
    return setup


def run_worker(work, instances, out_dirs, seconds, trace):
    spec_path, result_path = os.path.join(work, "spec.json"), os.path.join(work, "result.json")
    with open(spec_path, "w") as handle:
        json.dump({"instances": instances, "out_dirs": out_dirs,
                   "seconds": seconds, "trace": trace}, handle)
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                    "--spec", spec_path, "--result", result_path],
                   env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True)
    with open(result_path) as handle:
        return json.load(handle)


def load_reference(mode, workload, seed):
    """The stored reference of each instance, or None for unreferenced workloads."""
    if workload not in workloads.REFERENCED:
        return None
    with open(os.path.join(BENCH, "reference", f"{mode}.json")) as handle:
        return json.load(handle)[workload][str(seed % workloads.REFERENCE_SEEDS)]


def check_passes(instances, passes, refs):
    """Outcome over every fit of every pass.

    The files on disk are those of the last pass; each command's outputs
    are checked once.  A pass whose output digest differs from the last
    one fails all its fits, and a command that exited nonzero in a pass
    fails all its fits in that pass.
    """
    import check

    argvs = [argv for inst in instances for argv in inst]
    per_command = [check.check_instance([argv], [0], refs[i] if refs else None)
                   for i, inst in enumerate(instances) for argv in inst]
    total = check.Outcome()
    for p in passes:
        same = p["digest"] == passes[-1]["digest"]
        if not same:
            total.problems.append("outputs differ between passes (or traced vs untraced)")
        for argv, command, outcome in zip(argvs, p["commands"], per_command):
            if command["rc"] != 0:
                total.problems.append(f"{argv[0]} exited with {command['rc']}")
            if command["rc"] != 0 or not same:
                attempted = failed = max(outcome.attempted, check.expected_fits(argv))
            else:
                attempted, failed = outcome.attempted, outcome.failed
            total.attempted += attempted
            total.failed += failed
    for outcome in per_command:
        total.kkt_max = max(total.kkt_max, outcome.kkt_max)
        total.problems += outcome.problems
    return total


def negative_control(work, instances, refs):
    """Check a corrupted copy of the first instance's outputs.

    Returns True when the check meant to catch that damage, and only it,
    rejects the copy (see ``check.corrupt``).
    """
    import check

    source = os.path.dirname(os.path.dirname(check.flag(instances[0][0], "--out")))
    target = os.path.join(work, "control")
    shutil.copytree(source, target)
    argvs = [[a.replace(source, target) for a in argv] for argv in instances[0]]
    expected = check.corrupt(argvs)
    outcome = check.check_instance(argvs, [0] * len(argvs), refs[0] if refs else None)
    return (outcome.failed > 0 and bool(outcome.problems)
            and all(expected in problem for problem in outcome.problems))


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def src_digest():
    h = hashlib.sha256()
    package = os.path.join(SRC, "grpsel")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                h.update(name.encode() + handle.read())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else 0.0


def wall_rel(passes):
    """Median over passes of the pass's wall time in units of the probe.

    The probe is a fixed computation timed after every instance in an
    interpreter of its own (see probe.py), so the ratio keeps the program's cost while the machine's
    speed, which drifts by tens of percent between runs on shared hosts,
    cancels out.
    """
    return _median([p["rel"] for p in passes])


def _per_command_walls(passes, instances, penalty):
    """Median over passes of the summed wall time of one path family's commands."""
    import check

    flat = [check.flag(argv, "--penalty") for argvs in instances for argv in argvs]
    return _median([sum(c["wall_s"] for c, pen in zip(p["commands"], flat) if pen == penalty)
                    for p in passes])


def layer_metrics(result, instances, outcome):
    import layers

    # the first traced pass pays first-call costs (reported apart as
    # design.build_first_s); it is left out whenever a later pass exists
    reps = result["layers"][1:] or result["layers"]
    metrics = {k: _median([r[k] for r in reps]) for k in reps[0]}
    traced = _median([p["wall_s"] for p in result["traced"][1:] or result["traced"]])
    untraced = _median([p["wall_s"] for p in result["passes"]])
    for pen in ("gbridge", "cmcp", "sgl"):
        metrics[f"bilevel.{pen}_path_s"] = _per_command_walls(result["passes"], instances, pen)
    metrics["design.build_first_s"] = result["build_first_s"]
    metrics["design.build_share"] = metrics["design.build_s"] / traced
    metrics["run.wall_s"] = untraced
    metrics["run.probe_s"] = _median([p["probe_s"] for p in result["passes"]])
    metrics["run.cpu_s"] = _median([p["cpu_s"] for p in result["passes"]])
    metrics["run.first_pass_s"] = result["traced"][0]["wall_s"]
    metrics["run.wall_traced_s"] = traced
    metrics["run.trace_overhead_s"] = traced - untraced
    metrics["run.self_coverage"] = sum(metrics[f"{l}.self_s"] for l in layers.LAYERS) / traced
    metrics["kkt_max"] = outcome.kkt_max
    metrics["failed_frac"] = outcome.failed / outcome.attempted
    return metrics, {name: unit_of(name) for name in metrics}


def unit_of(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "cli.bytes_written":
        return "B"
    if name in ("gcd.cycles_per_fit", "design.build_share", "run.self_coverage",
                "kkt_max", "failed_frac"):
        return "1"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the test")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the worker and the finally
    # below removes the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "grpsel", "cli.py")):
        print(f"error: no grpsel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # check.py and layers.py import grpsel from here
    mode = "smoke" if args.smoke else "full"
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        instances = workloads.make_inputs(args.workload, args.seed, os.path.join(work, "in"),
                                          mode)
        out_dirs = [os.path.join(work, "in", f"i{i}", "out") for i in range(len(instances))]
        first = workloads.make_inputs(args.workload, args.seed, os.path.join(work, "first"),
                                      "first")[0]
        # the first interpreter also writes bytecode caches and is not counted;
        # the rest are split around the worker, so that they sample the
        # machine's speed at both ends of the run
        setup_samples(first, work, args.trace, 1)
        samples = setup_samples(first, work, args.trace, SETUP_IMPORTS // 2)
        result = run_worker(work, instances, out_dirs, args.seconds, args.trace)
        samples += setup_samples(first, work, args.trace, SETUP_IMPORTS - len(samples))
        setup = setup_metrics(samples)

        refs = load_reference(mode, args.workload, args.seed)
        passes = result.get("traced", []) + result["passes"]
        outcome = check_passes(instances, passes, refs)
        control_caught = negative_control(work, instances, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = dict(result["env"], git_commit=git_commit(), src_sha256=src_digest(),
               workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, mode=mode, passes=len(passes),
               reference=(f"stored, data seed {args.seed % workloads.REFERENCE_SEEDS}"
                          if refs else "none (KKT checks)"))
    print("env " + json.dumps(env, sort_keys=True))
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.4g}" for p in result["passes"]))
    for problem in outcome.problems[:20]:
        print("check failed: " + problem)
    print("negative control: " + ("rejected as it should be" if control_caught
                                  else "NOT rejected; the checks are broken"))

    if args.trace:
        metrics, units = layer_metrics(result, instances, outcome)
        for name, value in setup.items():
            if name.startswith("setup."):
                metrics[name], units[name] = value, unit_of(name)
    else:
        metrics = {
            "wall_rel": wall_rel(result["passes"]),
            "setup_s": setup["setup_s"],
            "cold_start_s": setup["cold_start_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"wall_s {_median([p['wall_s'] for p in result['passes']]):.6g} s")
        print(f"probe_s {_median([p['probe_s'] for p in result['passes']]):.6g} s")
        print(f"failed_frac {outcome.failed / outcome.attempted:.6g} 1")
        print(f"kkt_max {outcome.kkt_max:.6g} 1")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0 and control_caught,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
