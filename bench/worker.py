"""Runs one workload's CLI commands in a fresh process and times them.

Started by ``run.py`` with the library's ``src`` directory on the path; not
meant to be run by hand.  It reads a JSON spec (``instances``: argv lists
for ``grpsel.cli.main``, ``out_dirs``, ``seconds``, ``trace``), repeats whole
passes over the instances until the time is used up (always at least one
pass), and writes a JSON result: per pass its wall and CPU time, the time of
a fixed reference computation run around it in an interpreter of its own
(``probe.py``), per-command times and exit
codes, and a digest of every output file; with tracing, also the per-layer
metrics of each traced pass.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

import grpsel.cli as cli


def _digest(out_dirs):
    h = hashlib.sha256()
    for directory in out_dirs:
        for name in sorted(os.listdir(directory)):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def _run_command(argv):
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        traceback.print_exc()
        return -1


def run_pass(instances, out_dirs, probe, before):
    """One pass over every instance, with the probe timed after each instance.

    ``before`` is the probe time measured just before the pass.  ``rel`` is
    the sum over instances of the instance's wall time over the mean of the
    probe times measured just before and just after it.
    """
    wall = cpu = rel = 0.0
    commands, probes = [], []
    for argvs in instances:
        cpu0, t0 = time.process_time(), time.perf_counter()
        for argv in argvs:
            c0 = time.perf_counter()
            rc = _run_command(argv)
            commands.append({"wall_s": time.perf_counter() - c0, "rc": rc})
        instance_wall = time.perf_counter() - t0
        cpu += time.process_time() - cpu0
        wall += instance_wall
        after = probe()
        rel += instance_wall / ((before + after) / 2)
        probes.append(after)
        before = after
    return {"wall_s": wall, "cpu_s": cpu, "rel": rel, "probes": probes,
            "probe_s": sum(probes) / len(probes), "commands": commands,
            "digest": _digest(out_dirs)}


class Probe:
    """The machine-speed probe (see ``probe.py``), run in its own interpreter."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def run_passes(instances, out_dirs, probe, budget, on_pass=None):
    """Whole passes until the next one would overrun ``budget`` seconds."""
    passes, start = [], time.perf_counter()
    before = probe()
    while True:
        record = run_pass(instances, out_dirs, probe, before)
        before = record["probes"][-1]
        if on_pass is not None:
            on_pass(record)
        passes.append(record)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > budget:
            return passes


def _blas_threads():
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset") for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    with open(args.spec) as handle:
        spec = json.load(handle)
    instances, out_dirs, seconds = spec["instances"], spec["out_dirs"], spec["seconds"]

    result = {"env": environment()}
    probe = Probe()
    try:
        if spec["trace"]:
            from layers import install, rep_metrics
            from tracer import Tracer

            tracer = Tracer()
            install(tracer)
            layer_reps = []

            def record_layers(_):
                layer_reps.append(rep_metrics(tracer))
                tracer.reset()

            try:
                # traced passes first, so the first traced call is the process's
                # first call and design.build_first_s sees the cold cost
                result["traced"] = run_passes(instances, out_dirs, probe, seconds / 2,
                                              record_layers)
            finally:
                tracer.restore()
            result["layers"] = layer_reps
            result["build_first_s"] = tracer.first.get("design.build_design", 0.0)
            seconds /= 2
        result["passes"] = run_passes(instances, out_dirs, probe, seconds)
    finally:
        probe.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main())
