"""Regenerate the stored reference outputs the checks compare against.

    python3 bench/make_reference.py --mode full

Runs the ``cv-concave`` and ``theory-mc`` workloads once for each of the
``REFERENCE_SEEDS`` data seeds through the CLI of the library in ``src/`` and
writes ``bench/reference/<mode>.json``.  References are meant to come from a
commit whose outputs are trusted; regenerating them after a change to the
library defeats the check.
"""

import argparse
import io
import contextlib
import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import grpsel.cli as cli  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

# Significant digits kept for stored values: enough for the tolerances in
# check.py (the tightest is a relative 1e-9).
DIGITS = 11


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    return value


def reference_for(workload, seed, mode):
    work = os.path.join(ROOT, ".bench_work", f"reference-{workload}-{seed}-{os.getpid()}")
    try:
        records = []
        for argvs in workloads.make_inputs(workload, seed, work, mode):
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"{workload} seed {seed}: {argv[0]} failed")
            argv = argvs[0]
            got = check.extract_cv(argv) if argv[0] == "cv" else check.extract_theory(argv)
            records.append({k: _round(v) for k, v in got.items()})
        return records
    finally:
        shutil.rmtree(work)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args()
    table = {workload: {str(s): reference_for(workload, s, args.mode)
                        for s in range(workloads.REFERENCE_SEEDS)}
             for workload in workloads.REFERENCED}
    path = os.path.join(BENCH, "reference", f"{args.mode}.json")
    with open(path, "w") as handle:
        json.dump(table, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
