"""Seeded inputs and CLI command lines for the four benchmark workloads.

The generator uses only numpy, never ``grpsel.scenarios``, so a change to
the library cannot move the inputs it is measured on.  Inputs are written
as the headered CSV files (and JSON config) that the ``grpsel`` CLI reads.

Why these workloads:

* ``path-wide``: p = 1000 > n with 5 of 200 groups active, so most time goes
  into sweeping the group-update kernel over inactive groups and into
  parsing and writing 1000-column CSV files (screening, kernel constant
  factors and CLI I/O show here).
* ``cv-concave``: p close to n (200 columns, 300 rows) with a joint
  (lambda, gamma) grid, so the small-lambda end takes many cycles, every
  fold rebuilds the design and (K+1) x 4 warm-started paths run (cycles per
  fit, warm starts, design rebuilds).
* ``theory-mc``: 2000 tiny fits (four problems of 500 replicates, each on
  its own fixed design), so per-fit fixed costs dominate; screening and file
  I/O do nothing here.
* ``bilevel-path``: the only workload that reaches ``bilevel.py``: group
  bridge, composite MCP and sparse group LASSO paths on data whose active
  groups are sparse inside.

A run uses several independent data sets (``instances``) where one data set's
solver work varies too much from seed to seed: cycles per path differ by
about 25% between seeds on p ~ n data, and a run-level total over k data
sets narrows that by sqrt(k).  Instances are also where the machine-speed
probe runs (see ``worker.probe``), which is why ``theory-mc`` is split.  Independent columns are used for
``bilevel-path``: at a common correlation of 0.3 the composite MCP path took
3,250 to 5,580 cycles depending on the seed, too wide for any bound.

The outputs of ``cv-concave`` and ``theory-mc`` are compared with values
stored in ``reference/`` for ``REFERENCE_SEEDS`` data seeds, so these two
workloads draw their data from the run seed modulo ``REFERENCE_SEEDS``: every
seed has a reference, and the same seed still gives the same inputs.
"""

import json
import os

import numpy as np

WORKLOADS = ("path-wide", "cv-concave", "theory-mc", "bilevel-path")
REFERENCED = ("cv-concave", "theory-mc")
REFERENCE_SEEDS = 32

# Data and grid sizes.  "smoke" keeps every code path but runs in a blink;
# it exists for the benchmark's own test, not for measurement.  "first" is
# the one data set run right after import for cold_start_s: well-posed
# (p much smaller than n), so its commands take milliseconds.
SIZES = {
    "full": {
        "path-wide": dict(instances=1, n=400, groups=200, size=5, active=5,
                          nlambda=40),
        "cv-concave": dict(instances=3, n=300, groups=40, size=5, active=5,
                           nlambda=20, folds=5),
        "theory-mc": dict(instances=4, n=200, groups=10, size=2, reps=500),
        "bilevel-path": dict(instances=3, n=200, groups=20, size=5, active=3,
                             nlambda=20),
    },
    "smoke": {
        "path-wide": dict(instances=1, n=40, groups=12, size=3, active=2,
                          nlambda=5),
        "cv-concave": dict(instances=2, n=40, groups=4, size=3, active=2,
                           nlambda=4, folds=3),
        "theory-mc": dict(instances=2, n=40, groups=4, size=2, reps=10),
        "bilevel-path": dict(instances=2, n=40, groups=5, size=3, active=2,
                             nlambda=4),
    },
    "first": {
        "path-wide": dict(instances=1, n=100, groups=4, size=2, active=1,
                          nlambda=3),
        "cv-concave": dict(instances=1, n=100, groups=4, size=2, active=1,
                           nlambda=3, folds=2),
        "theory-mc": dict(instances=1, n=40, groups=3, size=2, reps=3),
        "bilevel-path": dict(instances=1, n=100, groups=4, size=2, active=1,
                             nlambda=3),
    },
}

BILEVEL_PENALTIES = ("gbridge", "cmcp", "sgl")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_data(directory, X, y, group_size):
    n, p = X.shape
    names = [f"x{k}" for k in range(p)]
    paths = {
        "x": os.path.join(directory, "X.csv"),
        "y": os.path.join(directory, "y.csv"),
        "groups": os.path.join(directory, "groups.csv"),
    }
    _write_csv(paths["x"], names, X)
    _write_csv(paths["y"], ["y"], y[:, None])
    with open(paths["groups"], "w", newline="") as handle:
        handle.write("column_name,group_id\n")
        for k, name in enumerate(names):
            handle.write(f"{name},{k // group_size}\n")
    return paths


def _grouped_data(rng, n, groups, size, active, within=None):
    """Independent Gaussian columns with ``active`` signal groups, unit noise.

    ``within`` nonzero coefficients per active group (all of them when None).
    """
    p = groups * size
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    for j in rng.choice(groups, size=active, replace=False):
        k = size if within is None else within
        cols = j * size + rng.choice(size, size=k, replace=False)
        beta[cols] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.5, size=k)
    y = X @ beta + rng.standard_normal(n)
    return X, y


def make_inputs(workload, seed, directory, mode="full"):
    """Write every instance's inputs under ``directory``; return their argv lists.

    Returns one list per instance, each holding the argv lists (lists of
    strings for ``grpsel.cli.main``) of that instance's commands; all of
    them together make one pass of the workload.
    """
    sizes = SIZES[mode][workload]
    if workload in REFERENCED:
        seed %= REFERENCE_SEEDS
    return [
        _make_instance(workload, seed, i, os.path.join(directory, f"i{i}"), sizes)
        for i in range(sizes["instances"])
    ]


def _make_instance(workload, seed, instance, directory, sizes):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), instance])
    out = os.path.join(directory, "out")
    os.makedirs(out, exist_ok=True)

    if workload == "theory-mc":
        config = {
            "experiment": "theorem1",
            "params": {
                "n": sizes["n"],
                "group_sizes": [sizes["size"]] * sizes["groups"],
                "support": [0, 1],
                "reps": sizes["reps"],
                "seed": int(rng.integers(2**31 - 1)),
            },
        }
        path = os.path.join(directory, "theorem1.json")
        with open(path, "w") as handle:
            json.dump(config, handle, indent=2)
        return [["verify-theory", "--config", path,
                 "--out", os.path.join(out, "theorem1_report.json")]]

    within = 2 if workload == "bilevel-path" else None
    X, y = _grouped_data(rng, sizes["n"], sizes["groups"], sizes["size"],
                         sizes["active"], within=within)
    data = _write_data(directory, X, y, sizes["size"])
    base = ["--x", data["x"], "--y", data["y"], "--groups", data["groups"]]
    nlambda = str(sizes["nlambda"])

    if workload == "path-wide":
        return [["path", *base, "--penalty", "gmcp", "--gamma", "2.7,inf",
                 "--nlambda", nlambda, "--out", os.path.join(out, "gmcp")]]
    if workload == "cv-concave":
        return [["cv", *base, "--penalty", "gmcp", "--nlambda", nlambda,
                 "--lambda-min-ratio", "0.05", "--folds", str(sizes["folds"]),
                 "--seed", "0",
                 "--out", os.path.join(out, "gmcp")]]
    return [["path", *base, "--penalty", pen, "--nlambda", nlambda,
             "--lambda-min-ratio", "0.01", "--out", os.path.join(out, pen)]
            for pen in BILEVEL_PENALTIES]
