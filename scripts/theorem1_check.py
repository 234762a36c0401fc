"""Desk-scale Monte Carlo check of the exact-oracle probability bound.

Runs the chi-square tail-bound experiment and the oracle-equality
experiment for the 2-norm group MCP: the empirical frequency of the fitted
model differing from the oracle least squares fit must stay below
eta1 + eta2 whenever the conditions on (lam, gamma, signal, noise) hold.
A negative control with the signal below gamma*lam is included to show the
condition flags at work.  Exits with the first nonzero ``verify-theory``
exit status (3 when a report says FAIL, 4 when a fit did not converge),
after running every experiment.
"""

import argparse
import json
import os
import sys
import tempfile

from grpsel.cli import main as grpsel


def run(out_dir: str, reps: int, seed: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    experiments = {
        "tail_bound": {"experiment": "tail-bound",
                       "params": {"draws": 100_000, "seed": seed}},
        "theorem1": {"experiment": "theorem1",
                     "params": {"n": 200, "group_sizes": [2] * 10,
                                "support": [0, 1], "beta_star": 2.0,
                                "sigma": 1.0, "gamma": 3.0, "lam": 0.4,
                                "reps": reps, "seed": seed}},
        "theorem1_negative_control": {
            "experiment": "theorem1",
            "params": {"n": 200, "beta_star": 0.5, "gamma": 3.0, "lam": 0.4,
                       "reps": max(reps // 10, 10), "seed": seed},
        },
    }
    status = 0
    for name, config in experiments.items():
        cfg_path = os.path.join(tempfile.gettempdir(), f"grpsel_{name}.json")
        with open(cfg_path, "w") as handle:
            json.dump(config, handle)
        out = os.path.join(out_dir, name + ".json")
        print(f"--- {name} ---")
        code = grpsel(["verify-theory", "--config", cfg_path, "--out", out])
        status = status or code
    print(f"reports written under {out_dir}/")
    return status


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/theory")
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.exit(run(args.out, args.reps, args.seed))
