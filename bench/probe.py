"""Times a fixed computation on request, in an interpreter of its own.

Started by ``worker.py``: for every line read from standard input it runs
the probe once and prints its time in seconds, and it exits when its input
closes.  It imports numpy and nothing of grpsel or scipy, so what the
measured process has loaded (libraries, BLAS thread pools, warmed-up code)
does not enter the probe's time; only the speed of the machine does.
"""

import sys
import time

import numpy as np

PROBE_REPS = 250


def probe():
    """Python-level loops over small numpy operations, built like the solvers'
    inner loop, on seeded data."""
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((400, 40)), rng.standard_normal(400)
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        r, b = y.copy(), np.zeros(40)
        for _ in range(8):
            for k in range(0, 40, 5):
                z = X[:, k:k + 5].T @ r / 400 + b[k:k + 5]
                new = z * max(0.0, 1.0 - 0.05 / float(np.linalg.norm(z)))
                r -= X[:, k:k + 5] @ (new - b[k:k + 5])
                b[k:k + 5] = new
    return time.perf_counter() - t0


def main():
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    main()
