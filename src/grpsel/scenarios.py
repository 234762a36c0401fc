"""Simulation scenarios: equicorrelated Gaussian designs with group structure.

Two named scenarios are built in.  ``figure1`` has twenty groups with only
the first two carrying signal (norms 2 and about 1.22) and is the standard
stage for comparing concave 2-norm paths against the group LASSO.
``figure3`` has two groups of three with signal on some coordinates and
exact zeros on others inside the same group, the canonical bi-level
selection setting.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ScenarioSpec:
    """What to simulate: a named scenario or a custom grouped model.

    Construction checks every field; a bad one raises ``ConfigError``, which
    names the field and its range.
    """

    name: str = "figure1"
    n: int = 100
    sigma: float = 0.5
    correlation: float = 0.0
    seed: int = 0
    group_sizes: tuple = None  # custom only
    beta: tuple = None  # custom only

    def __post_init__(self):
        custom, sizes, beta = self.name == "custom", self.group_sizes, self.beta
        for name, ok, rule in (
            ("name", self.name in ("figure1", "figure3", "custom"), "figure1, figure3 or custom"),
            ("n", self.n >= 2, "at least 2"),
            ("sigma", 0 <= self.sigma < math.inf, "finite and >= 0"),
            ("correlation", 0 <= self.correlation < 1, "in [0, 1)"),
            ("seed", self.seed >= 0, "at least 0"),
            ("group_sizes", not custom or sizes and all(
                d >= 1 and float(d).is_integer() for d in sizes), "integers >= 1 (custom)"),
            ("beta", not custom or beta is not None and all(map(math.isfinite, beta))
             and len(beta) == sum(sizes or ()), "finite, one per column (custom)"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, not {getattr(self, name)!r}")


@dataclass
class SimulatedData:
    X: np.ndarray
    y: np.ndarray
    labels: np.ndarray
    beta_true: np.ndarray
    support: tuple
    column_names: list = field(default_factory=list)


def scenario_truth(spec: ScenarioSpec):
    """Group sizes and true coefficients for a scenario."""
    if spec.name == "figure1":
        sizes = [2, 3] + [3] * 18
        beta = [-math.sqrt(2), math.sqrt(2), 0.5, 1.0, -0.5] + [0.0] * 54
    elif spec.name == "figure3":
        sizes = [3, 3]
        beta = [1.0, 1.0, 0.0, 0.0, 0.0, -1.0]
    else:
        sizes, beta = spec.group_sizes, spec.beta
    return np.array(sizes, dtype=int), np.array(beta, dtype=float)


def equicorrelated_columns(n: int, p: int, correlation: float, rng) -> np.ndarray:
    """Standard normal columns with a common pairwise correlation."""
    Z = rng.standard_normal((n, p))
    if correlation == 0.0:
        return Z
    shared = rng.standard_normal((n, 1))
    return math.sqrt(1 - correlation) * Z + math.sqrt(correlation) * shared


def make_scenario(spec: ScenarioSpec) -> SimulatedData:
    """Draw one data set from the scenario's generating model."""
    sizes, beta = scenario_truth(spec)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    p = int(sizes.sum())
    rng = np.random.default_rng(spec.seed)
    X = equicorrelated_columns(spec.n, p, spec.correlation, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        y = X @ beta
        if spec.sigma > 0:
            y = y + spec.sigma * rng.standard_normal(spec.n)
    if not np.all(np.isfinite(y)):
        raise ConfigError(f"beta {spec.beta!r} gives a response that is not finite")
    support = tuple(j for j in range(len(sizes)) if np.any(beta[labels == j] != 0))
    names = [f"g{j}_{k}" for j, d in enumerate(sizes) for k in range(d)]
    return SimulatedData(
        X=X, y=y, labels=labels, beta_true=beta, support=support, column_names=names
    )
