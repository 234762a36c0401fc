"""Penalty functions, derivatives, and exact single-group solutions.

Scalar penalty families (``rho``, ``rho_prime``), as functions of t >= 0:

``l1``
    lam * t.
``mcp``
    lam*t - t**2/(2*gamma) for t <= gamma*lam, constant gamma*lam**2/2
    beyond.  Requires gamma > 1; gamma = inf reduces to ``l1``.
``scad``
    lam*t up to lam, the quadratic spline
    (2*gamma*lam*t - t**2 - lam**2) / (2*(gamma-1)) up to gamma*lam, then
    the constant lam**2*(gamma+1)/2.  Requires gamma > 2; gamma = inf
    reduces to ``l1``.
``bridge``
    lam * t**gamma with 0 < gamma <= 1 (derivative unbounded at 0).

The group threshold operators are the exact minimizers of

    (1/2) * ||z - theta||_2**2 + rho(||theta||_2; lam, gamma)

and are the inner kernel of the group coordinate descent solvers.  Boundary
ties (||z|| exactly at a branch point) take the lower, more-shrunk branch;
the branch values agree there, so this is a determinism convention only.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, GammaOutOfRange, UnsupportedFamily

FAMILIES = ("glasso", "gmcp", "gscad", "gbridge", "cmcp", "sgl")

_DEFAULT_GAMMA = {
    "glasso": math.inf,
    "gmcp": 2.7,
    "gscad": 3.7,
    "gbridge": 0.5,
    "sgl": math.inf,
    "cmcp": math.inf,
}

# Ties at machine precision collapse to zero: a shrink factor this close to
# the boundary cannot be distinguished from an exact tie after one division.
_TIE_EPS = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family plus its tuning parameters.

    ``lam`` is the main regularization level.  ``gamma`` is the concavity
    parameter (ignored by ``glasso`` and ``sgl``; ``math.inf`` is a valid
    sentinel for ``gmcp``/``gscad`` and routes them to the group LASSO
    kernel exactly).  ``lam2`` is the group-norm level of ``sgl``, with
    ``lam`` serving as its coordinate-wise level.  ``gamma_inner`` is the
    inner MCP concavity of ``cmcp``; the outer concavity is derived per
    group as ``d_j * gamma_inner * lam / 2`` and never stored.
    """

    family: str
    lam: float
    gamma: float = None
    lam2: float = 0.0
    gamma_inner: float = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamily(f"unknown penalty family {self.family!r}")
        if self.lam < 0 or self.lam2 < 0:
            raise ValueError("penalty levels must be nonnegative")
        if self.lam2 > 0 and self.family != "sgl":
            raise ValueError("lam2 applies to the sgl family only")
        if self.gamma is None:
            object.__setattr__(self, "gamma", _DEFAULT_GAMMA[self.family])
        if self.family == "cmcp":
            if self.gamma_inner is None:
                object.__setattr__(self, "gamma_inner", 2.7)
            if not self.gamma_inner > 1 or math.isinf(self.gamma_inner):
                raise GammaOutOfRange("cmcp requires finite gamma_inner > 1")
        elif self.gamma_inner is not None:
            raise ValueError("gamma_inner applies to the cmcp family only")
        g = self.gamma
        if self.family == "gmcp" and not g > 1:
            raise GammaOutOfRange("MCP requires gamma > 1")
        if self.family == "gscad" and not g > 2:
            raise GammaOutOfRange("SCAD requires gamma > 2")
        if self.family == "gbridge" and not 0 < g < 1:
            raise GammaOutOfRange("bridge requires 0 < gamma < 1")

    def with_lam(self, lam: float, lam2: float = None) -> "PenaltySpec":
        if lam2 is None:
            lam2 = self.lam2 if self.family == "sgl" else 0.0
        return replace(self, lam=float(lam), lam2=float(lam2))

    def with_gamma(self, gamma: float) -> "PenaltySpec":
        if self.family == "cmcp":
            return replace(self, gamma_inner=float(gamma))
        return replace(self, gamma=float(gamma))

    @property
    def shape_param(self) -> float:
        """The family's free concavity parameter (gamma_inner for cmcp)."""
        return self.gamma_inner if self.family == "cmcp" else self.gamma


def soft_threshold(z, t):
    """Coordinate-wise soft threshold sign(z) * (|z| - t)_+.

    Ties at machine precision collapse to zero (same convention as the
    multivariate operator), so penalty levels computed to sit exactly at a
    boundary yield exact zeros.
    """
    z = np.asarray(z, dtype=float)
    shrunk = np.abs(z) - t
    shrunk = np.where(shrunk <= _TIE_EPS * t, 0.0, shrunk)
    return np.sign(z) * shrunk


def soft_threshold_vec(z: np.ndarray, t: float) -> np.ndarray:
    """Multivariate soft threshold (1 - t/||z||)_+ * z.

    Shrinks the length of z by t, leaving its direction unchanged; returns
    the zero vector when ||z|| <= t.
    """
    z = np.asarray(z, dtype=float)
    nz = np.linalg.norm(z)
    if nz == 0.0:
        return np.zeros_like(z)
    shrink = 1.0 - t / nz
    if shrink <= _TIE_EPS:
        return np.zeros_like(z)
    return shrink * z


def _check_rho_args(t, gamma, family):
    if np.any(np.asarray(t) < 0):
        raise DomainError("penalty argument must be nonnegative")
    if family == "mcp" and not gamma > 1:
        raise GammaOutOfRange("MCP requires gamma > 1")
    if family == "scad" and not gamma > 2:
        raise GammaOutOfRange("SCAD requires gamma > 2")
    if family == "bridge" and not 0 < gamma <= 1:
        raise GammaOutOfRange("bridge requires 0 < gamma <= 1")


def rho(t, lam, gamma=None, family="l1"):
    """Scalar penalty value; accepts scalars or arrays of t >= 0."""
    _check_rho_args(t, gamma, family)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if family == "l1" or (family in ("mcp", "scad") and math.isinf(gamma)):
        out = lam * t
    elif family == "mcp":
        out = np.where(
            t <= gamma * lam, lam * t - t**2 / (2 * gamma), gamma * lam**2 / 2
        )
    elif family == "scad":
        inner = np.where(
            t <= lam,
            lam * t,
            (2 * gamma * lam * t - t**2 - lam**2) / (2 * (gamma - 1)),
        )
        out = np.where(t <= gamma * lam, inner, lam**2 * (gamma + 1) / 2)
    elif family == "bridge":
        out = lam * t**gamma
    else:
        raise UnsupportedFamily(f"unknown scalar penalty family {family!r}")
    return float(out[0]) if scalar else out


def rho_prime(t, lam, gamma=None, family="l1"):
    """Derivative of ``rho`` with respect to t (where it exists).

    ``lam`` may be an array matching ``t`` (one level per entry); the slope
    at a zero level is zero.
    """
    _check_rho_args(t, gamma, family)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if family == "l1" or (family in ("mcp", "scad") and math.isinf(gamma)):
        out = np.full_like(t, lam)
    elif family in ("mcp", "scad"):
        with np.errstate(divide="ignore", invalid="ignore"):
            if family == "mcp":
                out = lam * np.maximum(1.0 - t / (gamma * lam), 0.0)
            else:
                out = lam * np.minimum(1.0, np.maximum(gamma - t / lam, 0.0) / (gamma - 1))
        out = np.where(np.asarray(lam) > 0, out, 0.0)
    elif family == "bridge":
        if np.any(t == 0):
            raise DomainError("bridge derivative is unbounded at 0")
        out = gamma * lam * t ** (gamma - 1)
    else:
        raise UnsupportedFamily(f"no derivative for scalar penalty family {family!r}")
    return float(out[0]) if scalar else out


def solve_single_group(z: np.ndarray, lam: float, gamma: float, family: str) -> np.ndarray:
    """Exact minimizer of (1/2)||z - theta||**2 + rho(||theta||_2; lam, gamma).

    ``family`` is one of ``glasso``, ``gmcp`` (gamma > 1) or ``gscad``
    (gamma > 2).  ``gamma = inf`` routes the concave families to the group
    LASSO operator exactly.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    z = np.asarray(z, dtype=float)
    if family == "glasso":
        return soft_threshold_vec(z, lam)
    if family == "gmcp":
        if not gamma > 1:
            raise GammaOutOfRange("gmcp requires gamma > 1")
        if math.isinf(gamma):
            return soft_threshold_vec(z, lam)
        if np.linalg.norm(z) <= gamma * lam:
            return (gamma / (gamma - 1)) * soft_threshold_vec(z, lam)
        return z.copy()
    if family == "gscad":
        if not gamma > 2:
            raise GammaOutOfRange("gscad requires gamma > 2")
        if math.isinf(gamma):
            return soft_threshold_vec(z, lam)
        nz = np.linalg.norm(z)
        if nz <= 2 * lam:
            return soft_threshold_vec(z, lam)
        if nz <= gamma * lam:
            return ((gamma - 1) / (gamma - 2)) * soft_threshold_vec(
                z, gamma * lam / (gamma - 1)
            )
        return z.copy()
    raise UnsupportedFamily(f"no single-group solution for family {family!r}")


def _mcp(t, lam, gamma):
    # MCP value without the gamma > 1 range check: the derived outer
    # concavity of the composite penalty may legitimately drop below 1.
    return np.where(
        t <= gamma * lam, lam * t - np.square(t) / (2 * gamma), gamma * lam**2 / 2
    )


def _mcp_prime(t, lam, gamma):
    return lam * np.maximum(1.0 - t / (gamma * lam), 0.0)


# Scalar penalty applied to each group's 2-norm or 1-norm, by family.
_GROUP_RHO = {
    "glasso": ("l1", "l2"),
    "gmcp": ("mcp", "l2"),
    "gscad": ("scad", "l2"),
    "gbridge": ("bridge", "l1"),
}


def objective(design, coef: np.ndarray, pen: PenaltySpec) -> float:
    """Penalized least squares objective in the design's internal coordinates.

    ``coef`` must live in the coordinate system of ``design.X`` (i.e. the
    orthonormalized or standardized blocks).  The loss term is
    ``||y - X @ coef||**2 / (2n)``; the penalty term depends on the family.
    """
    coef = np.asarray(coef, dtype=float).ravel()
    r = design.y - design.X @ coef
    lam = pen.lam
    fam = pen.family
    if fam in _GROUP_RHO:
        kind, norm = _GROUP_RHO[fam]
        size = design.group_l2(coef) if norm == "l2" else design.group_sums(np.abs(coef))
        penalty = rho(size, design.cj * lam, pen.gamma, kind)
    elif fam == "cmcp":
        # outer MCP of the group's summed inner MCPs; the outer concavity
        # d_j * gamma_inner * lam / 2 makes the group penalty top out exactly
        # when every coordinate's inner penalty does
        if lam == 0:
            penalty = 0.0
        else:
            inner = design.group_sums(_mcp(np.abs(coef), lam, pen.gamma_inner))
            penalty = _mcp(inner, lam, design.dims * pen.gamma_inner * lam / 2)
    elif fam == "sgl":
        penalty = lam * design.group_sums(np.abs(coef)) + pen.lam2 * design.group_l2(coef)
    else:
        raise UnsupportedFamily(f"unknown penalty family {fam!r}")
    return 0.5 * float(r @ r) / design.n + float(np.sum(penalty))
