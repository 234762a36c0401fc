"""Penalties: values, derivatives, single-group solutions, objective and stationarity.

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
TWO_NORM_FAMILIES = ("glasso", "gmcp", "gscad")  # penalties of each group's 2-norm

_DEFAULT_GAMMA = {
    "glasso": math.inf,
    "gmcp": 2.7,
    "gscad": 3.7,
    "gbridge": 0.5,
    "sgl": math.inf,
    "cmcp": math.inf,
}

# Below this group 1-norm the bridge tangent slope is effectively unbounded
# and ``bilevel.fit_lcd`` freezes the group at zero for the rest of the fit.
BRIDGE_FREEZE_TOL = 1e-10

# Ties at machine precision collapse to zero: a shrink factor this close to
# the boundary cannot be distinguished from an exact tie after one division.
_TIE_EPS = 4 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty family plus its tuning parameters.

    ``lam`` is the main regularization level.  ``gamma`` is the concavity
    parameter (ignored by ``glasso`` and ``sgl``; ``math.inf`` is a valid
    sentinel for ``gmcp``/``gscad`` and routes them to the group LASSO
    kernel exactly).  ``lam2`` is the group-norm level of ``sgl``, with
    ``lam`` serving as its coordinate-wise level; both levels must be
    finite and nonnegative.  ``gamma_inner`` is the inner MCP concavity of
    ``cmcp``; the outer concavity is derived per group as
    ``d_j * gamma_inner * lam / 2`` and never stored.
    """

    family: str
    lam: float
    gamma: float = None
    lam2: float = 0.0
    gamma_inner: float = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamily(f"unknown penalty family {self.family!r}")
        if not (0 <= self.lam < math.inf and 0 <= self.lam2 < math.inf):
            raise ValueError("penalty levels must be finite and nonnegative")
        if self.lam2 > 0 and self.family != "sgl":
            raise ValueError("lam2 applies to the sgl family only")
        if self.gamma is None:
            object.__setattr__(self, "gamma", _DEFAULT_GAMMA[self.family])
        if self.family == "cmcp":
            if self.gamma_inner is None:
                object.__setattr__(self, "gamma_inner", 2.7)
            if not self.gamma_inner > 1 or math.isinf(self.gamma_inner):
                raise GammaOutOfRange("cmcp requires finite gamma_inner > 1")
            # the outer gamma*lam of a one-column group; the slopes divide by it
            if self.lam > 0 and self.gamma_inner * self.lam / 2 * self.lam == 0:
                raise ValueError(f"cmcp lam {self.lam!r} is so small that "
                                 "gamma_inner * lam**2 / 2 underflows to 0")
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
    boundary yield exact zeros.  A Python float ``z`` takes a scalar path
    that returns a float equal, bit for bit, to the array path's value.
    """
    if type(z) is float:
        shrunk = abs(z) - t
        if shrunk <= _TIE_EPS * t:
            shrunk = 0.0
        # np.sign is 0.0 at both signed zeros
        return shrunk if z > 0 else -shrunk if z < 0 else 0.0 * shrunk
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
    elif family in ("mcp", "scad"):
        # a huge lam overflows gamma * lam and the saturated value to inf, their
        # limits; np.where drops the branch that is not taken (scad: NaN at t = 0)
        with np.errstate(over="ignore", invalid="ignore"):
            if family == "mcp":
                out = np.where(t <= gamma * lam, lam * t - t**2 / (2 * gamma),
                               gamma * lam**2 / 2)
            else:
                inner = np.where(t <= lam, lam * t,
                                 (2 * gamma * lam * t - t**2 - lam**2) / (2 * (gamma - 1)))
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
        # a huge lam overflows gamma * lam to inf: the slope is then lam
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def _shrunk(z: list, t: float, nz: float) -> list:
    # soft_threshold_vec of a list of floats whose norm is nz
    if nz == 0.0:
        return [0.0] * len(z)
    shrink = 1.0 - t / nz
    if shrink <= _TIE_EPS:
        return [0.0] * len(z)
    return [shrink * v for v in z]


def solve_single_group(z, lam: float, gamma: float, family: str):
    """Exact minimizer of (1/2)||z - theta||**2 + rho(||theta||_2; lam, gamma).

    ``family`` is one of ``glasso``, ``gmcp`` (gamma > 1) or ``gscad``
    (gamma > 2).  ``gamma = inf`` routes the concave families to the group
    LASSO operator exactly.

    The work is done in Python floats, which is what makes one group update
    of ``fit_gcd`` cheap.  A list of floats in gives a list out; anything
    else is read as a 1-d float array and gives an ndarray out, with the
    same values.  Every product is the one of the elementwise numpy
    formulas (``soft_threshold_vec``); only ``||z||**2`` is summed left to
    right, without the fused multiply-adds of numpy's dot product, so the
    result may differ from the numpy formulas by a few ulps, scaled by the
    branch's factor ``gamma/(gamma-1)`` or ``(gamma-1)/(gamma-2)``.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    as_list = type(z) is list
    zs = z if as_list else np.asarray(z, dtype=float).tolist()
    ss = 0.0
    for v in zs:  # an explicit loop: from Python 3.12, sum() of floats is compensated
        ss += v * v
    nz = math.sqrt(ss)
    if family == "glasso":
        out = _shrunk(zs, lam, nz)
    elif family == "gmcp":
        if not gamma > 1:
            raise GammaOutOfRange("gmcp requires gamma > 1")
        if math.isinf(gamma):
            out = _shrunk(zs, lam, nz)
        elif nz <= gamma * lam:
            c = gamma / (gamma - 1)
            out = [c * v for v in _shrunk(zs, lam, nz)]
        else:
            out = list(zs)
    elif family == "gscad":
        if not gamma > 2:
            raise GammaOutOfRange("gscad requires gamma > 2")
        if math.isinf(gamma) or nz <= 2 * lam:
            out = _shrunk(zs, lam, nz)
        elif nz <= gamma * lam:
            c = (gamma - 1) / (gamma - 2)
            out = [c * v for v in _shrunk(zs, gamma * lam / (gamma - 1), nz)]
        else:
            out = list(zs)
    else:
        raise UnsupportedFamily(f"no single-group solution for family {family!r}")
    return out if as_list else np.array(out)


def solve_single_group_columns(Z: np.ndarray, lam: float, gamma: float,
                               family: str) -> np.ndarray:
    """``solve_single_group`` on every column of the d x R matrix ``Z``.

    Same branches, tie rule and products; only the column norms are summed
    in another order.  ``gamma`` must lie in the family's range.
    """
    nz = np.sqrt(np.einsum("ij,ij->j", Z, Z))

    def shrunk(t):  # soft_threshold_vec of every column
        with np.errstate(divide="ignore", invalid="ignore"):
            shrink = 1.0 - t / nz
        return np.where((nz == 0.0) | (shrink <= _TIE_EPS), 0.0, shrink) * Z

    if family == "glasso" or math.isinf(gamma):
        return shrunk(lam)
    if family == "gmcp":
        return np.where(nz <= gamma * lam, (gamma / (gamma - 1)) * shrunk(lam), Z)
    mid = ((gamma - 1) / (gamma - 2)) * shrunk(gamma * lam / (gamma - 1))  # gscad
    return np.where(nz <= 2 * lam, shrunk(lam), np.where(nz <= gamma * lam, mid, Z))


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


def objective(design, coef: np.ndarray, pen: PenaltySpec, r: np.ndarray = None) -> float:
    """Penalized least squares objective in the design's internal coordinates.

    ``coef`` must live in the coordinate system of ``design.X`` (i.e. the
    orthonormalized or standardized blocks).  The loss term is
    ``||y - X @ coef||**2 / (2n)``, from the residual ``r`` when given; the
    penalty term depends on the family.
    """
    coef = np.asarray(coef, dtype=float).ravel()
    if r is None:
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


def stationarity(design, pen: PenaltySpec, coef: np.ndarray, frozen=None,
                 g: np.ndarray = None) -> float:
    """Largest violation of the family's optimality conditions at ``coef``.

    ``g`` is the loss gradient ``X'(y - X @ coef)/n`` (computed when None).
    2-norm families: group KKT.  cmcp, gbridge: the LCD fixed point, with
    ``frozen`` groups and bridge groups below ``BRIDGE_FREEZE_TOL`` taken as
    stationary.  sgl: ``||soft(g_j, lam)|| <= lam2`` at a zero group, and at
    the other groups' coordinates the residual ``|g_k - w_k sign(b_k) -
    shift_k|`` (``(|g_k| - w_k)_+`` at ``b_k = 0``) that LCD takes with its
    tangent weights ``w_k`` and ``shift = 0``.  A NaN residual gives NaN.
    """
    coef = np.asarray(coef, dtype=float).ravel()
    if g is None:
        g = design.X.T @ (design.y - design.X @ coef) / design.n
    fam, lam, dims = pen.family, pen.lam, design.dims
    if fam in TWO_NORM_FAMILIES:
        nb = design.group_l2(coef)
        lam_j = design.cj * lam
        slope = rho_prime(nb, lam_j, pen.gamma, _GROUP_RHO[fam][0])
        nonzero = nb > 0
        # a zero group keeps g_j itself (its coefficients are zero)
        v = design.group_l2(
            g - np.repeat(slope, dims) * coef / np.repeat(np.where(nonzero, nb, 1.0), dims)
        )
        return float(np.max(np.where(nonzero, v, np.maximum(v - lam_j, 0.0))))
    skip = np.zeros(design.J, dtype=bool) if frozen is None else np.array(frozen, dtype=bool)
    levels, shift = [], 0.0  # levels: the group-level residuals of sgl's zero groups
    if fam == "sgl":
        nb = design.group_l2(coef)
        skip = nb == 0.0  # a zero group is checked at the group level only
        w, shift = lam, pen.lam2 * coef / np.repeat(np.where(skip, 1.0, nb), dims)
        levels = np.maximum(design.group_l2(soft_threshold(g, lam)) - pen.lam2, 0.0)[skip]
    elif fam not in ("cmcp", "gbridge"):
        raise UnsupportedFamily(f"unknown penalty family {fam!r}")
    elif lam == 0:
        w = np.zeros_like(coef)
    elif fam == "cmcp":
        gi, abs_b = pen.gamma_inner, np.abs(coef)
        outer = _mcp_prime(design.group_sums(_mcp(abs_b, lam, gi)), lam, dims * gi * lam / 2)
        w = np.repeat(outer, dims) * _mcp_prime(abs_b, lam, gi)
    else:
        l1 = design.group_sums(np.abs(coef))
        skip |= l1 < BRIDGE_FREEZE_TOL
        w = np.repeat(rho_prime(np.where(skip, 1.0, l1), design.cj * lam, pen.gamma,
                                "bridge"), dims)
    v = np.where(coef == 0.0, np.maximum(np.abs(g) - w, 0.0),
                 np.abs(g - w * np.sign(coef) - shift))
    v[np.repeat(skip, dims)] = 0.0
    return float(np.max(np.concatenate([levels, v]), initial=0.0))
