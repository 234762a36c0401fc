"""Grouped design matrices with group-level standardization.

A grouped linear model splits the columns of the design matrix into J
nonoverlapping groups.  Penalizing the Gram-weighted norm ||U_j b_j||_2 of a
raw group block, where U_j'U_j = X_j'X_j / n, is equivalent to penalizing the
plain 2-norm of coefficients for the transformed block X_j U_j^{-1}, whose
Gram matrix is the identity.  ``build_design`` performs this reduction for
2-norm group penalties.  Penalties applied coordinate-wise inside groups do
not survive that transformation, so for those the blocks are only
standardized column by column; the scaling factors are stored in the same
per-group factor slots (as diagonal matrices), which keeps the mapping back
to the caller's coordinates uniform.

The transformed design is stored column-major, so every group block is one
contiguous piece of memory (``X.T[a:e]`` is a contiguous row block).
Per-group reductions (norms, sums) run over all groups at once with
``np.add.reduceat`` at the group starts.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyGroup, NonFiniteInput, SingularGroup

# A Cholesky pivot below PIVOT_RTOL times the largest diagonal entry of the
# group Gram matrix marks the group as numerically singular.
PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class GroupedDesign:
    """Centered response and group-transformed design, plus back-mapping data.

    Attributes
    ----------
    y : ndarray, shape (n,)
        Centered response.
    X : ndarray, shape (n, p), column-major
        Column-centered predictors in internal order (groups contiguous),
        with each block either orthonormalized (``(1/n) X_j'X_j = I``) or
        standardized to unit root-mean-square columns.
    groups : tuple of (start, size)
        Column ranges of the groups in internal order.
    cj : ndarray, shape (J,)
        Group penalty weights.
    U : tuple of ndarray
        Per-group upper-triangular factors mapping internal coefficients to
        the caller's scale: ``b_j = U_j beta_j``.  Diagonal when only
        standardization was applied.
    orthonormalized : bool
        True when full group-level orthonormalization was applied.
    X_raw, y_raw
        The inputs exactly as given (caller's order), so row subsets can be
        re-standardized without reconstruction roundoff.  No centered copy
        of the predictors is kept: ``predict`` centers ``X_raw`` itself.
    order : ndarray, shape (p,)
        ``order[k]`` is the original column index of internal column k.
    labels : ndarray, shape (p,)
        Group label of each column, in the caller's original order.
    y_mean, x_mean
        Centering offsets (original column order), needed for prediction.
    """

    y: np.ndarray
    X: np.ndarray
    groups: tuple
    cj: np.ndarray
    U: tuple
    orthonormalized: bool
    X_raw: np.ndarray
    y_raw: np.ndarray
    order: np.ndarray
    labels: np.ndarray
    y_mean: float
    x_mean: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def J(self) -> int:
        return len(self.groups)

    @property
    def dims(self) -> np.ndarray:
        return np.array([d for _, d in self.groups])

    def group_slice(self, j: int) -> slice:
        start, size = self.groups[j]
        return slice(start, start + size)

    @cached_property
    def starts(self) -> np.ndarray:
        """First internal column of each group."""
        return np.array([start for start, _ in self.groups])

    @cached_property
    def gram_rows(self) -> list:
        """Per group, ``X_j'X/n`` (d_j x p) once ``gram_row`` has built it, else None.

        Rows are built on first use, so only the groups a fit moves hold
        one.  A ``with_response`` design shares this list.
        """
        return [None] * self.J

    def gram_row(self, j: int) -> np.ndarray:
        """Group j's rows of the Gram matrix, ``X_j'X/n``, built once per design."""
        row = self.gram_rows[j]
        if row is None:
            row = self.gram_rows[j] = self.X[:, self.group_slice(j)].T @ self.X / self.n
        return row

    @cached_property
    def block_grams(self) -> list:
        """Each group's Gram ``X_j'X_j/n`` as rows of Python floats (read-only)."""
        return [(self.X[:, a:a + d].T @ self.X[:, a:a + d] / self.n).tolist()
                for a, d in self.groups]

    @cached_property
    def block_lipschitz(self) -> list:
        """Each group's block Lipschitz constant, the top eigenvalue of ``X_j'X_j/n``."""
        return [float(np.linalg.eigvalsh(np.array(G))[-1]) for G in self.block_grams]

    def gradient(self, b: np.ndarray, y: np.ndarray = None) -> np.ndarray:
        """The loss gradient ``X'(y - Xb)/n`` (``y``: the design's response by default).

        ``b`` is a vector, or p x R with the columns of an n x R ``y``; an
        all-zero ``b`` skips the product ``Xb``."""
        y = self.y if y is None else y
        return self.X.T @ (y - self.X @ b if b.any() else y) / self.n

    def group_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-group sums of an internal-order vector of length p."""
        return np.add.reduceat(v, self.starts)

    def group_l2(self, v: np.ndarray) -> np.ndarray:
        """Per-group 2-norms of an internal-order vector of length p."""
        return np.sqrt(self.group_sums(v * v))

    def _blocks(self):
        """The block-diagonal factors U and U^{-1} as flat row-major entries.

        Entry e of the concatenated blocks lies in internal column
        ``cols[e]`` and the entries of internal row k start at ``rows[k]``,
        so a block-diagonal matrix-vector product is one gather and one
        ``np.add.reduceat``.  Computed once per factor tuple.
        """
        key, blocks = self.__dict__.get("_block_cache", (None, None))
        if key is not self.U:
            dims = self.dims
            per_row = np.repeat(dims, dims)
            rows = np.concatenate(([0], np.cumsum(per_row)[:-1]))
            offset = np.arange(per_row.sum()) - np.repeat(rows, per_row)
            cols = np.repeat(self.starts, dims * dims) + offset
            fwd = np.concatenate([U.ravel() for U in self.U])
            inv = np.concatenate([np.linalg.inv(U).ravel() for U in self.U])
            blocks = (cols, rows, fwd, inv)
            self.__dict__["_block_cache"] = (self.U, blocks)
        return blocks

    def transform(self, beta: np.ndarray) -> np.ndarray:
        """Map caller-coordinate coefficients to internal solver coordinates."""
        beta = np.asarray(beta, dtype=float).ravel()
        if beta.shape != (self.p,):
            raise DimensionMismatch(
                f"expected coefficient vector of length {self.p}, got {beta.shape}"
            )
        cols, rows, fwd, _ = self._blocks()
        return np.add.reduceat(fwd * beta[self.order][cols], rows)

    def back_transform(self, coef: np.ndarray) -> np.ndarray:
        """Map internal solver coefficients back to the caller's coordinates."""
        coef = np.asarray(coef, dtype=float).ravel()
        if coef.shape != (self.p,):
            raise DimensionMismatch(
                f"expected coefficient vector of length {self.p}, got {coef.shape}"
            )
        if not np.isfinite(coef).all():
            raise NonFiniteInput("coefficients contain NaN or infinite entries")
        cols, rows, _, inv = self._blocks()
        beta = np.empty_like(coef)
        # adding 0.0 turns the -0.0 a zero block can produce into 0.0
        beta[self.order] = np.add.reduceat(inv * coef[cols], rows) + 0.0
        return beta

    def with_response(self, y_new: np.ndarray) -> "GroupedDesign":
        """Same design with a replacement response (no re-centering).

        Intended for simulation experiments that redraw noise around a fixed
        design; ``y_new`` is used exactly as given, and is also the raw
        response (with offset 0) that ``rebuild_design`` and ``predict`` read.
        """
        y_new = np.asarray(y_new, dtype=float).ravel()
        if y_new.shape != (self.n,):
            raise DimensionMismatch("response length does not match the design")
        if not np.isfinite(y_new).all():
            raise NonFiniteInput("response contains NaN or infinite entries")
        new = replace(self, y=y_new, y_raw=y_new, y_mean=0.0)
        # same factor tuple and same X: the block form and the Gram rows are shared
        new.__dict__["_block_cache"] = (self.U, self._blocks())
        new.__dict__["gram_rows"] = self.gram_rows
        return new


def build_design(X, y, group_labels, weights="sqrt", orthonormalize=True):
    """Center, reorder, and group-standardize a grouped regression problem.

    Parameters
    ----------
    X : array-like, shape (n, p)
        Raw predictors.
    y : array-like, shape (n,)
        Raw response.
    group_labels : array-like of int, shape (p,)
        Group membership of each column.  Labels need not be contiguous;
        columns are reordered internally (stably) and all outputs are
        reported in the caller's original column order.
    weights : "sqrt" | ("pow", float) | array-like
        Group weights c_j: the square root of the group size (the usual
        choice for 2-norm penalties), a power ``d_j**g`` of the group size
        (``("pow", g)``, the usual bridge choice with g the bridge exponent),
        or an explicit vector of length J (ordered by sorted unique label).
    orthonormalize : bool
        True: replace each block by ``X_j U_j^{-1}`` so that
        ``(1/n) X_j'X_j = I``.  False: standardize columns to unit
        root-mean-square instead (required by penalties that act on
        individual coefficients, since orthonormalization would destroy
        coordinate-wise sparsity).

    Raises
    ------
    SingularGroup
        If a group Gram matrix is not numerically positive definite
        (more columns than rows, or collinear columns within the group).
    NonFiniteInput
        If X or y holds a NaN or infinite entry.
    DomainError
        If a group weight is not finite and positive (an explicit entry,
        or ``d_j**g`` for a non-finite or overflowing exponent).
    EmptyGroup, DimensionMismatch
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise DimensionMismatch("X must be a 2-d array")
    n, p = X.shape
    if y.shape != (n,):
        raise DimensionMismatch(f"y has length {y.shape[0]}, X has {n} rows")
    if n < 2:
        raise DimensionMismatch("need at least two observations")
    if p == 0:
        raise EmptyGroup("design has no columns")
    labels = np.asarray(group_labels).ravel()
    if labels.shape != (p,):
        raise DimensionMismatch("group_labels must have one entry per column")
    if not np.isfinite(X).all():
        raise NonFiniteInput("X contains NaN or infinite entries")
    if not np.isfinite(y).all():
        raise NonFiniteInput("y contains NaN or infinite entries")

    x_mean = X.mean(axis=0)
    Xc = X - x_mean
    y_mean = float(y.mean())
    yc = y - y_mean

    col_scale = np.linalg.norm(Xc, axis=0) / np.sqrt(n)
    dead = col_scale <= 1e-12 * np.maximum(1.0, np.abs(x_mean))
    if np.any(dead):
        raise SingularGroup(
            f"column(s) {np.flatnonzero(dead).tolist()} are constant after centering"
        )

    uniq = np.unique(labels)
    rank = np.searchsorted(uniq, labels)
    order = np.argsort(rank, kind="stable")
    sizes = np.bincount(rank, minlength=len(uniq))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    groups = tuple((int(s), int(d)) for s, d in zip(starts, sizes))

    Xc = Xc[:, order]  # internal order; the caller-order copy is freed
    Xt = np.empty_like(Xc, order="F")
    factors = []
    for j, (start, size) in enumerate(groups):
        block = Xc[:, start:start + size]
        if orthonormalize:
            if size > n:
                raise SingularGroup(
                    f"group {uniq[j]} has {size} columns but only {n} rows"
                )
            R = block.T @ block / n
            try:
                U = np.linalg.cholesky(R).T
            except np.linalg.LinAlgError:
                raise SingularGroup(
                    f"group {uniq[j]}: Gram matrix is not positive definite"
                ) from None
            # pivots are on the square-root scale of R, so compare squared
            if np.min(np.diag(U)) ** 2 < PIVOT_RTOL * np.max(np.diag(R)):
                raise SingularGroup(
                    f"group {uniq[j]}: Gram matrix is numerically singular"
                )
            Xt[:, start:start + size] = np.linalg.solve(U.T, block.T).T
        else:
            scale = col_scale[order[start:start + size]]
            U = np.diag(scale)
            Xt[:, start:start + size] = block / scale
        factors.append(U)

    J = len(groups)
    dims = sizes.astype(float)
    if isinstance(weights, str):
        if weights != "sqrt":
            raise ValueError(f"unknown weights rule {weights!r}")
        cj = np.sqrt(dims)
    elif isinstance(weights, tuple) and len(weights) == 2 and weights[0] == "pow":
        cj = dims ** float(weights[1])
    else:
        cj = np.asarray(weights, dtype=float).ravel()
        if cj.shape != (J,):
            raise DimensionMismatch(f"need {J} group weights, got {cj.shape[0]}")
    if not np.all(np.isfinite(cj) & (cj > 0)):
        raise DomainError(f"group weights must be finite and positive, got {cj.tolist()}")

    return GroupedDesign(
        y=yc,
        X=Xt,
        groups=groups,
        cj=cj,
        U=tuple(factors),
        orthonormalized=bool(orthonormalize),
        X_raw=X,
        y_raw=y,
        order=order,
        labels=labels.copy(),
        y_mean=y_mean,
        x_mean=x_mean,
    )


def rebuild_design(design: GroupedDesign, rows) -> GroupedDesign:
    """Rebuild a design from a row subset of the original data.

    Re-centers and re-standardizes using only the selected rows (no
    information from excluded rows leaks in).  The group weights depend
    only on the group sizes, which a row subset keeps: ``cj`` carries over.
    """
    return build_design(
        design.X_raw[rows],
        design.y_raw[rows],
        design.labels,
        weights=design.cj,
        orthonormalize=design.orthonormalized,
    )


def group_norms(design: GroupedDesign, beta: np.ndarray) -> np.ndarray:
    """Per-group 2-norms of a caller-coordinate coefficient vector.

    Groups are ordered by sorted unique label, matching ``design.groups``.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.shape != (design.p,):
        raise DimensionMismatch("coefficient length does not match the design")
    return design.group_l2(beta[design.order])


def predict(design: GroupedDesign, beta: np.ndarray, X_new=None) -> np.ndarray:
    """Fitted or predicted values for caller-coordinate coefficients."""
    beta = np.asarray(beta, dtype=float).ravel()
    X = design.X_raw if X_new is None else np.asarray(X_new, dtype=float)
    return design.y_mean + (X - design.x_mean) @ beta
