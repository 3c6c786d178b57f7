"""Tolerance-controlled numerical matrix rank and independent-row selection.

Every tensor rank in the package reduces to :func:`matrix_rank` of some
unfolding, so the tolerance semantics are fixed here once: singular values
are compared against ``tol.value * sigma_max`` (relative mode, with
``max(rows, cols) * eps`` as the automatic default factor) or against a raw
``tol.value`` (absolute mode).

Wide matrices are factored from their short side.  When ``2 * rows <= cols``
and the matrix has at least 4096 entries, Householder QR of the transpose
gives ``A = R.T @ Q.T`` with orthonormal ``Q``, so the rows x rows matrix
``R.T`` has exactly the row inner products of ``A`` (``A @ A.T == R.T @ R``).
It therefore has A's singular values and left singular vectors, every subset
of its rows has the rank of the same rows of ``A``, and greedy max-residual
row pivoting picks the same rows from either.  Householder QR is backward
stable: the computed ``R.T`` is exact for a matrix within a small multiple of
``eps * ||A||`` of ``A``, the same backward error the SVD itself commits, so
rank decisions on ``R.T`` stay SVD-grade.  The Gram matrix ``A @ A.T`` would
not: it squares the condition number and loses every singular value below
about ``sqrt(eps) * sigma_max``.  Square, tall and small matrices go to the
SVD directly, since on them the QR only adds call overhead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = ["RankTolerance", "RowBasis", "DEFAULT_TOL", "matrix_rank", "row_basis", "in_row_span"]

_EPS = float(np.finfo(np.float64).eps)
# the smallest normal float64, 2**-1022.  Above it, factor * sigma rounds below
# sigma for every factor below 1; at or below it the product can round up to
# sigma itself (at 2**-1022 and factor 1 - 2**-53 it ties and rounds to even)
_TINY = float(np.finfo(np.float64).tiny)
_SHORT_SIDE_MIN_CELLS = 4096  # below this the QR costs more than it saves


@dataclass(frozen=True)
class RankTolerance:
    """Singular-value threshold rule.

    mode "relative": threshold = value * sigma_max, where a ``None`` value
    means the standard ``max(rows, cols) * eps`` factor.  mode "absolute":
    threshold = value.
    """

    mode: str = "relative"
    value: float | None = None

    def __post_init__(self):
        if self.mode not in ("relative", "absolute"):
            raise ValueError(f"unknown tolerance mode {self.mode!r}")
        if self.value is not None and self.value < 0:
            raise ValueError("tolerance value must be nonnegative")
        if self.mode == "absolute" and self.value is None:
            raise ValueError("absolute tolerance needs an explicit value")

    def threshold(self, shape: tuple[int, int], sigma_max: float) -> float:
        if self.mode == "absolute":
            return self.value
        return self._factor(shape) * sigma_max

    def _factor(self, shape: tuple[int, int]) -> float:
        return self.value if self.value is not None else max(shape) * _EPS

    def describe(self) -> str:
        if self.mode == "relative" and self.value is None:
            return "relative:max(rows,cols)*eps"
        return f"{self.mode}:{self.value!r}"


DEFAULT_TOL = RankTolerance()


@dataclass(frozen=True)
class RowBasis:
    """A maximal numerically independent set of rows (1-based indices)."""

    indices: tuple[int, ...]
    rank: int


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {A.shape}")
    return A


def _short_side(A: np.ndarray) -> np.ndarray:
    """``R.T`` from the QR of ``A.T`` for a wide enough ``A``, else ``A`` itself:
    either way a matrix with the row inner products of ``A``."""
    rows, cols = A.shape
    if 2 * rows > cols or rows * cols < _SHORT_SIDE_MIN_CELLS:
        return A
    return np.linalg.qr(A.T, mode="r").T


class _OutOfRange(ArithmeticError):
    """The largest singular value overflowed float64 although every entry is
    finite, or is so small that a relative threshold can round up to it."""


def _rank(B: np.ndarray, shape: tuple[int, int], tol: RankTolerance, exp: int | None = None) -> int:
    """Singular values of B counted against the threshold of a ``shape`` matrix,
    B being the reduced matrix scaled down by ``2**exp``.  With no ``exp`` B
    is unscaled, and a largest singular value that overflows, or under a
    relative tolerance is at most 2**-1022, raises :class:`_OutOfRange` so
    that the caller can rescale."""
    try:
        s = np.linalg.svd(B, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(B).all():
            raise _OutOfRange from exc
        raise NumericError(f"SVD failed on {shape[0]}x{shape[1]} matrix") from exc
    if s.size == 0 or s[0] == 0.0:
        return 0
    sigma_max = float(s[0])
    small = tol.mode == "relative" and sigma_max <= _TINY
    if exp is None and (small or not math.isfinite(sigma_max)):
        raise _OutOfRange
    threshold = tol.threshold(shape, sigma_max)
    if exp and tol.mode == "absolute":  # a relative threshold scales with B, an absolute one does not
        threshold = math.ldexp(threshold, -exp)  # exp > 0 here: only an overflow rescales
    return int(np.count_nonzero(s > threshold))


def _reduce(A: np.ndarray, tol: RankTolerance) -> tuple[np.ndarray, int, int]:
    """The short-side factor of A, its rank, and the power of two it was scaled
    down by.  The power is 0 unless the largest singular value of A overflows
    float64 or, under a relative tolerance, is at most 2**-1022; then A is
    scaled by the exact power of two that brings its largest entry into
    [0.5, 1) and factored again, so finite input keeps its bits and a
    relative factor below 1 keeps its threshold below ``sigma_max``.  An
    absolute threshold is compared with A's own singular values at any scale."""
    try:
        B = _short_side(A)
        return B, _rank(B, A.shape, tol), 0
    except _OutOfRange:
        exp = int(np.frexp(np.max(np.abs(A)))[1])
        B = _short_side(np.ldexp(A, -exp))
        return B, _rank(B, A.shape, tol, exp), exp


def _shape_rank(shape: tuple[int, int], tol: RankTolerance) -> int | None:
    """The rank every nonzero ``shape`` matrix has under ``tol`` when the shape
    alone fixes it, else None.

    A matrix with one row or one column has a single singular value sigma,
    and under a relative tolerance it is counted iff sigma > fl(factor *
    sigma).  The SVD path rescales a matrix whose sigma overflows or is at
    most 2**-1022 (see :func:`_reduce`), so the sigma it counts is above
    2**-1022, where the rounded product is below sigma for every factor below
    1 and at least sigma for every factor from 1 on.  So the rank is 1 for a
    factor below 1 and 0 otherwise.  An absolute threshold needs sigma itself.
    """
    if tol.mode != "relative" or min(shape) != 1:
        return None
    return 1 if tol._factor(shape) < 1.0 else 0


def matrix_rank(M, tol: RankTolerance = DEFAULT_TOL) -> int:
    """Count of singular values above the tolerance threshold.  A vector
    whose rank follows from its shape (:func:`_shape_rank`) is only tested
    for being zero, which has rank 0 under any tolerance."""
    A = _as_matrix(M)
    r = _shape_rank(A.shape, tol)
    if r is None:
        return _reduce(A, tol)[1]
    return r if A.any() else 0


def row_basis(M, tol: RankTolerance = DEFAULT_TOL) -> RowBasis:
    """Select matrix_rank(M) rows forming a maximal independent set.

    Row-pivoted Gram-Schmidt elimination: at each step the row with the
    largest residual norm is taken, ties broken by the smallest row index,
    so the result is deterministic for identical input bytes.  The rank
    test, the elimination and the final check all run on the short-side
    factor of M, and the elimination runs on it scaled by the power of two
    that brings its largest entry into [0.5, 1): the scaling is exact, so
    the picked rows are unchanged, and the residual norms can neither
    overflow nor underflow at the ends of the float64 range.
    """
    A = _as_matrix(M)
    return _select_rows(A.shape, *_reduce(A, tol), tol)


def _select_rows(
    shape: tuple[int, int], B: np.ndarray, r: int, exp: int, tol: RankTolerance
) -> RowBasis:
    """:func:`row_basis` of a ``shape`` matrix from its reduction by :func:`_reduce`."""
    # C order as in a plain copy, so BLAS sums in the same order and exact ties
    # break the same way
    resid = np.ldexp(B, -np.frexp(np.max(np.abs(B)))[1], order="C")
    basis_vecs: list[np.ndarray] = []
    picked: list[int] = []
    for _ in range(r):
        norms = np.linalg.norm(resid, axis=1)
        k = int(np.argmax(norms))  # first maximum -> smallest index on ties
        q = resid[k] / norms[k]
        for prev in basis_vecs:  # re-orthogonalization pass against drift
            q = q - (q @ prev) * prev
        q = q / np.linalg.norm(q)
        picked.append(k)
        basis_vecs.append(q)
        resid = resid - np.outer(resid @ q, q)
        resid[k] = 0.0
    indices = tuple(sorted(i + 1 for i in picked))
    if indices and _rank(B[[i - 1 for i in indices]], (r, shape[1]), tol, exp) != r:
        raise NumericError(
            f"row selection lost rank on {shape[0]}x{shape[1]} matrix (target {r})"
        )
    return RowBasis(indices=indices, rank=r)


def in_row_span(M, basis: RowBasis, v, tol: RankTolerance = DEFAULT_TOL) -> bool:
    """True iff appending v to the basis rows does not raise numerical rank."""
    A = _as_matrix(M)
    w = np.asarray(v, dtype=np.float64).reshape(-1)
    if w.size != A.shape[1]:
        raise ValueError(f"vector length {w.size} != column count {A.shape[1]}")
    if basis.rank == 0:
        return matrix_rank(w.reshape(1, -1), tol) == 0
    rows = A[[i - 1 for i in basis.indices]]
    return matrix_rank(np.vstack([rows, w]), tol) == basis.rank
