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

__all__ = ["RankTolerance", "DEFAULT_TOL", "matrix_rank", "row_basis"]

_EPS = float(np.finfo(np.float64).eps)
# the smallest normal float64, 2**-1022.  Above it, factor * sigma rounds below
# sigma for every factor below 1; at or below it the product can round up to
# sigma itself (at 2**-1022 and factor 1 - 2**-53 it ties and rounds to even)
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)
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
        if self.value is not None and not self.value >= 0:  # NaN fails too
            raise ValueError(f"tolerance value must be nonnegative, got {self.value!r}")
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


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {A.shape}")
    return A


def _has_short_side(shape: tuple[int, int]) -> bool:
    """Whether :func:`_short_side` factors a matrix of this shape."""
    rows, cols = shape
    return 2 * rows <= cols and rows * cols >= _SHORT_SIDE_MIN_CELLS


def _short_side(A: np.ndarray) -> np.ndarray:
    """``R.T`` from the QR of ``A.T`` for a wide enough ``A``, else ``A`` itself:
    either way a matrix with the row inner products of ``A``."""
    if not _has_short_side(A.shape):
        return A
    return np.linalg.qr(A.T, mode="r").T


def _cut(sigma_max, shape: tuple[int, int], tol: RankTolerance):
    """The threshold under ``tol`` of ``shape`` matrices with largest singular
    value ``sigma_max``, and whether sigma_max can be cut as it is: it is
    finite and, under a relative tolerance, 0 or above 2**-1022.  Out of
    that range :func:`_reduce` factors the matrix again, rescaled.
    ``sigma_max`` is a float, or an array of them for a stack of matrices.
    A zero sigma_max is in range under either mode, and its threshold, 0 or
    the nonnegative absolute value, counts no singular value.
    """
    in_range = sigma_max <= _HUGE  # False for inf and NaN
    if tol.mode == "relative":
        in_range = in_range & ((sigma_max > _TINY) | (sigma_max == 0.0))
    return tol.threshold(shape, sigma_max), in_range


def _reduce(A: np.ndarray, tol: RankTolerance) -> tuple[np.ndarray, int]:
    """The short-side factor of A and the count of its singular values above
    the threshold of A.  When the largest singular value of A overflows
    float64 or, under a relative tolerance, is at most 2**-1022, A is scaled
    by the exact power of two that brings its largest entry into [0.5, 1)
    and factored again, so finite input keeps its bits and a relative factor
    below 1 keeps its threshold below ``sigma_max``.  An absolute threshold
    is scaled with A, so it is compared with A's own singular values at any
    scale.  An SVD that fails on a finite factor raises :class:`NumericError`."""
    exp = 0
    for rescaled in (False, True):
        if rescaled:
            exp = int(np.frexp(np.max(np.abs(A)))[1])
        B = _short_side(np.ldexp(A, -exp) if rescaled else A)
        try:
            s = np.linalg.svd(B, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            if rescaled or np.isfinite(B).all():
                raise NumericError(f"SVD failed on {A.shape[0]}x{A.shape[1]} matrix") from exc
            continue  # an overflow left B with no finite factorization
        threshold, in_range = _cut(float(s[0]), A.shape, tol)
        if rescaled or in_range:
            break
    if exp and tol.mode == "absolute":  # a relative threshold scales with B, an absolute one does not
        threshold = math.ldexp(threshold, -exp)  # exp > 0 here: only an overflow rescales
    return B, int(np.count_nonzero(s > threshold))


def _stacked_ranks(stack: np.ndarray, tol: RankTolerance) -> list[int]:
    """The rank :func:`_reduce` gives each matrix of a stack of same-shape
    matrices that have no short-side factor, from one SVD call on the whole
    stack: numpy factors each matrix of a stack as it factors it alone.  A
    matrix whose sigma_max is out of range, and every matrix of a stack
    whose SVD fails, goes through :func:`_reduce` itself."""
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError:
        return [_reduce(A, tol)[1] for A in stack]
    threshold, in_range = _cut(s[:, 0], stack.shape[1:], tol)
    ranks = np.count_nonzero(s.T > threshold, axis=0).tolist()
    for k in np.flatnonzero(~in_range):
        ranks[k] = _reduce(stack[k], tol)[1]
    return ranks


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


def row_basis(M, tol: RankTolerance = DEFAULT_TOL) -> tuple[int, ...]:
    """The sorted 1-based indices of matrix_rank(M) rows forming a maximal
    independent set; their number is the rank.

    Row-pivoted Gram-Schmidt elimination: at each step the row with the
    largest residual norm is taken, ties broken by the smallest row index,
    so the result is deterministic for identical input bytes.  The rank
    test and the elimination run on the short-side factor of M (see
    :func:`_select_rows`).  When rows are dropped, the kept rows of M are
    checked to have the rank under ``tol``, and :class:`NumericError` is
    raised when they do not.
    """
    A = _as_matrix(M)
    B, r = _reduce(A, tol)
    kept = _select_rows(B, r)
    if 0 < r < A.shape[0] and matrix_rank(A[[i - 1 for i in kept]], tol) != r:
        raise NumericError(
            f"row selection lost rank on {A.shape[0]}x{A.shape[1]} matrix (target {r})"
        )
    return kept


def _select_rows(B: np.ndarray, r: int) -> tuple[int, ...]:
    """The sorted 1-based indices of r rows picked by :func:`row_basis`'s
    elimination from a reduction B of rank r by :func:`_reduce`.

    When r is the row count every row is kept, as the reduction found their
    rank.  The elimination runs on B scaled by the power of two that brings
    its largest entry into [0.5, 1): the scaling is exact, so the picked rows
    are unchanged, and the residual norms can neither overflow nor underflow
    at the ends of the float64 range.  It stops early when no residual is
    left, which happens when the tolerance counts a singular value that is
    not above rounding.  Nothing here checks the rank of the picked rows:
    :func:`row_basis` checks it on the kept rows of its matrix, and
    :func:`fullrank.extract_nrank` on the unfoldings of its subtensor.
    """
    if r == B.shape[0]:
        return tuple(range(1, r + 1))
    # C order as in a plain copy, so BLAS sums in the same order and exact ties
    # break the same way
    resid = np.ldexp(B, -np.frexp(np.max(np.abs(B)))[1], order="C")
    basis_vecs: list[np.ndarray] = []
    picked: list[int] = []
    for _ in range(r):
        norms = np.linalg.norm(resid, axis=1)
        k = int(np.argmax(norms))  # first maximum -> smallest index on ties
        if norms[k] == 0.0:
            break
        q = resid[k] / norms[k]
        for prev in basis_vecs:  # re-orthogonalization pass against drift
            q = q - (q @ prev) * prev
        q = q / np.linalg.norm(q)
        picked.append(k)
        basis_vecs.append(q)
        resid = resid - np.outer(resid @ q, q)
        resid[k] = 0.0
    return tuple(sorted(i + 1 for i in picked))
