"""CP (canonical polyadic) rank bounds that are exact at the rank tolerance.

A real 2x2x2 tensor with negative Cayley hyperdeterminant has CP rank 3
(ten Berge 1991; de Silva and Lim 2008) although every unfolding rank is 2,
so the CP rank is not proper.  An unknown upper bound is reported, never
guessed.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, RankTolerance
from .ranks import n_rank
from .tensor import DenseTensor, frobenius_norm

__all__ = [
    "CERTIFICATE_TOL", "CpBounds", "cp_bounds", "cp_reconstruct", "cp_residual", "hyperdeterminant_sign"
]

_LETTERS = string.ascii_lowercase[:25]  # 'z' reserved for the rank axis
CERTIFICATE_TOL = 1e-8  # a certificate counts once its relative residual is below this


@dataclass(frozen=True)
class CpBounds:
    """lower <= CP rank <= upper (``None`` upper means unknown)."""

    lower: int
    upper: int | None

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


def _factor_subscripts(order: int) -> str:
    if order > len(_LETTERS):
        raise ValueError(f"order {order} too large for einsum-based CP routines")
    modes = _LETTERS[:order]
    return ",".join(f"{c}z" for c in modes) + "->" + modes


def cp_reconstruct(factors: Sequence[np.ndarray]) -> DenseTensor:
    """Sum of rank-one terms from per-mode factor matrices (n_j x R each)."""
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    return DenseTensor(np.einsum(_factor_subscripts(len(mats)), *mats, optimize=True))


def cp_residual(x: DenseTensor, factors: Sequence[np.ndarray]) -> float:
    """Relative Frobenius residual of a CP factor set against x."""
    return frobenius_norm(cp_reconstruct(factors) - x) / frobenius_norm(x)


def hyperdeterminant_sign(a: np.ndarray) -> int:
    """Exact sign (-1, 0 or 1) of the Cayley hyperdeterminant of a 2x2x2 array,
    read from its eight entries in row-major order.

    With frontal slices A and B, the hyperdeterminant is the discriminant of
    the binary quadratic form det(sA + tB): (det(A+B) - det A - det B)^2 -
    4 det A det B.  Every float64 is an integer over a power of two, so one
    common power-of-two scaling turns the entries into integers, and this
    degree-4 polynomial keeps its sign under that scaling.
    """
    ratios = [float(v).as_integer_ratio() for v in a.reshape(-1)]
    common = max(d for _, d in ratios)
    a000, a001, a010, a011, a100, a101, a110, a111 = (n * (common // d) for n, d in ratios)
    mixed = a000 * a111 + a001 * a110 - a010 * a101 - a011 * a100
    delta = mixed * mixed - 4 * (a000 * a110 - a010 * a100) * (a001 * a111 - a011 * a101)
    return (delta > 0) - (delta < 0)


def cp_bounds(
    x: DenseTensor,
    tol: RankTolerance = DEFAULT_TOL,
    certificate: Sequence[np.ndarray] | None = None,
) -> CpBounds:
    """Bracket the CP rank with bounds that are exact at ``tol``.

    * When at most two unfolding ranks exceed 1, x is a matrix times vectors
      in the other modes, and its CP rank is that matrix's rank, the largest
      unfolding rank.  This covers zero, rank-one and order-2 tensors.
    * On the other 2x2x2 tensors, singleton modes allowed, the sign of the
      hyperdeterminant decides: rank 2 if positive, 3 if negative, and 2 or
      3 if zero, since no real 2x2x2 tensor has rank above 3.
    * Where the upper bound is not yet exact, a ``certificate`` factor set
      that reproduces x to ``CERTIFICATE_TOL`` bounds the rank by its width.
      Without one, the upper bound of any other tensor is unknown.
    """
    if x.order < 2:
        raise ValueError("CP bounds need order >= 2")
    ranks = n_rank(x, tol).ranks
    lower = max(ranks)
    upper: int | None = None
    if sum(r > 1 for r in ranks) <= 2:
        upper = lower
    elif [n for n in x.shape if n > 1] == [2, 2, 2]:  # singleton modes leave the entry order
        lower, upper = {-1: (3, 3), 0: (2, 3), 1: (2, 2)}[hyperdeterminant_sign(x.data)]
    if certificate is not None and upper != lower and cp_residual(x, certificate) < CERTIFICATE_TOL:
        width = int(np.asarray(certificate[0]).shape[1])
        upper = width if upper is None else min(upper, width)
    return CpBounds(lower=lower, upper=upper)
