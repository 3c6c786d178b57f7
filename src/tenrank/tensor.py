"""Dense real tensors and the elementary operations on them.

Conventions used throughout the package:

* entries are stored row-major (last index varies fastest) in double precision;
* all public mode numbers and entry indices are 1-based;
* mode-j unfoldings order the columns with the remaining modes in increasing
  mode order, earliest remaining mode varying fastest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import SelectionError

__all__ = [
    "DenseTensor",
    "IndexSelection",
    "subtensor",
    "p_row",
    "permute_modes",
    "outer_product",
    "identity_tensor",
    "unfold",
    "fold",
    "mode_product",
    "mode_products",
    "scale",
    "add",
    "frobenius_norm",
]


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite (no NaN/Inf)")
    return arr


class DenseTensor:
    """Immutable dense tensor of order >= 1 with finite float64 entries.

    Instances are value objects: equality and hashing are by exact entry
    values, so tensors can key caches and be shared freely across threads.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, values, shape: Sequence[int] | None = None):
        arr = np.array(values, dtype=np.float64)
        if shape is not None:
            arr = arr.reshape(tuple(int(n) for n in shape))
        if arr.ndim < 1:
            raise ValueError("tensor order must be at least 1")
        if any(n < 1 for n in arr.shape):
            raise ValueError(f"shape entries must be >= 1, got {arr.shape}")
        _check_finite(arr)
        arr.setflags(write=False)
        self._data = arr
        self._hash: int | None = None

    @classmethod
    def _of_fresh(cls, arr: np.ndarray) -> "DenseTensor":
        """Wrap a float64 array that nothing else refers to, without the
        constructor's copy.  Its entries must be finite: either taken from a
        DenseTensor or passed through :func:`_check_finite`."""
        t = cls.__new__(cls)
        arr.setflags(write=False)
        t._data = arr
        t._hash = None
        return t

    @property
    def data(self) -> np.ndarray:
        """The underlying read-only array (0-based, row-major)."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def order(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def is_zero(self) -> bool:
        return not self._data.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._data, other._data)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.shape, self._data.tobytes()))
        return self._hash

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        return add(self, other)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        return add(self, scale(other, -1.0))

    def __neg__(self) -> "DenseTensor":
        return scale(self, -1.0)

    def __mul__(self, alpha: float) -> "DenseTensor":
        return scale(self, alpha)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        dims = "x".join(str(n) for n in self.shape)
        return f"DenseTensor({dims})"


@dataclass(frozen=True)
class IndexSelection:
    """Per-mode 1-based index subsets defining a subtensor.

    Each mode's tuple must be nonempty and strictly increasing; bounds are
    checked against a concrete shape by :meth:`validate_for`.
    """

    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(int(i) for i in mode) for mode in self.indices)
        object.__setattr__(self, "indices", norm)
        if not norm:
            raise SelectionError("selection must cover at least one mode")
        for l, mode in enumerate(norm, start=1):
            if not mode:
                raise SelectionError(f"mode {l}: empty index set")
            if any(i < 1 for i in mode):
                raise SelectionError(f"mode {l}: indices are 1-based, got {mode}")
            if any(a >= b for a, b in zip(mode, mode[1:])):
                raise SelectionError(f"mode {l}: indices must be strictly increasing, got {mode}")

    @classmethod
    def of(cls, *mode_indices: Iterable[int]) -> "IndexSelection":
        return cls(tuple(tuple(m) for m in mode_indices))

    @classmethod
    def full(cls, shape: Sequence[int]) -> "IndexSelection":
        """The selection keeping every index of every mode."""
        return cls(tuple(tuple(range(1, n + 1)) for n in shape))

    def validate_for(self, shape: Sequence[int]) -> None:
        if len(self.indices) != len(shape):
            raise SelectionError(
                f"selection covers {len(self.indices)} modes, tensor has {len(shape)}"
            )
        for l, (mode, n) in enumerate(zip(self.indices, shape), start=1):
            if mode[-1] > n:
                raise SelectionError(f"mode {l}: index {mode[-1]} out of range 1..{n}")

    def result_shape(self) -> tuple[int, ...]:
        return tuple(len(mode) for mode in self.indices)

    def compose(self, inner: "IndexSelection") -> "IndexSelection":
        """Selection equivalent to applying ``self`` first, then ``inner``."""
        inner.validate_for(self.result_shape())
        return IndexSelection(
            tuple(
                tuple(mode[i - 1] for i in sub)
                for mode, sub in zip(self.indices, inner.indices)
            )
        )


def subtensor(x: DenseTensor, sel: IndexSelection) -> DenseTensor:
    """Extract the subtensor given by per-mode index subsets."""
    sel.validate_for(x.shape)
    grid = np.ix_(*[np.asarray(mode, dtype=np.intp) - 1 for mode in sel.indices])
    return DenseTensor._of_fresh(x.data[grid])


def p_row(x: DenseTensor, p: int, q: int) -> DenseTensor:
    """The q-th p-row: mode p pinned to index q, all other modes kept full.

    For a matrix, a 1-row is a row and a 2-row is a column (returned with a
    singleton mode p, not squeezed).
    """
    if not 1 <= p <= x.order:
        raise SelectionError(f"mode {p} out of range 1..{x.order}")
    if not 1 <= q <= x.shape[p - 1]:
        raise SelectionError(f"index {q} out of range 1..{x.shape[p - 1]} in mode {p}")
    sel = IndexSelection(
        tuple(
            (q,) if l == p else tuple(range(1, n + 1))
            for l, n in enumerate(x.shape, start=1)
        )
    )
    return subtensor(x, sel)


def permute_modes(x: DenseTensor, sigma: Sequence[int]) -> DenseTensor:
    """Reorder modes: new mode k holds old mode sigma[k] (1-based)."""
    perm = tuple(int(s) for s in sigma)
    if sorted(perm) != list(range(1, x.order + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{x.order}")
    # np.array copies in the transposed layout (order "K"), as the constructor does
    return DenseTensor._of_fresh(np.array(np.transpose(x.data, [s - 1 for s in perm])))


def outer_product(vectors: Sequence[Sequence[float]]) -> DenseTensor:
    """Outer product of nonzero vectors; always a rank-one tensor."""
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    arrs = []
    for i, v in enumerate(vectors, start=1):
        a = np.asarray(v, dtype=np.float64)
        if a.ndim != 1 or a.size == 0:
            raise ValueError(f"argument {i} is not a nonempty vector")
        if not a.any():
            raise ValueError(f"argument {i} is the zero vector; result would not be rank-one")
        arrs.append(a)
    return DenseTensor(reduce(np.multiply.outer, arrs))


def identity_tensor(m: int, n: int) -> DenseTensor:
    """Cubic order-m tensor with ones on the diagonal (i, ..., i), m >= 2."""
    if m < 2:
        raise ValueError(f"identity tensor needs order >= 2, got {m}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    a = np.zeros((n,) * m)
    diag = np.arange(n)
    a[(diag,) * m] = 1.0
    return DenseTensor(a)


def _check_mode(mode: int, order: int) -> int:
    if not 1 <= mode <= order:
        raise ValueError(f"mode {mode} out of range 1..{order}")
    return mode - 1


def unfold(x: DenseTensor, mode: int) -> np.ndarray:
    """Mode-j unfolding: rows are mode-j fibers, columns ordered with the
    remaining modes in increasing mode order, earliest varying fastest.

    The result is a fresh array, in F order, that the caller may modify.
    With the other modes put last-to-first ahead of mode j, a C-order
    reshape makes the earliest other mode vary fastest, so the transpose of
    that reshape is the unfolding.  The reshape copies whenever two or more
    other modes have more than one index; otherwise (matrices, vectors,
    singleton modes) it is a view of x, and only then is it copied.
    """
    j = _check_mode(mode, x.order)
    a = x.data
    n = a.ndim
    axes = tuple(range(n - 1, j, -1)) + tuple(range(j - 1, -1, -1)) + (j,)
    M = a.transpose(axes).reshape(-1, a.shape[j]).T
    return np.array(M) if np.may_share_memory(M, a) else M


def fold(matrix, mode: int, shape: Sequence[int]) -> DenseTensor:
    """Exact inverse of :func:`unfold` under the same column convention."""
    shape = tuple(int(n) for n in shape)
    j = _check_mode(mode, len(shape))
    M = np.asarray(matrix, dtype=np.float64)
    rest = shape[:j] + shape[j + 1 :]
    expected = (shape[j], math.prod(rest))
    if M.ndim != 2 or M.shape != expected:
        raise ValueError(f"matrix shape {M.shape} does not match {expected} for mode {mode}")
    a = np.moveaxis(M.reshape((shape[j],) + rest, order="F"), 0, j)
    return DenseTensor(a)


def mode_product(x: DenseTensor, matrix, mode: int) -> DenseTensor:
    """Mode-j product: contracts mode j of x with the columns of ``matrix``."""
    j = _check_mode(mode, x.order)
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("mode product needs a matrix")
    if A.shape[1] != x.shape[j]:
        raise ValueError(
            f"matrix has {A.shape[1]} columns, mode {mode} has dimension {x.shape[j]}"
        )
    new_shape = x.shape[:j] + (A.shape[0],) + x.shape[j + 1 :]
    return fold(A @ unfold(x, mode), mode, new_shape)


def mode_products(x: DenseTensor, matrices: Sequence, skip: int | None = None) -> DenseTensor:
    """x times ``matrices[j-1]`` in every mode j, in mode order, except mode ``skip``."""
    for j, A in enumerate(matrices, start=1):
        if j != skip:
            x = mode_product(x, A, j)
    return x


def scale(x: DenseTensor, alpha: float) -> DenseTensor:
    # the product may overflow, so it is scanned; it is fresh, so not copied
    return DenseTensor._of_fresh(_check_finite(float(alpha) * x.data))


def add(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return DenseTensor._of_fresh(_check_finite(x.data + y.data))


_NORM_SAFE = (1e-100, 1e100)


def frobenius_norm(x: DenseTensor) -> float:
    """Frobenius norm without under- or overflow at any finite scale.

    A plain norm inside ``_NORM_SAFE`` is returned as is, so ordinary
    scales give the same bits as ``np.linalg.norm``.  Outside it the squares
    may have under- or overflowed: the entries are divided by a power of two
    near max|x| (exact, bar entries too small to count) and the norm is
    scaled back.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x.data))
    if _NORM_SAFE[0] <= norm <= _NORM_SAFE[1] or x.is_zero():
        return norm
    _, exponent = math.frexp(float(np.abs(x.data).max()))
    return math.ldexp(float(np.linalg.norm(np.ldexp(x.data, -exponent))), exponent)
