"""Seeded tensor generators: reference counterexamples and synthetic data.

The two parameter-free tensors here pin down the places where the max- and
submax-Tucker ranks genuinely differ:

* ``counterexample_2x3x4``: four unit entries giving unfolding ranks
  (2, 3, 4), so the max rank is 4 while the submax rank is 3.
* ``counterexample_3x2x2``: mode-1 unfolding [I3 | ones], so the max rank is
  3, strictly above the second-largest dimension 2.

``block_pair`` builds two disjointly supported block tensors whose submax
ranks add up to less than the submax rank of their sum, the standard
subadditivity counterexample recipe.
"""
from __future__ import annotations

import math

import numpy as np

from .ranks import n_rank
from .tensor import DenseTensor, fold, mode_products, outer_product

__all__ = [
    "zero_tensor",
    "random_tensor",
    "random_rank_one",
    "counterexample_2x3x4",
    "counterexample_3x2x2",
    "block_pair",
    "planted_tucker",
    "tucker_structured",
]


def zero_tensor(shape) -> DenseTensor:
    return DenseTensor(np.zeros(tuple(int(n) for n in shape)))


def random_tensor(shape, seed: int = 0, integer: bool = False) -> DenseTensor:
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in shape)
    if integer:
        return DenseTensor(rng.integers(-3, 4, size=shape).astype(np.float64))
    return DenseTensor(rng.standard_normal(shape))


def random_rank_one(shape, seed: int = 0, integer: bool = False) -> DenseTensor:
    """Outer product of random nonzero vectors."""
    if any(int(n) < 1 for n in shape):  # no nonzero vector has length 0
        raise ValueError(f"shape entries must be >= 1, got {tuple(shape)}")
    rng = np.random.default_rng(seed)
    vectors = []
    for n in shape:
        while True:
            v = (
                rng.integers(-3, 4, size=int(n)).astype(np.float64)
                if integer
                else rng.standard_normal(int(n))
            )
            if v.any():
                break
        vectors.append(v)
    return outer_product(vectors)


def counterexample_2x3x4() -> DenseTensor:
    """2x3x4 tensor with unit entries at (1,1,1), (1,2,2), (1,3,3), (2,1,4)."""
    a = np.zeros((2, 3, 4))
    a[0, 0, 0] = 1.0
    a[0, 1, 1] = 1.0
    a[0, 2, 2] = 1.0
    a[1, 0, 3] = 1.0
    return DenseTensor(a)


def counterexample_3x2x2() -> DenseTensor:
    """3x2x2 tensor whose mode-1 unfolding is [I3 | ones column]."""
    M = np.hstack([np.eye(3), np.ones((3, 1))])
    return fold(M, 1, (3, 2, 2))


def tucker_structured(shape, core_shape, seed: int = 0) -> DenseTensor:
    """Random core multiplied by random orthonormal factors in every mode."""
    rng = np.random.default_rng(seed)
    core = DenseTensor(rng.standard_normal(tuple(int(r) for r in core_shape)))
    factors = [np.linalg.qr(rng.standard_normal((int(n), int(r))))[0] for n, r in zip(shape, core_shape)]
    return mode_products(core, factors)


def _block_with_ranks(dims, target_ranks, rng) -> DenseTensor:
    """Integer-valued tensor with the exact unfolding-rank profile asked for."""
    for _ in range(64):
        core = DenseTensor(rng.integers(-2, 3, size=tuple(target_ranks)).astype(np.float64))
        factors = [
            rng.integers(-2, 3, size=(int(n), int(r))).astype(np.float64)
            for n, r in zip(dims, target_ranks)
        ]
        x = mode_products(core, factors)
        if n_rank(x) == tuple(target_ranks):
            return x
    raise RuntimeError(f"could not realize unfolding ranks {target_ranks} in dims {dims}")


def block_pair(seed: int = 0) -> tuple[DenseTensor, DenseTensor]:
    """Pair (y, z) in 8x8x8 violating submax-rank subadditivity.

    y carries a 4x4x4 block of unfolding ranks (4, 3, 2) in the low corner,
    z the same-size block of ranks (3, 4, 2) in the high corner.  Disjoint
    supports make the unfolding ranks of y + z add exactly, so
    submax(y + z) = 7 > 3 + 3 = submax(y) + submax(z).
    """
    rng = np.random.default_rng(seed)
    inner = (4, 4, 4)
    y_block = _block_with_ranks(inner, (4, 3, 2), rng)
    z_block = _block_with_ranks(inner, (3, 4, 2), rng)
    y = np.zeros((8, 8, 8))
    z = np.zeros((8, 8, 8))
    y[:4, :4, :4] = y_block.data
    z[4:, 4:, 4:] = z_block.data
    return DenseTensor(y), DenseTensor(z)


def planted_tucker(
    shape=(100, 11, 11),
    core_shape=(20, 4, 4),
    snr_db: float = 20.0,
    seed: int = 7,
) -> DenseTensor:
    """Synthetic traffic-like tensor: planted Tucker structure plus noise.

    The signal is a random nonnegative-core Tucker tensor; iid Gaussian noise
    is scaled to the requested SNR and the sum is clamped at zero so entries
    look like traffic volumes.  Fully determined by the seed.  An SNR whose
    noise underflows gives the noiseless signal; a NaN SNR, or one so low
    that the noise overflows float64, raises ``ValueError``.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in shape)
    core_shape = tuple(int(r) for r in core_shape)
    if len(core_shape) != len(shape):
        raise ValueError(f"core_shape {core_shape} has {len(core_shape)} sizes, shape {shape} has {len(shape)}")
    if any(c > n for c, n in zip(core_shape, shape)):
        raise ValueError(f"core_shape {core_shape} does not fit in shape {shape}")
    if math.isnan(snr_db):
        raise ValueError("snr_db is NaN")
    core = DenseTensor(np.abs(rng.standard_normal(core_shape)))
    factors = [np.abs(np.linalg.qr(rng.standard_normal((n, r)))[0]) for n, r in zip(shape, core_shape)]
    signal = mode_products(core, factors)
    too_low = f"snr_db {snr_db} is so low that the noise overflows float64"
    power = float(np.mean(signal.data**2))
    try:
        noise_sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
    except OverflowError:  # the noise underflows, as at snr_db=inf
        noise_sigma = 0.0
    except ZeroDivisionError:
        raise ValueError(too_low) from None
    with np.errstate(over="ignore"):
        clamped = np.maximum(signal.data + noise_sigma * rng.standard_normal(shape), 0.0)
    if not np.isfinite(clamped).all():
        raise ValueError(too_low)
    return DenseTensor(clamped)


def matrix_embedded(matrix, trailing_ones: int = 0) -> DenseTensor:
    """An n1 x n2 matrix viewed as a tensor with trailing singleton modes."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    return DenseTensor(a.reshape(a.shape + (1,) * trailing_ones))
