"""Rank-constrained Tucker approximation and the error-sweep experiment.

Three fitting routines produce the same model shape (orthonormal factor per
mode plus a core): plain truncated HOSVD, sequentially truncated HOSVD, and
HOOI (alternating refinement initialized from ST-HOSVD).  The sweep compares
a cubic rank budget (r, ..., r) against configurations that leave the first
mode a larger budget, the regime where the second-largest unfolding rank is
the binding constraint.
"""
from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .generators import planted_tucker
from .linalg import _short_side
from .tensor import DenseTensor, frobenius_norm, mode_product, mode_products, unfold

__all__ = [
    "TuckerModel",
    "hosvd",
    "st_hosvd",
    "hooi",
    "reconstruct",
    "relative_error",
    "save_model",
    "load_model",
    "METHODS",
    "SweepConfig",
    "SweepRow",
    "default_sweep_config",
    "generate_sweep_source",
    "run_sweep",
    "sweep_to_csv",
]

CSV_HEADER = "r,mode1_cap,method,relative_error,elapsed_ms"
FIT_TOL = 1e-8  # HOOI stops once the fit moves less than this in one sweep


@dataclass
class TuckerModel:
    """Core tensor, one orthonormal factor per mode, and fit metadata."""

    core: DenseTensor
    factors: list[np.ndarray]
    method: str
    iterations: int
    relative_error: float
    error_history: list[float] = field(default_factory=list)

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    def orthonormality_defect(self) -> float:
        return max(
            float(np.linalg.norm(f.T @ f - np.eye(f.shape[1]))) for f in self.factors
        )


def _validate_ranks(x: DenseTensor, ranks: Sequence[int]) -> tuple[int, ...]:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != x.order:
        raise ValueError(f"{len(ranks)} ranks for an order-{x.order} tensor")
    for j, (r, n) in enumerate(zip(ranks, x.shape), start=1):
        if not 1 <= r <= n:
            raise ValueError(f"mode {j}: target rank {r} outside 1..{n}")
    return ranks


def _leading_factor(matrix: np.ndarray, r: int) -> np.ndarray:
    u, _, _ = np.linalg.svd(_short_side(matrix), full_matrices=False)
    return u[:, :r]


def _compress(x: DenseTensor, factors: Sequence[np.ndarray], skip: int | None = None) -> DenseTensor:
    """x times every factor's transpose in its mode, except mode ``skip``."""
    return mode_products(x, [f.T for f in factors], skip)


def reconstruct(model: TuckerModel) -> DenseTensor:
    return mode_products(model.core, model.factors)


def relative_error(xhat: DenseTensor, x: DenseTensor) -> float:
    """Frobenius-norm error of xhat against a nonzero reference x."""
    if xhat.shape != x.shape:
        raise ValueError(f"shape mismatch: {xhat.shape} vs {x.shape}")
    denom = frobenius_norm(x)
    if denom == 0.0:
        raise ValueError("relative error undefined for a zero reference tensor")
    return frobenius_norm(xhat - x) / denom


def _finish(x, factors, method, iterations, history) -> TuckerModel:
    core = _compress(x, factors)
    if x.is_zero():
        err = 0.0
    else:
        err = relative_error(mode_products(core, factors), x)
    return TuckerModel(core, list(factors), method, iterations, err, history + [err])


def hosvd(x: DenseTensor, ranks: Sequence[int]) -> TuckerModel:
    """Truncated higher-order SVD: every factor from the original tensor."""
    ranks = _validate_ranks(x, ranks)
    factors = [_leading_factor(unfold(x, j), r) for j, r in enumerate(ranks, start=1)]
    return _finish(x, factors, "hosvd", 0, [])


def st_hosvd(
    x: DenseTensor, ranks: Sequence[int], order: Sequence[int] | None = None
) -> TuckerModel:
    """Sequentially truncated HOSVD: each mode is truncated on the tensor
    already compressed in the previously processed modes."""
    ranks = _validate_ranks(x, ranks)
    if order is None:
        order = range(1, x.order + 1)
    order = tuple(int(j) for j in order)
    if sorted(order) != list(range(1, x.order + 1)):
        raise ValueError(f"{order} is not an ordering of modes 1..{x.order}")
    partial = x
    factors: list[np.ndarray | None] = [None] * x.order
    for j in order:
        f = _leading_factor(unfold(partial, j), ranks[j - 1])
        factors[j - 1] = f
        partial = mode_product(partial, f.T, j)
    return _finish(x, factors, "st_hosvd", 0, [])


def hooi(
    x: DenseTensor,
    ranks: Sequence[int],
    max_iters: int = 100,
) -> TuckerModel:
    """Alternating refinement of the ST-HOSVD initialization.

    Each sweep recomputes every factor from the tensor compressed in all
    other modes, which never decreases the captured core norm, so the error
    history is non-increasing.  Stops when the fit (core norm over tensor
    norm) moves less than ``FIT_TOL``.
    """
    ranks = _validate_ranks(x, ranks)
    init = st_hosvd(x, ranks)
    factors = list(init.factors)
    if x.is_zero() or max_iters == 0:
        return _finish(x, factors, "hooi", 0, [])
    norm_x = frobenius_norm(x)
    history = [init.relative_error]
    fit = frobenius_norm(init.core) / norm_x
    iterations = 0
    for _ in range(max_iters):
        for j in range(1, x.order + 1):
            factors[j - 1] = _leading_factor(unfold(_compress(x, factors, skip=j), j), ranks[j - 1])
        iterations += 1
        new_fit = frobenius_norm(_compress(x, factors)) / norm_x
        history.append(float(np.sqrt(max(0.0, 1.0 - new_fit**2))))
        if abs(new_fit - fit) < FIT_TOL:
            break
        fit = new_fit
    return _finish(x, factors, "hooi", iterations, history[:-1])


def save_model(model: TuckerModel, outdir) -> None:
    """Write core.tns, factor_j.tns per mode, and meta.json into a directory."""
    from .io import write_text

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(model.core, out / "core.tns")
    for j, f in enumerate(model.factors, start=1):
        write_text(DenseTensor(f), out / f"factor_{j}.tns")
    meta = {
        "method": model.method,
        "iterations": model.iterations,
        "relative_error": model.relative_error,
        "ranks": list(model.ranks),
        "shape": [f.shape[0] for f in model.factors],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_model(outdir) -> TuckerModel:
    from .io import read_text

    out = Path(outdir)
    meta = json.loads((out / "meta.json").read_text())
    core = read_text(out / "core.tns")
    factors = [
        read_text(out / f"factor_{j}.tns").data.copy()
        for j in range(1, core.order + 1)
    ]
    return TuckerModel(
        core,
        factors,
        meta["method"],
        int(meta["iterations"]),
        float(meta["relative_error"]),
    )


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _positive_ints(values) -> bool:
    return isinstance(values, (tuple, list)) and all(_is_int(v) and v >= 1 for v in values)


@dataclass(frozen=True)
class SweepConfig:
    """Grid for the error sweep over (r, mode-1 cap) pairs.

    ``mode1_caps`` entries are either the literal string "r" (cubic budget)
    or an integer cap for the first mode.  A numeric cap is never allowed to
    fall below the current r: the effective mode-1 rank is
    ``min(n1, max(cap, r))``, matching the regime where the first mode keeps
    a larger budget than the remaining modes.
    """

    shape: tuple[int, ...] = (100, 11, 11)
    r_values: tuple[int, ...] = tuple(range(1, 12))
    mode1_caps: tuple = ("r", 10, 20, 40)
    method: str = "hosvd"
    seed: int = 7
    snr_db: float = 20.0
    core_shape: tuple[int, ...] = (20, 4, 4)

    def validate(self) -> None:
        if not _positive_ints(self.shape) or len(self.shape) < 2:
            raise ValueError(f"shape {self.shape!r} is not two or more positive integers")
        if not _positive_ints(self.core_shape) or len(self.core_shape) != len(self.shape):
            raise ValueError(
                f"core_shape {self.core_shape!r} is not one positive integer per mode of {self.shape}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed {self.seed!r} is not a nonnegative integer")
        if not _is_real(self.snr_db) or not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db {self.snr_db!r} is not a finite number")
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not all(isinstance(v, (tuple, list)) for v in (self.r_values, self.mode1_caps)):
            raise ValueError("r_values and mode1_caps must be lists")
        tail_min = min(self.shape[1:])
        for r in self.r_values:
            if not _is_int(r):
                raise ValueError(f"r={r!r} is not an integer")
            if not 1 <= r <= tail_min:
                raise ValueError(f"r={r} outside 1..{tail_min}")
        for cap in self.mode1_caps:
            if cap == "r":
                continue
            if not _is_int(cap) or not 1 <= cap <= self.shape[0]:
                raise ValueError(f"mode-1 cap {cap!r} is not an integer in 1..{self.shape[0]}")

    def effective_ranks(self, r: int, cap) -> tuple[int, ...]:
        tail = (r,) * (len(self.shape) - 1)
        if cap == "r":
            return (r,) + tail
        return (min(self.shape[0], max(int(cap), r)),) + tail


@dataclass(frozen=True)
class SweepRow:
    r: int
    mode1_cap: object  # int or "r"
    method: str
    relative_error: float
    elapsed_ms: float


def default_sweep_config() -> SweepConfig:
    return SweepConfig()


def generate_sweep_source(config: SweepConfig) -> DenseTensor:
    """The planted-Tucker source the config describes; its core must fit its shape."""
    if any(c > n for c, n in zip(config.core_shape, config.shape)):
        raise ValueError(f"core_shape {config.core_shape} does not fit in shape {config.shape}")
    return planted_tucker(config.shape, config.core_shape, config.snr_db, config.seed)


METHODS = {"hosvd": hosvd, "st_hosvd": st_hosvd, "hooi": hooi}


def run_sweep(config: SweepConfig, source: DenseTensor) -> list[SweepRow]:
    """One row per (r, cap) pair, ordered by (r, cap) with "r" first."""
    config.validate()
    if source.shape != config.shape:
        raise ValueError(f"source shape {source.shape} != config shape {config.shape}")
    fit = METHODS[config.method]
    rows = []
    for r in config.r_values:
        for cap in config.mode1_caps:
            start = time.perf_counter()
            model = fit(source, config.effective_ranks(r, cap))
            elapsed = (time.perf_counter() - start) * 1000.0
            rows.append(SweepRow(r, cap, config.method, model.relative_error, elapsed))
    rows.sort(key=lambda row: (row.r, 0 if row.mode1_cap == "r" else 1, _cap_key(row.mode1_cap)))
    return rows


def _cap_key(cap) -> int:
    return -1 if cap == "r" else int(cap)


def sweep_to_csv(rows: Sequence[SweepRow], include_timing: bool = True) -> str:
    """CSV text for a sweep; timing can be suppressed (written as 0) to make
    the output bytewise reproducible across runs."""
    lines = [CSV_HEADER]
    for row in rows:
        elapsed = f"{row.elapsed_ms:.3f}" if include_timing else "0"
        lines.append(
            f"{row.r},{row.mode1_cap},{row.method},{row.relative_error!r},{elapsed}"
        )
    return "\n".join(lines) + "\n"
