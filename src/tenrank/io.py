"""Tensor file I/O: the ".tns" text format and its binary variant.

Text format::

    # optional comment lines
    3
    2 3 4
    1.0 0.0 ... (24 values, row-major, last index fastest)

Binary variant: magic ``TNS1``, little-endian u64 order, u64 shape entries,
then float64 values in the same row-major order.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .tensor import DenseTensor

__all__ = ["read_tensor", "write_tensor", "read_text", "write_text", "read_binary", "write_binary"]

MAGIC = b"TNS1"


def write_text(x: DenseTensor, path) -> None:
    lines = [str(x.order), " ".join(str(n) for n in x.shape)]
    # repr() keeps the shortest round-trip decimal form, so files are byte-stable
    values = [repr(float(v)) for v in x.data.reshape(-1)]
    for start in range(0, len(values), 8):
        lines.append(" ".join(values[start : start + 8]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_text(path) -> DenseTensor:
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens:
        raise FormatError(f"{path}: empty tensor file")
    try:
        order = int(tokens[0])
    except ValueError as exc:
        raise FormatError(f"{path}: bad order field {tokens[0]!r}") from exc
    if order < 1:
        raise FormatError(f"{path}: order must be >= 1, got {order}")
    if len(tokens) < 1 + order:
        raise FormatError(f"{path}: truncated shape line")
    try:
        shape = tuple(int(t) for t in tokens[1 : 1 + order])
    except ValueError as exc:
        raise FormatError(f"{path}: bad shape entry") from exc
    return _assemble(path, shape, tokens[1 + order :])


def _assemble(path, shape, value_tokens) -> DenseTensor:
    if any(n < 1 for n in shape):
        raise FormatError(f"{path}: shape entries must be >= 1, got {shape}")
    expected = math.prod(shape)
    if len(value_tokens) != expected:
        raise FormatError(
            f"{path}: expected {expected} values for shape {shape}, found {len(value_tokens)}"
        )
    try:
        values = np.array([float(t) for t in value_tokens])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric value") from exc
    try:
        return DenseTensor(values, shape=shape)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_binary(x: DenseTensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", x.order))
        fh.write(struct.pack(f"<{x.order}Q", *x.shape))
        fh.write(x.data.astype("<f8").tobytes())


def read_binary(path) -> DenseTensor:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: missing TNS1 magic")
    try:
        (order,) = struct.unpack_from("<Q", raw, 4)
        shape = struct.unpack_from(f"<{order}Q", raw, 12)
    except struct.error as exc:
        raise FormatError(f"{path}: truncated binary tensor") from exc
    offset = 12 + 8 * order
    count = math.prod(shape) if order else 0
    if len(raw) != offset + 8 * count:
        raise FormatError(f"{path}: size mismatch for shape {shape}")
    values = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    try:
        return DenseTensor(values.astype(np.float64), shape=shape)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_tensor(x: DenseTensor, path, binary: bool = False) -> None:
    if binary:
        write_binary(x, path)
    else:
        write_text(x, path)


def read_tensor(path) -> DenseTensor:
    """Read either variant, sniffing the binary magic bytes."""
    p = Path(path)
    with open(p, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_binary(p)
    return read_text(p)
