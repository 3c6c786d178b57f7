"""Full-rank subtensors: detection, constructive extraction, and closures.

A tensor is of full rank under a rank function when its rank equals one of
its dimensions (zero tensors count as full rank by convention).  For the
max-Tucker rank a maximum full-rank subtensor can be extracted directly from
a row basis of the dominant unfolding; for arbitrary proper rank functions
the same object is found by a brute-force search over the subtensors in a
fixed order, which also evaluates the closure (the best full-rank subtensor
value).
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NoFullRankError
from .linalg import DEFAULT_TOL, RankTolerance, RowBasis, _reduce, _select_rows, in_row_span, matrix_rank
from .ranks import RankFunction
from .tensor import DenseTensor, IndexSelection, subtensor, unfold

__all__ = [
    "FullRankCertificate",
    "is_full_rank",
    "extract_max_tucker",
    "extract_brute_force",
    "closure_eval",
    "closure_rank_function",
    "verify_span_certificate",
]

DEFAULT_CAP = 4096
MAX_MODE_DIM = 8
# Subtensors one brute-force search may examine, zero ones included.  It
# exceeds the 29,791 selections of a 5x5x5 tensor, so every search of that
# size or smaller ends.  Searches that end through the early stops need far
# fewer: at most 40 per call on the benchmark's oracle batch, and 4,830 for
# max_tucker on the hardest 8x8x8 Tucker-structured tensor tried (core
# (8, 8, 1)).  A cheap rank function spends the whole budget on 8x8x8 in
# about 1.5 s on a 2-core x86-64 VM, max_tucker on 8x8x8x8 in 8-10 s.
SEARCH_BUDGET = 1 << 15


@dataclass(frozen=True)
class FullRankCertificate:
    """Where and why a subtensor is of full rank.

    ``mode`` is the mode p with rank == dimension (None for the zero-tensor
    convention), ``indices`` the kept mode-p indices of the source tensor,
    ``selection`` the complete per-mode selection of the subtensor.
    """

    mode: int | None
    indices: tuple[int, ...]
    rank: int
    selection: IndexSelection

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "indices": list(self.indices),
            "rank": self.rank,
            "selection": [list(m) for m in self.selection.indices],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json())


def is_full_rank(rf: RankFunction, x: DenseTensor) -> tuple[bool, int | None]:
    """Whether rf(x) equals some dimension of x; returns the witness mode.

    Zero tensors are full rank by convention, with no witness mode.
    """
    if x.is_zero():
        return True, None
    r = rf(x)
    for p, n in enumerate(x.shape, start=1):
        if r == n:
            return True, p
    return False, None


def _zero_certificate(x: DenseTensor) -> tuple[DenseTensor, FullRankCertificate]:
    sel = IndexSelection(tuple((1,) for _ in x.shape))
    return subtensor(x, sel), FullRankCertificate(None, (), 0, sel)


def extract_max_tucker(
    x: DenseTensor, tol: RankTolerance = DEFAULT_TOL
) -> tuple[DenseTensor, FullRankCertificate]:
    """Maximum full-rank subtensor under the max-Tucker rank.

    Picks the first mode attaining the largest unfolding rank r, keeps a row
    basis of that unfolding (r mode-p slices) and all other modes in full.
    The result has max-Tucker rank r, equal to that of x.  Each unfolding is
    factored once: the row basis reuses the reduction that gave mode p its
    rank.
    """
    if x.is_zero():
        return _zero_certificate(x)
    r, p, B, exp = -1, 0, None, 0
    for j in range(1, x.order + 1):
        Bj, rj, ej = _reduce(unfold(x, j), tol)
        if rj > r:
            r, p, B, exp = rj, j, Bj, ej
    rows = x.shape[p - 1]
    basis = _select_rows((rows, x.size // rows), B, r, exp, tol)
    sel = IndexSelection(
        tuple(
            basis.indices if l == p else tuple(range(1, n + 1))
            for l, n in enumerate(x.shape, start=1)
        )
    )
    return subtensor(x, sel), FullRankCertificate(p, basis.indices, r, sel)


def verify_span_certificate(
    x: DenseTensor, cert: FullRankCertificate, tol: RankTolerance = DEFAULT_TOL
) -> bool:
    """Check the two row-space claims behind a max-Tucker certificate: the
    kept p-rows are independent and every other p-row lies in their span."""
    if cert.mode is None:
        return x.is_zero()
    M = unfold(x, cert.mode)
    rows = [i - 1 for i in cert.indices]
    if matrix_rank(M[rows], tol) != cert.rank:
        return False
    basis = RowBasis(indices=cert.indices, rank=cert.rank)
    return all(
        in_row_span(M, basis, M[q], tol)
        for q in range(M.shape[0])
        if q + 1 not in cert.indices
    )


@functools.lru_cache(maxsize=64)
def _mode_subsets(n: int, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The nonempty subsets of 1..n with at most d elements, in lexicographic
    order, each paired with its size."""
    subsets = []
    for size in range(1, min(n, d) + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), size))
    subsets.sort()
    return tuple((s, len(s)) for s in subsets)


def _prefixes(shapes) -> set[tuple[int, ...]]:
    """Every leading run of sizes of the given kept shapes, whole shapes included."""
    return {k[:j] for k in shapes for j in range(1, len(k) + 1)}


@functools.lru_cache(maxsize=256)
def _band(shape: tuple[int, ...], d: int):
    """The kept shapes of band d (every k with k_j <= n_j and max(k) == d)
    and the prefixes of them all."""
    shapes = tuple(
        k
        for k in itertools.product(*(range(1, min(n, d) + 1) for n in shape))
        if max(k) == d
    )
    return shapes, frozenset(_prefixes(shapes))


def _walk_band(shape: tuple[int, ...], d: int, live, enter=None):
    """Per-mode index tuples of band d in lexicographic order, restricted to
    kept shapes whose every prefix of sizes is in ``live``.

    ``live`` is read at every step, so the caller may shrink it between
    yields and the rest of the walk honours the smaller set at once.
    ``enter``, if given, is called with the index tuples chosen for the
    first modes before the walk goes on to the next mode, and every
    selection extending them is skipped when it returns False.
    """
    order = len(shape)
    capped = [_mode_subsets(n, d) for n in shape]
    chosen: list[tuple[int, ...]] = [()] * order

    def expand(j, prefix):
        last = j + 1 == order
        for s, k in capped[j]:
            sizes = prefix + (k,)
            if sizes in live:
                chosen[j] = s
                if last:
                    yield tuple(chosen)
                elif enter is None or enter(chosen[: j + 1]):
                    yield from expand(j + 1, sizes)

    return expand(0, ())


def iter_selections(shape):
    """All per-mode nonempty selections, ordered by decreasing largest kept
    dimension and lexicographically within each band (the documented
    deterministic enumeration order)."""
    shape = tuple(shape)
    for d in range(max(shape), 0, -1):
        for combo in _walk_band(shape, d, _band(shape, d)[1]):
            yield IndexSelection(combo)


def _check_capacity(x: DenseTensor, cap: int) -> None:
    if x.size > cap:
        raise CapacityError(
            f"tensor has {x.size} entries, enumeration cap is {cap}; "
            "raise the cap only for small dimensions"
        )
    if max(x.shape) > MAX_MODE_DIM:
        raise CapacityError(
            f"mode dimension {max(x.shape)} exceeds enumeration limit {MAX_MODE_DIM} "
            f"(subsets per mode grow as 2^n)"
        )


def _survivors(shapes, bound, floor: int, bounds: dict):
    """The shapes whose bound exceeds ``floor``; each bound is computed once."""
    for k in shapes:
        b = bounds.get(k)
        if b is None:
            b = bounds[k] = bound(k)
        if b > floor:
            yield k


def extract_brute_force(
    rf: RankFunction, x: DenseTensor, cap: int = DEFAULT_CAP
) -> tuple[DenseTensor, FullRankCertificate]:
    """Maximum full-rank subtensor under an arbitrary proper rank function,
    found by searching the subtensors in the deterministic order of
    :func:`iter_selections`.

    The search walks kept shapes (k_1, ..., k_N), not selections.  Shapes
    come in bands of decreasing largest dimension d; within a band the
    selections are expanded mode by mode in lexicographic subset order, and
    a subset is entered only if its prefix of sizes still leads to a shape
    that can beat the best value found so far.  A shape can beat it only if
    its ``shape_bound`` exceeds it and d exceeds it, so the surviving shapes
    are recomputed whenever the best improves, and once the best reaches d
    (the band stop) or rf(x) (no subtensor exceeds rf(x), by axiom P6) the
    search returns.  Every selection left out is one that a plain walk of
    :func:`iter_selections` with the same two tests would skip, and the
    order is unchanged with ties never reordered, so the certificate is the
    first selection in the documented order that attains the best value.

    Once a best value exists, a selection whose first modes pick out an
    all-zero slab of x is not entered: every subtensor under it is zero, and
    rank 0 never beats the best.

    Each call examines at most ``SEARCH_BUDGET`` subtensors; past that it
    raises :class:`CapacityError`, on top of the entry and dimension caps.
    A rank function that leaves some nonzero tensor with no full-rank
    subtensor is not proper and raises :class:`NoFullRankError`.
    """
    _check_capacity(x, cap)
    if x.is_zero():
        return _zero_certificate(x)
    ceiling = rf(x)
    bound = rf.shape_bound
    bounds: dict[tuple[int, ...], int] = {}
    best: FullRankCertificate | None = None
    best_tensor: DenseTensor | None = None
    examined = 0

    def nonzero_slab(prefix) -> bool:
        grid = np.ix_(*[np.asarray(s, dtype=np.intp) - 1 for s in prefix])
        return best is None or bool(x.data[grid].any())

    enter = None if x.data.all() else nonzero_slab  # no zero entry, no zero slab
    for d in range(max(x.shape), 0, -1):
        if best is not None and best.rank >= d:
            break  # band stop: no shape left has a dimension above the best
        shapes, prefixes = _band(x.shape, d)
        if bound is None or best is None:
            live = set(prefixes)
        else:
            live = _prefixes(_survivors(shapes, bound, best.rank, bounds))
        for combo in _walk_band(x.shape, d, live, enter):
            examined += 1
            if examined > SEARCH_BUDGET:
                raise CapacityError(
                    f"{rf.name}: search budget of {SEARCH_BUDGET} subtensors spent on a "
                    f"tensor of shape {x.shape} before the maximum was settled"
                )
            sel = IndexSelection(combo)
            y = subtensor(x, sel)
            full, mode = is_full_rank(rf, y)
            if not full:
                continue
            r = y.shape[mode - 1] if mode is not None else 0
            if best is None or r > best.rank:
                indices = sel.indices[mode - 1] if mode is not None else ()
                best = FullRankCertificate(mode, indices, r, sel)
                best_tensor = y
                if r == ceiling or r >= d:
                    return best_tensor, best
                if bound is not None:
                    live.clear()
                    live.update(_prefixes(_survivors(shapes, bound, r, bounds)))
    if best is None:
        raise NoFullRankError(
            f"{rf.name} leaves no subtensor of a tensor of shape {x.shape} of full "
            "rank, so it is not a proper rank function"
        )
    return best_tensor, best


def closure_eval(rf: RankFunction, x: DenseTensor, cap: int = DEFAULT_CAP) -> int:
    """The closure value: max of rf over all full-rank subtensors of x."""
    _, cert = extract_brute_force(rf, x, cap)
    return cert.rank


def closure_rank_function(rf: RankFunction, cap: int = DEFAULT_CAP) -> RankFunction:
    """Wrap the closure of rf as a rank function (domain capped by size).

    The closure of a proper rank function is proper, never exceeds rf, and
    taking it twice changes nothing.
    """
    declared = {"proper"} | (rf.declared_properties & {"strongly_proper"})
    return RankFunction(
        f"closure({rf.name})",
        lambda x: closure_eval(rf, x, cap),
        declared_properties=declared,
        shape_bound=rf.shape_bound,
    )
