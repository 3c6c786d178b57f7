"""Full-rank subtensors: detection, constructive extraction, and closures.

A tensor is of full rank under a rank function when its rank equals one of
its dimensions (zero tensors count as full rank by convention).  For any
rank function that picks one of the unfolding ranks (max-Tucker,
submax-Tucker and their minimum) a maximum full-rank subtensor is extracted
directly from a row basis of one unfolding attaining the value; the proof,
in :func:`extract_nrank`, stands on its own, since the paper's abstract names
only the max-Tucker case.  For arbitrary proper rank functions the same
value is found by a brute-force search over the subtensors in a fixed order,
which also evaluates the closure (the best full-rank subtensor value).
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, NoFullRankError, NumericError, SelectionError
from .linalg import DEFAULT_TOL, RankTolerance, _reduce, _select_rows, matrix_rank
from .ranks import RankFunction, max_tucker, n_rank
from .tensor import DenseTensor, IndexSelection, subtensor, unfold

__all__ = [
    "FullRankCertificate",
    "is_full_rank",
    "extract_nrank",
    "extract_max_tucker",
    "extract_brute_force",
    "closure_eval",
    "closure_rank_function",
    "verify_span_certificate",
]

# Tensors one brute-force search accepts.  The entry limit bounds _reach's
# set-up, which keeps at most one shape per entry in a band; the dimension
# limit bounds the 2^n subsets per mode.
MAX_ENTRIES = 4096
MAX_MODE_DIM = 8
# Subtensors one brute-force search may examine, zero ones included.  It
# exceeds the 29,791 selections of a 5x5x5 tensor, so every search of that
# size or smaller ends.  Searches that end through the early stops need far
# fewer: at most 37 per call on the benchmark's oracle batch, and 4,720 for
# max_tucker on the hardest 8x8x8 Tucker-structured tensor tried (core
# (8, 8, 1)).  A cheap rank function spends the whole budget on 8x8x8 in
# about 1.5 s on a 2-core x86-64 VM, max_tucker on 8x8x8x8 in 8-10 s.
SEARCH_BUDGET = 1 << 15


@dataclass(frozen=True)
class FullRankCertificate:
    """Where and why a subtensor is of full rank.

    ``mode`` is the mode p with rank == dimension (None for a zero subtensor
    of value 0), ``indices`` the kept mode-p indices of the source tensor,
    ``selection`` the complete per-mode selection of the subtensor.

    :func:`extract_nrank` gives span certificates: its selection keeps every
    mode but p whole, and :func:`verify_span_certificate` checks them.
    :func:`extract_brute_force`'s certificates name the first mode of the
    selected subtensor whose dimension is the value, inside a selection that
    may drop indices of other modes too, so that check refuses them.
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


def is_full_rank(rf: Callable[[DenseTensor], int], x: DenseTensor) -> tuple[bool, int | None]:
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


def _zero_certificate(x: DenseTensor, entry) -> tuple[DenseTensor, FullRankCertificate]:
    """The 1 x ... x 1 subtensor at a zero entry (0-based indices) of x."""
    sel = IndexSelection(tuple((int(i) + 1,) for i in entry))
    return subtensor(x, sel), FullRankCertificate(None, (), 0, sel)


def _not_proper(rf: RankFunction, x: DenseTensor) -> NoFullRankError:
    return NoFullRankError(
        f"{rf.name} leaves no subtensor of a tensor of shape {x.shape} of full "
        "rank, so it is not a proper rank function"
    )


def _at_value_zero(rf: RankFunction, x: DenseTensor) -> tuple[DenseTensor, FullRankCertificate]:
    """The first zero entry of x, the answer when rf(x) = 0 on a nonzero x.
    With none, NoFullRankError names the tolerance when rf is a rule on the
    n-rank, as that is what zeroed every unfolding rank; any other rank
    function that is 0 on a nonzero tensor is not proper."""
    zeros = np.argwhere(x.data == 0)
    if len(zeros):
        return _zero_certificate(x, zeros[0])
    if rf.nrank_rule is None:
        raise _not_proper(rf, x)
    raise NoFullRankError(
        f"{rf.name} is 0 under tolerance {rf.nrank_rule[1].describe()} on a tensor of "
        f"shape {x.shape} with no zero entry, so no subtensor is of full rank"
    )


def extract_nrank(rf: RankFunction, x: DenseTensor) -> tuple[DenseTensor, FullRankCertificate]:
    """Maximum full-rank subtensor under a rank function whose value is one of
    the unfolding ranks: max_tucker, submax_tucker, or a min_rank of them.

    It keeps a row basis of the first mode-q unfolding whose rank is
    r = rf(x), and every other mode in full.  The proof needs nothing from the
    paper: every mode-q slice of x combines the kept ones, so x = y x_q A for
    the subtensor y, with A (n_q x r) holding the identity at the basis rows
    and so of full column rank.  The mode-q unfolding of x is A times y's,
    and every other one is y's times the transpose of a Kronecker product of
    A with identities; neither factor lowers a rank, so y has x's n-rank,
    rf(y) = r is y's mode-q dimension, and by axiom P6 no subtensor of x
    does better.  When r = 0, as under a tolerance at or above every
    unfolding's largest singular value, every subtensor has value 0 by P6,
    so only zero ones are of full rank: the first zero entry of x is returned
    (mode None, rank 0), and with none :class:`NoFullRankError`, naming the
    tolerance, is raised, as :func:`extract_brute_force` does.

    Each unfolding is factored once, mode q's reduction giving the basis, and
    rf is never called.  The claim is checked once, and only when rows are
    dropped, on one n_rank of y: its mode-q rank must be r, as the kept rows
    are that unfolding (else "row selection lost rank"), and the rule must
    give r (else "changed the value"); either failure, a tolerance effect,
    raises :class:`NumericError`.  A rank function with no rule on the
    n-rank raises ValueError: use :func:`extract_brute_force`.
    """
    if rf.nrank_rule is None:
        raise ValueError(f"{rf.name} is not a rule on the n-rank; use extract_brute_force")
    rule, tol = rf.nrank_rule
    if x.is_zero():
        return _zero_certificate(x, (0,) * x.order)
    reduced = [_reduce(unfold(x, j), tol) for j in range(1, x.order + 1)]
    ranks = tuple(rank for _, rank in reduced)
    r = rule(ranks)
    if r == 0:
        return _at_value_zero(rf, x)
    q = ranks.index(r) + 1
    kept = _select_rows(reduced[q - 1][0], r)
    sel = IndexSelection.p_rows(x.shape, q, kept)
    y = subtensor(x, sel)
    rows = x.shape[q - 1]
    if r < rows:
        y_ranks = n_rank(y, tol)
        if y_ranks[q - 1] != r:
            raise NumericError(
                f"row selection lost rank on {rows}x{x.size // rows} matrix (target {r})"
            )
        if rule(y_ranks) != r:
            raise NumericError(f"{rf.name}: the mode-{q} row basis of rank {r} changed the value")
    return y, FullRankCertificate(q, kept, r, sel)


def extract_max_tucker(
    x: DenseTensor, tol: RankTolerance = DEFAULT_TOL
) -> tuple[DenseTensor, FullRankCertificate]:
    """Maximum full-rank subtensor under the max-Tucker rank (see :func:`extract_nrank`)."""
    return extract_nrank(max_tucker(tol), x)


def verify_span_certificate(
    x: DenseTensor, cert: FullRankCertificate, tol: RankTolerance = DEFAULT_TOL
) -> bool:
    """Check the row-space claim behind a certificate of :func:`extract_nrank`,
    under any rule on the n-rank: the ``cert.rank`` kept p-rows are
    independent and span every other p-row.  For the mode-p unfolding M that
    is rank(M[kept]) = r = rank(M), as in exact arithmetic r independent rows
    span every row exactly when M has rank r; M itself is factored only when
    rows were dropped.  A certificate that names no mode of x, has a mode and
    rank 0 (value 0 has no mode, so a mode claims its dimension, at least 1),
    whose kept indices are not ``cert.rank`` strictly increasing p-rows of
    x, or whose selection is not those p-rows with every other mode whole,
    is refused.  One with no mode, as the extractors give at value 0,
    holds when its rank is 0, it keeps no index, its selection picks out a
    zero subtensor of x, and some unfolding of x has rank 0 under ``tol``, as
    a rule on the n-rank is 0 only then."""
    if cert.mode is None:
        try:
            if cert.rank or cert.indices or not subtensor(x, cert.selection).is_zero():
                return False
        except SelectionError:
            return False
        return 0 in n_rank(x, tol)
    if not 1 <= cert.mode <= x.order or cert.rank == 0:
        return False
    bounds = (0, *cert.indices, x.shape[cert.mode - 1] + 1)  # 0 < i_1 < ... < n + 1
    if len(cert.indices) != cert.rank or any(a >= b for a, b in zip(bounds, bounds[1:])):
        return False
    if cert.selection != IndexSelection.p_rows(x.shape, cert.mode, cert.indices):
        return False
    M = unfold(x, cert.mode)
    if matrix_rank(M[[i - 1 for i in cert.indices]], tol) != cert.rank:
        return False
    return cert.rank == M.shape[0] or matrix_rank(M, tol) == cert.rank


@functools.lru_cache(maxsize=64)
def _mode_subsets(n: int, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The nonempty subsets of 1..n with at most d elements, in lexicographic
    order, each paired with its size."""
    subsets = []
    for size in range(1, min(n, d) + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), size))
    subsets.sort()
    return tuple((s, len(s)) for s in subsets)


@functools.lru_cache(maxsize=256)
def _band(shape: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """The kept shapes of band d: every k with k_j <= n_j and max(k) == d."""
    return tuple(
        k
        for k in itertools.product(*(range(1, min(n, d) + 1) for n in shape))
        if max(k) == d
    )


def _largest_at_most(k: tuple[int, ...], m: int) -> int:
    """The largest entry of k that is at most m, or 0 if none is."""
    return m if m in k else max((n for n in k if n < m), default=0)


def _reach(
    shape: tuple[int, ...], d: int, bound, ceiling: int, floor: int
) -> dict[tuple[int, ...], int]:
    """Every leading run of sizes of a band-d shape that can still beat
    ``floor``, whole shapes included, mapped to the largest value a full-rank
    subtensor of the shapes it leads to can reach: for a shape k, the largest
    k_j <= min(bound(k), ceiling) (see :func:`extract_brute_force`).

    The cap by ceiling comes first, so ``bound`` is asked only of shapes that
    could beat the floor without it.  Shapes that cannot beat it are left
    out, and as the floor only rises, they never can.
    """
    reach: dict[tuple[int, ...], int] = {}
    for k in _band(shape, d):
        cap = d if d <= ceiling else _largest_at_most(k, ceiling)  # d is the largest k_j
        if cap > floor and bound is not None:
            b = bound(k)
            if b < cap:
                cap = _largest_at_most(k, b)
        if cap <= floor:
            continue
        for j in range(1, len(k) + 1):
            if reach.get(k[:j], 0) < cap:
                reach[k[:j]] = cap
    return reach


def _walk_band(shape: tuple[int, ...], d: int, enter):
    """Per-mode index tuples of band d in lexicographic order, restricted by
    the entry test ``enter(sizes, chosen)``.

    Each step that can still lead to a band-d shape asks the test with the
    sizes chosen so far and a list whose first ``len(sizes)`` items are the
    chosen subsets; on False, every selection extending them is skipped.  A
    caller may tighten the test between yields; the walk honours it at once.
    """
    order = len(shape)
    capped = [_mode_subsets(n, d) for n in shape]
    room = [any(n >= d for n in shape[j + 1 :]) for j in range(order)]  # a later mode can keep d
    chosen: list[tuple[int, ...]] = [()] * order

    def expand(j, prefix, has_d):
        for s, k in capped[j]:
            if not (has_d or k == d or room[j]):
                continue
            sizes = prefix + (k,)
            chosen[j] = s
            if enter(sizes, chosen):
                if j + 1 == order:
                    yield tuple(chosen)
                else:
                    yield from expand(j + 1, sizes, has_d or k == d)

    return expand(0, (), False)


def _check_capacity(x: DenseTensor) -> None:
    if x.size > MAX_ENTRIES:
        raise CapacityError(f"tensor has {x.size} entries, enumeration limit is {MAX_ENTRIES}")
    if max(x.shape) > MAX_MODE_DIM:
        raise CapacityError(
            f"mode dimension {max(x.shape)} exceeds enumeration limit {MAX_MODE_DIM} "
            f"(subsets per mode grow as 2^n)"
        )


def extract_brute_force(rf: RankFunction, x: DenseTensor) -> tuple[DenseTensor, FullRankCertificate]:
    """Maximum full-rank subtensor under an arbitrary proper rank function,
    found by searching the subtensors in one deterministic order: by
    decreasing largest kept dimension, then lexicographically within a band.

    Shapes come in bands of decreasing largest kept dimension d; within a
    band the selections are expanded mode by mode in lexicographic subset
    order, and each step asks one entry test.  Before a best value exists it
    enters everything; after, a subset is entered only if the ``reach`` of
    its leading run of sizes exceeds the best: the largest value a full-rank
    subtensor of the band's shapes the run leads to can reach.  For a shape
    k that is its largest kept dimension k_j with k_j <= min(bound(k), rf(x)),
    or 0 if none, where bound is ``shape_bound`` (d if the rank function has
    none).  Both caps are safe.  A full-rank subtensor y has rf(y) = k_j for
    some j (that is what full rank means) and rf(y) <= bound(k), so a k_j
    above the bound is never its value.  No subtensor exceeds rf(x) by axiom
    P6, which the ceiling stop already assumes: the second cap newly refuses
    only a subtensor whose value would exceed rf(x) and let a closure
    exceed rf.
    A subset of a non-final mode is also refused when, with the subsets
    before it, it picks out an all-zero slab of x: every subtensor under it
    is zero, and rank 0 never beats the best.  The search returns once the
    best reaches d (the band stop) or rf(x) (the ceiling stop).  Every
    selection left out cannot beat the best, and the order is unchanged with
    ties never reordered, so the certificate is the first selection in the
    documented order that attains the best value.  The full selection, x
    itself, is given the value rf(x) already taken for the ceiling rather
    than a second call, as evaluators are pure.

    When rf(x) = 0 on a nonzero x, as under a tolerance at or above every
    unfolding's largest singular value, every subtensor has value 0 by P6:
    the search returns the first zero entry of x at once, as
    :func:`extract_nrank` does, and with none raises
    :class:`NoFullRankError` naming the tolerance.

    Each call examines at most ``SEARCH_BUDGET`` subtensors; past that it
    raises :class:`CapacityError`, as it does for a tensor of more than
    ``MAX_ENTRIES`` entries or a mode dimension above ``MAX_MODE_DIM``.
    A rank function that leaves some nonzero tensor with no full-rank
    subtensor is not proper and raises :class:`NoFullRankError`.
    """
    _check_capacity(x)
    if x.is_zero():
        return _zero_certificate(x, (0,) * x.order)
    ceiling = rf(x)
    if ceiling == 0:
        return _at_value_zero(rf, x)
    found: tuple[DenseTensor, FullRankCertificate] | None = None  # the best so far
    floor = -1  # its value, -1 before the first
    has_zero = not x.data.all()  # no zero entry, no zero slab
    examined = 0
    value = lambda y: ceiling if y.shape == x.shape else rf(y)

    def enter(sizes, chosen) -> bool:
        if floor < 0:
            return True  # any subtensor beats none
        if reach.get(sizes, 0) <= floor:
            return False
        j = len(sizes)
        if not has_zero or j == x.order:
            return True
        grid = np.ix_(*[np.asarray(s, dtype=np.intp) - 1 for s in chosen[:j]])
        return bool(x.data[grid].any())

    for d in range(max(x.shape), 0, -1):
        if floor >= d:
            break  # band stop: no shape left has a dimension above the best
        # built once a best exists
        reach = _reach(x.shape, d, rf.shape_bound, ceiling, floor) if found else None
        for combo in _walk_band(x.shape, d, enter):
            examined += 1
            if examined > SEARCH_BUDGET:
                raise CapacityError(
                    f"{rf.name}: search budget of {SEARCH_BUDGET} subtensors spent on a "
                    f"tensor of shape {x.shape} before the maximum was settled"
                )
            sel = IndexSelection(combo)
            y = subtensor(x, sel)
            full, mode = is_full_rank(value, y)
            if not full:
                continue
            r = y.shape[mode - 1] if mode is not None else 0
            if r > floor:
                indices = sel.indices[mode - 1] if mode is not None else ()
                found, floor = (y, FullRankCertificate(mode, indices, r, sel)), r
                if r == ceiling or r >= d:
                    return found
                if reach is None:
                    reach = _reach(x.shape, d, rf.shape_bound, ceiling, floor)
    if found is None:
        raise _not_proper(rf, x)
    return found


def closure_eval(rf: RankFunction, x: DenseTensor) -> int:
    """The closure value: max of rf over all full-rank subtensors of x."""
    _, cert = extract_brute_force(rf, x)
    return cert.rank


def closure_rank_function(rf: RankFunction) -> RankFunction:
    """Wrap the closure of rf as a rank function (domain limited by size).

    The closure of a proper rank function is proper, never exceeds rf, and
    taking it twice changes nothing.
    """
    declared = {"proper"} | (rf.declared_properties & {"strongly_proper"})
    return RankFunction(
        f"closure({rf.name})",
        lambda x: closure_eval(rf, x),
        declared_properties=declared,
        shape_bound=rf.shape_bound,
    )
