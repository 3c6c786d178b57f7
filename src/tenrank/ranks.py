"""Scalar tensor rank functions derived from mode-unfolding ranks.

The unfolding-rank vector (one matrix rank per mode) yields two scalar rank
functions: its maximum and its second-largest entry counted with
multiplicity.  Both are evaluated at a fixed :class:`RankTolerance`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .linalg import DEFAULT_TOL, RankTolerance, _reduce, _shape_rank
from .tensor import DenseTensor, unfold

__all__ = [
    "NRank",
    "RankFunction",
    "n_rank",
    "max_tucker_rank",
    "submax_tucker_rank",
    "max_tucker",
    "submax_tucker",
    "min_rank",
]


def _submax(values: Iterable[int]) -> int:
    """Second-largest with multiplicity; a single value is its own submax
    (vectors are treated as having an implicit trailing singleton mode)."""
    ordered = sorted(values, reverse=True)
    return ordered[1] if len(ordered) > 1 else ordered[0]


@dataclass(frozen=True)
class NRank:
    """The per-mode unfolding ranks together with the tolerance that produced them."""

    ranks: tuple[int, ...]
    tol: RankTolerance

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    @property
    def submax_rank(self) -> int:
        return _submax(self.ranks)


def n_rank(x: DenseTensor, tol: RankTolerance = DEFAULT_TOL) -> NRank:
    """Matrix rank of every mode-j unfolding.

    Two cases need no factorization and give the ranks an SVD would: every
    unfolding of a zero tensor has rank 0, and the unfoldings of a nonzero
    tensor are nonzero, so one whose shape fixes its rank (one row or one
    column, see :func:`linalg._shape_rank`) is not even built.  The other
    unfoldings go straight to the factorization, without the checks
    :func:`matrix_rank` makes on matrices from outside.
    """
    if x.is_zero():
        return NRank(ranks=(0,) * x.order, tol=tol)
    ranks = []
    for j, n in enumerate(x.shape, start=1):
        r = _shape_rank((n, x.size // n), tol)
        ranks.append(_reduce(unfold(x, j), tol)[1] if r is None else r)
    return NRank(ranks=tuple(ranks), tol=tol)


def max_tucker_rank(x: DenseTensor, tol: RankTolerance = DEFAULT_TOL) -> int:
    return n_rank(x, tol).max_rank


def submax_tucker_rank(x: DenseTensor, tol: RankTolerance = DEFAULT_TOL) -> int:
    return n_rank(x, tol).submax_rank


class RankFunction:
    """A named integer rank evaluator over dense tensors.

    ``declared_properties`` lists the extra properties (beyond the six
    axioms) that the axiom battery is expected to confirm for this function.
    ``shape_bound`` is an optional optimistic upper bound on the value for a
    given shape, used to prune brute-force subtensor enumeration.

    Evaluators must be pure; results are memoised per instance.  The memo
    keeps the evaluated tensors alive, so it is emptied whenever they would
    take more than ``_CACHE_BYTES``: 8 MiB, counted as each tensor's entries
    plus ``_ENTRY_BYTES`` for the objects around them, room for about 25,000
    tensors of one entry and for fewer of the larger tensors that a subtensor
    search builds.
    """

    _CACHE_BYTES = 1 << 23
    # the DenseTensor, ndarray header, cached hash and dict slot of one memo
    # entry: about 300 B of resident memory per one-entry tensor, measured
    _ENTRY_BYTES = 320
    # (rule, tol) when the value is rule(n_rank(x, tol)); see min_rank
    _nrank_rule: tuple[Callable[[NRank], int], RankTolerance] | None = None

    def __init__(
        self,
        name: str,
        evaluator: Callable[[DenseTensor], int],
        declared_properties: Iterable[str] = (),
        shape_bound: Callable[[tuple[int, ...]], int] | None = None,
    ):
        self.name = name
        self.evaluator = evaluator
        self.declared_properties = frozenset(declared_properties)
        self.shape_bound = shape_bound
        self._cache: dict[DenseTensor, int] = {}
        self._cache_bytes = 0

    def __call__(self, x: DenseTensor) -> int:
        hit = self._cache.get(x)
        if hit is not None:
            return hit
        value = int(self.evaluator(x))
        cost = x.data.nbytes + self._ENTRY_BYTES
        self._cache_bytes += cost
        if self._cache_bytes > self._CACHE_BYTES:
            self._cache.clear()
            self._cache_bytes = cost
        self._cache[x] = value
        return value

    def __repr__(self) -> str:
        return f"RankFunction({self.name!r})"


def _unfolding_bounds(shape: tuple[int, ...]) -> list[int]:
    total = math.prod(shape)
    return [min(n, total // n) for n in shape]


def _from_n_rank(
    name: str,
    rule: Callable[[NRank], int],
    tol: RankTolerance,
    declared_properties: Iterable[str],
    shape_bound: Callable[[tuple[int, ...]], int] | None,
) -> RankFunction:
    """The rank function x -> rule(n_rank(x, tol)), with its rule and tol kept."""
    rf = RankFunction(name, lambda x: rule(n_rank(x, tol)), declared_properties, shape_bound)
    rf._nrank_rule = (rule, tol)
    return rf


def max_tucker(tol: RankTolerance = DEFAULT_TOL) -> RankFunction:
    """Max-Tucker rank: the largest unfolding rank.  Proper and subadditive."""
    return _from_n_rank(
        "max_tucker",
        lambda nr: nr.max_rank,
        tol,
        ("proper", "subadditive"),
        lambda shape: max(_unfolding_bounds(shape)),
    )


def submax_tucker(tol: RankTolerance = DEFAULT_TOL) -> RankFunction:
    """Submax-Tucker rank: the second-largest unfolding rank.  Strongly proper."""
    return _from_n_rank(
        "submax_tucker",
        lambda nr: nr.submax_rank,
        tol,
        ("proper", "strongly_proper"),
        lambda shape: _submax(_unfolding_bounds(shape)),
    )


def min_rank(r1: RankFunction, r2: RankFunction) -> RankFunction:
    """Pointwise minimum of two rank functions.

    The minimum keeps proper/strongly-proper declarations (it is dominated by
    both arguments) but never a subadditive one: the minimum of two
    subadditive rank functions need not be subadditive.

    When both arguments are rules on the n-rank at one tolerance (max_tucker,
    submax_tucker, or minima of them), the minimum is that rule on one
    n-rank: each argument's value is a function of the same n_rank(x, tol),
    so computing it once gives both values exactly.  Any other pair
    evaluates both arguments.
    """
    declared = (r1.declared_properties | r2.declared_properties) & {"proper", "strongly_proper"}
    if r1.shape_bound and r2.shape_bound:
        bound = lambda shape: min(r1.shape_bound(shape), r2.shape_bound(shape))
    else:
        bound = r1.shape_bound or r2.shape_bound
    name = f"min({r1.name},{r2.name})"
    if r1._nrank_rule and r2._nrank_rule and r1._nrank_rule[1] == r2._nrank_rule[1]:
        (rule1, tol), (rule2, _) = r1._nrank_rule, r2._nrank_rule
        return _from_n_rank(name, lambda nr: min(rule1(nr), rule2(nr)), tol, declared, bound)
    return RankFunction(name, lambda x: min(r1(x), r2(x)), declared, bound)
