"""Scalar tensor rank functions derived from mode-unfolding ranks.

The unfolding-rank vector (one matrix rank per mode) yields two scalar rank
functions: its maximum and its second-largest entry counted with
multiplicity.  Both are evaluated at a fixed :class:`RankTolerance`.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .linalg import DEFAULT_TOL, RankTolerance, _has_short_side, _reduce, _shape_rank, _stacked_ranks
from .tensor import DenseTensor, unfold

__all__ = [
    "RankFunction",
    "n_rank",
    "n_ranks",
    "max_tucker_rank",
    "max_tucker",
    "submax_tucker",
    "min_rank",
    "RANK_FUNCTIONS",
]


def _submax(values: Iterable[int]) -> int:
    """Second-largest with multiplicity; a single value is its own submax
    (vectors are treated as having an implicit trailing singleton mode)."""
    ordered = sorted(values, reverse=True)
    return ordered[1] if len(ordered) > 1 else ordered[0]


def n_rank(x: DenseTensor, tol: RankTolerance = DEFAULT_TOL) -> tuple[int, ...]:
    """Matrix rank of every mode-j unfolding, as a tuple in mode order.

    Two cases need no factorization and give the ranks an SVD would: every
    unfolding of a zero tensor has rank 0, and the unfoldings of a nonzero
    tensor are nonzero, so one whose shape fixes its rank (one row or one
    column, see :func:`linalg._shape_rank`) is not even built.  The other
    unfoldings go straight to the factorization, without the checks
    :func:`matrix_rank` makes on matrices from outside.
    """
    return tuple(_unfolding_ranks(x, tol, stack=False))


def _unfolding_ranks(x: DenseTensor, tol: RankTolerance, stack: bool) -> list[int | None]:
    """n_rank(x, tol) as a list, except that with ``stack`` an unfolding
    that would go to a plain SVD, not through the short-side factor, is
    left None for :func:`n_ranks` to factor in a stack."""
    if x.is_zero():
        return [0] * x.order
    ranks = []
    for j, n in enumerate(x.shape, start=1):
        shape = (n, x.size // n)
        r = _shape_rank(shape, tol)
        if r is None and (not stack or _has_short_side(shape)):
            r = _reduce(unfold(x, j), tol)[1]
        ranks.append(r)
    return ranks


def n_ranks(tensors: Sequence[DenseTensor], tol: RankTolerance = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """``[n_rank(x, tol) for x in tensors]``, with the unfoldings that need a
    plain SVD factored together: one call per unfolding shape, on a stack
    built just before that call and dropped after it.

    The answers are n_rank's: the shortcuts and the short-side path are
    n_rank's own, and every stacked matrix goes through the same rank rule
    (see :func:`linalg._stacked_ranks`).  On a single tensor the grouping
    costs more than it saves, so n_rank stays the call for one tensor.
    """
    ranks = [_unfolding_ranks(x, tol, stack=True) for x in tensors]
    pending = {}  # unfolding shape -> (tensor positions, modes) for its stack
    for i, (x, row) in enumerate(zip(tensors, ranks)):
        for j, r in enumerate(row, start=1):
            if r is None:
                n = x.shape[j - 1]
                owners, modes = pending.setdefault((n, x.size // n), ([], []))
                owners.append(i)
                modes.append(j)
    for shape, (owners, modes) in pending.items():
        stack = np.empty((len(owners), *shape))
        for A, i, j in zip(stack, owners, modes):
            A[...] = unfold(tensors[i], j)
        for i, j, r in zip(owners, modes, _stacked_ranks(stack, tol)):
            ranks[i][j - 1] = r
        del stack  # before the next shape's stack is built
    return [tuple(row) for row in ranks]


def max_tucker_rank(x: DenseTensor, tol: RankTolerance = DEFAULT_TOL) -> int:
    return max(n_rank(x, tol))


class RankFunction:
    """A named integer rank evaluator over dense tensors.

    ``declared_properties`` lists the extra properties (beyond the six
    axioms) that the axiom battery is expected to confirm for this function.
    ``shape_bound`` is an optional optimistic upper bound on the value for a
    given shape, used to prune brute-force subtensor enumeration.

    ``nrank_rule`` is ``(rule, tol)`` when the value is
    ``rule(n_rank(x, tol))``, as for max_tucker, submax_tucker and
    min_rank of them at one tolerance, and None otherwise.  Code that holds
    the n-rank (:func:`min_rank`, the axiom battery, :func:`extract_nrank`)
    applies the rule to it instead of calling the evaluator; the evaluator
    must give the same value.

    Evaluators must be pure: a caller that already holds rf(x) may use it
    in place of another call.
    """

    def __init__(
        self,
        name: str,
        evaluator: Callable[[DenseTensor], int],
        declared_properties: Iterable[str] = (),
        shape_bound: Callable[[tuple[int, ...]], int] | None = None,
        nrank_rule: tuple[Callable[[tuple[int, ...]], int], RankTolerance] | None = None,
    ):
        self.name = name
        self.evaluator = evaluator
        self.declared_properties = frozenset(declared_properties)
        self.shape_bound = shape_bound
        self.nrank_rule = nrank_rule

    def __call__(self, x: DenseTensor) -> int:
        return int(self.evaluator(x))

    def __repr__(self) -> str:
        return f"RankFunction({self.name!r})"


def _unfolding_bounds(shape: tuple[int, ...]) -> list[int]:
    total = math.prod(shape)
    return [min(n, total // n) for n in shape]


def _from_n_rank(
    name: str,
    rule: Callable[[tuple[int, ...]], int],
    tol: RankTolerance,
    declared_properties: Iterable[str],
) -> RankFunction:
    """The rank function x -> rule(n_rank(x, tol)), with its rule and tol kept.

    Its shape bound is the same rule on the largest unfolding ranks a shape
    allows, which bounds the value when the rule is monotone in each rank.
    """
    return RankFunction(
        name,
        lambda x: rule(n_rank(x, tol)),
        declared_properties,
        lambda shape: rule(_unfolding_bounds(shape)),
        nrank_rule=(rule, tol),
    )


def max_tucker(tol: RankTolerance = DEFAULT_TOL) -> RankFunction:
    """Max-Tucker rank: the largest unfolding rank.  Proper and subadditive."""
    return _from_n_rank("max_tucker", max, tol, ("proper", "subadditive"))


def submax_tucker(tol: RankTolerance = DEFAULT_TOL) -> RankFunction:
    """Submax-Tucker rank: the second-largest unfolding rank.  Strongly proper."""
    return _from_n_rank("submax_tucker", _submax, tol, ("proper", "strongly_proper"))


def min_rank(r1: RankFunction, r2: RankFunction) -> RankFunction:
    """Pointwise minimum of two rank functions.

    The minimum keeps proper/strongly-proper declarations (it is dominated by
    both arguments) but never a subadditive one: the minimum of two
    subadditive rank functions need not be subadditive.

    When both arguments are rules on the n-rank at one tolerance (max_tucker,
    submax_tucker, or minima of them), the minimum is that rule on one
    n-rank: each argument's value is a function of the same n_rank(x, tol),
    so computing it once gives both values exactly.  Any other pair
    evaluates both arguments, bounded by the smaller of their shape bounds.
    """
    declared = (r1.declared_properties | r2.declared_properties) & {"proper", "strongly_proper"}
    name = f"min({r1.name},{r2.name})"
    if r1.nrank_rule and r2.nrank_rule and r1.nrank_rule[1] == r2.nrank_rule[1]:
        (rule1, tol), (rule2, _) = r1.nrank_rule, r2.nrank_rule
        return _from_n_rank(name, lambda ranks: min(rule1(ranks), rule2(ranks)), tol, declared)
    if r1.shape_bound and r2.shape_bound:
        bound = lambda shape: min(r1.shape_bound(shape), r2.shape_bound(shape))
    else:
        bound = r1.shape_bound or r2.shape_bound
    return RankFunction(name, lambda x: min(r1(x), r2(x)), declared, bound)


# --fn value -> rank-function factory; the CLI's verbs print the built function's own name
RANK_FUNCTIONS = {"max": max_tucker, "submax": submax_tucker}
