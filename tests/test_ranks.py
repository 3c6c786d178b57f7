"""n-rank and the max/submax scalar rank functions."""
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenrank
import tenrank.ranks

from tenrank import (
    DenseTensor,
    RankFunction,
    RankTolerance,
    identity_tensor,
    max_tucker,
    max_tucker_rank,
    min_rank,
    n_rank,
    n_ranks,
    scale,
    standard_fixtures,
    submax_tucker,
)
from tenrank.axioms import _ranked_tensors
from tenrank.ranks import RANK_FUNCTIONS
from tenrank.generators import (
    counterexample_2x3x4,
    counterexample_3x2x2,
    matrix_embedded,
    random_rank_one,
    random_tensor,
    zero_tensor,
)
from tenrank.ranks import _submax


def test_counterexample_2x3x4_values():
    x = counterexample_2x3x4()
    assert n_rank(x) == (2, 3, 4)
    assert max_tucker_rank(x) == 4
    assert submax_tucker()(x) == 3


def test_n_rank_is_a_plain_tuple_of_ints():
    ranks = n_rank(counterexample_2x3x4())
    assert type(ranks) is tuple and all(type(r) is int for r in ranks)
    assert all(type(r) is int for r in n_rank(zero_tensor((2, 3))) + n_rank(DenseTensor([1.0])))
    with pytest.raises(AttributeError):
        tenrank.NRank


def test_counterexample_3x2x2_values():
    x = counterexample_3x2x2()
    assert max_tucker_rank(x) == 3
    assert submax_tucker()(x) == 2
    assert max_tucker_rank(x) > _submax(x.shape)


def test_identity_nrank_all_equal():
    for m in (2, 3, 4):
        x = identity_tensor(m, 3)
        assert n_rank(x) == (3,) * m
        assert submax_tucker()(x) == 3


def test_rank_one_nrank():
    x = random_rank_one((3, 4, 5), seed=2)
    assert n_rank(x) == (1, 1, 1)
    assert max_tucker_rank(x) == 1
    assert submax_tucker()(x) == 1


def test_zero_tensor_ranks():
    z = zero_tensor((2, 5, 3))
    assert n_rank(z) == (0, 0, 0)
    assert max_tucker_rank(z) == 0
    assert submax_tucker()(z) == 0


def test_submax_multiset_rule():
    assert _submax((3, 3, 2)) == 3
    assert _submax((4, 2, 2)) == 2
    assert _submax((5,)) == 5


def test_order_one_tensor_treated_as_column():
    v = DenseTensor([1.0, 2.0, 0.0])
    assert max_tucker_rank(v) == 1
    assert submax_tucker()(v) == 1
    assert submax_tucker()(DenseTensor([0.0, 0.0])) == 0


def test_matrix_as_order_two_tensor():
    rng = np.random.default_rng(5)
    M = (rng.integers(-2, 3, size=(4, 2)) @ rng.integers(-2, 3, size=(2, 5))).astype(float)
    x = DenseTensor(M)
    assert submax_tucker()(x) == 2
    assert max_tucker_rank(x) == 2


def test_embedded_matrix_nrank_profile():
    # r1 = r2 and every later unfolding has rank <= 1
    rng = np.random.default_rng(9)
    x = matrix_embedded(rng.standard_normal((4, 5)), trailing_ones=2)
    ranks = n_rank(x)
    assert ranks[0] == ranks[1]
    assert all(r <= 1 for r in ranks[2:])


def test_rank_function_wrappers():
    rmax = max_tucker()
    x = counterexample_2x3x4()
    assert rmax(x) == 4
    assert rmax.declared_properties == frozenset({"proper", "subadditive"})
    rsub = submax_tucker()
    assert rsub.declared_properties == frozenset({"proper", "strongly_proper"})
    assert rsub(x) == 3


def test_shape_bounds_are_upper_bounds():
    rmax, rsub = max_tucker(), submax_tucker()
    for seed in range(20):
        shape = tuple(np.random.default_rng(seed).integers(1, 6, size=3))
        x = random_tensor(shape, seed=seed)
        assert rmax(x) <= rmax.shape_bound(shape)
        assert rsub(x) <= rsub.shape_bound(shape)


def test_min_rank_pointwise():
    rmax, rsub = max_tucker(), submax_tucker()
    combined = min_rank(rmax, rsub)
    x = counterexample_2x3x4()
    assert combined(x) == 3
    same = min_rank(rmax, rmax)
    for seed in range(100):
        t = random_tensor(tuple(np.random.default_rng(seed).integers(1, 5, size=3)), seed=seed)
        assert combined(t) <= rmax(t)
        assert same(t) == rmax(t)


def test_min_rank_declarations():
    combined = min_rank(max_tucker(), submax_tucker())
    assert "subadditive" not in combined.declared_properties
    assert "proper" in combined.declared_properties


@pytest.mark.parametrize("key", list(RANK_FUNCTIONS))
def test_registered_rank_functions_are_rules_on_the_n_rank_at_their_tolerance(key):
    tol = RankTolerance("absolute", 0.5)
    rf = RANK_FUNCTIONS[key](tol)
    rule, kept = rf.nrank_rule
    assert kept == tol
    x = counterexample_2x3x4()
    assert rule(n_rank(x, tol)) == rf(x)


def test_min_rank_of_registered_rank_functions_keeps_the_tolerance():
    tol = RankTolerance("relative", 0.3)
    combined = min_rank(*(make(tol) for make in RANK_FUNCTIONS.values()))
    assert combined.nrank_rule[1] == tol
    assert min_rank(max_tucker(tol), submax_tucker()).nrank_rule is None  # tolerances differ


def test_a_rank_function_built_from_an_evaluator_has_no_n_rank_rule():
    assert RankFunction("max", max_tucker_rank).nrank_rule is None


# --------------------------------------- n-rank shortcuts against the plain SVD

def reference_n_rank(x, tol):
    """Every unfolding built by moving the mode first and reshaping in F order,
    every singular value counted against the threshold, no shortcut."""
    ranks = []
    for j in range(x.order):
        A = np.array(np.moveaxis(x.data, j, 0).reshape(x.shape[j], -1, order="F"))
        s = np.linalg.svd(A, compute_uv=False)
        ranks.append(0 if s[0] == 0.0 else int(np.count_nonzero(s > tol.threshold(A.shape, s[0]))))
    return tuple(ranks)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
    seed=st.integers(0, 10_000),
    zeros=st.floats(0.0, 1.0),
    k=st.integers(-300, 300),
    tol=st.sampled_from(
        [
            RankTolerance(),
            RankTolerance("relative", 0.5),
            RankTolerance("relative", 1.0),
            RankTolerance("absolute", 1e-8),
        ]
    ),
)
def test_n_rank_matches_the_plain_per_mode_svd_count(shape, seed, zeros, k, tol):
    rng = np.random.default_rng(seed)
    x = DenseTensor(rng.standard_normal(shape) * (rng.random(shape) >= zeros) * 10.0**k)
    assert n_rank(x, tol) == reference_n_rank(x, tol)


def test_n_rank_factors_nothing_for_zero_tensors_and_vector_unfoldings(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert n_rank(zero_tensor((2, 3, 4))) == (0, 0, 0)
    assert n_rank(DenseTensor(np.arange(1.0, 6.0).reshape(1, 5, 1))) == (1, 1, 1)
    assert n_rank(DenseTensor([0.0, 2.0, 0.0])) == (1,)


def counting_n_rank(monkeypatch):
    calls = []
    plain = tenrank.ranks.n_rank

    def counting(x, tol=RankTolerance()):
        calls.append(x)
        return plain(x, tol)

    monkeypatch.setattr(tenrank.ranks, "n_rank", counting)
    return calls


def test_min_of_tucker_ranks_takes_one_n_rank_per_call(monkeypatch):
    calls = counting_n_rank(monkeypatch)
    rmax, rsub = max_tucker(), submax_tucker()
    combined = min_rank(rmax, rsub)
    nested = min_rank(combined, rmax)
    tensors = [random_tensor((2, 3, 4), seed=s, integer=s % 2 == 0) for s in range(20)]
    tensors += [counterexample_2x3x4(), counterexample_3x2x2(), zero_tensor((2, 2)), DenseTensor([1.0])]
    for rf in (combined, nested):
        calls.clear()
        values = [rf(t) for t in tensors + tensors]
        assert len(calls) == 2 * len(tensors)
        assert values == [min(max(n_rank(t)), _submax(n_rank(t))) for t in tensors + tensors]


def test_min_rank_of_other_pairs_evaluates_both(monkeypatch):
    calls = counting_n_rank(monkeypatch)
    loose = RankTolerance("relative", 0.3)
    pairs = [
        (max_tucker(), submax_tucker(loose)),  # tolerances differ
        (max_tucker(), RankFunction("inflated", lambda y: max_tucker_rank(y) + 1)),
    ]
    x = random_tensor((3, 3, 4), seed=1)
    for r1, r2 in pairs:
        expected = min(r1(x), r2(x))
        calls.clear()
        assert min_rank(r1, r2)(x) == expected
        assert len(calls) == 2


def test_rank_function_keeps_no_reference_to_its_argument():
    rf = max_tucker()
    x = random_tensor((2, 3, 4), seed=0)
    assert rf(x) == 4
    ref = weakref.ref(x.data)  # DenseTensor has slots and no weak references; its entries do
    del x
    assert ref() is None


# --------------------------------------------- stacked n-ranks against n_rank

STACK_TOLERANCES = [
    RankTolerance(),
    RankTolerance("relative", 1e-3),
    RankTolerance("relative", 0.5),
    RankTolerance("absolute", 0.0),
    RankTolerance("absolute", 0.5),
    RankTolerance("absolute", 1e300),
]


def test_stacked_n_ranks_equal_n_rank_tensor_by_tensor():
    # every tensor the battery ranks at seed 101, then copies whose sigma_max
    # is subnormal or near overflow, subnormal matrices, overflowing matrices,
    # and a tensor with an unfolding past the short-side gate
    base = list(dict.fromkeys(_ranked_tensors(standard_fixtures(seed=101, random_count=40))))
    tensors = base + [scale(x, c) for c in (1e-310, 1e305) for x in base]
    tensors += [
        DenseTensor([[5e-324]]),
        DenseTensor([[5e-324, 0.0], [0.0, 5e-324]]),
        DenseTensor([[5e-324, 1e-323, 0.0], [2e-323, 5e-324, 5e-324]]),
        DenseTensor(np.full((2, 3, 2), 1e308)),
        DenseTensor([[1e308, -1e308], [1e308, 1e308]]),
        random_tensor((3, 70, 70), seed=5),
    ]
    for tol in STACK_TOLERANCES:
        assert n_ranks(tensors, tol) == [n_rank(x, tol) for x in tensors]


def test_stacked_n_ranks_factor_once_per_unfolding_shape(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    tensors = [random_tensor((2, 3, 4), seed=s) for s in range(6)]
    tensors += [random_tensor((4, 3, 2), seed=s) for s in range(3)]
    tensors += [zero_tensor((2, 3, 4)), random_tensor((1, 5), seed=0)]
    expected = [n_rank(x) for x in tensors]
    monkeypatch.setattr(np.linalg, "svd", counting)
    assert n_ranks(tensors) == expected
    # (2, 12), (3, 8) and (4, 6) are each one stack; the zero tensor and the
    # one-row unfoldings need no factorization
    assert sorted(calls) == [(9, 2, 12), (9, 3, 8), (9, 4, 6)]


def test_a_stack_whose_svd_fails_is_ranked_one_matrix_at_a_time(monkeypatch):
    svd = np.linalg.svd

    def no_stacks(a, *args, **kwargs):
        if a.ndim > 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    tensors = [random_tensor((2, 3, 4), seed=s) for s in range(4)]
    tensors.append(counterexample_2x3x4())
    expected = [n_rank(x) for x in tensors]
    monkeypatch.setattr(np.linalg, "svd", no_stacks)
    assert n_ranks(tensors) == expected
