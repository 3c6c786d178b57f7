"""n-rank and the max/submax scalar rank functions."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenrank.ranks

from tenrank import (
    CapacityError,
    DenseTensor,
    RankFunction,
    RankTolerance,
    extract_brute_force,
    identity_tensor,
    max_tucker,
    max_tucker_rank,
    min_rank,
    n_rank,
    submax_tucker,
    submax_tucker_rank,
)
from tenrank.generators import (
    counterexample_2x3x4,
    counterexample_3x2x2,
    matrix_embedded,
    random_rank_one,
    random_tensor,
    tucker_structured,
    zero_tensor,
)
from tenrank.ranks import _submax


def test_counterexample_2x3x4_values():
    x = counterexample_2x3x4()
    assert n_rank(x).ranks == (2, 3, 4)
    assert max_tucker_rank(x) == 4
    assert submax_tucker_rank(x) == 3


def test_counterexample_3x2x2_values():
    x = counterexample_3x2x2()
    assert max_tucker_rank(x) == 3
    assert submax_tucker_rank(x) == 2
    assert max_tucker_rank(x) > _submax(x.shape)


def test_identity_nrank_all_equal():
    for m in (2, 3, 4):
        x = identity_tensor(m, 3)
        assert n_rank(x).ranks == (3,) * m
        assert submax_tucker_rank(x) == 3


def test_rank_one_nrank():
    x = random_rank_one((3, 4, 5), seed=2)
    assert n_rank(x).ranks == (1, 1, 1)
    assert max_tucker_rank(x) == 1
    assert submax_tucker_rank(x) == 1


def test_zero_tensor_ranks():
    z = zero_tensor((2, 5, 3))
    assert n_rank(z).ranks == (0, 0, 0)
    assert max_tucker_rank(z) == 0
    assert submax_tucker_rank(z) == 0


def test_submax_multiset_rule():
    assert _submax((3, 3, 2)) == 3
    assert _submax((4, 2, 2)) == 2
    assert _submax((5,)) == 5


def test_order_one_tensor_treated_as_column():
    v = DenseTensor([1.0, 2.0, 0.0])
    assert max_tucker_rank(v) == 1
    assert submax_tucker_rank(v) == 1
    assert submax_tucker_rank(DenseTensor([0.0, 0.0])) == 0


def test_matrix_as_order_two_tensor():
    rng = np.random.default_rng(5)
    M = (rng.integers(-2, 3, size=(4, 2)) @ rng.integers(-2, 3, size=(2, 5))).astype(float)
    x = DenseTensor(M)
    assert submax_tucker_rank(x) == 2
    assert max_tucker_rank(x) == 2


def test_embedded_matrix_nrank_profile():
    # r1 = r2 and every later unfolding has rank <= 1
    rng = np.random.default_rng(9)
    x = matrix_embedded(rng.standard_normal((4, 5)), trailing_ones=2)
    ranks = n_rank(x).ranks
    assert ranks[0] == ranks[1]
    assert all(r <= 1 for r in ranks[2:])


def test_rank_function_wrappers_and_cache():
    rmax = max_tucker()
    x = counterexample_2x3x4()
    assert rmax(x) == 4
    assert rmax(x) == 4  # cached path
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
    assert n_rank(x, tol).ranks == reference_n_rank(x, tol)


def test_n_rank_factors_nothing_for_zero_tensors_and_vector_unfoldings(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert n_rank(zero_tensor((2, 3, 4))).ranks == (0, 0, 0)
    assert n_rank(DenseTensor(np.arange(1.0, 6.0).reshape(1, 5, 1))).ranks == (1, 1, 1)
    assert n_rank(DenseTensor([0.0, 2.0, 0.0])).ranks == (1,)


def counting_n_rank(monkeypatch):
    calls = []
    plain = tenrank.ranks.n_rank

    def counting(x, tol=RankTolerance()):
        calls.append(x)
        return plain(x, tol)

    monkeypatch.setattr(tenrank.ranks, "n_rank", counting)
    return calls


def test_min_of_tucker_ranks_takes_one_n_rank_per_new_tensor(monkeypatch):
    calls = counting_n_rank(monkeypatch)
    rmax, rsub = max_tucker(), submax_tucker()
    combined = min_rank(rmax, rsub)
    nested = min_rank(combined, rmax)
    tensors = [random_tensor((2, 3, 4), seed=s, integer=s % 2 == 0) for s in range(20)]
    tensors += [counterexample_2x3x4(), counterexample_3x2x2(), zero_tensor((2, 2)), DenseTensor([1.0])]
    for rf in (combined, nested):
        calls.clear()
        values = [rf(t) for t in tensors + tensors]
        assert len(calls) == len(tensors)
        assert values == [min(n_rank(t).max_rank, n_rank(t).submax_rank) for t in tensors + tensors]


def test_min_rank_of_other_pairs_evaluates_both(monkeypatch):
    calls = counting_n_rank(monkeypatch)
    loose = RankTolerance("relative", 0.3)
    pairs = [
        (max_tucker(), submax_tucker(loose)),  # tolerances differ
        (max_tucker(), RankFunction("inflated", lambda y: max_tucker_rank(y) + 1)),
    ]
    x = random_tensor((3, 3, 4), seed=1)
    for r1, r2 in pairs:
        calls.clear()
        assert min_rank(r1, r2)(x) == min(r1(x), r2(x))
        assert len(calls) == 2


def test_memo_stays_within_its_byte_budget_on_a_budget_length_search():
    rf = max_tucker()
    budget = RankFunction._CACHE_BYTES
    seen, evaluated = [], []
    plain = rf.evaluator

    def evaluator(y):
        seen.append(rf._cache_bytes)  # the memo as the previous call left it
        evaluated.append(y.data.nbytes)
        return plain(y)

    rf.evaluator = evaluator
    with pytest.raises(CapacityError, match="budget"):
        extract_brute_force(rf, tucker_structured((8, 8, 8, 8), (8, 8, 1, 1), seed=0))
    assert sum(evaluated) > 2 * budget  # the search would overflow an unbounded memo
    assert max(seen + [rf._cache_bytes]) <= budget
    assert rf._cache_bytes == sum(t.data.nbytes + rf._ENTRY_BYTES for t in rf._cache)


def test_memo_of_one_entry_tensors_stays_within_its_byte_budget():
    # each entry keeps far more than its 8 data bytes alive; the memo counts that too
    rf = RankFunction("one", lambda x: 1)
    rf._CACHE_BYTES = budget = 1 << 20
    values = np.arange(1.0, 3 * budget / rf._ENTRY_BYTES).tolist()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for v in values:
            rf(DenseTensor([[v]]))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(values) > 2 * len(rf._cache)  # the memo was emptied on the way
    assert peak <= budget
