"""Numerical rank, row bases, span tests.

The independent oracle for integer matrices is exact Gaussian elimination
over fractions, immune to floating-point thresholds.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank import DenseTensor, RankTolerance, RowBasis, identity_tensor, in_row_span, matrix_rank, n_rank, row_basis
from tenrank.linalg import _reduce


def exact_rank(M):
    """Gaussian elimination over exact rationals (integer input)."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(M)]
    rank = 0
    col = 0
    ncols = len(rows[0])
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_identity_rank():
    assert matrix_rank(np.eye(3)) == 3


def test_identity_plus_ones_column():
    M = np.hstack([np.eye(3), np.ones((3, 1))])
    assert matrix_rank(M) == 3


def test_rank_forced_by_factor_construction():
    rng = np.random.default_rng(0)
    A = rng.integers(-3, 4, size=(5, 2)).astype(float)
    B = rng.integers(-3, 4, size=(2, 7)).astype(float)
    M = A @ B
    assert matrix_rank(M) == 2
    assert exact_rank(M.astype(int)) == 2


def test_zero_matrix_rank():
    assert matrix_rank(np.zeros((3, 4))) == 0


def test_absolute_tolerance_mode():
    M = np.diag([1.0, 1e-3, 1e-9])
    assert matrix_rank(M, RankTolerance("absolute", 1e-6)) == 2
    assert matrix_rank(M, RankTolerance("absolute", 1e-12)) == 3


def test_tolerance_validation():
    with pytest.raises(ValueError):
        RankTolerance("absolute", None)
    with pytest.raises(ValueError):
        RankTolerance("relative", -1.0)
    with pytest.raises(ValueError):
        RankTolerance("fuzzy", 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_rank_invariants_on_random_integer_matrices(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 7, size=2)
    r = int(rng.integers(0, min(m, n) + 1))
    if r == 0:
        M = np.zeros((m, n))
    else:
        M = (rng.integers(-2, 3, size=(m, r)) @ rng.integers(-2, 3, size=(r, n))).astype(float)
    k = matrix_rank(M)
    assert k == exact_rank(M.astype(int))
    assert k == matrix_rank(M.T)
    assert matrix_rank(3.5 * M) == k
    assert matrix_rank(M[: max(1, m // 2)]) <= k


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_rank_subadditivity(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 7, size=2)
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((m, n))
    assert matrix_rank(A + B) <= matrix_rank(A) + matrix_rank(B)


def test_row_basis_identity():
    assert row_basis(np.eye(4)).indices == (1, 2, 3, 4)


def test_row_basis_skips_duplicate_row():
    r1 = np.array([1.0, 2.0, 3.0])
    r2 = np.array([0.0, 1.0, 1.0])
    M = np.vstack([r1, r1, r2])
    basis = row_basis(M)
    assert basis.indices == (1, 3)
    assert basis.rank == 2


def test_row_basis_projection_residual_oracle():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 7))
    basis = row_basis(M)
    assert basis.rank == 2
    picked = M[[i - 1 for i in basis.indices]]
    # every row must project onto the selected pair with negligible residual
    for row in M:
        coef, *_ = np.linalg.lstsq(picked.T, row, rcond=None)
        assert np.linalg.norm(picked.T @ coef - row) < 1e-9


def test_row_basis_zero_matrix():
    basis = row_basis(np.zeros((3, 3)))
    assert basis == RowBasis(indices=(), rank=0)


def test_row_basis_deterministic():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 4))
    assert row_basis(M) == row_basis(M.copy())


def test_in_row_span_cases():
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    basis = row_basis(M[:2])
    assert in_row_span(M[:2], basis, M[0])
    assert in_row_span(M[:2], basis, M[0] + M[1])
    assert not in_row_span(M[:2], basis, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        in_row_span(M[:2], basis, np.ones(4))


def test_in_row_span_orthogonal_residual():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((3, 5))
    basis = row_basis(M)
    # build a vector orthogonal to the row space by Gram-Schmidt
    v = rng.standard_normal(5)
    for row in M:
        q = row / np.linalg.norm(row)
        v = v - (v @ q) * q
    q, _ = np.linalg.qr(M.T)
    v = v - q @ (q.T @ v)
    assert not in_row_span(M, basis, v)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        matrix_rank(np.zeros((0, 3)))


# --- wide matrices, factored from their short side -------------------------

WIDE_SHAPES = [(8, 600, 5), (30, 3000, 12)]  # rows, cols, planted rank


def planted_wide(rows, cols, rank, seed, duplicate=False):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    if duplicate:
        M[rows - 1] = M[1]
    return M


def reference_row_basis(M, tol=RankTolerance()):
    """The greedy max-residual loop on the unreduced matrix."""
    s = np.linalg.svd(M, compute_uv=False)
    r = int(np.count_nonzero(s > tol.threshold(M.shape, s[0]))) if s[0] > 0 else 0
    resid = M.copy()
    basis, picked = [], []
    for _ in range(r):
        norms = np.linalg.norm(resid, axis=1)
        k = int(np.argmax(norms))
        q = resid[k] / norms[k]
        for prev in basis:
            q = q - (q @ prev) * prev
        q = q / np.linalg.norm(q)
        picked.append(k)
        basis.append(q)
        resid = resid - np.outer(resid @ q, q)
        resid[k] = 0.0
    return tuple(sorted(i + 1 for i in picked)), r


@pytest.mark.parametrize("rows,cols,rank", WIDE_SHAPES)
@pytest.mark.parametrize("duplicate", [False, True])
def test_wide_matrix_rank_matches_unreduced_svd(rows, cols, rank, duplicate):
    M = planted_wide(rows, cols, rank, seed=rows, duplicate=duplicate)
    s = np.linalg.svd(M, compute_uv=False)
    expected = int(np.count_nonzero(s > RankTolerance().threshold(M.shape, s[0])))
    assert expected == rank
    assert matrix_rank(M) == expected
    full = planted_wide(rows, cols, rows, seed=rows + 1, duplicate=duplicate)
    assert matrix_rank(full) == rows - duplicate
    absolute = RankTolerance("absolute", 1e-6)
    assert matrix_rank(M, absolute) == int(np.count_nonzero(s > 1e-6))


@pytest.mark.parametrize("rows,cols,rank", WIDE_SHAPES + [(30, 3000, 30)])
def test_wide_row_basis_matches_unreduced_greedy_loop(rows, cols, rank):
    M = planted_wide(rows, cols, rank, seed=rows + rank)
    basis = row_basis(M)
    assert (basis.indices, basis.rank) == reference_row_basis(M)


@pytest.mark.parametrize("rows,cols,rank", WIDE_SHAPES)
def test_wide_row_basis_keeps_one_of_a_duplicated_row(rows, cols, rank):
    M = planted_wide(rows, cols, rank, seed=rows + rank, duplicate=True)
    basis = row_basis(M)
    # the two copies tie exactly, so the reduced matrix may break the tie the
    # other way; up to that swap the picked rows are the reference's
    swap = {rows: 2}
    expected, r = reference_row_basis(M)
    assert basis.rank == r == rank
    assert tuple(sorted(swap.get(i, i) for i in basis.indices)) == tuple(
        sorted(swap.get(i, i) for i in expected)
    )
    assert not {2, rows} <= set(basis.indices)


@pytest.mark.parametrize("k", [-300, -200, 200, 300])
def test_wide_row_basis_is_scale_invariant(k):
    M = planted_wide(8, 600, 5, seed=4)
    assert row_basis(M * 10.0**k) == row_basis(M)


def test_qr_only_above_the_short_side_gate(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    rng = np.random.default_rng(5)
    # tiny, square, tall, not wide enough, and too few entries
    for shape in [(2, 6), (4, 64), (60, 60), (100, 30), (10, 19), (40, 79), (8, 500)]:
        M = rng.standard_normal(shape)
        matrix_rank(M)
        row_basis(M)
    assert calls == []
    matrix_rank(rng.standard_normal((8, 600)))
    assert calls == [(600, 8)]


HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


@pytest.mark.parametrize("cols", [4, 8000])  # direct SVD, and the wide QR path
def test_rank_when_sigma_max_overflows(cols):
    # orthogonal rows: every entry is finite, the two largest singular values are not
    row_scale = np.array([1.7e308, 1.7e308, 1e300, 1e290])
    M = np.tile(HADAMARD, (1, cols // 4)) * row_scale[:, None]
    with np.errstate(over="ignore"):
        sigma = 2 * np.sqrt(cols / 4) * row_scale
    assert np.isfinite(M).all() and not np.isfinite(sigma[:2]).any()
    # the default threshold, max(rows, cols) * eps * sigma_max, falls between sigma_4 and sigma_3
    assert matrix_rank(M) == 3
    assert row_basis(M) == RowBasis(indices=(1, 2, 3), rank=3)
    assert in_row_span(M, row_basis(M), M[3])
    # an absolute threshold keeps its meaning on the rescaled matrix
    assert matrix_rank(M, RankTolerance("absolute", 10 * sigma[2])) == 2
    assert matrix_rank(M, RankTolerance("absolute", 10 * sigma[3])) == 3
    assert matrix_rank(M, RankTolerance("absolute", 0.1 * sigma[3])) == 4


# ------------------------------------------------ shapes that fix the rank

def plain_svd_rank(A, tol=RankTolerance()):
    """The singular values of A counted against the threshold, with no shortcut."""
    s = np.linalg.svd(A, compute_uv=False)
    return 0 if s[0] == 0.0 else int(np.count_nonzero(s > tol.threshold(A.shape, s[0])))


TOLERANCES = [
    RankTolerance(),
    RankTolerance("relative", 0.5),
    RankTolerance("relative", 1.0),
    RankTolerance("absolute", 1e-8),
    RankTolerance("absolute", 0.0),
]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 10_000),
    zeros=st.floats(0.0, 1.0),
    k=st.integers(-300, 300),
    tol=st.sampled_from(TOLERANCES),
)
def test_matrix_rank_matches_the_plain_svd_count(shape, seed, zeros, k, tol):
    rng = np.random.default_rng(seed)
    A = rng.integers(-3, 4, size=shape) * (rng.random(shape) >= zeros) * 10.0**k
    assert matrix_rank(A, tol) == plain_svd_rank(A, tol)


@pytest.mark.parametrize("v", [[5e-324], [0.0, 1e-310, 0.0], [1e308, -1e308, 1e308], [2.0, -3.0]])
def test_vector_rank_needs_no_svd(monkeypatch, v):
    expected = {  # the SVD path's answers, rescale included, taken before it is switched off
        (tol, shape): _reduce(np.reshape(v, shape), tol)[1]
        for tol in (
            RankTolerance(),
            RankTolerance("relative", 0.5),
            RankTolerance("relative", 0.75),
            RankTolerance("relative", 1.0),
        )
        for shape in [(1, -1), (-1, 1)]
    }
    assert {r for (tol, _), r in expected.items() if tol.value != 1.0} == {1}
    assert {r for (tol, _), r in expected.items() if tol.value == 1.0} == {0}

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for (tol, shape), r in expected.items():
        assert matrix_rank(np.reshape(v, shape), tol) == r
        assert matrix_rank(np.zeros_like(np.reshape(v, shape)), tol) == 0
    monkeypatch.undo()
    # absolute tolerances need sigma itself
    tol = RankTolerance("absolute", 1.0)
    assert matrix_rank(np.reshape(v, (1, -1)), tol) == plain_svd_rank(np.reshape(v, (1, -1)), tol)


def test_subnormal_sigma_max_keeps_rank_under_factors_below_one():
    # unscaled, fl(factor * sigma) rounds up to sigma and every one of these gives rank 0
    assert matrix_rank([[5e-324]], RankTolerance("relative", 0.6)) == 1
    assert matrix_rank([[1e-323]], RankTolerance("relative", 0.9)) == 1
    assert matrix_rank(1e-323 * np.eye(2), RankTolerance("relative", 0.9)) == 2
    # sigma = 2**-1022 is normal, but the product lands among the subnormals
    # and rounds up to sigma at the largest factor below 1
    M = 2.0**-1022 * np.eye(2)
    assert matrix_rank(M, RankTolerance("relative", 1 - 2.0**-53)) == 2
    assert matrix_rank(M, RankTolerance("relative", 1.0)) == 0
    assert row_basis(M, RankTolerance("relative", 1 - 2.0**-53)) == RowBasis((1, 2), 2)
    x = DenseTensor(5e-324 * identity_tensor(3, 2).data)
    assert n_rank(x, RankTolerance("relative", 0.6)).ranks == (2, 2, 2)


def test_absolute_thresholds_see_a_subnormal_matrix_unscaled():
    M = 1e-323 * np.eye(2)
    for t, r in [(0.5, 0), (1e-323, 0), (5e-324, 2), (0.0, 2)]:
        assert matrix_rank(M, RankTolerance("absolute", t)) == plain_svd_rank(M, RankTolerance("absolute", t)) == r
        assert row_basis(M, RankTolerance("absolute", t)).rank == r


def test_vector_whose_norm_overflows_has_rank_one():
    v = np.array([1.7e308, -1.7e308])
    for M in (v.reshape(1, -1), v.reshape(-1, 1)):
        assert matrix_rank(M) == 1
        assert matrix_rank(M, RankTolerance("absolute", 1e308)) == 1
        assert row_basis(M).rank == 1
