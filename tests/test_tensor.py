"""Tensor core: construction, selections, unfoldings, mode products.

Derived expectations are computed by independent index-walk oracles (plain
nested loops over 1-based indices), never by the code under test.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank import (
    DenseTensor,
    IndexSelection,
    NumericError,
    SelectionError,
    add,
    fold,
    frobenius_norm,
    identity_tensor,
    mode_product,
    outer_product,
    permute_modes,
    scale,
    subtensor,
    unfold,
)
from tenrank.generators import counterexample_2x3x4, random_tensor


def all_indices(shape):
    """All 1-based index tuples of a shape, row-major order."""
    return itertools.product(*[range(1, n + 1) for n in shape])


def entry(x, idx):
    """1-based entry lookup."""
    return x.data[tuple(i - 1 for i in idx)]


# ---------------------------------------------------------------- construction


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseTensor([1.0, np.nan])
    with pytest.raises(ValueError):
        DenseTensor([np.inf, 0.0])


def test_rejects_empty_and_scalar():
    with pytest.raises(ValueError):
        DenseTensor(np.zeros(()))
    with pytest.raises(ValueError):
        DenseTensor(np.zeros((2, 0)))


def test_size_must_match_shape():
    with pytest.raises(ValueError):
        DenseTensor([1.0, 2.0, 3.0], shape=(2, 2))


def test_value_semantics():
    x = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
    y = DenseTensor([1.0, 2.0, 3.0, 4.0], shape=(2, 2))
    assert x == y
    assert hash(x) == hash(y)
    assert x != DenseTensor([[1.0, 2.0], [3.0, 5.0]])
    with pytest.raises(ValueError):
        x.data[0, 0] = 9.0  # read-only storage


def test_negative_zero_hashes_like_zero():
    a, b = DenseTensor([0.0, 1.0]), DenseTensor([-0.0, 1.0])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # the hash reads the entries in row-major order whatever the layout
    c = np.arange(6.0).reshape(2, 3)
    assert hash(DenseTensor(c)) == hash(DenseTensor(np.asfortranarray(c)))


# ----------------------------------------------------------------- subtensors


def test_identity_selection_returns_equal_tensor():
    x = counterexample_2x3x4()
    assert subtensor(x, IndexSelection.full(x.shape)) == x


def test_identity_tensor_diagonal_restriction():
    got = subtensor(identity_tensor(3, 3), IndexSelection.of((1, 2), (1, 2), (1, 2)))
    assert got == identity_tensor(3, 2)


def test_subtensor_matches_nested_loop_oracle():
    x = random_tensor((3, 4, 5), seed=11)
    sel = IndexSelection.of((2,), (1, 3), (4, 5))
    y = subtensor(x, sel)
    assert y.shape == (1, 2, 2)
    for j_idx in all_indices(y.shape):
        src = tuple(sel.indices[l][j - 1] for l, j in enumerate(j_idx))
        assert entry(y, j_idx) == entry(x, src)


def test_selection_errors():
    x = random_tensor((2, 3), seed=0)
    with pytest.raises(SelectionError):
        subtensor(x, IndexSelection.of((1,), (4,)))  # out of range
    with pytest.raises(SelectionError):
        IndexSelection.of((), (1,))  # empty mode
    with pytest.raises(SelectionError):
        IndexSelection.of((2, 1), (1,))  # not increasing
    with pytest.raises(SelectionError):
        IndexSelection.of((1, 1), (1,))  # duplicate
    with pytest.raises(SelectionError):
        subtensor(x, IndexSelection.of((1,)))  # wrong mode count
    with pytest.raises(SelectionError, match="indices are 1-based"):
        IndexSelection.of((0, 1), (1,))
    with pytest.raises(SelectionError, match="at least one mode"):
        IndexSelection(())


def p_row(x, p, q):
    """The q-th p-row as a subtensor: mode p pinned to index q."""
    return subtensor(x, IndexSelection.p_rows(x.shape, p, (q,)))


def test_p_row_matrix_cases():
    m = DenseTensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert p_row(m, 1, 2).data.tolist() == [[4.0, 5.0, 6.0]]
    assert p_row(m, 2, 1).data.tolist() == [[1.0], [4.0]]


def test_p_row_counterexample_slice():
    # second 1-row of the 2x3x4 counterexample has its single nonzero at (1,1,4)
    x = counterexample_2x3x4()
    row = p_row(x, 1, 2)
    assert row.shape == (1, 3, 4)
    nz = np.argwhere(row.data != 0.0)
    assert nz.tolist() == [[0, 0, 3]]


def test_p_row_range_errors():
    x = random_tensor((2, 3), seed=0)
    for p in (0, 3):
        with pytest.raises(SelectionError, match=rf"mode {p} out of range 1\.\.2"):
            p_row(x, p, 1)
    with pytest.raises(SelectionError, match=r"mode 1: index 5 out of range 1\.\.2"):
        p_row(x, 1, 5)


# --------------------------------------------------------------- permutations


def test_permute_identity_and_transpose():
    x = random_tensor((3, 4), seed=5)
    assert permute_modes(x, (1, 2)) == x
    assert np.array_equal(permute_modes(x, (2, 1)).data, x.data.T)


def test_permute_matches_reindexing_oracle():
    x = counterexample_2x3x4()
    sigma = (3, 1, 2)  # new mode k holds old mode sigma[k]
    y = permute_modes(x, sigma)
    assert y.shape == (4, 2, 3)
    for new_idx in all_indices(y.shape):
        old_idx = [0, 0, 0]
        for k, s in enumerate(sigma):
            old_idx[s - 1] = new_idx[k]
        assert entry(y, new_idx) == entry(x, tuple(old_idx))


def test_permute_then_inverse_is_identity():
    x = random_tensor((2, 3, 4), seed=21)
    sigma = (3, 1, 2)
    inverse = tuple(np.argsort([s - 1 for s in sigma]) + 1)
    assert permute_modes(permute_modes(x, sigma), inverse) == x


def test_permute_errors():
    x = random_tensor((2, 2, 2), seed=1)
    with pytest.raises(ValueError):
        permute_modes(x, (1, 2))
    with pytest.raises(ValueError):
        permute_modes(x, (1, 1, 2))


# -------------------------------------------------------------- outer product


def test_outer_product_single_nonzero():
    x = outer_product([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    assert np.array_equal(x.data, expected)


def test_outer_product_rank_one_matrix():
    assert outer_product([[1.0, 2.0], [1.0, 1.0]]).data.tolist() == [[1.0, 1.0], [2.0, 2.0]]


def test_outer_product_formula_oracle():
    vs = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    x = outer_product(vs)
    for idx in all_indices((2, 2, 2)):
        assert entry(x, idx) == vs[0][idx[0] - 1] * vs[1][idx[1] - 1] * vs[2][idx[2] - 1]


def test_outer_product_rejects_zero_vector():
    with pytest.raises(ValueError):
        outer_product([[1.0, 2.0], [0.0, 0.0]])


# ------------------------------------------------------------ identity tensor


def test_identity_small_cases():
    assert np.array_equal(identity_tensor(2, 3).data, np.eye(3))
    i32 = identity_tensor(3, 2)
    assert entry(i32, (1, 1, 1)) == 1.0 and entry(i32, (2, 2, 2)) == 1.0
    assert frobenius_norm(i32) == pytest.approx(np.sqrt(2))


def test_identity_as_sum_of_unit_outer_products():
    n = 3
    acc = np.zeros((n,) * 4)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        acc += outer_product([e, e, e, e]).data
    assert np.array_equal(identity_tensor(4, n).data, acc)


def test_identity_requires_order_two():
    with pytest.raises(ValueError):
        identity_tensor(1, 3)


# ------------------------------------------------------------------ unfolding


def unfold_oracle(x, mode):
    """Column formula: remaining modes in increasing order, earliest fastest."""
    shape = x.shape
    m = len(shape)
    rest = [l for l in range(m) if l != mode - 1]
    M = np.zeros((shape[mode - 1], int(np.prod([shape[l] for l in rest]))))
    for idx in all_indices(shape):
        col = 0
        stride = 1
        for l in rest:
            col += (idx[l] - 1) * stride
            stride *= shape[l]
        M[idx[mode - 1] - 1, col] = entry(x, idx)
    return M


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfold_matches_index_arithmetic_oracle(mode):
    x = random_tensor((2, 3, 4), seed=2)
    assert np.array_equal(unfold(x, mode), unfold_oracle(x, mode))


def test_unfold_matrix_modes():
    x = random_tensor((3, 5), seed=3)
    assert np.array_equal(unfold(x, 1), x.data)
    assert np.array_equal(unfold(x, 2), x.data.T)


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_unfold_identity_has_identity_block(mode):
    M = unfold(identity_tensor(3, 4), mode)
    assert np.linalg.matrix_rank(M) == 4


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError):
        unfold(random_tensor((2, 2), seed=0), 3)


def test_fold_round_trip_and_vector_shape():
    x = random_tensor((4, 2, 3), seed=9)
    assert fold(unfold(x, 2), 2, x.shape) == x
    v = fold(np.arange(6, dtype=float).reshape(1, 6), 1, (1, 2, 3))
    assert v.shape == (1, 2, 3)


def test_fold_detects_convention_drift():
    # negative control: permuting unfolding columns must not fold back to x
    x = random_tensor((2, 3, 4), seed=4)
    M = unfold(x, 2)
    scrambled = M[:, ::-1].copy()
    assert fold(scrambled, 2, x.shape) != x


def test_fold_dimension_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((2, 5)), 1, (2, 2, 3))


# --------------------------------------------------------------- mode product


def test_mode_product_identity():
    x = random_tensor((3, 4, 2), seed=6)
    assert mode_product(x, np.eye(4), 2) == x


def test_mode_product_rank_one_oracle():
    u, v, w = [1.0, 2.0], [1.0, -1.0, 2.0], [0.5, 3.0]
    A = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    got = mode_product(outer_product([u, v, w]), A, 1)
    assert np.allclose(got.data, outer_product([A @ np.array(u), v, w]).data)


def test_mode_product_contracts_identity_tensor():
    # summing the first mode of the order-3 identity leaves the order-2 diagonal pattern
    n = 4
    ones = np.ones((1, n))
    got = mode_product(identity_tensor(3, n), ones, 1)
    assert got == fold(np.eye(n), 2, (1, n, n))


def test_mode_product_unfolding_contract():
    x = random_tensor((3, 4, 5), seed=8)
    A = np.arange(8, dtype=float).reshape(2, 4)
    y = mode_product(x, A, 2)
    assert y.shape == (3, 2, 5)
    assert np.allclose(unfold(y, 2), A @ unfold(x, 2))


def test_mode_product_dimension_error():
    with pytest.raises(ValueError):
        mode_product(random_tensor((3, 4), seed=0), np.zeros((2, 3)), 2)


def test_an_overflowing_mode_product_is_a_numeric_error():
    x = DenseTensor(np.full((2, 3), 1e308))
    with pytest.raises(NumericError, match="^mode-1 product of a 2x3 tensor overflows float64$"):
        mode_product(x, np.ones((1, 2)), 1)
    for bad in (np.inf, np.nan):  # the matrix itself is not finite: a usage error
        with pytest.raises(ValueError, match="must be finite"):
            mode_product(x, [[bad, 0.0]], 1)


# --------------------------------------------------------- scale / add / norm


def test_scale_add_norm_trivia():
    x = random_tensor((2, 3), seed=7)
    assert scale(x, 1.0) == x
    assert frobenius_norm(identity_tensor(3, 4)) == 2.0
    assert add(x, scale(x, -1.0)).is_zero()
    with pytest.raises(ValueError):
        add(x, random_tensor((3, 2), seed=7))


def test_norm_past_float64_is_a_numeric_error():
    assert frobenius_norm(DenseTensor([1e308, 1e308])) == pytest.approx(math.sqrt(2) * 1e308)  # still finite
    with pytest.raises(NumericError, match="Frobenius norm of a 2x2 tensor exceeds the float64 range"):
        frobenius_norm(DenseTensor([[1e308, -1e308], [1e308, 1e308]]))


def test_adding_or_subtracting_a_non_tensor_raises_type_error():
    x = DenseTensor([1.0, 2.0])
    with pytest.raises(TypeError):
        x + 1.0
    with pytest.raises(TypeError):
        x - 1.0


def test_subtraction_has_the_bits_of_adding_the_negation():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5, 3)) * 10.0 ** rng.integers(-310, 300, size=(4, 5, 3))
    b = rng.standard_normal((4, 5, 3)) * 10.0 ** rng.integers(-310, 300, size=(4, 5, 3))
    a[0, 0, :] = [0.0, -0.0, 0.0]  # signed zeros on both sides
    b[0, 0, :] = [0.0, 0.0, -0.0]
    b[1] = a[1]  # exact cancellation
    x, y = DenseTensor(a), DenseTensor(b)
    for p, q in ((x, y), (y, x), (permute_modes(x, (3, 1, 2)), permute_modes(y, (3, 1, 2)))):
        got = p - q
        assert got.data.tobytes() == add(p, scale(q, -1.0)).data.tobytes()
        assert not got.data.flags.writeable
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            DenseTensor([1e308]) - DenseTensor([-1e308])
    with pytest.raises(ValueError, match="shape mismatch"):
        x - DenseTensor(a[:, :, :2])


# ------------------------------------------------------------------ properties

small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(shape=small_shapes, seed=st.integers(0, 10_000))
def test_fold_unfold_round_trip_bitwise(shape, seed):
    x = random_tensor(shape, seed=seed)
    for mode in range(1, len(shape) + 1):
        back = fold(unfold(x, mode), mode, shape)
        assert back.data.tobytes() == x.data.tobytes()


@settings(max_examples=40, deadline=None)
@given(shape=small_shapes, seed=st.integers(0, 10_000), data=st.data())
def test_subtensor_composition(shape, seed, data):
    x = random_tensor(shape, seed=seed)
    outer = IndexSelection(
        tuple(
            tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
            for n in shape
        )
    )
    inner = IndexSelection(
        tuple(
            tuple(sorted(data.draw(st.sets(st.integers(1, k), min_size=1))))
            for k in outer.result_shape()
        )
    )
    assert subtensor(subtensor(x, outer), inner) == subtensor(x, outer.compose(inner))


@settings(max_examples=40, deadline=None)
@given(
    shape=small_shapes,
    seed=st.integers(0, 10_000),
    alpha=st.floats(-8, 8, allow_nan=False, width=32),
)
def test_norm_absolute_homogeneity(shape, seed, alpha):
    x = random_tensor(shape, seed=seed)
    assert frobenius_norm(scale(x, alpha)) == pytest.approx(abs(alpha) * frobenius_norm(x))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_permutation_keeps_row_multisets(seed):
    x = random_tensor((2, 3, 4), seed=seed)
    sigma = (3, 1, 2)
    y = permute_modes(x, sigma)
    for new_mode, old_mode in enumerate(sigma, start=1):
        rows_y = unfold(y, new_mode)
        rows_x = unfold(x, old_mode)
        for ry, rx in zip(rows_y, rows_x):
            assert sorted(ry.tolist()) == sorted(rx.tolist())


def test_mode_products_commute_across_modes():
    x = random_tensor((3, 4, 2), seed=13, integer=True)
    A = np.arange(12, dtype=float).reshape(4, 3)
    B = np.arange(8, dtype=float).reshape(2, 4)
    one_way = mode_product(mode_product(x, A, 1), B, 2)
    other = mode_product(mode_product(x, B, 2), A, 1)
    assert one_way == other


# ------------------------------------------------- one-copy unfold, no recopy

def reference_unfold(x, mode):
    """The moved-axes, F-order reshape and copy that unfold replaced."""
    j = mode - 1
    return np.array(np.moveaxis(x.data, j, 0).reshape(x.shape[j], -1, order="F"))


def layout(a):
    return a.shape, a.tobytes(), a.flags.c_contiguous, a.flags.f_contiguous


def test_unfold_matches_the_reference_copy_in_bytes_and_layout():
    rng = np.random.default_rng(3)
    for order in range(1, 5):
        for shape in itertools.product((1, 2, 3), repeat=order):
            x = DenseTensor(rng.standard_normal(shape))
            for mode in range(1, order + 1):
                M = unfold(x, mode)
                assert layout(M) == layout(reference_unfold(x, mode))
                assert M.flags.writeable and not np.shares_memory(M, x.data)


def test_derived_tensors_keep_the_constructor_layout():
    rng = np.random.default_rng(4)
    for shape in [(3,), (2, 3), (1, 4, 2), (3, 1, 2, 2)]:
        x = DenseTensor(rng.standard_normal(shape))
        sel = IndexSelection(tuple(tuple(range(1, n + 1, 2)) for n in shape))
        grid = np.ix_(*[np.asarray(m) - 1 for m in sel.indices])
        cases = [(subtensor(x, sel), DenseTensor(x.data[grid]))]
        for sigma in itertools.permutations(range(1, len(shape) + 1)):
            y = permute_modes(x, sigma)
            cases.append((y, DenseTensor(np.transpose(x.data, [s - 1 for s in sigma]))))
            # permuted layouts carry over to scaled and added tensors
            cases.append((scale(y, -2.5), DenseTensor(-2.5 * y.data)))
            cases.append((add(y, y), DenseTensor(y.data + y.data)))
        for got, ref in cases:
            assert got == ref
            assert layout(got.data) == layout(ref.data) and got.data.strides == ref.data.strides
            assert not got.data.flags.writeable and not np.shares_memory(got.data, x.data)
    with np.errstate(over="ignore"):  # overflow is still rejected
        with pytest.raises(ValueError, match="finite"):
            scale(DenseTensor([1e308]), 10.0)
        with pytest.raises(ValueError, match="finite"):
            add(DenseTensor([1e308]), DenseTensor([1e308]))


def test_subtensor_copies_into_c_order_from_any_layout():
    rng = np.random.default_rng(5)
    x = DenseTensor(rng.standard_normal((3, 1, 4, 2)))
    for y in (x, permute_modes(x, (3, 1, 4, 2))):  # C order, then a transposed layout
        full = [tuple(range(1, n + 1)) for n in y.shape]
        for drop in itertools.product((False, True), repeat=y.order):
            sel = IndexSelection(tuple(m[::2] if d else m for m, d in zip(full, drop)))
            got = subtensor(y, sel)
            ref = y.data[np.ix_(*[np.asarray(m) - 1 for m in sel.indices])]
            assert layout(got.data) == layout(np.ascontiguousarray(ref))
            assert not got.data.flags.writeable and not np.shares_memory(got.data, y.data)
