"""CP rank bounds: exact bounds and the hyperdeterminant sign."""
import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank import CpBounds, DenseTensor, cp_bounds, max_tucker, submax_tucker
from tenrank.cp import hyperdeterminant_sign
from tenrank.generators import matrix_embedded, random_rank_one, zero_tensor
from tenrank.tensor import identity_tensor, outer_product


def test_rank_one_bounds():
    x = random_rank_one((3, 4, 2), seed=1)
    b = cp_bounds(x)
    assert b.lower == 1
    assert b.upper == 1


def test_identity_bounds():
    # its three diagonal terms make the CP rank 3, but no exact rule bounds it above
    assert cp_bounds(identity_tensor(3, 3)) == CpBounds(lower=3, upper=None)


def test_two_term_3x3x3_sum_bounds():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 3))
    v = rng.standard_normal((3, 3))
    x = outer_product(u) + outer_product(v)
    assert cp_bounds(x) == CpBounds(lower=2, upper=None)


def test_zero_tensor_bounds():
    assert cp_bounds(zero_tensor((2, 2, 2))) == CpBounds(lower=0, upper=0)


def test_unknown_upper_bound():
    # no rule bounds the CP rank of a 4x4x4 tensor without a certificate
    x = identity_tensor(3, 4)
    b = cp_bounds(x)
    assert b.lower == 4
    assert b.upper is None


def test_bounds_ordering_enforced():
    with pytest.raises(ValueError):
        CpBounds(lower=3, upper=2)


def test_order_one_rejected():
    with pytest.raises(ValueError):
        cp_bounds(DenseTensor([1.0, 2.0]))


def _reference_hyperdeterminant(a) -> int:
    """Cayley's hyperdeterminant of a 2x2x2 integer array, expanded term by term."""
    (a000, a001), (a010, a011) = a[0]
    (a100, a101), (a110, a111) = a[1]
    return (
        a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
        - 2 * a000 * a001 * a110 * a111 - 2 * a000 * a010 * a101 * a111
        - 2 * a000 * a100 * a011 * a111 - 2 * a001 * a010 * a101 * a110
        - 2 * a001 * a100 * a011 * a110 - 2 * a010 * a100 * a011 * a101
        + 4 * a000 * a011 * a101 * a110 + 4 * a001 * a010 * a100 * a111
    )


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


# frontal slices I2 and the quarter turn [[0, -1], [1, 0]]: hyperdeterminant -4
WITNESS = DenseTensor(np.stack([np.eye(2), [[0.0, -1.0], [1.0, 0.0]]], axis=2))


def test_witness_cp_rank_exceeds_max_tucker():
    assert _reference_hyperdeterminant(WITNESS.data.astype(int).tolist()) == -4
    assert cp_bounds(WITNESS) == CpBounds(lower=3, upper=3)
    assert max_tucker()(WITNESS) == submax_tucker()(WITNESS) == 2
    for shape in [(2, 1, 2, 2), (2, 2, 2, 1, 1)]:
        assert cp_bounds(DenseTensor(WITNESS.data.reshape(shape))) == CpBounds(lower=3, upper=3)


def test_w_tensor_is_bracketed():
    # e112 + e121 + e211 has hyperdeterminant 0 and real CP rank 3
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = a[0, 1, 0] = a[1, 0, 0] = 1.0
    assert hyperdeterminant_sign(a) == 0
    # two terms reach W to any residual, (1/t)[(e1 + t e2)^3 - e1^3] at small t,
    # so its border rank is 2: no approximate factor set can prove the upper bound
    assert cp_bounds(DenseTensor(a)) == CpBounds(lower=2, upper=3)


def test_generic_two_term_2x2x2_sum():
    rng = np.random.default_rng(11)
    x = outer_product(rng.standard_normal((3, 2))) + outer_product(rng.standard_normal((3, 2)))
    assert hyperdeterminant_sign(x.data) == 1
    assert cp_bounds(x) == CpBounds(lower=2, upper=2)


@pytest.mark.parametrize("trailing_ones", [0, 1, 3])
def test_matrices_get_exact_bounds(trailing_ones):
    m = np.arange(12.0).reshape(3, 4) ** 2  # rank 3
    x = matrix_embedded(m, trailing_ones)
    assert cp_bounds(x) == CpBounds(lower=3, upper=3)
    low_rank = matrix_embedded(np.outer([1.0, 2.0, 3.0], [1.0, -1.0]), trailing_ones)
    assert cp_bounds(low_rank) == CpBounds(lower=1, upper=1)


def test_sign_matches_the_expanded_formula_on_integer_tensors():
    rng = np.random.default_rng(0)
    for a in rng.integers(-3, 4, size=(2000, 2, 2, 2)):
        expected = _sign(_reference_hyperdeterminant(a.tolist()))
        assert hyperdeterminant_sign(a.astype(np.float64)) == expected


def _exact_integers(a) -> list:
    """The entries of a 2x2x2 array times 2^1074, which is an integer for every float64."""
    ints = [n * (2**1074 // d) for n, d in (float(v).as_integer_ratio() for v in a.reshape(-1))]
    return [[ints[0:2], ints[2:4]], [ints[4:6], ints[6:8]]]


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.integers(-50, 50), min_size=8, max_size=8), k=st.integers(-300, 300))
def test_sign_is_exact_at_every_scale(entries, k):
    a = np.array(entries, dtype=np.float64).reshape(2, 2, 2)
    unscaled = _sign(_reference_hyperdeterminant(a.astype(int).tolist()))
    # a power of two scales every entry exactly, so the sign cannot move
    assert hyperdeterminant_sign(a * 2.0 ** (3 * k)) == unscaled
    # 10^k rounds the entries; the sign is that of the rounded tensor, even
    # where the degree-4 polynomial under- or overflows in floating point
    scaled = a * 10.0**k
    assert hyperdeterminant_sign(scaled) == _sign(_reference_hyperdeterminant(_exact_integers(scaled)))


def test_bounds_and_signs_on_every_2x2x2_tensor_over_minus_one_zero_one():
    counts = collections.Counter()
    for entries in itertools.product((-1, 0, 1), repeat=8):
        a = np.array(entries, dtype=np.float64).reshape(2, 2, 2)
        assert hyperdeterminant_sign(a) == _sign(_reference_hyperdeterminant(a.astype(int).tolist()))
        b = cp_bounds(DenseTensor(a))
        counts[b.lower, b.upper] += 1
    # (2, 3) is the W orbit: multilinear rank (2, 2, 2) and hyperdeterminant 0
    assert counts == {(0, 0): 1, (1, 1): 128, (2, 2): 4928, (2, 3): 960, (3, 3): 544}
