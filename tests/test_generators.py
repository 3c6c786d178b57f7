"""Generator determinism and the promised structural properties."""
import numpy as np

from tenrank import n_rank
from tenrank.generators import (
    block_pair,
    counterexample_2x3x4,
    counterexample_3x2x2,
    planted_tucker,
    random_rank_one,
    random_tensor,
    tucker_structured,
)


def test_same_seed_same_bytes():
    a = random_tensor((4, 5), seed=42)
    b = random_tensor((4, 5), seed=42)
    assert a.data.tobytes() == b.data.tobytes()
    assert random_tensor((4, 5), seed=43) != a


def test_counterexamples_are_parameter_free_and_stable():
    assert counterexample_2x3x4() == counterexample_2x3x4()
    assert counterexample_3x2x2() == counterexample_3x2x2()
    assert counterexample_2x3x4().data.sum() == 4.0


def test_rank_one_generator():
    x = random_rank_one((3, 2, 4), seed=5)
    assert n_rank(x) == (1, 1, 1)


def test_tucker_structured_rank_profile():
    x = tucker_structured((6, 5, 4), (3, 2, 2), seed=1)
    assert n_rank(x) == (3, 2, 2)


def test_block_pair_profiles():
    y, z = block_pair(seed=3)
    assert y.shape == z.shape == (8, 8, 8)
    assert n_rank(y) == (4, 3, 2)
    assert n_rank(z) == (3, 4, 2)
    # disjoint supports
    assert not np.any(y.data * z.data)


def test_planted_tucker_properties():
    x = planted_tucker((30, 6, 6), (5, 2, 2), snr_db=20, seed=7)
    assert x.shape == (30, 6, 6)
    assert np.all(x.data >= 0.0)
    again = planted_tucker((30, 6, 6), (5, 2, 2), snr_db=20, seed=7)
    assert x.data.tobytes() == again.data.tobytes()
