"""Full-rank detection, extraction (fast path vs enumeration), closures."""
import functools
import itertools
import warnings

import numpy as np
import pytest

from tenrank import (
    CapacityError,
    DenseTensor,
    FullRankCertificate,
    IndexSelection,
    NoFullRankError,
    NumericError,
    RankFunction,
    RankTolerance,
    closure_eval,
    closure_rank_function,
    extract_brute_force,
    extract_max_tucker,
    extract_nrank,
    identity_tensor,
    is_full_rank,
    matrix_rank,
    max_tucker,
    max_tucker_rank,
    min_rank,
    n_rank,
    row_basis,
    scale,
    standard_fixtures,
    submax_tucker,
    subtensor,
    unfold,
    verify_span_certificate,
    write_tensor,
)
from tenrank import fullrank
from tenrank.cli import main
from tenrank.fullrank import SEARCH_BUDGET, _walk_band
from tenrank.ranks import RANK_FUNCTIONS
from tenrank.generators import (
    counterexample_2x3x4,
    counterexample_3x2x2,
    random_rank_one,
    random_tensor,
    tucker_structured,
    zero_tensor,
)


def test_is_full_rank_cases():
    rmax = max_tucker()
    assert is_full_rank(rmax, identity_tensor(3, 3)) == (True, 1)
    assert is_full_rank(rmax, counterexample_2x3x4()) == (True, 3)
    assert is_full_rank(rmax, DenseTensor([[1.0, 1.0, 1.0]])) == (True, 1)
    assert is_full_rank(rmax, zero_tensor((2, 2))) == (True, None)
    # 3x2x2 counterexample has rank 3 = n_1
    assert is_full_rank(rmax, counterexample_3x2x2()) == (True, 1)


def test_extract_identity_returns_whole_tensor():
    x = identity_tensor(3, 3)
    sub, cert = extract_max_tucker(x)
    assert sub == x
    assert cert.mode == 1 and cert.indices == (1, 2, 3) and cert.rank == 3


def test_extract_counterexample_2x3x4():
    x = counterexample_2x3x4()
    sub, cert = extract_max_tucker(x)
    assert cert.mode == 3
    assert cert.indices == (1, 2, 3, 4)
    assert sub == x
    assert verify_span_certificate(x, cert)


def test_extract_duplicated_slices():
    # duplicating two mode-3 slices cannot raise the mode-3 rank above 4
    base = random_tensor((2, 3, 4), seed=5)
    stacked = np.concatenate([base.data, base.data[:, :, :2]], axis=2)
    x = DenseTensor(stacked)
    sub, cert = extract_max_tucker(x)
    assert cert.mode == 3
    assert len(cert.indices) == 4
    assert max_tucker_rank(sub) == max_tucker_rank(x) == 4
    assert verify_span_certificate(x, cert)
    _, brute = extract_brute_force(max_tucker(), x)
    assert brute.rank == cert.rank


@pytest.mark.parametrize("k", [-300, -200, -100, 100, 200, 300])
def test_extract_max_tucker_is_scale_invariant(k):
    x = tucker_structured((6, 7, 8), (2, 3, 2), seed=1)
    _, ref = extract_max_tucker(x)
    y = scale(x, 10.0**k)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, cert = extract_max_tucker(y)
        assert verify_span_certificate(y, cert)
    assert cert.rank == ref.rank == max_tucker_rank(x)
    assert cert == ref


def test_extract_zero_tensor_convention():
    for extract in (extract_max_tucker, lambda x: extract_brute_force(max_tucker(), x)):
        sub, cert = extract(zero_tensor((2, 3, 2)))
        assert cert.mode is None and cert.rank == 0 and cert.indices == ()
        assert sub.shape == (1, 1, 1) and sub.is_zero()


def test_span_certificate_rejects_indices_that_are_no_increasing_rows_of_x():
    from tenrank.fullrank import FullRankCertificate

    x = DenseTensor(np.outer([1.0, 2.0, 3.0], [1.0, 1.0]))
    full = IndexSelection(((1, 2, 3), (1, 2)))
    assert verify_span_certificate(x, FullRankCertificate(1, (2,), 1, IndexSelection.of((2,), (1, 2))))
    for indices in [(0,), (1, 1), (5,)]:
        assert not verify_span_certificate(x, FullRankCertificate(1, indices, 1, full))
    assert not verify_span_certificate(x, FullRankCertificate(1, (1, 2), 1, full))  # two rows, rank 1
    assert not verify_span_certificate(x, FullRankCertificate(3, (1,), 1, full))  # no mode 3


def test_span_certificate_with_a_mode_and_rank_0_is_refused():
    # value 0 has no mode, so a mode claims its dimension, at least 1
    x = counterexample_2x3x4()
    for mode in (1, 2, 3):
        assert not verify_span_certificate(x, FullRankCertificate(mode, (), 0, IndexSelection.full((2, 3, 4))))
    assert not verify_span_certificate(zero_tensor((2, 3)), FullRankCertificate(1, (), 0, IndexSelection.full((2, 3))))


def test_span_certificate_rejects_wrong_indices():
    x = counterexample_2x3x4()
    _, cert = extract_max_tucker(x)
    from tenrank.fullrank import FullRankCertificate

    bad = FullRankCertificate(3, (1, 2), 2, cert.selection)
    assert not verify_span_certificate(x, bad)


def test_span_certificate_refuses_a_selection_that_is_not_its_p_rows():
    x = counterexample_2x3x4()
    _, cert = extract_max_tucker(x)
    assert cert == FullRankCertificate(3, (1, 2, 3, 4), 4, IndexSelection.full((2, 3, 4)))
    assert verify_span_certificate(x, cert)
    # the mode-3 claim holds for x, but this selection is a 1x1x4 subtensor of max-Tucker rank 1
    assert not verify_span_certificate(x, FullRankCertificate(3, (1, 2, 3, 4), 4, IndexSelection.of((1,), (1,), (1, 2, 3, 4))))
    assert not verify_span_certificate(x, FullRankCertificate(3, (1, 2, 3, 4), 4, IndexSelection.full((2, 3, 5))))


def _per_row_span_check(x, cert, tol):
    """The span check as one rank per dropped row: the kept p-rows have rank
    r, and each dropped p-row appended to them leaves it r.  A certificate
    that keeps no row is refused: value 0 has no mode."""
    M = unfold(x, cert.mode)
    kept = [i - 1 for i in cert.indices]
    if not kept or matrix_rank(M[kept], tol) != cert.rank:
        return False
    return all(matrix_rank(M[kept + [q]], tol) == cert.rank for q in range(M.shape[0]) if q not in kept)


# every subset, at every size, of the rows of the mode of each max and
# submax certificate on the seed-101 battery fixtures
@functools.cache
def _row_subset_certificates():
    cases = []
    for fixture in standard_fixtures(seed=101).tensors:
        x = fixture.tensor
        for rf in [make() for make in RANK_FUNCTIONS.values()]:
            _, cert = extract_nrank(rf, x)
            if cert.mode is None:
                continue
            n = x.shape[cert.mode - 1]
            for size in range(n + 1):
                for kept in itertools.combinations(range(1, n + 1), size):
                    # the empty subset is refused for rank 0 before its selection is read
                    sel = IndexSelection.p_rows(x.shape, cert.mode, kept) if kept else cert.selection
                    cases.append((x, FullRankCertificate(cert.mode, kept, size, sel)))
    return cases


# The two forms agree in exact arithmetic.  Under a coarse tolerance they
# need not: a relative threshold scales with sigma_max of M in one and of
# M[kept + [q]] in the other, and rows that each leave the rank at r alone
# may raise it together.  So they are compared at fine tolerances and at one
# that zeroes every rank.
@pytest.mark.parametrize(
    "tol",
    [RankTolerance(), RankTolerance("absolute", 1e-6), RankTolerance("relative", 1.0)],
    ids=lambda t: t.describe(),
)
def test_two_rank_span_check_agrees_with_the_per_row_check_on_every_row_subset(tol):
    cases = _row_subset_certificates()
    assert len(cases) == 10_888
    verdicts = [verify_span_certificate(x, cert, tol) for x, cert in cases]
    assert verdicts == [_per_row_span_check(x, cert, tol) for x, cert in cases]
    expected_true = 0 if tol.value == 1.0 else 1342
    assert (verdicts.count(True), verdicts.count(False)) == (expected_true, 10_888 - expected_true)


@pytest.mark.parametrize(
    "tol", [RankTolerance("relative", 0.5), RankTolerance("absolute", 1.0)], ids=lambda t: t.describe()
)
def test_extract_nrank_certificates_verify_under_a_coarse_tolerance(tol):
    # the two-rank form is the claim extract_nrank makes, so its certificates
    # hold at any tolerance (the per-row form refuses 13 of them at relative:0.5)
    verified = 0
    for fixture in standard_fixtures(seed=101).tensors:
        x = fixture.tensor
        for rf in [make(tol) for make in RANK_FUNCTIONS.values()]:
            try:
                _, cert = extract_nrank(rf, x)
            except (NumericError, NoFullRankError):  # tolerance effects, or value 0 and no zero entry
                continue
            assert verify_span_certificate(x, cert, tol)
            verified += 1
    assert verified > 400


def test_a_certificate_with_no_mode_holds_on_a_zero_subtensor_only():
    tol = RankTolerance("absolute", 100.0)
    x = DenseTensor([[0.0, 2.0], [3.0, 4.0]])
    for rf in [make(tol) for make in RANK_FUNCTIONS.values()]:
        for extract in (extract_nrank, extract_brute_force):
            _, cert = extract(rf, x)
            assert cert == FullRankCertificate(None, (), 0, IndexSelection.of((1,), (1,)))
            assert verify_span_certificate(x, cert, tol)
    zero_entry = FullRankCertificate(None, (), 0, IndexSelection.of((1,), (1,)))
    assert not verify_span_certificate(x, zero_entry)  # n-rank (2, 2): no unfolding has rank 0
    assert not verify_span_certificate(x, FullRankCertificate(None, (), 0, IndexSelection.of((1,), (2,))), tol)
    assert not verify_span_certificate(x, FullRankCertificate(None, (), 1, IndexSelection.of((1,), (1,))), tol)
    assert not verify_span_certificate(x, FullRankCertificate(None, (), 0, IndexSelection.of((3,), (1,))), tol)
    assert verify_span_certificate(zero_tensor((2, 3)), FullRankCertificate(None, (), 0, IndexSelection.full((2, 3))))


def iter_selections(shape):
    """Every per-mode nonempty selection in the search's order: by decreasing
    largest kept dimension, then lexicographically within a band."""
    for d in range(max(shape), 0, -1):
        for combo in _walk_band(tuple(shape), d, lambda sizes, chosen: True):
            yield IndexSelection(combo)


def test_enumeration_order_is_documented_one():
    sels = list(iter_selections((2, 2)))
    as_lists = [tuple(tuple(m) for m in s.indices) for s in sels]
    # maximum kept dimension 2 first, lexicographic inside each band
    assert as_lists[0] == ((1,), (1, 2))
    assert as_lists[-1] == ((2,), (2,))
    max_dims = [max(len(m) for m in s) for s in as_lists]
    assert max_dims == sorted(max_dims, reverse=True)
    assert len(as_lists) == 9  # (2^2-1)^2


def test_brute_force_agrees_with_fast_path_on_batch():
    rmax = max_tucker()
    rng = np.random.default_rng(2)
    for trial in range(12):
        order = int(rng.integers(2, 4))
        shape = tuple(int(d) for d in rng.integers(2, 5, size=order))
        if trial % 3 == 0:
            core = tuple(max(1, d - 1) for d in shape)
            x = tucker_structured(shape, core, seed=trial)
        else:
            x = random_tensor(shape, seed=trial)
        _, fast = extract_max_tucker(x)
        _, brute = extract_brute_force(rmax, x)
        assert fast.rank == brute.rank == max_tucker_rank(x)


def test_brute_force_under_submax_frozen_regression():
    # enumeration under the submax rank on the 2x3x4 counterexample:
    # the mode-2 full slice of the first 1-row already attains the closure value 3
    x = counterexample_2x3x4()
    sub, cert = extract_brute_force(submax_tucker(), x)
    assert cert.rank == 3
    assert cert.mode == 2
    assert cert.selection.indices == ((1,), (1, 2, 3), (1, 2, 3, 4))
    assert closure_eval(submax_tucker(), x) == 3


def test_closure_examples():
    rsub = submax_tucker()
    assert closure_eval(rsub, random_rank_one((2, 3, 2), seed=3)) == 1
    assert closure_eval(rsub, identity_tensor(3, 3)) == 3
    assert closure_eval(max_tucker(), identity_tensor(3, 3)) == 3


def test_closure_of_max_equals_max_on_fixtures():
    rmax = max_tucker()
    closure = closure_rank_function(rmax)
    for seed in range(10):
        x = random_tensor((3, 2, 4), seed=seed)
        assert closure(x) == rmax(x)


def test_closure_below_submax_and_idempotent():
    rsub = submax_tucker()
    closure = closure_rank_function(rsub)
    double = closure_rank_function(closure)
    for seed in range(6):
        shape = ((2, 3), (2, 2, 3), (3, 3))[seed % 3]
        x = random_tensor(shape, seed=seed, integer=True)
        c = closure(x)
        assert c <= rsub(x)
        assert double(x) == c


def test_closure_monotone_under_subtensors():
    from tenrank import IndexSelection, subtensor

    rsub = submax_tucker()
    x = random_tensor((3, 3, 3), seed=12)
    c_full = closure_eval(rsub, x)
    sel = IndexSelection.of((1, 3), (1, 2), (2, 3))
    assert closure_eval(rsub, subtensor(x, sel)) <= c_full


def test_submax_closure_gap_search():
    # whether the submax rank always equals its closure is an open question;
    # this search only ever asserts the dominance direction, which always holds
    rsub = submax_tucker()
    rng_master = np.random.default_rng(99)
    gaps = 0
    for trial in range(40):
        order = int(rng_master.integers(2, 4))
        shape = tuple(int(d) for d in rng_master.integers(2, 5, size=order))
        x = random_tensor(shape, seed=(99, trial), integer=trial % 2 == 0)
        c, v = closure_eval(rsub, x), rsub(x)
        assert c <= v
        gaps += c < v
    # no strict gap has been observed on random fixtures; do not assert equality


def test_capacity_errors():
    with pytest.raises(CapacityError):  # mode dimension above the enumeration limit
        extract_brute_force(max_tucker(), DenseTensor(np.ones((9, 2))))
    with pytest.raises(CapacityError):  # 8,192 entries, above MAX_ENTRIES
        closure_eval(max_tucker(), DenseTensor(np.ones((8, 8, 8, 8, 2))))


def test_certificate_json_round_trip():
    import json

    _, cert = extract_max_tucker(counterexample_2x3x4())
    doc = json.loads(cert.dumps())
    assert doc == {
        "mode": 3,
        "indices": [1, 2, 3, 4],
        "rank": 4,
        "selection": [[1, 2], [1, 2, 3], [1, 2, 3, 4]],
    }


def _plain_order(shape):
    """The documented order by its definition: per-mode product of the
    lexicographically sorted subsets, filtered band by band."""
    subsets = []
    for n in shape:
        subs = [s for k in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), k)]
        subsets.append(sorted(subs))
    for d in range(max(shape), 0, -1):
        capped = [[s for s in subs if len(s) <= d] for subs in subsets]
        for combo in itertools.product(*capped):
            if max(len(s) for s in combo) == d:
                yield combo


def _reference_extract(rf, x):
    """The selection-by-selection search: every selection in the documented
    order, skipped by the shape bound and the largest kept dimension, stopped
    at rf(x).  Returns None when no subtensor is of full rank."""
    if x.is_zero():
        return (np.zeros((1,) * x.order).tobytes(), (None, (), 0, ((1,),) * x.order))
    ceiling = rf(x)
    best = None
    for combo in _plain_order(x.shape):
        sel = IndexSelection(combo)
        kshape = sel.result_shape()
        if best is not None:
            if rf.shape_bound is not None and rf.shape_bound(kshape) <= best[1][2]:
                continue
            if max(kshape) <= best[1][2]:
                continue
        y = subtensor(x, sel)
        if y.is_zero():
            r, mode = 0, None
        else:
            r = rf(y)
            mode = next((p for p, k in enumerate(kshape, start=1) if r == k), None)
            if mode is None:
                continue
        if best is None or r > best[1][2]:
            indices = sel.indices[mode - 1] if mode is not None else ()
            best = (y.data.tobytes(), (mode, indices, r, sel.indices))
            if r == ceiling:
                break
    return best


def _inflated():
    return RankFunction("inflated", lambda x: 0 if x.is_zero() else max_tucker_rank(x) + 1)


def _equivalence_batch(seed):
    rng = np.random.default_rng(seed)
    batch = []
    for order, high in ((1, 7), (2, 5), (3, 4), (4, 3)):
        for kind in range(5):
            shape = tuple(int(d) for d in rng.integers(1, high + 1, size=order))
            tag = (seed, order, kind)
            if kind == 0:
                x = random_tensor(shape, seed=tag)
            elif kind == 1:
                x = random_tensor(shape, seed=tag, integer=True)
            elif kind == 2:
                x = tucker_structured(shape, tuple(max(1, d - 1) for d in shape), seed=seed)
            elif kind == 3:
                x = random_rank_one(shape, seed=tag)
            else:
                base = random_tensor(shape, seed=tag)
                x = DenseTensor(np.concatenate([base.data, base.data[..., :1]], axis=-1))
            batch.append(x)
    return batch


def _sparse_batch(seed):
    rng = np.random.default_rng(seed)
    batch = []
    for order, high in ((2, 5), (3, 4), (4, 3)):
        for kind in range(4):
            shape = tuple(int(d) for d in rng.integers(1, high + 1, size=order))
            a = np.zeros(shape)
            if kind == 0:  # one nonzero entry in the last corner
                a[(-1,) * order] = 1.0
            elif kind == 1:  # one random nonzero entry
                a[tuple(int(rng.integers(n)) for n in shape)] = rng.standard_normal()
            else:  # a few to many nonzero entries
                keep = rng.random(shape) < (0.15 if kind == 2 else 0.4)
                a = np.where(keep, rng.integers(-2, 3, size=shape), 0).astype(float)
            batch.append(DenseTensor(a))
    return batch


def test_iter_selections_matches_the_plain_definition():
    for shape in [(1,), (4,), (2, 2), (3, 1, 2), (2, 3, 4), (2, 2, 2, 2), (1, 1, 3)]:
        assert [s.indices for s in iter_selections(shape)] == list(_plain_order(shape))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class_search_matches_the_selection_walk(seed):
    factories = [
        max_tucker,
        submax_tucker,
        lambda: min_rank(max_tucker(), submax_tucker()),
        lambda: closure_rank_function(submax_tucker()),
        lambda: closure_rank_function(closure_rank_function(submax_tucker())),
        _inflated,
    ]
    for x in _equivalence_batch(seed) + _sparse_batch(seed):  # sparse: zero-slab skips
        for make in factories:
            ref = _reference_extract(make(), x)
            if ref is None:
                with pytest.raises(NoFullRankError):
                    extract_brute_force(make(), x)
                continue
            sub, cert = extract_brute_force(make(), x)
            assert (sub.data.tobytes(), (cert.mode, cert.indices, cert.rank, cert.selection.indices)) == ref


def _orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _differential_batch(seed):
    """Seeded tensors for the differential test, one list per family."""
    rng = np.random.default_rng(seed)

    def shape():
        order = int(rng.integers(2, 5))
        return tuple(int(n) for n in rng.integers(1, (6, 5, 4, 3)[order - 1] + 1, size=order))

    families = {"integer": [], "sparse": [], "rank_one": [], "tucker": [], "graded": [], "diag_1e10": []}
    for i in range(6):
        tag = (seed, 7, i)
        families["integer"].append(random_tensor(shape(), seed=tag, integer=True))
        s = shape()
        keep = rng.random(s) >= 0.4  # about 40% zeros
        families["sparse"].append(DenseTensor(np.where(keep, rng.integers(-3, 4, size=s), 0).astype(float)))
        families["rank_one"].append(random_rank_one(shape(), seed=tag))
        s = shape()
        core = tuple(int(rng.integers(1, n + 1)) for n in s)
        families["tucker"].append(tucker_structured(s, core, seed=tag))
        # a core whose entries fall from 1 to 1e-16 along every mode, mixed
        # by random orthogonal factors
        s = shape()
        core = rng.standard_normal(s)
        for j, n in enumerate(s):
            grade = np.logspace(0, -16, n) if n > 1 else np.ones(1)
            core = core * grade.reshape((1,) * j + (n,) + (1,) * (len(s) - j - 1))
        for j, n in enumerate(s):
            core = np.moveaxis(np.tensordot(_orthogonal(rng, n), core, axes=(1, j)), 0, j)
        families["graded"].append(DenseTensor(core))
        a, b = 10.0 ** -rng.integers(0, 12, size=2)
        families["diag_1e10"].append(DenseTensor(np.diag([1e10, a, b])[:, :, None] * np.eye(3)))
    families["diag_1e10"][0] = DenseTensor(np.diag([1e10, 1e-7, 1e-7])[:, :, None] * np.eye(3))
    return families


@pytest.mark.parametrize("seed", [0, 1])
def test_search_matches_the_reference_on_a_differential_batch(seed):
    factories = {
        "max": max_tucker,
        "submax": submax_tucker,
        "min": lambda: min_rank(max_tucker(), submax_tucker()),
        "closure_submax": lambda: closure_rank_function(submax_tucker()),
        "max_absolute": lambda: max_tucker(RankTolerance("absolute", 1e-6)),
        "max_unbounded": lambda: RankFunction("max_unbounded", max_tucker_rank),
    }
    for family, tensors in _differential_batch(seed).items():
        for i, x in enumerate(tensors):
            for name, make in factories.items():
                ref = _reference_extract(make(), x)
                assert ref is not None, (family, i, name)
                sub, cert = extract_brute_force(make(), x)
                got = (sub.data.tobytes(), (cert.mode, cert.indices, cert.rank, cert.selection.indices))
                assert got == ref, (family, i, name)


def _counting(rf):
    calls = []

    def evaluator(x):
        calls.append(x.shape)
        return rf.evaluator(x)

    return RankFunction(rf.name, evaluator, shape_bound=rf.shape_bound), calls


def test_brute_force_evaluates_x_once_when_its_walk_reaches_the_full_selection():
    x = identity_tensor(3, 3)
    rf, calls = _counting(max_tucker())
    _, cert = extract_brute_force(rf, x)
    assert cert.selection.result_shape() == x.shape and cert.rank == 3
    assert len(calls) > 1 and calls.count(x.shape) == 1  # rf(x) for the ceiling, reused


@pytest.mark.parametrize("shape", [(8, 8, 8), (8, 8, 8, 8)])
def test_band_stop_ends_a_search_without_shape_bound(shape):
    rf, calls = _counting(_inflated())
    _, cert = extract_brute_force(rf, random_tensor(shape, seed=4))
    assert cert.rank == 8
    assert cert.selection.result_shape() == (1,) * (len(shape) - 2) + (7, 8)
    assert len(calls) == 8  # rf(x) and the band-8 shapes (1, ..., k, 8), k = 1..7


def test_search_budget_stops_a_search_whose_early_stops_never_fire():
    x = random_tensor((8, 8, 8), seed=5)
    # never of full rank on x itself, so neither the ceiling nor the band stop fires
    rf, calls = _counting(RankFunction("size_flag", lambda y: 1 + (y.size == x.size)))
    with pytest.raises(CapacityError, match="budget"):
        extract_brute_force(rf, x)
    assert len(calls) <= SEARCH_BUDGET + 1  # rf(x), then one evaluation per subtensor examined


@pytest.mark.parametrize(
    "core, make, evaluations",
    [
        ((8, 8, 1), max_tucker, 4721),
        ((8, 8, 1), submax_tucker, 1568),
        ((4, 4, 1), max_tucker, 711),
        ((4, 4, 1), submax_tucker, 711),
    ],
    ids=["core881-max", "core881-submax", "core441-max", "core441-submax"],
)
def test_search_budget_leaves_early_stopping_searches_alone(core, make, evaluations):
    x = tucker_structured((8, 8, 8), core, seed=0)
    rf, calls = _counting(make())
    _, cert = extract_brute_force(rf, x)
    assert cert.rank == core[0]
    # rf(x) and one evaluation per subtensor examined; a weaker prune examines more
    assert len(calls) <= evaluations < SEARCH_BUDGET


@pytest.mark.parametrize("shape", [(1,), (1, 1)])
def test_no_full_rank_subtensor_names_the_rank_function(shape):
    x = DenseTensor(np.full(shape, 2.0))
    with pytest.raises(NoFullRankError, match="inflated"):
        extract_brute_force(_inflated(), x)
    with pytest.raises(NoFullRankError):
        closure_eval(_inflated(), x)


def test_a_function_that_is_0_on_a_tensor_with_no_zero_entry_is_not_proper():
    rf = RankFunction("zero_everywhere", lambda y: 0)
    with pytest.raises(NoFullRankError, match="zero_everywhere .* is not a proper rank function"):
        extract_brute_force(rf, DenseTensor([[1.0, 2.0], [3.0, 4.0]]))


def test_the_search_stops_once_no_band_left_can_beat_the_best():
    # 2 on every subtensor with a dimension of 2 or more, but 4 on x itself:
    # the ceiling is never reached, so band 3 is walked to its end and band 2
    # can give no more than the best, 2, found there
    x = DenseTensor(np.arange(1.0, 10.0).reshape(3, 3))

    def evaluate(y):
        if y.is_zero():
            return 0
        return 4 if y == x else 2 if max(y.shape) >= 2 else 1

    _, cert = extract_brute_force(RankFunction("four_on_x", evaluate), x)
    assert (cert.rank, cert.selection.indices) == (2, ((1, 2), (1, 2, 3)))


def test_extract_max_tucker_factors_each_unfolding_once(monkeypatch):
    # 20x400 unfoldings: 2 * rows <= cols and 8000 entries, so each goes through one QR
    x = tucker_structured((20, 20, 20), (6, 5, 4), seed=3)
    calls = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    _, cert = extract_max_tucker(x)
    assert calls == [(400, 20)] * 3
    monkeypatch.undo()
    # the certificate of the separate n_rank + row_basis passes
    ranks = n_rank(x)
    p = ranks.index(max(ranks)) + 1
    assert (cert.mode, cert.indices, cert.rank) == (p, row_basis(unfold(x, p)), max(ranks))
    assert verify_span_certificate(x, cert)


def test_extract_nrank_needs_a_rule_on_the_n_rank():
    with pytest.raises(ValueError, match="extract_brute_force"):
        extract_nrank(closure_rank_function(submax_tucker()), counterexample_2x3x4())


def test_extract_nrank_checks_the_value_of_a_dropped_row_subtensor(monkeypatch, tmp_path):
    x = tucker_structured((6, 7, 8), (2, 3, 2), seed=1)  # max 3 in mode 2: rows dropped
    f = tmp_path / "x.tns"
    write_tensor(x, f)
    # mode 2 keeps its rank 3, but the rule gives 4
    monkeypatch.setattr(fullrank, "n_rank", lambda y, tol: (4, 3, 1))
    with pytest.raises(NumericError, match="mode-2"):
        extract_nrank(max_tucker(), x)
    assert main(["fullrank", str(f)]) == 5
    # mode 2 loses its rank: the kept rows are that unfolding of the subtensor
    monkeypatch.setattr(fullrank, "n_rank", lambda y, tol: (2, 2, 2))
    with pytest.raises(NumericError, match=r"row selection lost rank on 7x48 matrix \(target 3\)"):
        extract_nrank(max_tucker(), x)
    assert main(["fullrank", str(f)]) == 5
    # a basis that keeps every row returns x itself, unchecked
    sub, cert = extract_nrank(max_tucker(), identity_tensor(3, 3))
    assert sub == identity_tensor(3, 3) and cert.rank == 3


def test_extract_nrank_checks_a_dropped_row_subtensor_with_one_n_rank(monkeypatch):
    x = tucker_structured((6, 7, 8), (2, 3, 2), seed=1)  # max 3 in mode 2: rows dropped
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    _, cert = extract_nrank(max_tucker(), x)
    assert (cert.mode, cert.rank) == (2, 3)
    assert len(calls) == 6  # three unfoldings of x, then three of the subtensor


def test_extract_nrank_under_submax_beyond_the_search_caps():
    x = tucker_structured((100, 100, 90), (30, 20, 10), seed=3)
    sub, cert = extract_nrank(submax_tucker(), x)
    assert (cert.mode, cert.rank, sub.shape) == (2, 20, (100, 20, 90))
    assert n_rank(sub) == (30, 20, 10)
    with pytest.raises(CapacityError):
        extract_brute_force(submax_tucker(), x)


# tolerances under which every unfolding rank of the test tensors is 0
ZERO_RANK_TOLS = [
    RankTolerance("relative", float("inf")),
    RankTolerance("relative", 1.0),
    RankTolerance("absolute", 1e3),
]


@pytest.mark.parametrize("tol", ZERO_RANK_TOLS, ids=lambda t: t.describe())
@pytest.mark.parametrize("make", list(RANK_FUNCTIONS.values()))
def test_extract_nrank_at_value_zero_returns_a_zero_entry_as_brute_force_does(make, tol):
    rf = make(tol)
    x = counterexample_2x3x4()  # nonzero, with zero entries
    assert n_rank(x, tol) == (0, 0, 0)
    sub, cert = extract_nrank(rf, x)
    _, brute = extract_brute_force(rf, x)
    assert (cert.mode, cert.indices, cert.rank) == (brute.mode, brute.indices, brute.rank) == (None, (), 0)
    assert sub.is_zero() and sub.shape == (1, 1, 1)
    assert subtensor(x, cert.selection) == sub
    assert cert.selection.indices == ((1,), (1,), (2,))  # the first zero entry in C order
    assert verify_span_certificate(x, cert, tol) and verify_span_certificate(x, brute, tol)


@pytest.mark.parametrize("tol", ZERO_RANK_TOLS, ids=lambda t: t.describe())
@pytest.mark.parametrize("make", list(RANK_FUNCTIONS.values()))
def test_extract_nrank_at_value_zero_without_a_zero_entry_raises_as_brute_force_does(make, tol):
    rf = make(tol)
    x = DenseTensor(random_tensor((2, 3, 4), seed=1).data + 10.0)  # no zero entry
    assert n_rank(x, tol) == (0, 0, 0)
    with pytest.raises(NoFullRankError) as brute:
        extract_brute_force(rf, x)
    with pytest.raises(NoFullRankError) as fast:
        extract_nrank(rf, x)
    assert str(fast.value) == str(brute.value)


@pytest.mark.parametrize("tol", ZERO_RANK_TOLS, ids=lambda t: t.describe())
def test_search_at_value_zero_returns_at_once_and_names_the_tolerance(tol, monkeypatch):
    built = []
    monkeypatch.setattr(fullrank, "subtensor", lambda x, sel: built.append(sel) or subtensor(x, sel))
    _, cert = extract_brute_force(max_tucker(tol), counterexample_2x3x4())
    assert cert.selection.indices == ((1,), (1,), (2,))  # the first zero entry, as extract_nrank gives
    assert len(built) == 1  # that entry, and no walk before it
    x = DenseTensor(random_tensor((2, 3, 4), seed=1).data + 10.0)
    for make in RANK_FUNCTIONS.values():
        with pytest.raises(NoFullRankError) as exc:
            extract_brute_force(make(tol), x)
        assert str(exc.value) == (
            f"{make().name} is 0 under tolerance {tol.describe()} on a tensor of shape (2, 3, 4) "
            "with no zero entry, so no subtensor is of full rank"
        )
    assert len(built) == 1


def test_fullrank_cli_at_value_zero_matches_brute(tmp_path, capsys):
    dense = DenseTensor(random_tensor((2, 3, 4), seed=1).data + 10.0)
    for name, x in (("ce.tns", counterexample_2x3x4()), ("dense.tns", dense)):
        f = tmp_path / name
        write_tensor(x, f)
        for tol in ("inf", "1"):
            outputs = []
            for argv in (["fullrank"], ["fullrank", "--brute"], ["closure"]):
                code = main([argv[0], str(f), "--fn", "max", "--tol", tol, *argv[1:]])
                outputs.append((code, *capsys.readouterr()))
            if name == "ce.tns":
                assert outputs[0] == outputs[1] and outputs[0][0] == 0
                assert '"rank": 0' in outputs[0][1]
                assert outputs[2][:2] == (0, "closure_max_tucker=0\n")
            else:
                message = f"error: max_tucker is 0 under tolerance relative:{float(tol)!r} on a tensor"
                assert all(code == 2 and out == "" and err.startswith(message) for code, out, err in outputs)


def test_corner_tensor_search_skips_zero_subtensors():
    a = np.zeros((8, 8, 8, 8))
    a[-1, -1, -1, -1] = 3.0
    rf, calls = _counting(max_tucker())
    _, cert = extract_brute_force(rf, DenseTensor(a))
    assert cert.rank == 1 and cert.mode == 4
    assert cert.selection.indices == (tuple(range(1, 9)),) * 3 + ((8,),)
    assert len(calls) <= 8  # rf(x) and the few nonzero subtensors before the ceiling stop
