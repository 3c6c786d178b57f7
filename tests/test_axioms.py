"""The axiom battery itself: expected verdicts for both Tucker-derived ranks.

A reduced fixture battery keeps this module quick; the full-size battery runs
in the acceptance suite.
"""
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from tenrank import DEFAULT_TOL, axiom_report, max_tucker, min_rank, standard_fixtures, submax_tucker
from tenrank import axioms
from tenrank.axioms import AXIOMS, EXTRAS, PROPERTIES, Fixture, FixturePair, FixtureSet, _check, write_report
from tenrank.linalg import RankTolerance
from tenrank.tensor import DenseTensor, IndexSelection, subtensor
from tenrank.generators import block_pair
from tenrank.ranks import _submax
from tenrank import RankFunction, max_tucker_rank, n_rank


@pytest.fixture(scope="module")
def fixtures():
    return standard_fixtures(seed=0, random_count=60)


@pytest.fixture(scope="module")
def max_report(fixtures):
    return axiom_report(max_tucker(), fixtures)


@pytest.fixture(scope="module")
def submax_report(fixtures):
    return axiom_report(submax_tucker(), fixtures)


def test_max_tucker_axioms_pass(max_report):
    for prop in AXIOMS:
        assert max_report.result(prop).passed, max_report.result(prop).detail


def test_max_tucker_extras(max_report):
    assert max_report.result("proper").passed
    assert max_report.result("subadditive").passed
    strongly = max_report.result("strongly_proper")
    assert not strongly.passed
    assert strongly.witness_name == "counterexample_3x2x2"


def test_max_tucker_declared_confirmed(max_report):
    assert max_report.confirms(max_tucker().declared_properties)


def test_submax_tucker_axioms_pass(submax_report):
    for prop in AXIOMS:
        assert submax_report.result(prop).passed, submax_report.result(prop).detail


def test_submax_tucker_extras(submax_report):
    assert submax_report.result("proper").passed
    assert submax_report.result("strongly_proper").passed
    sub = submax_report.result("subadditive")
    assert not sub.passed
    assert sub.witness_name == "block_pair"


def test_submax_declared_confirmed(submax_report):
    assert submax_report.confirms(submax_tucker().declared_properties)


def test_block_pair_witness_is_verified():
    # the pair's rank profile is the one the construction promises
    y, z = block_pair(seed=0)
    assert n_rank(y) == (4, 3, 2)
    assert n_rank(z) == (3, 4, 2)
    submax = submax_tucker()
    assert submax(y + z) > submax(y) + submax(z)


def test_battery_falsifies_bad_rank_functions(fixtures):
    # negative controls: the battery must catch evaluators that are not ranks
    from tenrank import RankFunction, max_tucker_rank

    always_one = RankFunction("always_one", lambda x: 0 if x.is_zero() else 1)
    report = axiom_report(always_one, fixtures)
    assert not report.result("P2").passed  # identity tensors need rank n

    inflated = RankFunction("inflated", lambda x: 0 if x.is_zero() else max_tucker_rank(x) + 1)
    report = axiom_report(inflated, fixtures)
    assert not report.result("P1").passed  # rank-one fixtures must give 1
    assert not report.axioms_pass()


def test_min_rank_passes_axioms(fixtures):
    report = axiom_report(min_rank(max_tucker(), submax_tucker()), fixtures)
    for prop in AXIOMS:
        assert report.result(prop).passed, report.result(prop).detail
    assert report.result("proper").passed
    assert report.result("strongly_proper").passed


def test_properties_run_in_report_order(max_report):
    assert tuple(PROPERTIES) == AXIOMS + EXTRAS
    assert [r.name for r in max_report.results] == list(PROPERTIES)


def test_a_failing_property_evaluates_nothing_past_its_counterexample(fixtures):
    seen = []
    rf = RankFunction("constant_two", lambda x: seen.append(x) or 2)
    result = _check("P1", PROPERTIES["P1"](rf, fixtures, DEFAULT_TOL))
    # the third fixture is the first zero tensor, where rank 2 fails P1
    assert (result.passed, result.checks, result.witness_name) == (False, 3, fixtures.tensors[2].name)
    assert seen == [f.tensor for f in fixtures.tensors[:3]]


def test_report_serialization(tmp_path, max_report):
    out = tmp_path / "report.json"
    doc = write_report(max_report, out, witness_dir=tmp_path / "witness")
    loaded = json.loads(out.read_text())
    assert loaded == doc
    rows = {row["property"]: row for row in loaded["results"]}
    assert rows["P1"]["status"] == "pass"
    assert rows["strongly_proper"]["status"] == "fail"
    witness_file = rows["strongly_proper"]["witness_file"]
    from tenrank import read_tensor
    from tenrank.generators import counterexample_3x2x2

    assert read_tensor(witness_file) == counterexample_3x2x2()


def test_fixture_battery_composition(fixtures):
    kinds = {f.kind for f in fixtures.tensors}
    assert {"zero", "rank1", "identity", "matrix", "random", "counterexample"} <= kinds
    assert fixtures.tensors[0].name == "counterexample_3x2x2"
    assert fixtures.pairs[0].name == "block_pair"
    orders = {f.tensor.order for f in fixtures.tensors}
    assert {2, 3, 4} <= orders


def test_shape_bounds_hold_across_battery(fixtures):
    # max rank never exceeds the largest dimension, submax never the
    # second-largest, and submax never exceeds max (strictly less on the
    # 2x3x4 counterexample)
    rmax, rsub = max_tucker(), submax_tucker()
    for f in fixtures.tensors:
        vmax, vsub = rmax(f.tensor), rsub(f.tensor)
        assert vsub <= vmax
        if f.tensor.order >= 2:
            assert vmax <= max(f.tensor.shape)
            assert vsub <= _submax(f.tensor.shape)
    from tenrank.generators import counterexample_2x3x4

    x = counterexample_2x3x4()
    assert rsub(x) < rmax(x)


def test_reports_match_the_frozen_seed_101_documents():
    # written by one SVD per unfolding, with none of the n-rank shortcuts
    frozen = json.loads((Path(__file__).parent / "data" / "axiom_reports_seed101.json").read_text())
    fx = standard_fixtures(seed=101)
    rfs = (max_tucker(), submax_tucker(), min_rank(max_tucker(), submax_tucker()))
    assert [write_report(axiom_report(rf, fx), None) for rf in rfs] == frozen


# Negative controls: evaluators that are not rank functions.  Between them
# they fail each of the nine properties at least once at seed 101.
NEGATIVE_CONTROLS = {
    "constant_two": lambda x: 2,
    "max_plus_one": lambda x: max_tucker_rank(x) + 1,
    "sign_of_first_entry": lambda x: max_tucker_rank(x) + int(x.data.flat[0] < 0),
    "mode_1_rank": lambda x: n_rank(x)[0],
    "small_plus_one": lambda x: 0 if x.is_zero() else max_tucker_rank(x) + int(x.size < 4),
    "max_squared": lambda x: max_tucker_rank(x) ** 2,
}


def negative_control_documents(witness_dir):
    """write_report documents of the negative controls at seed 101, with each
    witness file named relative to witness_dir, and the witness files' text."""
    fx = standard_fixtures(seed=101)
    docs = []
    for name, evaluator in NEGATIVE_CONTROLS.items():
        doc = write_report(axiom_report(RankFunction(name, evaluator), fx), None, witness_dir)
        for row in doc["results"]:
            for key in [k for k in row if k.startswith("witness_file")]:
                row[key] = Path(row[key]).name
        docs.append(doc)
    witnesses = {p.name: p.read_text() for p in sorted(Path(witness_dir).glob("*.tns"))}
    return {"reports": docs, "witnesses": witnesses}


def test_negative_controls_match_the_frozen_seed_101_documents(tmp_path):
    frozen = json.loads((Path(__file__).parent / "data" / "axiom_negative_controls_seed101.json").read_text())
    assert negative_control_documents(tmp_path) == frozen
    failed = {row["property"] for doc in frozen["reports"] for row in doc["results"] if row["status"] == "fail"}
    assert failed == set(AXIOMS + EXTRAS)


DERIVING = ("scale", "permute_modes", "_cut", "add")


def count_calls(monkeypatch, names=DERIVING):
    """Wrap the axioms module's names, and numpy's SVD as "svd", with call
    counters; returns the counts."""
    counts = dict.fromkeys(names + ("svd",), 0)
    for module, name in [(axioms, name) for name in names] + [(np.linalg, "svd")]:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_reports_on_one_set_build_each_derived_tensor_once(monkeypatch):
    fresh, fx = (standard_fixtures(seed=0, random_count=60) for _ in range(2))
    counts = count_calls(monkeypatch)
    axiom_report(max_tucker(), fresh)
    single = dict(counts)
    # max passes P4-P6 and subadditivity, so one report builds every derived tensor
    n, m = len(fx.tensors), len(fx.pairs)
    assert [single[k] for k in DERIVING] == [4 * n, 5 * n, 10 * n, m]
    # and factors at most once per unfolding shape, besides P3's own matrix
    # rank of each matrix fixture
    shapes = {(k, x.size // k) for x in fresh._n_ranks[DEFAULT_TOL] for k in x.shape}
    p3 = sum(f.kind == "matrix" for f in fx.tensors)
    assert p3 < single["svd"] <= len(shapes) + p3

    counts.update(dict.fromkeys(counts, 0))
    axiom_report(max_tucker(), fx)
    first = dict(counts)
    axiom_report(submax_tucker(), fx)
    axiom_report(min_rank(max_tucker(), submax_tucker()), fx)
    assert first == single
    # the second and third reports build nothing and factor only P3's matrices
    assert counts == dict(single, svd=single["svd"] + 2 * p3)


def _documents(rfs, fx_for):
    return [write_report(axiom_report(rf, fx_for()), None) for rf in rfs]


def test_a_report_checks_under_the_rank_functions_own_tolerance():
    # under the default tolerance P3 would expect the embedded matrix's rank 5
    rf = max_tucker(RankTolerance("relative", 0.5))
    report = axiom_report(rf, standard_fixtures(seed=0, random_count=20))
    assert write_report(report, None)["tolerance"] == "relative:0.5"
    assert report.result("P3").passed, report.result("P3").detail
    # a rank function that is no rule on the n-rank is checked under the default
    other = RankFunction("max", lambda x: max_tucker_rank(x, RankTolerance("relative", 0.5)))
    assert axiom_report(other, standard_fixtures(seed=0, random_count=0)).tol == DEFAULT_TOL


def test_the_shared_memo_never_leaks_between_functions_or_tolerances():
    def rank_functions():
        return [
            max_tucker(),
            submax_tucker(),
            min_rank(max_tucker(), submax_tucker()),
            max_tucker(RankTolerance("absolute", 0.5)),
            *(RankFunction(name, evaluator) for name, evaluator in NEGATIVE_CONTROLS.items()),
        ]

    fresh = _documents(rank_functions(), lambda: standard_fixtures(seed=0, random_count=30))
    # the absolute cut changes the verdicts, so a memo shared across tolerances would show
    assert fresh[3]["results"] != fresh[0]["results"]
    shared = standard_fixtures(seed=0, random_count=30)
    assert _documents(rank_functions(), lambda: shared) == fresh
    shared = standard_fixtures(seed=0, random_count=30)
    assert _documents(rank_functions()[::-1], lambda: shared) == fresh[::-1]


def test_derived_tensors_past_a_counterexample_are_never_built():
    # rank 1 exactly when the first entry exceeds 1.5.  P4 fails on [7e307]
    # at alpha=-2.0, before its own scaling by 3.0 would overflow, and never
    # reaches [1e308]; [1] + [1] fails subadditivity before [1e308] + [1e308]
    rf = RankFunction("first_entry_above_1.5", lambda x: int(x.data.flat[0] > 1.5))
    large, huge, one = DenseTensor([7e307]), DenseTensor([1e308]), DenseTensor([1.0])
    fx = FixtureSet(
        tensors=(Fixture("large", large, "random"), Fixture("huge", huge, "random")),
        pairs=(FixturePair("ones", one, one), FixturePair("huges", huge, huge)),
        seed=0,
    )
    for _ in range(2):  # the second report reads what the first one built
        report = axiom_report(rf, fx)
        p4, sub = report.result("P4"), report.result("subadditive")
        assert (p4.passed, p4.checks, p4.witness_name) == (False, 1, "large")
        assert p4.detail == "rank 1 became 0 under alpha=-2.0"
        assert (sub.passed, sub.checks, sub.witness_name) == (False, 1, "ones")


def test_ranking_up_front_leaves_a_scaling_that_overflows_to_p4():
    # 3.0 * 7e307 overflows, but P4 fails at alpha=-2.0 and never asks for it
    one = DenseTensor([1.0])
    fx = FixtureSet(
        tensors=(Fixture("large", DenseTensor([7e307]), "random"),),
        pairs=(FixturePair("ones", one, one),),
        seed=0,
    )
    report = axiom_report(max_tucker(RankTolerance("absolute", 1e308)), fx)
    p1, p4 = report.result("P1"), report.result("P4")
    assert (p1.passed, p1.detail) == (False, "rank 0 on a nonzero tensor")
    assert (p4.passed, p4.checks, p4.detail) == (False, 1, "rank 0 became 1 under alpha=-2.0")


def test_a_scaling_that_overflows_raises_its_value_error_and_no_warning():
    # max passes P1-P3, so P4 reaches 3.0 * 7e307
    one = DenseTensor([1.0])
    fx = FixtureSet(
        tensors=(Fixture("large", DenseTensor([7e307]), "random"),),
        pairs=(FixturePair("ones", one, one),),
        seed=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="tensor entries must be finite"):
            axiom_report(max_tucker(), fx)


def _random_selection(shape, rng) -> IndexSelection:
    """P6's draw made by numpy's own integers and choice calls, as the
    battery once made it: the reference for its sampler."""
    picks = []
    for n in shape:
        k = int(rng.integers(1, n + 1))
        picks.append(tuple(sorted(i + 1 for i in rng.choice(n, size=k, replace=False).tolist())))
    return IndexSelection(tuple(picks))


def test_p6_draws_are_numpys_draws():
    # one selection whose modes run through every n, so each mode's draw
    # reads the generator where the one before it stopped
    shape = tuple(range(1, 65)) + (1000, 10000)
    for seed in range(300):
        (picks,) = axioms._random_picks(shape, 1, np.random.default_rng(seed))
        expected = _random_selection(shape, np.random.default_rng(seed)).indices
        assert [tuple(p) for p in picks] == list(expected), seed


def test_p6_bounded_draws_take_numpys_rejection_step():
    # about 1 in 4 words is rejected at n = 3 * 2**30, and 1 in 2 at 2**31 + 1
    for n in (3 * 2**30, 2**31 + 1):
        words = axioms._words(np.random.default_rng(n))
        rng = np.random.default_rng(n)
        expected = [int(rng.integers(1, n + 1)) for _ in range(2000)]
        assert [axioms._uniform(words, n) for _ in range(2000)] == expected


@pytest.mark.parametrize("seed", [0, 101])
def test_p6_subtensors_are_the_ones_numpys_draws_select(seed):
    fx = standard_fixtures(seed=seed)
    for i, f in enumerate(fx.tensors):
        items, error = axioms._subtensors(fx, i)
        rng = np.random.default_rng((seed, 11, i))
        expected = [subtensor(f.tensor, _random_selection(f.tensor.shape, rng)) for _ in items]
        assert (len(items), error) == (axioms.SELECTIONS_PER_FIXTURE, None)
        for t, e in zip(items, expected):
            assert (t.shape, t.data.tobytes()) == (e.shape, e.data.tobytes()), f.name
            assert not np.shares_memory(t.data, f.tensor.data)
