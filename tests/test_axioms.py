"""The axiom battery itself: expected verdicts for both Tucker-derived ranks.

A reduced fixture battery keeps this module quick; the full-size battery runs
in the acceptance suite.
"""
import json
from pathlib import Path

import pytest

from tenrank import DEFAULT_TOL, axiom_report, max_tucker, min_rank, standard_fixtures, submax_tucker
from tenrank.axioms import AXIOMS, EXTRAS, PROPERTIES, _check, write_report
from tenrank.generators import block_pair
from tenrank.ranks import _submax
from tenrank import RankFunction, max_tucker_rank, n_rank, submax_tucker_rank


@pytest.fixture(scope="module")
def fixtures():
    return standard_fixtures(seed=0, random_count=60, random_pairs=30)


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
    assert n_rank(y).ranks == (4, 3, 2)
    assert n_rank(z).ranks == (3, 4, 2)
    assert submax_tucker_rank(y + z) > submax_tucker_rank(y) + submax_tucker_rank(z)


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
    "mode_1_rank": lambda x: n_rank(x).ranks[0],
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
