"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they pass.  Every tolerance and runtime budget is pinned here.
"""
from time import perf_counter

import numpy as np
import pytest

from tenrank import (
    DenseTensor,
    axiom_report,
    closure_eval,
    closure_rank_function,
    default_sweep_config,
    extract_brute_force,
    extract_max_tucker,
    frobenius_norm,
    generate_sweep_source,
    hooi,
    hosvd,
    identity_tensor,
    max_tucker,
    max_tucker_rank,
    n_rank,
    run_sweep,
    standard_fixtures,
    submax_tucker,
    submax_tucker_rank,
    sweep_to_csv,
    verify_span_certificate,
)
from tenrank.axioms import AXIOMS
from tenrank.generators import (
    counterexample_2x3x4,
    counterexample_3x2x2,
    random_rank_one,
    random_tensor,
    tucker_structured,
    zero_tensor,
)
from tenrank.io import read_binary, read_text, write_binary, write_text


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {label}{suffix}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_battery():
    start = perf_counter()
    fixtures = standard_fixtures(seed=0, random_count=200, random_pairs=100)
    report_max = axiom_report(max_tucker(), fixtures)
    report_sub = axiom_report(submax_tucker(), fixtures)
    elapsed = perf_counter() - start
    return fixtures, report_max, report_sub, elapsed


def test_criterion_1_counterexample_ranks():
    x = counterexample_2x3x4()
    nr = n_rank(x)
    ok = nr.ranks == (2, 3, 4) and nr.max_rank == 4 and nr.submax_rank == 3
    ok = ok and max_tucker_rank(x) == 4 and submax_tucker_rank(x) == 3
    best = min(
        _timed(lambda: (n_rank(x).max_rank, n_rank(x).submax_rank)) for _ in range(25)
    )
    ok = ok and best < 1e-3
    _verdict(1, "2x3x4 fixture: n-rank (2,3,4), max 4, submax 3", ok, f"best eval {best*1e3:.3f} ms")


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def test_criterion_2_strongly_proper_witness(full_battery):
    _, report_max, _, _ = full_battery
    x = counterexample_3x2x2()
    values_ok = max_tucker_rank(x) == 3 and submax_tucker_rank(x) == 2 and 3 > 2
    res = report_max.result("strongly_proper")
    witness_ok = (not res.passed) and res.witness_name == "counterexample_3x2x2"
    witness_ok = witness_ok and len(res.witness) == 1 and res.witness[0] == x
    _verdict(2, "3x2x2 fixture defeats strong properness of the max rank", values_ok and witness_ok)


def test_criterion_3_axiom_battery(full_battery):
    fixtures, report_max, report_sub, elapsed = full_battery
    generated = [
        f
        for f in fixtures.tensors
        if f.kind != "counterexample" and 2 <= f.tensor.order <= 4 and max(f.tensor.shape) <= 6
    ]
    battery_ok = len(generated) >= 200 and len(fixtures.pairs) >= 101
    axioms_ok = all(report_max.result(p).passed for p in AXIOMS) and all(
        report_sub.result(p).passed for p in AXIOMS
    )
    max_ok = report_max.result("proper").passed and report_max.result("subadditive").passed
    sub_ok = report_sub.result("proper").passed and report_sub.result("strongly_proper").passed
    counterexample = report_sub.result("subadditive")
    witness_ok = not counterexample.passed and counterexample.witness_name == "block_pair"
    if witness_ok:
        y, z = counterexample.witness
        witness_ok = (
            n_rank(y).ranks == (4, 3, 2)
            and n_rank(z).ranks == (3, 4, 2)
            and submax_tucker_rank(y + z) > submax_tucker_rank(y) + submax_tucker_rank(z)
        )
    ok = battery_ok and axioms_ok and max_ok and sub_ok and witness_ok and elapsed < 30.0
    _verdict(3, "axiom battery on >=200 fixtures", ok, f"{elapsed:.1f}s")


def _oracle_batch():
    """>=50 tensors, <=4096 entries, mode dims <=8, mixing generic and
    rank-deficient structures so the enumeration is actually exercised."""
    batch = []
    rng = np.random.default_rng(17)
    for i in range(30):
        order = int(rng.integers(2, 4))
        shape = tuple(int(d) for d in rng.integers(2, 6, size=order))
        batch.append(random_tensor(shape, seed=(1, i)))
    for i in range(10):
        shape = (int(rng.integers(3, 6)),) * 3
        core = tuple(max(1, d - int(rng.integers(1, 3))) for d in shape)
        batch.append(tucker_structured(shape, core, seed=(2, i)))
    for i in range(6):
        base = random_tensor((2, 3, 4), seed=(3, i))
        dup = np.concatenate([base.data, base.data[:, :, : 2]], axis=2)
        batch.append(DenseTensor(dup))
    for i in range(4):
        batch.append(random_tensor((8, 8), seed=(4, i)))
        batch.append(random_rank_one((4, 4, 4), seed=(5, i)))
    return batch


def test_criterion_4_oracle_equivalence():
    start = perf_counter()
    rmax = max_tucker()
    batch = _oracle_batch()
    assert len(batch) >= 50
    ok = True
    for x in batch:
        sub, cert = extract_max_tucker(x)
        _, brute = extract_brute_force(rmax, x)
        if cert.rank != brute.rank or cert.rank != max_tucker_rank(x):
            ok = False
            break
        if not verify_span_certificate(x, cert):
            ok = False
            break
    elapsed = perf_counter() - start
    ok = ok and elapsed < 300.0
    _verdict(4, f"enumeration oracle agrees on {len(batch)} tensors", ok, f"{elapsed:.1f}s")


def _closure_fixtures():
    tensors = [
        counterexample_2x3x4(),
        counterexample_3x2x2(),
        identity_tensor(3, 3),
        identity_tensor(2, 4),
        zero_tensor((2, 3)),
        zero_tensor((2, 2, 2)),
        DenseTensor([1.0, -2.0, 0.5, 3.0]),
        random_tensor((2, 3), seed=100, integer=True),
        random_tensor((3, 3), seed=101),
        random_tensor((2, 2, 3), seed=102, integer=True),
        random_tensor((3, 3, 3), seed=103),
        random_tensor((2, 3, 4), seed=104),
        tucker_structured((3, 3, 3), (2, 2, 2), seed=105),
        tucker_structured((4, 3, 2), (2, 2, 1), seed=106),
    ]
    rank_ones = [
        random_rank_one((2, 3, 2), seed=107),
        random_rank_one((3, 3), seed=108),
        random_rank_one((2, 2, 2, 2), seed=109),
    ]
    return tensors, rank_ones


def test_criterion_5_closure_properties():
    start = perf_counter()
    rmax, rsub = max_tucker(), submax_tucker()
    closure_sub = closure_rank_function(rsub)
    double_sub = closure_rank_function(closure_sub)
    tensors, rank_ones = _closure_fixtures()
    ok = True
    for x in tensors + rank_ones:
        if closure_eval(rmax, x) != rmax(x):
            ok = False
            break
        c = closure_sub(x)
        if c > rsub(x) or double_sub(x) != c:
            ok = False
            break
    ok = ok and all(
        closure_eval(rmax, t) == 1 and closure_eval(rsub, t) == 1 for t in rank_ones
    )
    ok = ok and closure_eval(rmax, identity_tensor(3, 3)) == 3
    ok = ok and closure_eval(rsub, identity_tensor(3, 3)) == 3
    elapsed = perf_counter() - start
    ok = ok and elapsed < 300.0
    _verdict(5, "closure: fixed point of max rank, dominated and idempotent for submax", ok, f"{elapsed:.1f}s")


def test_criterion_6_tucker_numerics():
    x = random_tensor((5, 4, 3), seed=200)
    lossless = hosvd(x, x.shape).relative_error < 1e-12

    planted = tucker_structured((20, 8, 8), (5, 3, 3), seed=201)
    recovery = hosvd(planted, (5, 3, 3)).relative_error < 1e-10

    noisy = DenseTensor(
        planted.data + 0.05 * np.random.default_rng(202).standard_normal(planted.shape)
    )
    model = hooi(noisy, (4, 2, 2), max_iters=50)
    monotone = all(
        later <= earlier + 1e-12
        for earlier, later in zip(model.error_history, model.error_history[1:])
    )

    m2 = hosvd(noisy, (6, 4, 4))
    captured = frobenius_norm(m2.core) / frobenius_norm(noisy)
    energy = abs(m2.relative_error**2 + captured**2 - 1.0) < 1e-10

    _verdict(6, "Tucker numerics: lossless, recovery, monotone HOOI, energy identity",
             lossless and recovery and monotone and energy)


def test_criterion_7_sweep_shape():
    start = perf_counter()
    config = default_sweep_config()
    source = generate_sweep_source(config)
    rows = run_sweep(config, source)
    elapsed = perf_counter() - start
    err = {(row.r, row.mode1_cap): row.relative_error for row in rows}
    dominated = all(
        err[(r, cap)] <= err[(r, "r")]
        for r in config.r_values
        for cap in (10, 20, 40)
    )
    strict_counts = {
        cap: sum(1 for r in config.r_values if err[(r, cap)] < err[(r, "r")])
        for cap in (10, 20, 40)
    }
    strict_ok = all(count >= 6 for count in strict_counts.values())
    csv_a = sweep_to_csv(run_sweep(config, source), include_timing=False)
    csv_b = sweep_to_csv(run_sweep(config, source), include_timing=False)
    reproducible = csv_a.encode() == csv_b.encode()
    from tenrank import SweepConfig

    full_cap = run_sweep(SweepConfig(mode1_caps=(100,), r_values=(11,)), source)[0]
    lossless = full_cap.relative_error < 1e-12
    ok = dominated and strict_ok and reproducible and lossless and elapsed < 60.0
    _verdict(
        7,
        "sweep: first-mode headroom never hurts, usually helps",
        ok,
        f"strict {sorted(strict_counts.values())}, {elapsed:.1f}s",
    )


def test_criterion_8_format_round_trips(tmp_path):
    rng = np.random.default_rng(300)
    ok = True
    for i in range(100):
        order = int(rng.integers(1, 5))
        shape = tuple(int(d) for d in rng.integers(1, 6, size=order))
        scalefactor = 10.0 ** float(rng.integers(-150, 151))
        x = DenseTensor(rng.standard_normal(shape) * scalefactor)
        tpath = tmp_path / f"t{i}.tns"
        bpath = tmp_path / f"b{i}.tns"
        write_text(x, tpath)
        write_binary(x, bpath)
        if read_text(tpath).data.tobytes() != x.data.tobytes():
            ok = False
            break
        if read_binary(bpath).data.tobytes() != x.data.tobytes():
            ok = False
            break
    _verdict(8, "100 random tensors round-trip bit-exactly in both formats", ok)
