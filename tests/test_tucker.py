"""Tucker fitting: HOSVD variants, HOOI, model round trips, sweeps."""
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenrank import (
    DenseTensor,
    NumericError,
    SweepConfig,
    default_sweep_config,
    frobenius_norm,
    hooi,
    hosvd,
    reconstruct,
    relative_error,
    run_sweep,
    scale,
    st_hosvd,
    standard_fixtures,
    sweep_to_csv,
    unfold,
)
from tenrank.generators import planted_tucker, random_rank_one, random_tensor, tucker_structured
from tenrank.tensor import mode_product, mode_products
from tenrank.tucker import (
    CSV_HEADER,
    FIT_TOL,
    MAX_ITERS,
    METHODS,
    _leading_factor,
    generate_sweep_source,
    load_model,
    save_model,
)


def naive_reconstruct(model):
    """Nested-loop contraction oracle: sum core entries times factor columns."""
    shape = tuple(f.shape[0] for f in model.factors)
    out = np.zeros(shape)
    core = model.core.data
    for cidx in itertools.product(*[range(r) for r in core.shape]):
        block = np.array(core[cidx])
        for f, c in zip(model.factors, cidx):
            block = np.multiply.outer(block, f[:, c])
        out += block
    return out


def test_reconstruct_matches_naive_contraction():
    x = random_tensor((4, 3, 5), seed=0)
    model = hosvd(x, (2, 2, 3))
    assert np.allclose(reconstruct(model).data, naive_reconstruct(model), atol=1e-12)


def test_hosvd_exact_structure_recovery():
    x = tucker_structured((6, 7, 5), (2, 3, 2), seed=1)
    model = hosvd(x, (2, 3, 2))
    assert model.relative_error < 1e-10
    assert model.orthonormality_defect() < 1e-10


def test_hosvd_full_ranks_lossless():
    x = random_tensor((4, 3, 2), seed=2)
    model = hosvd(x, x.shape)
    assert model.relative_error < 1e-12
    assert relative_error(reconstruct(model), x) < 1e-12


def test_hosvd_rank_one_input():
    x = random_rank_one((3, 4, 2), seed=3)
    model = hosvd(x, (1, 1, 1))
    assert model.relative_error < 1e-12


def test_hosvd_rank_validation():
    x = random_tensor((3, 3), seed=4)
    with pytest.raises(ValueError):
        hosvd(x, (4, 1))
    with pytest.raises(ValueError):
        hosvd(x, (1,))


def test_hosvd_energy_identity():
    x = random_tensor((6, 5, 4), seed=5)
    model = hosvd(x, (3, 2, 2))
    captured = frobenius_norm(model.core) / frobenius_norm(x)
    assert model.relative_error**2 + captured**2 == pytest.approx(1.0, abs=1e-10)


def test_hosvd_monotone_in_single_mode_rank():
    x = planted_tucker((20, 8, 8), (5, 3, 3), snr_db=15, seed=6)
    # monotonicity only holds when the truncation boundary is unambiguous:
    # skip rank steps whose boundary singular values are (near-)tied
    from tenrank import unfold

    s = np.linalg.svd(unfold(x, 1), compute_uv=False)
    ranks = (2, 3, 5, 8)
    errs = {r: hosvd(x, (r, 4, 4)).relative_error for r in ranks}
    for a, b in zip(ranks, ranks[1:]):
        if s[a - 1] - s[a] <= 1e-8 * s[0] or s[b - 1] - s[b] <= 1e-8 * s[0]:
            continue
        assert errs[a] >= errs[b] - 1e-12


def test_st_hosvd_matches_contract():
    x = tucker_structured((6, 7, 5), (2, 3, 2), seed=7)
    model = st_hosvd(x, (2, 3, 2))
    assert model.relative_error < 1e-10
    assert model.orthonormality_defect() < 1e-10
    noisy = DenseTensor(x.data + 0.05 * np.random.default_rng(8).standard_normal(x.shape))
    st = st_hosvd(noisy, (2, 3, 2))
    assert st.relative_error <= hosvd(noisy, (2, 3, 2)).relative_error + 0.02


def test_hooi_exact_structure_fast_convergence():
    x = tucker_structured((6, 7, 5), (2, 3, 2), seed=9)
    model = hooi(x, (2, 3, 2))
    assert model.relative_error < 1e-10
    assert model.iterations <= 2


def test_hooi_noisy_beats_or_matches_init():
    x = planted_tucker((18, 9, 9), (4, 3, 3), snr_db=20, seed=10)
    ranks = (4, 3, 3)
    st = st_hosvd(x, ranks)
    ho = hooi(x, ranks)
    assert ho.relative_error <= st.relative_error + 1e-12
    # per-iteration errors never increase
    assert all(
        later <= earlier + 1e-12
        for earlier, later in zip(ho.error_history, ho.error_history[1:])
    )
    # the stored error is the from-scratch reconstruction error
    assert ho.relative_error == pytest.approx(relative_error(reconstruct(ho), x), abs=1e-12)


def test_relative_error_trivia():
    x = random_tensor((2, 3), seed=12)
    from tenrank.generators import zero_tensor

    assert relative_error(x, x) == 0.0
    assert relative_error(zero_tensor((2, 3)), x) == 1.0
    assert relative_error(2.0 * x, x) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(x, zero_tensor((2, 3)))
    with pytest.raises(ValueError):
        relative_error(x, random_tensor((3, 2), seed=0))


def test_model_save_load_round_trip(tmp_path):
    x = random_tensor((4, 3, 5), seed=13)
    model = hosvd(x, (2, 2, 2))
    save_model(model, tmp_path / "model")
    back = load_model(tmp_path / "model")
    assert back.core == model.core
    assert all(np.array_equal(a, b) for a, b in zip(back.factors, model.factors))
    assert back.method == "hosvd"
    assert back.relative_error == model.relative_error
    assert back.error_history == model.error_history == [model.relative_error]


def test_model_round_trip_keeps_the_hooi_error_history(tmp_path):
    x = planted_tucker((9, 7, 6), (3, 2, 2), snr_db=10.0, seed=14)
    model = hooi(x, (3, 2, 2))
    assert len(model.error_history) == model.iterations + 1 >= 3
    save_model(model, tmp_path / "model")
    meta = json.loads((tmp_path / "model" / "meta.json").read_text())
    assert meta["error_history"] == model.error_history
    back = load_model(tmp_path / "model")
    assert back.error_history == model.error_history  # exact: json writes floats by repr
    assert (back.iterations, back.relative_error) == (model.iterations, model.relative_error)
    # a model saved without the key still loads, with an empty history
    del meta["error_history"]
    (tmp_path / "model" / "meta.json").write_text(json.dumps(meta))
    assert load_model(tmp_path / "model").error_history == []


def test_sweep_small_grid():
    config = SweepConfig(
        shape=(12, 5, 5),
        r_values=(1, 2, 3),
        mode1_caps=("r", 6),
        method="hosvd",
        seed=3,
        core_shape=(4, 2, 2),
    )
    source = planted_tucker(config.shape, config.core_shape, 20.0, config.seed)
    rows = run_sweep(config, source)
    assert len(rows) == 6
    err = {(row.r, row.mode1_cap): row.relative_error for row in rows}
    for r in (1, 2, 3):
        assert err[(r, 6)] <= err[(r, "r")]
    # single-point consistency at r=1, cap=1: same as the best rank-(1,1,1) fit
    single = run_sweep(
        SweepConfig(shape=(12, 5, 5), r_values=(1,), mode1_caps=(1,), seed=3, core_shape=(4, 2, 2)),
        source,
    )[0]
    from tenrank import hosvd as fit

    assert single.relative_error == pytest.approx(fit(source, (1, 1, 1)).relative_error, abs=1e-14)


def test_sweep_csv_shape_and_determinism():
    config = SweepConfig(shape=(10, 4, 4), r_values=(1, 2), mode1_caps=("r", 5), seed=1, core_shape=(3, 2, 2))
    source = planted_tucker(config.shape, config.core_shape, 20.0, config.seed)
    a = sweep_to_csv(run_sweep(config, source), include_timing=False)
    b = sweep_to_csv(run_sweep(config, source), include_timing=False)
    assert a == b
    lines = a.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert lines[1].startswith("1,r,hosvd,")
    assert lines[1].endswith(",0")


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(shape=(10, 4, 4), r_values=(5,)).validate()
    with pytest.raises(ValueError):
        SweepConfig(shape=(10, 4, 4), mode1_caps=(11,), r_values=(2,)).validate()
    with pytest.raises(ValueError):
        SweepConfig(method="qr").validate()
    for bad in [{"r_values": (2.5,)}, {"r_values": (True,)}, {"mode1_caps": (True,)}, {"mode1_caps": (5.0,)}]:
        with pytest.raises(ValueError):
            SweepConfig(shape=(10, 4, 4), **{"r_values": (2,), **bad}).validate()
    for field in ("r_values", "mode1_caps"):
        with pytest.raises(ValueError, match=f"^{field} is empty"):
            SweepConfig(shape=(10, 4, 4), **{"r_values": (2,), field: ()}).validate()
    SweepConfig(shape=(10, 4, 4), r_values=(np.int64(2),), mode1_caps=(np.int64(5),)).validate()
    with pytest.raises(ValueError):
        run_sweep(SweepConfig(shape=(10, 4, 4), r_values=(2,), mode1_caps=("r",)), random_tensor((9, 4, 4), seed=0))


def test_effective_ranks_floor_at_r():
    config = SweepConfig(shape=(100, 11, 11))
    assert config.effective_ranks(11, 10) == (11, 11, 11)
    assert config.effective_ranks(3, 10) == (10, 3, 3)
    assert config.effective_ranks(4, "r") == (4, 4, 4)
    assert config.effective_ranks(2, 40) == (40, 2, 2)


@pytest.mark.parametrize("k", [-300, -200, -100, 100, 200, 300])
def test_norm_and_errors_are_scale_invariant(k):
    x = random_tensor((3, 4, 5), seed=0)
    y = scale(x, 10.0**k)
    assert frobenius_norm(y) / 10.0**k == pytest.approx(frobenius_norm(x), rel=1e-12)
    assert hosvd(y, (2, 2, 2)).relative_error == pytest.approx(
        hosvd(x, (2, 2, 2)).relative_error, rel=1e-12
    )
    ref, got = hooi(x, (2, 2, 2)), hooi(y, (2, 2, 2))
    assert got.relative_error == pytest.approx(ref.relative_error, rel=1e-12)
    assert got.error_history == pytest.approx(ref.error_history, rel=1e-12)


@pytest.mark.parametrize("method", list(METHODS))
def test_fits_at_the_top_of_float64_give_a_model_or_a_numeric_error(method):
    # each nonzero seed-101 battery fixture of order >= 2, scaled by the power
    # of two that puts its largest entry in [2^1022, 2^1023), at ranks n_j - 1;
    # a mode product or a norm may overflow, but no usage error and no warning
    fits = failures = 0
    for fixture in standard_fixtures(seed=101).tensors:
        x = fixture.tensor
        if x.order < 2 or x.is_zero():
            continue
        _, exponent = math.frexp(float(np.abs(x.data).max()))
        top = DenseTensor(np.ldexp(x.data, 1023 - exponent))
        try:
            model = METHODS[method](top, [max(1, n - 1) for n in x.shape])
        except NumericError:
            failures += 1
            continue
        assert math.isfinite(model.relative_error)
        fits += 1
    assert fits + failures == 225
    assert fits > 0


@settings(max_examples=50, deadline=None)
@given(k=st.integers(-300, 300), seed=st.integers(0, 10_000))
def test_relative_error_is_scale_invariant_at_every_power_of_ten(k, seed):
    x = random_tensor((3, 4, 5), seed=seed)
    xhat = reconstruct(hosvd(x, (2, 2, 2)))
    c = 10.0**k
    assert relative_error(scale(xhat, c), scale(x, c)) == pytest.approx(relative_error(xhat, x), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-300, 300), seed=st.integers(0, 10_000))
def test_hooi_history_is_monotone_at_every_power_of_ten(k, seed):
    x = planted_tucker((6, 5, 4), (3, 2, 2), snr_db=10.0, seed=seed)
    ref, got = hooi(x, (2, 2, 2)), hooi(scale(x, 10.0**k), (2, 2, 2))
    assert all(
        later <= earlier + 1e-12
        for earlier, later in zip(got.error_history, got.error_history[1:])
    )
    assert got.relative_error == pytest.approx(ref.relative_error, rel=1e-9)


@pytest.mark.parametrize("rows,cols,rank", [(8, 600, 5), (30, 3000, 12)])
@pytest.mark.parametrize("duplicate", [False, True])
def test_leading_factor_of_wide_matrix_spans_the_svd_subspace(rows, cols, rank, duplicate):
    rng = np.random.default_rng(rows)
    M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    if duplicate:
        M[rows - 1] = M[1]
    u, _, _ = np.linalg.svd(M, full_matrices=False)
    for r in (2, rank):
        f = _leading_factor(M, r)
        assert f.shape == (rows, r)
        assert np.linalg.norm(f.T @ f - np.eye(r)) <= 1e-12
        ref = u[:, :r]
        # sine of the largest principal angle between the two column spaces
        assert np.linalg.norm(f - ref @ (ref.T @ f), 2) <= 1e-10


# ---------------------------------- shared factorizations, bit-identical fits

def reference_hooi(x, ranks):
    """HOOI with every factor from x compressed afresh in all other modes, in
    mode order, and the core compressed afresh: the loop before the prefix of
    updated modes was shared.  Returns (core, factors, iterations, history)."""
    init = st_hosvd(x, ranks)
    factors = list(init.factors)
    norm_x = frobenius_norm(x)
    history = [init.relative_error]
    fit = frobenius_norm(init.core) / norm_x
    for iterations in range(1, MAX_ITERS + 1):
        for j in range(1, x.order + 1):
            y = x
            for k, f in enumerate(factors, start=1):
                if k != j:
                    y = mode_product(y, f.T, k)
            factors[j - 1] = _leading_factor(unfold(y, j), ranks[j - 1])
        core = x
        for k, f in enumerate(factors, start=1):
            core = mode_product(core, f.T, k)
        new_fit = frobenius_norm(core) / norm_x
        history.append(float(np.sqrt(max(0.0, 1.0 - new_fit**2))))
        if abs(new_fit - fit) < FIT_TOL:
            break
        fit = new_fit
    err = relative_error(mode_products(core, factors), x)
    return core, factors, iterations, history[:-1] + [err]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


HOOI_CASES = [  # (shape, ranks); "r_1 > 2" marks a rank above the product of the others
    ((7, 5), (2, 2)),
    ((7, 5), (3, 2)),  # r_1 > 2
    ((6, 5, 4), (3, 2, 2)),
    ((6, 5, 4), (5, 2, 2)),  # r_1 > 4
    ((5, 4, 3, 3), (2, 2, 1, 2)),
    ((5, 4, 3, 3), (4, 1, 3, 1)),  # r_1 > 3
    ((4, 3, 3, 2, 2), (2, 2, 2, 1, 2)),
    ((4, 3, 3, 2, 2), (3, 2, 1, 1, 1)),  # r_1 > 2
]


@pytest.mark.parametrize("shape,ranks", HOOI_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_hooi_matches_the_skip_compress_loop_bit_for_bit(shape, ranks, seed):
    x = planted_tucker(shape, tuple(min(2, n) for n in shape), snr_db=5.0, seed=seed)
    core, factors, iterations, history = reference_hooi(x, ranks)
    model = hooi(x, ranks)
    assert same_bits(model.core.data, core.data)
    assert len(model.factors) == len(factors)
    assert all(same_bits(a, b) for a, b in zip(model.factors, factors))
    assert model.iterations == iterations
    assert model.error_history == history


def sweep_grid(config):
    return [config.effective_ranks(r, cap) for r in config.r_values for cap in config.mode1_caps]


SWEEP_CONFIGS = [
    SweepConfig(shape=(14, 5, 5), r_values=(1, 2, 3, 4, 5), mode1_caps=("r", 3, 6, 14), seed=2, core_shape=(5, 3, 3)),
    SweepConfig(shape=(9, 4, 3, 3), r_values=(1, 2, 3), mode1_caps=("r", 2, 9), seed=5, core_shape=(4, 2, 2, 2)),
]


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("config", SWEEP_CONFIGS, ids=lambda c: "x".join(map(str, c.shape)))
def test_sweep_rows_equal_direct_calls(method, config):
    config = dataclasses.replace(config, method=method)
    source = generate_sweep_source(config)
    rows = run_sweep(config, source)
    assert len(rows) == len(sweep_grid(config))
    for row in rows:
        direct = METHODS[method](source, config.effective_ranks(row.r, row.mode1_cap))
        assert row.relative_error == direct.relative_error
        assert row.method == method


def count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_default_hosvd_sweep_factors_each_unfolding_once(monkeypatch):
    config = default_sweep_config()
    source = generate_sweep_source(config)
    calls = count_svds(monkeypatch)
    assert len(run_sweep(config, source)) == 44
    assert len(calls) == 3  # one per mode for all 44 fits


def st_truncations(config):
    """The distinct (mode j, ranks of the modes before j) of a grid: what
    fixes the unfolding ST-HOSVD truncates in mode j."""
    return {(j, ranks[: j - 1]) for ranks in sweep_grid(config) for j in range(1, len(ranks) + 1)}


def test_st_hosvd_sweep_factors_each_distinct_truncation_once(monkeypatch):
    config = SweepConfig(method="st_hosvd")
    source = generate_sweep_source(config)
    calls = count_svds(monkeypatch)
    run_sweep(config, source)
    assert len(calls) == len(st_truncations(config)) == 1 + 13 + 42  # for 3 x 44 truncations


def test_hooi_sweep_shares_its_initialization_only(monkeypatch):
    config = SweepConfig(method="hooi", r_values=(1, 2, 3, 10, 11))
    source = generate_sweep_source(config)
    sweeps = sum(hooi(source, ranks).iterations for ranks in sweep_grid(config))
    calls = count_svds(monkeypatch)
    run_sweep(config, source)
    assert len(calls) == len(st_truncations(config)) + 3 * sweeps


def test_direct_fits_share_nothing(monkeypatch):
    x = planted_tucker((8, 6, 5), (3, 2, 2), snr_db=20.0, seed=3)
    calls = count_svds(monkeypatch)
    hosvd(x, (2, 2, 2))
    hosvd(x, (2, 2, 2))
    st_hosvd(x, (2, 2, 2))
    st_hosvd(x, (2, 2, 2))
    assert len(calls) == 12
    calls.clear()
    model = hooi(x, (2, 2, 2))
    assert len(calls) == 3 + 3 * model.iterations
