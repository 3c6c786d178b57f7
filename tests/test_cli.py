"""CLI behaviour: verb outputs, exit codes, reproducibility, smoke parity."""
import argparse
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tenrank
from tenrank import max_tucker_rank, n_rank, read_tensor, scale, subtensor, write_tensor
from tenrank.cli import GENERATORS, build_parser, main
from tenrank.ranks import RANK_FUNCTIONS
from tenrank.generators import tucker_structured


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_rank_parity(tmp_path, capsys):
    f = tmp_path / "p.tns"
    assert run(capsys, "gen", "counterexample-2x3x4", "--out", str(f))[0] == 0
    code, out, err = run(capsys, "rank", str(f), "--fn", "max")
    assert code == 0
    assert out.strip() == "max_tucker=4"
    assert "tol:" in err
    code, out, _ = run(capsys, "rank", str(f), "--fn", "submax")
    assert out.strip() == "submax_tucker=3"
    code, out, _ = run(capsys, "nrank", str(f))
    assert out.strip() == "nrank=2,3,4"
    x = read_tensor(f)
    assert max_tucker_rank(x) == 4
    assert n_rank(x) == (2, 3, 4)


def test_gen_identity_and_nrank(tmp_path, capsys):
    f = tmp_path / "i.tns"
    run(capsys, "gen", "identity", "--m", "3", "--n", "3", "--out", str(f))
    assert run(capsys, "nrank", str(f))[1].strip() == "nrank=3,3,3"


def test_gen_seeded_reproducibility(tmp_path, capsys):
    a, b = tmp_path / "a.tns", tmp_path / "b.tns"
    run(capsys, "gen", "random", "--shape", "3", "4", "--seed", "9", "--out", str(a))
    run(capsys, "gen", "random", "--shape", "3", "4", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_binary_round_trip(tmp_path, capsys):
    f = tmp_path / "x.tns"
    run(capsys, "gen", "planted-tucker", "--shape", "10", "4", "4", "--core", "3", "2", "2", "--seed", "1", "--out", str(f), "--binary")
    assert read_tensor(f).shape == (10, 4, 4)


def test_gen_block_pair_writes_two_files(tmp_path, capsys):
    y = tmp_path / "y.tns"
    z = tmp_path / "z.tns"
    code, out, _ = run(capsys, "gen", "block-pair", "--out", str(y), "--out2", str(z))
    assert code == 0
    assert read_tensor(y).shape == (8, 8, 8)
    assert read_tensor(z).shape == (8, 8, 8)


@pytest.mark.parametrize("kind", list(GENERATORS))
def test_every_gen_kind_writes_what_it_prints(tmp_path, capsys, kind):
    out = tmp_path / "t.tns"
    code, stdout, _ = run(
        capsys, "gen", kind, "--out", str(out), "--shape", "6", "3", "3", "--core", "2", "2", "1", "--m", "3", "--n", "2"
    )
    paths = [out, tmp_path / "t_z.tns"] if kind == "block-pair" else [out]
    assert (code, stdout) == (0, "wrote " + " and ".join(map(str, paths)) + "\n")
    assert all(read_tensor(p).size > 0 for p in paths)


def test_fullrank_fast_and_brute_agree(tmp_path, capsys):
    f = tmp_path / "p.tns"
    run(capsys, "gen", "counterexample-2x3x4", "--out", str(f))
    _, fast_out, _ = run(capsys, "fullrank", str(f))
    _, brute_out, _ = run(capsys, "fullrank", str(f), "--brute")
    fast, brute = json.loads(fast_out), json.loads(brute_out)
    assert fast["rank"] == brute["rank"] == 4
    assert fast["mode"] == 3


def test_fullrank_writes_the_certified_subtensor(tmp_path, capsys):
    x = tucker_structured((6, 7, 8), (2, 3, 2), seed=1)  # max 3 in mode 2: rows dropped
    f, s = tmp_path / "x.tns", tmp_path / "s.tns"
    write_tensor(x, f)
    code, out, err = run(capsys, "fullrank", str(f), "--out-subtensor", str(s))
    assert code == 0, err
    doc = json.loads(out)
    written = read_tensor(s)
    assert written == subtensor(x, tenrank.IndexSelection.of(*doc["selection"]))
    assert (doc["mode"], written.shape) == (2, (6, 3, 8))


def test_fullrank_prints_no_certificate_when_the_subtensor_write_fails(tmp_path, capsys):
    f = tmp_path / "x.tns"
    write_tensor(tucker_structured((6, 7, 8), (2, 3, 2), seed=1), f)
    code, out, err = run(capsys, "fullrank", str(f), "--out-subtensor", str(tmp_path / "missing" / "s.tns"))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("factor", [1e200, 1e-250])
def test_fullrank_certificate_survives_extreme_scaling(tmp_path, capsys, factor):
    x = tucker_structured((6, 7, 8), (2, 3, 2), seed=1)
    plain, scaled = tmp_path / "x.tns", tmp_path / "y.tns"
    write_tensor(x, plain)
    write_tensor(scale(x, factor), scaled)
    code, ref, _ = run(capsys, "fullrank", str(plain))
    assert code == 0
    code, out, err = run(capsys, "fullrank", str(scaled))
    assert code == 0, err
    assert out == ref


def test_fullrank_submax_extracts_without_brute(tmp_path, capsys):
    f = tmp_path / "p.tns"
    run(capsys, "gen", "counterexample-2x3x4", "--out", str(f))
    code, out, err = run(capsys, "fullrank", str(f), "--fn", "submax")
    assert code == 0, err
    code, brute_out, _ = run(capsys, "fullrank", str(f), "--fn", "submax", "--brute")
    assert code == 0
    fast, brute = json.loads(out), json.loads(brute_out)
    assert fast["rank_function"] == "submax_tucker"
    # n-rank (2, 3, 4): submax 3 is first attained in mode 2, kept whole
    assert (fast["mode"], fast["indices"], fast["rank"]) == (2, [1, 2, 3], 3)
    assert brute["rank"] == 3


@pytest.mark.parametrize(
    "argv",
    [["rank", "--fn", "max"], ["nrank", "--tol-mode", "absolute"], ["fullrank"]],
    ids=["rank", "nrank", "fullrank"],
)
def test_a_nan_tolerance_is_refused(tmp_path, capsys, argv):
    f = tmp_path / "p.tns"
    run(capsys, "gen", "counterexample-2x3x4", "--out", str(f))
    code, out, err = run(capsys, argv[0], str(f), *argv[1:], "--tol", "nan")
    assert (code, out) == (2, "")
    assert err == "error: tolerance value must be nonnegative, got nan\n"


def test_closure_verb(tmp_path, capsys):
    f = tmp_path / "p.tns"
    run(capsys, "gen", "counterexample-2x3x4", "--out", str(f))
    code, out, _ = run(capsys, "closure", str(f), "--fn", "submax")
    assert code == 0
    assert out.strip() == "closure_submax_tucker=3"


def test_axioms_verb_exit_codes(tmp_path, capsys):
    report = tmp_path / "r.json"
    code, _, err = run(
        capsys, "axioms", "--fn", "max", "--count", "20",
        "--out", str(report), "--witness-dir", str(tmp_path / "w"),
    )
    assert code == 0  # every declared property confirmed
    doc = json.loads(report.read_text())
    rows = {r["property"]: r for r in doc["results"]}
    assert rows["strongly_proper"]["status"] == "fail"
    assert "witness_file" in rows["strongly_proper"]
    assert "max_tucker strongly_proper: FAIL" in err


def test_axioms_without_out_prints_what_out_writes(tmp_path, capsys):
    report = tmp_path / "r.json"
    _, written, _ = run(capsys, "axioms", "--fn", "submax", "--count", "5", "--out", str(report))
    assert written == f"wrote {report}\n"
    _, printed, _ = run(capsys, "axioms", "--fn", "submax", "--count", "5")
    assert printed == report.read_text()


def test_fn_choices_are_the_rank_function_registry():
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    with_fn = {
        verb: next(a.choices for a in sub._actions if a.dest == "fn")
        for verb, sub in verbs.items()
        if any(a.dest == "fn" for a in sub._actions)
    }
    assert set(with_fn) == {"rank", "fullrank", "closure", "axioms"}
    for choices in with_fn.values():
        assert list(choices) == list(RANK_FUNCTIONS)


@pytest.mark.parametrize("method", ["hosvd", "st_hosvd", "hooi"])
def test_tucker_on_a_tensor_whose_norm_overflows_is_a_numeric_error(tmp_path, capsys, method):
    # every entry is finite, but the Frobenius norm, 2e308, is not; in the
    # second file a mode product overflows first
    inputs = {
        "1e308 -1e308 1e308 1e308 1 1 1 1": "Frobenius norm of a 2x2x2 tensor exceeds the float64 range",
        " ".join(["1e308"] * 8): "mode-2 product of a 1x2x2 tensor overflows float64",
    }
    for entries, message in inputs.items():
        f = tmp_path / "big.tns"
        f.write_text(f"3\n2 2 2\n{entries}\n")
        outdir = tmp_path / "mb"
        code, out, err = run(capsys, "tucker", str(f), "--ranks", "1", "1", "1", "--method", method, "--outdir", str(outdir))
        assert (code, out, err) == (5, "", f"numeric error: {message}\n")


@pytest.mark.parametrize("method", ["hosvd", "st_hosvd", "hooi"])
def test_tucker_fit_of_a_zero_tensor_is_exact(tmp_path, capsys, method):
    f = tmp_path / "z.tns"
    run(capsys, "gen", "zero", "--shape", "3", "4", "5", "--out", str(f))
    outdir = tmp_path / "mz"
    code, out, _ = run(capsys, "tucker", str(f), "--ranks", "2", "2", "2", "--method", method, "--outdir", str(outdir))
    assert (code, out) == (0, f"wrote {outdir} (relative_error=0.0)\n")
    meta = json.loads((outdir / "meta.json").read_text())
    assert (meta["iterations"], meta["error_history"]) == (0, [0.0])
    core = read_tensor(outdir / "core.tns")
    assert core.shape == (2, 2, 2) and core.is_zero()


def test_tucker_verb_writes_model(tmp_path, capsys):
    f = tmp_path / "x.tns"
    run(capsys, "gen", "random", "--shape", "4", "3", "3", "--seed", "2", "--out", str(f))
    outdir = tmp_path / "model"
    code, _, _ = run(capsys, "tucker", str(f), "--ranks", "4", "3", "3", "--method", "hosvd", "--outdir", str(outdir))
    assert code == 0
    meta = json.loads((outdir / "meta.json").read_text())
    assert meta["relative_error"] < 1e-12
    assert (outdir / "core.tns").exists() and (outdir / "factor_3.tns").exists()


def test_sweep_verb_reproducible(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "shape": [10, 4, 4], "r_values": [1, 2], "mode1_caps": ["r", 5],
        "method": "hosvd", "seed": 3, "core_shape": [3, 2, 2],
    }))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "sweep", "--config", str(cfg), "--out", str(a), "--no-timing")[0] == 0
    assert run(capsys, "sweep", "--config", str(cfg), "--out", str(b), "--no-timing")[0] == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "r,mode1_cap,method,relative_error,elapsed_ms"
    assert len(lines) == 5


@pytest.mark.parametrize("content", ["[1, 2]", '"hooi"', "7"])
def test_sweep_config_must_be_an_object(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "a.csv"))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("field", [{"r_values": [2.5]}, {"mode1_caps": [True]}])
def test_sweep_config_rejects_non_integer_grid_values(tmp_path, capsys, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shape": [10, 4, 4], "r_values": [1, 2], "core_shape": [3, 2, 2], **field}))
    out = tmp_path / "a.csv"
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out), "--no-timing")
    assert code == 3
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("field", ["r_values", "mode1_caps"])
def test_sweep_config_rejects_an_empty_grid(tmp_path, capsys, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shape": [10, 4, 4], "r_values": [1, 2], "core_shape": [3, 2, 2], field: []}))
    out = tmp_path / "a.csv"
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out), "--no-timing")
    assert (code, stdout) == (3, "")
    assert err == f"error: {cfg}: {field} is empty, so the sweep has no fits\n"
    assert not out.exists()


def test_sweep_config_fields_default_to_the_built_in_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "st_hosvd"}))
    out = tmp_path / "a.csv"
    assert run(capsys, "sweep", "--config", str(cfg), "--out", str(out), "--no-timing")[0] == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 44
    assert {row.split(",")[2] for row in rows} == {"st_hosvd"}


def test_cli_import_leaves_scipy_out():
    src = str(Path(tenrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, tenrank.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_exit_code_io_error(capsys):
    code, _, err = run(capsys, "rank", "/no/such/file.tns", "--fn", "max")
    assert code == 3


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tns"
    bad.write_text("2\n2 2\n1 2 3\n")
    assert run(capsys, "rank", str(bad), "--fn", "max")[0] == 3


def test_exit_code_capacity(tmp_path, capsys):
    f = tmp_path / "big.tns"
    run(capsys, "gen", "random", "--shape", "9", "9", "--seed", "0", "--out", str(f))
    assert run(capsys, "fullrank", str(f), "--brute")[0] == 4
    run(capsys, "gen", "zero", "--shape", "8", "8", "8", "8", "2", "--out", str(f))
    code, out, err = run(capsys, "fullrank", str(f), "--brute")
    assert (code, out) == (4, "")
    assert err == "capacity error: tensor has 8192 entries, enumeration limit is 4096\n"


def test_exit_code_usage(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "x.tns", "--fn", "median"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "gen", "random", "--out", str(tmp_path / "x.tns"))
    assert code == 2  # missing --shape
    code, _, err = run(capsys, "gen", "identity", "--out", str(tmp_path / "i.tns"))
    assert (code, err) == (2, "error: identity needs --m and --n\n")
    # the search's entry limit and HOOI's sweep cap are constants, not flags
    for argv in (
        ["fullrank", "x.tns", "--brute", "--cap", "10"],
        ["closure", "x.tns", "--fn", "max", "--cap", "10"],
        ["tucker", "x.tns", "--ranks", "1", "--method", "hooi", "--outdir", "m", "--max-iters", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_rank_survives_an_overflowing_singular_value(tmp_path, capsys):
    # every entry is finite, but sigma_max = 2e308 is not
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
    x = tenrank.DenseTensor(h * 1e308)
    f = tmp_path / "h.tns"
    write_tensor(x, f)
    code, out, _ = run(capsys, "nrank", str(f))
    assert (code, out.strip()) == (0, "nrank=4,4")
    code, out, err = run(capsys, "fullrank", str(f))
    assert code == 0, err
    doc = json.loads(out)
    cert = tenrank.FullRankCertificate(
        doc["mode"], tuple(doc["indices"]), doc["rank"], tenrank.IndexSelection.of(*doc["selection"])
    )
    assert cert.rank == 4 and tenrank.verify_span_certificate(x, cert)


def test_exit_code_capacity_from_the_search_budget(tmp_path, capsys, monkeypatch):
    # the max_tucker search on this tensor ends at rf(x) after 4,720 subtensors
    f = tmp_path / "t.tns"
    write_tensor(tucker_structured((8, 8, 8), (8, 8, 1), seed=0), f)
    code, out, _ = run(capsys, "fullrank", str(f), "--brute")
    assert code == 0 and json.loads(out)["rank"] == 8
    monkeypatch.setattr(tenrank.fullrank, "SEARCH_BUDGET", 1000)
    code, out, err = run(capsys, "fullrank", str(f), "--brute")
    assert code == 4 and out == ""
    assert "search budget" in err


def test_axioms_rejects_a_negative_count(capsys):
    code, out, err = run(capsys, "axioms", "--fn", "max", "--count", "-3")
    assert (code, out) == (2, "")
    assert err == "error: random fixture count -3 is negative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "random", "--shape", "3", "--seed", "-5", "--out", "q.tns"),
        ("axioms", "--fn", "max", "--seed", "-1"),
    ],
    ids=["gen", "axioms"],
)
def test_a_negative_seed_is_named(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    seed = argv[argv.index("--seed") + 1]
    assert (code, out, err) == (2, "", f"error: --seed {seed} is negative\n")
    assert not (tmp_path / "q.tns").exists()


def test_gen_rank1_rejects_a_zero_dimension(tmp_path):
    # in a child process with a timeout, so a redraw loop that never ends fails the test
    src = str(Path(tenrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "q.tns"
    argv = [sys.executable, "-m", "tenrank.cli", "gen", "rank1", "--shape", "2", "0", "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: shape entries must be >= 1, got (2, 0)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "core, message",
    [
        ([], "core_shape (20, 4, 4) does not fit in shape (10, 4, 4)"),  # the default core
        (["--core", "2", "2"], "core_shape (2, 2) has 2 sizes, shape (10, 4, 4) has 3"),
    ],
    ids=["default-core", "short-core"],
)
def test_gen_planted_tucker_names_a_core_that_does_not_fit(tmp_path, capsys, core, message):
    out = tmp_path / "p.tns"
    code, stdout, err = run(capsys, "gen", "planted-tucker", "--shape", "10", "4", "4", *core, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "snr, message",
    [("nan", "snr_db is NaN"), ("-4000", "snr_db -4000.0 is so low that the noise overflows float64")],
)
def test_gen_planted_tucker_names_an_snr_it_cannot_meet(tmp_path, capsys, snr, message):
    out = tmp_path / "p.tns"
    code, stdout, err = run(capsys, "gen", "planted-tucker", "--shape", "5", "5", "--core", "2", "2", "--snr", snr, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_gen_planted_tucker_at_an_snr_whose_noise_underflows_is_noiseless(tmp_path, capsys):
    files = {snr: tmp_path / f"p{snr}.tns" for snr in ("4000", "inf")}
    for snr, out in files.items():
        assert run(capsys, "gen", "planted-tucker", "--shape", "5", "5", "--core", "2", "2", "--snr", snr, "--out", str(out))[0] == 0
    assert files["4000"].read_bytes() == files["inf"].read_bytes()


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 74.5 GiB for an array", "Unable to allocate 74.5 GiB for an array"),  # numpy's
        ("", "out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_is_a_capacity_error(tmp_path, capsys, monkeypatch, message, line):
    def refuse(shape):  # stands in for the allocation; nothing this large is ever asked for
        raise MemoryError(message)

    monkeypatch.setattr(tenrank.generators, "zero_tensor", refuse)
    out = tmp_path / "z.tns"
    code, stdout, err = run(capsys, "gen", "zero", "--shape", "100000", "100000", "--out", str(out))
    assert (code, stdout, err) == (4, "", f"capacity error: {line}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"shape": [10, 4, 4], "r_values": [1], "mode1_caps": ["r"]},
        {"core_shape": [3, 2]},
        {"seed": "x"},
        {"snr_db": "loud"},
        {"shape": [10, 4.5, 4]},
        {"snr_db": float("nan")},
        {"snr_db": -4000},  # the noise overflows
    ],
)
def test_sweep_config_rejects_bad_source_fields(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "a.csv"
    code, stdout, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out), "--no-timing")
    assert code == 3
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {cfg}: ")
    assert not out.exists()


def _one_error_line(code, out, err, path):
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")


def test_sweep_config_unknown_field_names_file_and_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"foo": 1}')
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "a.csv"))
    _one_error_line(code, out, err, cfg)
    assert "'foo'" in err


def test_malformed_sweep_config_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"shape": [3,2,2],}')
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "a.csv"))
    _one_error_line(code, out, err, cfg)
    assert "line 1 column 19" in err


def test_text_tensor_that_is_not_utf8_names_the_file(tmp_path, capsys):
    f = tmp_path / "bad.tns"
    f.write_bytes(b"\xff\xfe1\n2\n1 2\n")
    code, out, err = run(capsys, "nrank", str(f))
    _one_error_line(code, out, err, f)
    assert "not UTF-8" in err


def test_binary_tensor_of_order_zero_is_rejected_like_text(tmp_path, capsys):
    b = tmp_path / "zero.bin"
    b.write_bytes(b"TNS1" + struct.pack("<Q", 0))
    code, out, err = run(capsys, "nrank", str(b))
    _one_error_line(code, out, err, b)
    assert err.strip().endswith("order must be >= 1, got 0")
    t = tmp_path / "zero.tns"
    t.write_text("0\n")
    assert run(capsys, "nrank", str(t))[2].strip().endswith("order must be >= 1, got 0")


@pytest.mark.parametrize("fn", ["max", "submax"])
def test_fullrank_with_no_residual_left_is_a_numeric_error(tmp_path, capsys, fn):
    # the seed-101 battery fixture random_076_3x2 has unfolding ranks (2, 2)
    # under an absolute threshold of 0, one of them from a rounding residue
    x = next(
        f.tensor
        for f in tenrank.standard_fixtures(seed=101, random_count=77).tensors
        if f.name == "random_076_3x2"
    )
    path = tmp_path / "r76.tns"
    write_tensor(x, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fullrank", str(path), "--fn", fn, "--tol-mode", "absolute", "--tol", "0")
    assert (code, out) == (5, "")
    assert err == "numeric error: row selection lost rank on 3x2 matrix (target 2)\n"
