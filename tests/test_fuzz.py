"""Fuzzing the two .tns readers and the sweep config parser.

Whatever the bytes, a reader returns a DenseTensor or raises FormatError or
OSError, and the CLI exits 0 or 3 with exactly one ``error:`` line.
"""
import json
import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tenrank import DenseTensor, FormatError, read_tensor, write_tensor
from tenrank.cli import main

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

TEXT = b"# comment\n3\n2 1 2\n1.0 -2.5 0.0 1e-300\n"
BINARY = b"TNS1" + struct.pack("<Q3Q", 3, 2, 1, 2) + np.array([1.0, -2.5, 0.0, 1e300], "<f8").tobytes()
CONFIG = json.dumps(
    {"shape": [2, 1, 2], "r_values": [1], "mode1_caps": ["r", 2], "method": "hooi", "seed": 1,
     "core_shape": [1, 1, 1]}
).encode()


@st.composite
def mutated(draw, valid: bytes):
    """A valid file with a few bytes overwritten, deleted or inserted."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "delete", "insert"]))
        byte = draw(st.integers(0, 255))
        if op == "set" and pos < len(data):
            data[pos] = byte
        elif op == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        else:
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


tensor_files = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=48).map(lambda b: b"TNS1" + b),
    mutated(TEXT),
    mutated(BINARY),
)


def _write(tmp_path, name: str, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def test_the_seeds_are_valid(tmp_path):
    assert read_tensor(_write(tmp_path, "t.tns", TEXT)).shape == (2, 1, 2)
    assert read_tensor(_write(tmp_path, "b.tns", BINARY)).shape == (2, 1, 2)


@FUZZ
@given(data=tensor_files)
@example(data=b"TNS1" + struct.pack("<Q", 0))
@example(data=b"TNS1" + struct.pack("<Q", 2**62))
@example(data=b"\xff\xfe" + TEXT)
@example(data=b"3\n" + b" ".join([b"9" * 2000] * 3) + b"\n1\n")
def test_read_tensor_returns_a_tensor_or_a_format_error(tmp_path, data):
    path = _write(tmp_path, "f.tns", data)
    try:
        x = read_tensor(path)
    except (FormatError, OSError):
        return
    assert isinstance(x, DenseTensor)


def _exits_cleanly(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 3), err
    if code == 3:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return code


@FUZZ
@given(data=tensor_files)
def test_nrank_exits_0_or_3(tmp_path, capsys, data):
    _exits_cleanly(capsys, ["nrank", str(_write(tmp_path, "f.tns", data))])


@FUZZ
@given(data=st.one_of(st.binary(max_size=64), mutated(CONFIG)))
@example(data=b'{"foo": 1}')
@example(data=b"\xff\xfe{}")
@example(data=b"[" * 5000 + b"]" * 5000)
@example(data=CONFIG.replace(b"[2, 1, 2]", b"[3, 1, 2]", 1))
def test_sweep_config_exits_0_or_3(tmp_path, capsys, data):
    tiny = tmp_path / "tiny.tns"
    write_tensor(read_tensor(_write(tmp_path, "seed.tns", TEXT)), tiny)
    cfg = _write(tmp_path, "cfg.json", data)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(cfg), "--input", str(tiny), "--out", str(out), "--no-timing"]
    if _exits_cleanly(capsys, argv) == 3:
        assert not out.exists()
    out.unlink(missing_ok=True)


def test_the_config_seed_sweeps(tmp_path, capsys):
    tiny = tmp_path / "tiny.tns"
    write_tensor(read_tensor(_write(tmp_path, "seed.tns", TEXT)), tiny)
    cfg = _write(tmp_path, "cfg.json", CONFIG)
    argv = ["sweep", "--config", str(cfg), "--input", str(tiny), "--out", str(tmp_path / "o.csv")]
    assert _exits_cleanly(capsys, argv) == 0
