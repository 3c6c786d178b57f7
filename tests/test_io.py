"""Round trips and error handling for both .tns variants."""
import struct

import numpy as np
import pytest

from tenrank import DenseTensor, FormatError, read_tensor, write_tensor
from tenrank.generators import counterexample_2x3x4, random_tensor
from tenrank.io import read_binary, read_text, write_binary, write_text


def test_text_round_trip_bit_exact(tmp_path):
    x = random_tensor((3, 4, 2), seed=1)
    path = tmp_path / "x.tns"
    write_text(x, path)
    back = read_text(path)
    assert back.data.tobytes() == x.data.tobytes()


def test_binary_round_trip_bit_exact(tmp_path):
    x = random_tensor((5, 2), seed=2)
    path = tmp_path / "x.tnsb"
    write_binary(x, path)
    assert read_binary(path).data.tobytes() == x.data.tobytes()


def test_text_format_layout(tmp_path):
    path = tmp_path / "p.tns"
    write_text(counterexample_2x3x4(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "3"
    assert lines[1] == "2 3 4"


def test_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.tns"
    path.write_text("# a comment\n2\n2 2 # trailing comment\n1 2\n3 4\n")
    x = read_text(path)
    assert x.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_read_tensor_sniffs_format(tmp_path):
    x = random_tensor((2, 2, 2), seed=3)
    t = tmp_path / "t.tns"
    b = tmp_path / "b.tns"
    write_tensor(x, t)
    write_tensor(x, b, binary=True)
    assert read_tensor(t) == x
    assert read_tensor(b) == x


@pytest.mark.parametrize(
    "content",
    [
        "",
        "x\n2 2\n1 2 3 4",
        "2\n2\n1 2",
        "3\n2 3",
        "2\n2 2\n1 2 3",
        "2\n2 2\n1 2 3 4 5",
        "2\n2 2\n1 2 3 oops",
        "2\n2 0\n",
        "2\n2 2\n1 2 3 nan",
    ],
)
def test_text_parse_errors(tmp_path, content):
    path = tmp_path / "bad.tns"
    path.write_text(content)
    with pytest.raises(FormatError):
        read_text(path)


def test_binary_errors(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_binary(path)
    good = tmp_path / "trunc.bin"
    x = random_tensor((2, 3), seed=4)
    write_binary(x, good)
    good.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_binary(good)
    nan = tmp_path / "nan.bin"
    nan.write_bytes(b"TNS1" + struct.pack("<2Q", 1, 2) + struct.pack("<2d", 1.0, float("nan")))
    with pytest.raises(FormatError, match="must be finite"):
        read_binary(nan)


def test_value_count_does_not_wrap(tmp_path):
    # 2**32 * 2**32 wraps to 0 in int64; the count check must reject it itself
    text = tmp_path / "huge.tns"
    text.write_text("2\n4294967296 4294967296\n")
    with pytest.raises(FormatError, match="expected 18446744073709551616 values"):
        read_text(text)
    binary = tmp_path / "huge.bin"
    binary.write_bytes(b"TNS1" + struct.pack("<3Q", 2, 2**32, 2**32))
    with pytest.raises(FormatError, match="size mismatch"):
        read_binary(binary)


def test_writes_are_deterministic(tmp_path):
    x = random_tensor((3, 3), seed=5)
    a, b = tmp_path / "a.tns", tmp_path / "b.tns"
    write_text(x, a)
    write_text(x, b)
    assert a.read_bytes() == b.read_bytes()


def test_extreme_values_survive_text_round_trip(tmp_path):
    x = DenseTensor([1e-300, -1e300, 0.1 + 0.2, np.pi], shape=(4,))
    path = tmp_path / "e.tns"
    write_text(x, path)
    assert read_text(path).data.tobytes() == x.data.tobytes()
