"""Container reader: round trips, and named errors for damaged files."""

import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from mocapsynth.container import MAGIC, read_container, write_container
from mocapsynth.errors import MocapError, TrialFormatError


def small_container(path):
    arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.array([1, 2], dtype=np.int32)}
    write_container(path, "test", {"note": "small"}, arrays)
    return arrays


def with_header(path, header_bytes: bytes, body: bytes = b"") -> None:
    path.write_bytes(MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + body)


def test_round_trip(tmp_path):
    arrays = small_container(tmp_path / "c.bin")
    meta, got = read_container(tmp_path / "c.bin", expect_kind="test")
    assert meta == {"note": "small"}
    assert sorted(got) == ["a", "b"]
    for name, arr in arrays.items():
        npt.assert_array_equal(got[name], arr)
        assert got[name].dtype == arr.dtype


def test_every_truncation_raises_a_package_error(tmp_path):
    full = tmp_path / "c.bin"
    small_container(full)
    data = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(MocapError):
            read_container(cut)


def test_header_length_beyond_the_file_is_refused_before_reading(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", 2**62) + b"{}")
    with pytest.raises(TrialFormatError, match="exceeds the file size"):
        read_container(path)


@pytest.mark.parametrize(
    "header",
    [
        b"\xff\xfe{}",  # not UTF-8
        b"{not json",
        b"[1, 2]",
        json.dumps({"meta": {}, "version": 1}).encode(),
        json.dumps({"arrays": [], "version": 1}).encode(),
        json.dumps({"arrays": [], "meta": {}}).encode(),
        json.dumps({"arrays": 3, "meta": {}, "version": 1}).encode(),
        json.dumps({"arrays": [{"name": "a"}], "meta": {}, "version": 1}).encode(),
        json.dumps({"arrays": [{"name": "a", "dtype": "<f8", "shape": [-2]}], "meta": {}, "version": 1}).encode(),
        json.dumps({"arrays": [{"name": "a", "dtype": "|O", "shape": [1]}], "meta": {}, "version": 1}).encode(),
    ],
)
def test_malformed_header_is_a_format_error(tmp_path, header):
    path = tmp_path / "c.bin"
    with_header(path, header, body=b"\0" * 64)
    with pytest.raises(TrialFormatError):
        read_container(path)
