"""Container reader: round trips, and named errors for damaged files."""

import json
import os
import struct
import sys
import threading
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mocapsynth.container as container
from mocapsynth.container import MAGIC, ArrayStream, read_container, write_container
from mocapsynth.dataset import (ArchiveRows, MotionSequence, NormStats, TrialMeta, apply_zscore, fit_normalizer,
                                load_sequences, save_sequences)
from mocapsynth.errors import ContractError, MocapError, StateError, TrialFormatError
from mocapsynth.gan import build_generator
from mocapsynth.nn import load_model
from mocapsynth.nn.checkpoint import save_model

from toys import toy_generator_spec


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


json_meta = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
any_array = hnp.arrays(
    dtype=hnp.floating_dtypes() | hnp.integer_dtypes() | hnp.unsigned_integer_dtypes() | hnp.boolean_dtypes(),
    shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
)


@settings(derandomize=True, database=None)
@given(meta=st.dictionaries(st.text(max_size=4), json_meta, max_size=3),
       arrays=st.dictionaries(st.text(max_size=4), any_array, max_size=3))
def test_round_trip_property(tmp_path_factory, meta, arrays):
    path = tmp_path_factory.getbasetemp() / "property.bin"
    write_container(path, "prop", meta, arrays)
    got_meta, got = read_container(path, expect_kind="prop")
    assert got_meta == meta
    assert sorted(got) == sorted(arrays)
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype.newbyteorder("<")
        assert got[name].shape == arr.shape
        assert got[name].tobytes() == arr.astype(got[name].dtype).tobytes()


def test_written_bytes_are_magic_header_and_little_endian_c_order_data(tmp_path):
    # arrays whose buffer is not the stored one: each must still be written as its
    # little-endian, C-order bytes
    arrays = {
        "big_endian": np.arange(6, dtype=">f8").reshape(2, 3),
        "fortran": np.asfortranarray(np.arange(12, dtype=np.int32).reshape(3, 4)),
        "strided": np.arange(20, dtype=np.uint16)[1::3],
        "zero_d": np.array(2.5),
    }
    write_container(tmp_path / "c.bin", "bytes", {"m": 1}, arrays)
    entries, body = [], b""
    for name in sorted(arrays):
        arr = arrays[name]
        stored = arr.dtype.newbyteorder("<")
        entries.append({"dtype": stored.str, "name": name, "shape": list(arr.shape)})
        body += arr.astype(stored).tobytes()
    header = {"arrays": entries, "kind": "bytes", "meta": {"m": 1}, "version": container.VERSION}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert (tmp_path / "c.bin").read_bytes() == MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + body


@settings(derandomize=True, database=None)
@given(value=st.lists(json_meta, max_size=9) | st.dictionaries(st.text(max_size=4), st.lists(json_meta, max_size=9)),
       slice_items=st.integers(1, 4))
@example(value={2: [1, 2, 3], 1: "x"}, slice_items=1)  # keys json.dumps turns into strings
def test_the_header_pieces_join_to_one_dump(value, slice_items):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(container, "HEADER_SLICE_ITEMS", slice_items)
        assert "".join(container._header_pieces(value)) == json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_a_header_heavy_container_is_written_without_a_whole_copy_of_its_header(tmp_path):
    # tracemalloc sees every string. 40,000 names and labels make a header of
    # 2.3 MB; json.dumps of it whole peaks at twice that, where a slice of the
    # long lists at a time holds about 0.1 MB
    n = 40_000
    meta = {"names": [f"sequence{i:06d}+a{i % 27}" for i in range(n)],
            "labels": [{"participant": f"p{i % 20:02d}", "strategy": "ABC"[i % 3]} for i in range(n)]}
    path = tmp_path / "c.bin"
    tracemalloc.start()
    try:
        write_container(path, "test", meta, {"a": np.zeros(3)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    header = {"arrays": [{"dtype": "<f8", "name": "a", "shape": [3]}], "kind": "test", "meta": meta,
              "version": container.VERSION}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert path.read_bytes() == MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + bytes(24)
    assert peak <= len(header_bytes) / 4, f"peak {peak / len(header_bytes):.2f}x the header"


def test_concurrent_writers_never_mix_or_leave_temp_files(tmp_path):
    path = tmp_path / "c.bin"
    payloads = [{"x": np.full(50_000, v, dtype=np.float64)} for v in (1.0, 2.0)]
    errors = []

    def writer(arrays):
        try:
            for _ in range(40):
                write_container(path, "test", {"v": float(arrays["x"][0])}, arrays)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    meta, got = read_container(path)
    npt.assert_array_equal(got["x"], np.full(50_000, meta["v"]))
    assert os.listdir(tmp_path) == ["c.bin"]


def test_a_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(container.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        small_container(tmp_path / "c.bin")
    assert os.listdir(tmp_path) == []


def test_a_streamed_array_writes_the_bytes_of_the_whole_array(tmp_path):
    arrays = {"a": np.arange(24, dtype=np.float64).reshape(4, 6), "b": np.array([1, 2], dtype=np.int32)}
    write_container(tmp_path / "whole.bin", "test", {"m": 1}, arrays)
    # chunks of uneven length, one empty and one of another dtype, cast as a whole array is
    chunks = [arrays["a"][:1], arrays["a"][1:1], arrays["a"][1:3].astype(np.int64), arrays["a"][3:]]
    stream = ArrayStream((4, 6), np.float64, iter(chunks))
    write_container(tmp_path / "streamed.bin", "test", {"m": 1}, {"a": stream, "b": arrays["b"]})
    assert (tmp_path / "streamed.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()


class Broken(StateError):
    pass


def broken_chunks():
    yield np.zeros((1, 6))
    raise Broken("the chunk source failed")


@pytest.mark.parametrize("chunks, error", [
    ([np.zeros((1, 6)), np.zeros((2, 6))], ContractError),  # fewer bytes than declared
    ([np.zeros((4, 6)), np.zeros((1, 1))], ContractError),  # more
    ([np.zeros(25)], ContractError),  # more, in one chunk
    (broken_chunks(), Broken),  # raises partway
], ids=["short", "long", "long-one-chunk", "raises"])
def test_a_refused_stream_leaves_neither_target_nor_temp_file(tmp_path, chunks, error):
    with pytest.raises(error) as caught:
        write_container(tmp_path / "c.bin", "test", {}, {"a": ArrayStream((4, 6), np.float64, chunks)})
    assert isinstance(caught.value, MocapError)
    assert os.listdir(tmp_path) == []


def test_written_file_keeps_the_umask_permissions(tmp_path):
    small_container(tmp_path / "c.bin")
    (tmp_path / "plain").write_bytes(b"")
    assert (tmp_path / "c.bin").stat().st_mode == (tmp_path / "plain").stat().st_mode


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


def _header_end(data: bytes) -> int:
    return 16 + struct.unpack("<Q", data[8:16])[0]


def test_a_short_read_is_a_format_error(tmp_path, monkeypatch):
    # with the size check blinded, each truncation must still be caught by the read itself
    full = tmp_path / "c.bin"
    small_container(full)
    data = full.read_bytes()
    real_fstat = os.fstat

    def huge_fstat(fd):
        st = list(real_fstat(fd))
        st[6] = 2**40  # st_size
        return os.stat_result(st)

    monkeypatch.setattr(container.os, "fstat", huge_fstat)
    cut = tmp_path / "cut.bin"
    for n in range(_header_end(data), len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(TrialFormatError, match="truncated array"):
            read_container(cut)


def _flip_files(base):
    """A small sequence archive with labels and stats, and a small model checkpoint."""
    rng = np.random.default_rng(5)
    meta = TrialMeta("p01", "small", 640, "balanced", "facing", "A")
    seqs = [MotionSequence(rng.normal(size=(32, 48)), meta=meta if i else None, name=f"s{i}") for i in range(2)]
    save_sequences(base / "seqs.bin", seqs, stats=NormStats(np.zeros(48), np.ones(48)), extra={"k": 1})
    save_model(base / "gen.model", build_generator(toy_generator_spec()), {"role": "generator"})
    return {"seqs.bin": load_sequences, "gen.model": load_model}


@settings(derandomize=True, database=None, max_examples=300)
@given(target=st.sampled_from(["seqs.bin", "gen.model"]), in_header=st.booleans(), pick=st.floats(0, 1, exclude_max=True))
def test_any_single_bit_flip_loads_or_raises_a_package_error(tmp_path_factory, target, in_header, pick):
    base = tmp_path_factory.getbasetemp()
    loaders = _flip_files(base)
    data = bytearray((base / target).read_bytes())
    # half the flips land in the magic, the length or the JSON header, where the structure is
    bit = int(pick * 8 * (_header_end(data) if in_header else len(data)))
    data[bit // 8] ^= 1 << (bit % 8)
    flipped = base / f"flipped-{target}"
    flipped.write_bytes(bytes(data))
    try:
        loaders[target](flipped)
    except MocapError:
        pass


def _rows_archive(path, n=10, normalized=False):
    rng = np.random.default_rng(n)
    labels = [TrialMeta("p01", "small", 640, "balanced", "facing", "ABC"[i % 3]) for i in range(n)]
    seqs = [MotionSequence(rng.normal(3.0, 2.0, size=(32, 48)), normalized, labels[i], f"s{i}") for i in range(n)]
    stats = NormStats(np.full(48, 0.5), np.full(48, 2.0)) if normalized else None
    save_sequences(path, seqs, stats=stats, extra={"k": 1})
    return path


def test_archive_rows_read_the_rows_asked_for_in_order(tmp_path):
    path = _rows_archive(tmp_path / "a.bin")
    block, stats, extra = load_sequences(path)
    with ArchiveRows(path) as rows:
        assert rows.shape == block.data.shape and len(rows) == 10
        assert rows.names == block.names and rows.labels == block.labels
        assert not rows.normalized and rows.stats is None and rows.extra == extra == {"k": 1}
        assert len({id(m) for m in rows.labels}) == 3  # one TrialMeta per distinct label
        for idx in ([7, 2, 2, 9, 0], np.array([3]), []):
            npt.assert_array_equal(rows[idx], block.data[np.asarray(idx, dtype=np.intp)])
        with pytest.raises(IndexError):
            rows[[0, 10]]
        with pytest.raises(IndexError):
            rows[[-1]]
        chunks = list(rows.frame_chunks(100))
        assert [len(c) for c in chunks] == [100, 100, 100, 20]
        npt.assert_array_equal(np.concatenate(chunks), block.data.reshape(-1, 48))


def test_archive_rows_z_scored_on_read_are_apply_zscores_rows_bit_for_bit(tmp_path):
    path = _rows_archive(tmp_path / "a.bin")
    block, _, _ = load_sequences(path)
    stats = fit_normalizer(block)
    want = apply_zscore(block, stats).data
    with ArchiveRows(path) as rows:
        fitted = fit_normalizer(rows)
        npt.assert_array_equal(fitted.mean.view(np.uint64), stats.mean.view(np.uint64))
        npt.assert_array_equal(fitted.std.view(np.uint64), stats.std.view(np.uint64))
        rows.zscore_on_read(fitted)
        assert rows.normalized and rows.stats is fitted
        idx = [4, 1, 8]
        npt.assert_array_equal(rows[idx].view(np.uint64), want[idx].view(np.uint64))
        with pytest.raises(StateError, match="already normalized"):
            rows.zscore_on_read(fitted)
        with pytest.raises(StateError, match="unnormalized"):
            fit_normalizer(rows)


def test_archive_rows_of_a_normalized_archive_are_read_as_stored_with_its_stats(tmp_path):
    path = _rows_archive(tmp_path / "a.bin", normalized=True)
    block, stats, _ = load_sequences(path)
    with ArchiveRows(path) as rows:
        assert rows.normalized
        npt.assert_array_equal(rows.stats.std, stats.std)
        npt.assert_array_equal(rows[[5, 0]], block.data[[5, 0]])


def test_open_archive_rows_read_on_when_the_archive_is_rewritten(tmp_path):
    # the package's writers replace a file by rename, so the open file keeps its bytes
    path = _rows_archive(tmp_path / "a.bin", n=10)
    want = load_sequences(path)[0].data
    with ArchiveRows(path) as rows:
        _rows_archive(path, n=4)
        assert len(load_sequences(path)[0]) == 4
        npt.assert_array_equal(rows[[9, 3]], want[[9, 3]])
    assert rows._fh.closed
