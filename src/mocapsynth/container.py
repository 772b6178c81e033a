"""Versioned binary container for sequence archives and model checkpoints.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON
header, then the raw bytes of each named array in header order. Arrays
are always stored little-endian; writes are atomic (a uniquely named
temp file beside the target, then a rename) and byte-deterministic for
identical content. An array may also be handed over as an ArrayStream,
whose header entry is known up front and whose bytes arrive in chunks,
so a large array is written without ever being held whole.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ContractError, SettingError, TrialFormatError

MAGIC = b"MCSYNTH1"
VERSION = 1


TYPE_NAMES = {int: "a whole number", float: "a number", str: "a string", bool: "true or false"}


def fits(value, kind: type) -> bool:
    """A JSON value of the Python type `kind`; a float also takes an int, an int never takes a bool."""
    return type(value) in ((int, float) if kind is float else (kind,))


def _field_value(key: str, value, hint):
    """`value` read as a field of type `hint`; lists become tuples, and a mismatch names `key`."""
    if get_origin(hint) is UnionType:  # X | None
        if value is None and type(None) in get_args(hint):
            return None
        (hint,) = [h for h in get_args(hint) if h is not type(None)]
    if get_origin(hint) is tuple:
        items = get_args(hint)
        variadic = items[-1:] == (Ellipsis,)
        if not isinstance(value, (list, tuple)) or not (variadic or len(value) == len(items)):
            want = "a list" if variadic else f"a list of {len(items)} values"
            raise SettingError(f"{key} must be {want}, got {json.dumps(value)}")
        if variadic:
            items = items[:1] * len(value)
        return tuple(_field_value(f"{key}[{n}]", v, h) for n, (v, h) in enumerate(zip(value, items)))
    if hint in TYPE_NAMES and not fits(value, hint):
        raise SettingError(f"{key} must be {TYPE_NAMES[hint]}, got {json.dumps(value)}")
    return value


@functools.cache
def field_types(cls) -> dict:
    """A dataclass's declared field types; get_type_hints would evaluate every annotation at each call."""
    return get_type_hints(cls)


class JsonRecord:
    """Dataclass mixin: the JSON dict form kept in headers and run artifacts.

    from_dict holds every value to its field's type, scalar or tuple, and
    turns JSON lists back into tuples; any fault is a SettingError
    naming the key, which a loader reading the dict from a file wraps.
    """

    def to_dict(self) -> dict:
        """The fields by name, read shallowly: no record nests another, and `dataclasses.asdict` costs ~9x."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise SettingError(f"{cls.__name__} must be a JSON object, got {json.dumps(d)}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - set(fields))
        missing = [n for n, f in fields.items() if n not in d
                   and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
        for what, keys in (("unknown", unknown), ("missing", missing)):
            if keys:
                raise SettingError(f"{cls.__name__}: {what} keys {keys}")
        hints = field_types(cls)
        return cls(**{k: _field_value(k, v, hints[k]) for k, v in d.items()})


def _canonical_dtype(dtype) -> np.dtype:
    dt = np.dtype(dtype).newbyteorder("<")
    if dt.kind not in "fiub":
        raise TrialFormatError(f"unsupported array dtype {dtype}")
    return dt


@dataclass(frozen=True)
class ArrayStream:
    """An array written chunk by chunk: shape and dtype go in the header, then the chunks' bytes in order.

    Each chunk is cast to `dtype` as a whole array would be; together the
    chunks must hold exactly the bytes the shape declares.
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    chunks: Iterable[np.ndarray]


HEADER_SLICE_ITEMS = 256
_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _header_pieces(value):
    """The text of _dumps(value) in pieces, a long list 256 items at a time: one dump would peak at twice its size."""
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + _dumps(key) + ":"
            yield from _header_pieces(value[key])
        yield "}" if value else "{}"
    elif isinstance(value, list) and len(value) > HEADER_SLICE_ITEMS:
        for lo in range(0, len(value), HEADER_SLICE_ITEMS):
            yield ("," if lo else "[") + _dumps(value[lo : lo + HEADER_SLICE_ITEMS])[1:-1]
        yield "]"
    else:
        yield _dumps(value)


def write_container(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray | ArrayStream]) -> None:
    path = Path(path)
    entries = []
    parts = []
    for name in sorted(arrays):
        arr = arrays[name]
        if not isinstance(arr, ArrayStream):
            # asarray keeps 0-d shapes
            arr = np.asarray(arr)
            arr = ArrayStream(arr.shape, arr.dtype, (arr,))
        dt = _canonical_dtype(arr.dtype)
        parts.append((name, dt, math.prod(arr.shape) * dt.itemsize, arr.chunks))
        entries.append({"dtype": dt.str, "name": name, "shape": list(arr.shape)})
    header = {"arrays": entries, "kind": kind, "meta": meta, "version": VERSION}

    # a unique name keeps concurrent writers apart; "x" mode creates it
    # with the same umask-derived permissions as a plain open
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            # the length goes in after the header; json.dumps escapes all non-ASCII, so the pieces are ASCII
            fh.write(MAGIC + bytes(8))
            header_len = sum(fh.write(piece.encode("ascii")) for piece in _header_pieces(header))
            fh.seek(len(MAGIC))
            fh.write(struct.pack("<Q", header_len))
            fh.seek(0, os.SEEK_END)
            for name, dt, declared, chunks in parts:
                written = 0
                for chunk in chunks:
                    # the file takes the chunk's own buffer when it is
                    # already little-endian and C-ordered
                    chunk = np.asarray(chunk, dtype=dt, order="C")
                    written += chunk.nbytes
                    if written > declared:
                        break
                    fh.write(chunk)
                if written != declared:
                    got = f"more than {declared}" if written > declared else str(written)
                    raise ContractError(f"array {name!r}: its chunks hold {got} bytes, its shape declares {declared}")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class ArrayEntry:
    """Where one array's bytes start in its container, and the array they make."""

    dtype: np.dtype
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize


def read_header(fh, path: Path, expect_kind: str | None = None) -> tuple[dict, dict[str, ArrayEntry]]:
    """The meta and the array entries by name of the container open at its start in `fh`.

    Every check of the file's structure is made here, before any array is
    read: each entry is well formed and its bytes lie inside the file.
    """
    size = os.fstat(fh.fileno()).st_size
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise TrialFormatError(f"{path}: bad magic {magic!r}")
    length_field = fh.read(8)
    if len(length_field) != 8:
        raise TrialFormatError(f"{path}: truncated header length")
    (hlen,) = struct.unpack("<Q", length_field)
    if hlen > size - fh.tell():
        raise TrialFormatError(f"{path}: header length {hlen} exceeds the file size {size}")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TrialFormatError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict) or not {"arrays", "meta", "version"} <= header.keys():
        raise TrialFormatError(f"{path}: header lacks arrays, meta or version")
    if not isinstance(header["arrays"], list):
        raise TrialFormatError(f"{path}: header arrays must be a list")
    if header["version"] != VERSION:
        raise TrialFormatError(f"{path}: unsupported container version {header['version']}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise TrialFormatError(f"{path}: expected kind {expect_kind!r}, found {header.get('kind')!r}")
    entries: dict[str, ArrayEntry] = {}
    offset = fh.tell()
    for entry in header["arrays"]:
        try:
            name, dt, shape = entry["name"], np.dtype(entry["dtype"]), tuple(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TrialFormatError(f"{path}: malformed array entry {entry!r}: {exc}") from None
        valid_shape = all(type(n) is int and n >= 0 for n in shape)
        if not isinstance(name, str) or dt.kind not in "fiub" or not valid_shape:
            raise TrialFormatError(f"{path}: malformed array entry {entry!r}")
        entries[name] = ArrayEntry(dt, shape, offset)
        offset += entries[name].nbytes
        if offset > size:
            raise TrialFormatError(f"{path}: truncated array {name!r}")
    return header["meta"], entries


def read_into(fh, path: Path, name: str, out: np.ndarray, offset: int) -> np.ndarray:
    """`out` filled with the bytes of array `name` from `offset` on in the container open in `fh`."""
    # the file's bytes land in the array itself: one copy, no bytes object
    fh.seek(offset)
    if fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
        raise TrialFormatError(f"{path}: truncated array {name!r}")
    return out


def read_container(path: str | Path, expect_kind: str | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    with open(path, "rb") as fh:
        meta, entries = read_header(fh, path, expect_kind)
        return meta, {name: read_into(fh, path, name, np.empty(entry.shape, entry.dtype), entry.offset)
                      for name, entry in entries.items()}
