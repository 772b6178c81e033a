"""Sequence-set archives: stacked 32x48 matrices, labels, and norm stats."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# read_container stays importable here, where profilers wrap it, though the archive reads go through read_header
from ..container import ArrayStream, read_container, read_header, read_into, write_container  # noqa: F401
from ..errors import ContractError, StateError, TrialFormatError
from ..markers import N_FEATURES
from .preprocess import SEQUENCE_LENGTH, NormStats, SequenceSet, apply_zscore
from .trials import TrialMeta

KIND = "sequences"


@dataclass(frozen=True)
class SequenceStream:
    """Rows named and labelled up front whose data comes later, as (k, 32, 48) blocks in row order.

    save_sequences writes the header from the names and labels, then each
    block as it arrives, so the rows are never held all at once. Its rows
    are world-space: an archive of normalized rows carries its norm stats,
    which are fitted to the whole set.
    """

    names: list[str]
    labels: list[TrialMeta | None]
    blocks: Iterable[np.ndarray]

    def __len__(self) -> int:
        return len(self.names)


def save_sequences(
    path: str | Path,
    sequences,
    stats: NormStats | None = None,
    extra: dict | None = None,
) -> None:
    """Write a SequenceSet, a SequenceStream or a list of MotionSequence, with optional norm stats."""
    if isinstance(sequences, SequenceStream):
        data = ArrayStream((len(sequences), SEQUENCE_LENGTH, N_FEATURES), np.float64, sequences.blocks)
        normalized = False
    else:
        sequences = SequenceSet.of(sequences)
        data, normalized = sequences.data, sequences.normalized
    if not len(sequences):
        raise ContractError("refusing to write an empty sequence archive")
    # augmented copies share their source's label: one dict per distinct label
    dicts = {m: m.to_dict() for m in set(sequences.labels) if m}
    meta = {
        "normalized": normalized,
        "names": sequences.names,
        "labels": [dicts[m] if m else None for m in sequences.labels],
        "extra": extra or {},
    }
    arrays = {"data": data}
    if stats is not None:
        arrays.update(stats.to_arrays())
    write_container(path, KIND, meta, arrays)


class ArchiveRows:
    """A sequence archive held as its header, labels and norm stats, with its rows read from the file on demand.

    rows[idx] reads the rows that idx names, in that order, into a new
    (len(idx), 32, 48) block, one read per row, and take(idx) makes a
    SequenceSet of them; frame_chunks reads every frame in row order, a
    chunk at a time. After zscore_on_read(stats), each block read comes
    out as apply_zscore makes it. Every check of the file is made when it
    is opened. The file stays open until close(): the package's writers
    replace a file by rename, so rewriting the archive does not change
    what an open one reads.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def _read_header(self) -> None:
        path = self.path
        meta, entries = read_header(self._fh, path, expect_kind=KIND)
        if "data" not in entries or not isinstance(meta, dict) or not {"normalized", "names", "labels"} <= meta.keys():
            raise TrialFormatError(f"{path}: a sequence archive needs data, normalized, names and labels")
        names, labels, normalized, extra = meta["names"], meta["labels"], meta["normalized"], meta.get("extra", {})
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names) and type(normalized) is bool
                and isinstance(labels, list) and all(m is None or isinstance(m, dict) for m in labels)
                and isinstance(extra, dict)):
            raise TrialFormatError(f"{path}: names must be strings, labels objects or nulls, normalized a boolean, extra an object")
        data = entries["data"]
        if data.dtype != np.float64 or data.shape[1:] != (SEQUENCE_LENGTH, N_FEATURES):
            raise TrialFormatError(f"{path}: data must be a <f8 array of (n, {SEQUENCE_LENGTH}, {N_FEATURES}),"
                                   f" got {data.dtype.str} {list(data.shape)}")
        if not len(names) == len(labels) == data.shape[0]:
            raise TrialFormatError(f"{path}: {data.shape[0]} sequences, {len(names)} names and {len(labels)} labels")
        seen = {}  # one TrialMeta per distinct label dict, built once: augmented copies share their source's
        self.labels = [seen.get(key := repr(d)) or seen.setdefault(key, TrialMeta.from_dict(d)) if d else None
                       for d in labels]
        arrays = {name: read_into(self._fh, path, name, np.empty(e.shape, e.dtype), e.offset)
                  for name, e in entries.items() if name in ("norm_mean", "norm_std")}
        try:
            self.stats = NormStats.from_arrays(arrays) if "norm_mean" in arrays else None
        except ContractError as exc:
            raise TrialFormatError(f"{path}: {exc}") from None
        self.names, self.normalized, self.extra = names, normalized, extra
        self.shape = data.shape
        self._offset = data.offset
        self._zscore: NormStats | None = None

    def __len__(self) -> int:
        return self.shape[0]

    def __enter__(self) -> "ArchiveRows":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def _read(self, out: np.ndarray, frame: int) -> np.ndarray:
        return read_into(self._fh, self.path, "data", out, self._offset + frame * (N_FEATURES * 8))

    def read_block(self) -> np.ndarray:
        """Every row, as stored, in one (n, 32, 48) block."""
        return self._read(np.empty(self.shape), 0)

    def frame_chunks(self, frames: int):
        """Every row's frames as stored, in order, in (k, 48) blocks of up to `frames` frames."""
        total = len(self) * SEQUENCE_LENGTH
        for lo in range(0, total, frames):
            yield self._read(np.empty((min(frames, total - lo), N_FEATURES)), lo)

    def zscore_on_read(self, stats: NormStats) -> None:
        """From now on, z-score each block read by `stats`; the rows are then normalized under them."""
        if self.normalized:
            raise StateError("the sequence set is already normalized")
        self.normalized, self.stats, self._zscore = True, stats, stats

    def take(self, idx) -> SequenceSet:
        """A new set of the rows that idx names, in that order."""
        picked = np.asarray(idx, dtype=np.intp).tolist()
        return SequenceSet(self[picked], [self.names[i] for i in picked], [self.labels[i] for i in picked],
                           self.normalized)

    def __getitem__(self, idx) -> np.ndarray:
        rows = np.asarray(idx, dtype=np.intp).tolist()
        if rows and not 0 <= min(rows) <= max(rows) < len(self):
            raise IndexError(f"rows {min(rows)}..{max(rows)} of an archive of {len(self)}")
        out = np.empty((len(rows), SEQUENCE_LENGTH, N_FEATURES))
        for row, i in zip(out, rows):
            self._read(row, i * SEQUENCE_LENGTH)
        if self._zscore is not None:
            picked = SequenceSet(out, [self.names[i] for i in rows], [self.labels[i] for i in rows])
            apply_zscore(picked, self._zscore, out=out)
        return out


def load_sequences(path: str | Path) -> tuple[SequenceSet, NormStats | None, dict]:
    with ArchiveRows(path) as rows:
        data = rows.read_block()
    return SequenceSet(data, rows.names, rows.labels, rows.normalized), rows.stats, rows.extra
