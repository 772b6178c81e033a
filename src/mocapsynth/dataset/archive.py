"""Sequence-set archives: stacked 32x48 matrices, labels, and norm stats."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..container import ArrayStream, read_container, write_container
from ..errors import ContractError, ShapeError, TrialFormatError
from ..markers import N_FEATURES
from .preprocess import SEQUENCE_LENGTH, NormStats, SequenceSet
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


def load_sequences(path: str | Path) -> tuple[SequenceSet, NormStats | None, dict]:
    meta, arrays = read_container(path, expect_kind=KIND)
    if "data" not in arrays or not isinstance(meta, dict) or not {"normalized", "names", "labels"} <= meta.keys():
        raise TrialFormatError(f"{path}: a sequence archive needs data, normalized, names and labels")
    names, labels, normalized, extra = meta["names"], meta["labels"], meta["normalized"], meta.get("extra", {})
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names) and type(normalized) is bool
            and isinstance(labels, list) and all(m is None or isinstance(m, dict) for m in labels)
            and isinstance(extra, dict)):
        raise TrialFormatError(f"{path}: names must be strings, labels objects or nulls, normalized a boolean, extra an object")
    seen = {}  # one TrialMeta per distinct label dict, built once: augmented copies share their source's
    try:
        metas = [seen.get(key := repr(d)) or seen.setdefault(key, TrialMeta.from_dict(d)) if d else None for d in labels]
        sequences = SequenceSet(arrays["data"], names, metas, normalized)
        stats = NormStats.from_arrays(arrays) if "norm_mean" in arrays else None
    except (ContractError, ShapeError) as exc:
        raise TrialFormatError(f"{path}: {exc}") from None
    return sequences, stats, extra
