"""Sequence-set archives: stacked 32x48 matrices, labels, and norm stats."""

from __future__ import annotations

from pathlib import Path

from ..container import read_container, write_container
from ..errors import ContractError, ShapeError, TrialFormatError
from .preprocess import NormStats, SequenceSet
from .trials import TrialMeta

KIND = "sequences"


def save_sequences(
    path: str | Path,
    sequences,
    stats: NormStats | None = None,
    extra: dict | None = None,
) -> None:
    """Write a SequenceSet (or a list of MotionSequence) with optional norm stats."""
    sequences = SequenceSet.of(sequences)
    if not len(sequences):
        raise ContractError("refusing to write an empty sequence archive")
    # augmented copies share their source's label: one dict per distinct label
    dicts = {m: m.to_dict() for m in set(sequences.labels) if m}
    meta = {
        "normalized": sequences.normalized,
        "names": sequences.names,
        "labels": [dicts[m] if m else None for m in sequences.labels],
        "extra": extra or {},
    }
    arrays = {"data": sequences.data}
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
    try:
        sequences = SequenceSet(arrays["data"], names, [TrialMeta.from_dict(m) if m else None for m in labels], normalized)
        stats = NormStats.from_arrays(arrays) if "norm_mean" in arrays else None
    except (ContractError, ShapeError) as exc:
        raise TrialFormatError(f"{path}: {exc}") from None
    return sequences, stats, extra
