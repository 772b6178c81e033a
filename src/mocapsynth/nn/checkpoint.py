"""Model checkpoints: the architecture plus weights in one container file.

This module is the only reader and writer of "model" containers. The
architecture is a list of layer specs for a Sequential, or
{"hierarchical": {...}} for the classifier; each model class rebuilds
itself from its own form, and its load_state checks the saved arrays.
"""

from __future__ import annotations

from pathlib import Path

from ..container import read_container, write_container
from ..errors import ContractError
from .layers import Sequential

KIND = "model"


def save_model(path: str | Path, model, meta: dict | None = None) -> None:
    header = {
        "architecture": model.architecture(),
        "extra": meta or {},
    }
    write_container(path, KIND, header, model.state_arrays())


def load_model(path: str | Path, model_type=Sequential) -> tuple:
    """(model, extra meta) of a saved `model_type`; any fault in the file is a ContractError."""
    meta, arrays = read_container(path, expect_kind=KIND)
    extra = meta.get("extra", {}) if isinstance(meta, dict) else None
    if not isinstance(extra, dict) or "architecture" not in meta:
        raise ContractError(f"{path}: a model checkpoint needs an architecture and an extra object")
    try:
        model = model_type.from_architecture(meta["architecture"])
        model.load_state(arrays)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None
    return model, extra
