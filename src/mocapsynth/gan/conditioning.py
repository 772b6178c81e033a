"""Condition labels for class-aware synthesis.

Six classes: the cross of three bowl weights and two balance states.
The generator sees the label as a one-hot block appended to the noise
vector; the critic sees it as six constant channels appended to the
sequence, so every time step carries the same class information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.trials import BALANCES, WEIGHT_NAMES, WEIGHTS_G
from ..errors import LabelError, SettingError, ShapeError
from ..nn import Tensor, concat

CONDITION_CLASSES = tuple((WEIGHT_NAMES[w], b) for w in WEIGHTS_G for b in BALANCES)
N_CONDITIONS = len(CONDITION_CLASSES)


@dataclass(frozen=True)
class ConditionLabel:
    weight_name: str
    balance: str

    def __post_init__(self):
        if self.weight_name not in WEIGHT_NAMES.values():
            raise SettingError(f"unknown weight class {self.weight_name!r}", "label")
        if self.balance not in BALANCES:
            raise SettingError(f"unknown balance class {self.balance!r}", "label")

    @property
    def index(self) -> int:
        return CONDITION_CLASSES.index((self.weight_name, self.balance))

    @classmethod
    def from_meta(cls, meta) -> "ConditionLabel":
        return cls(WEIGHT_NAMES[meta.weight_g], meta.balance)


def onehot_batch(indices: np.ndarray) -> np.ndarray:
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ShapeError("condition indices must be a vector")
    if indices.size and (indices.min() < 0 or indices.max() >= N_CONDITIONS):
        raise LabelError("condition index out of range")
    out = np.zeros((indices.size, N_CONDITIONS))
    out[np.arange(indices.size), indices] = 1.0
    return out


def _check_onehot(labels: np.ndarray, batch: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (batch, N_CONDITIONS):
        raise ShapeError(
            f"labels must be ({batch}, {N_CONDITIONS}), got {labels.shape}"
        )
    ones = (labels == 1.0).sum(axis=1)
    zeros = (labels == 0.0).sum(axis=1)
    if not np.all((ones == 1) & (zeros == N_CONDITIONS - 1)):
        raise ShapeError("each label row must be one-hot: exactly one 1, rest 0")
    return labels


def condition_concat(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Append one-hot labels to noise vectors: (B, noise) -> (B, noise + 6)."""
    z = np.asarray(z)
    if z.ndim != 2:
        raise ShapeError(f"noise must be (batch, dim), got {z.shape}")
    labels = _check_onehot(labels, z.shape[0])
    return np.concatenate([z, labels], axis=1)


def condition_channels(seq: Tensor, labels: np.ndarray) -> Tensor:
    """Broadcast labels along time: (B, T, C) -> (B, T, C + 6), keeping seq's graph."""
    if seq.ndim != 3:
        raise ShapeError(f"sequences must be (batch, steps, channels), got {seq.shape}")
    b, t, _ = seq.shape
    labels = _check_onehot(labels, b)
    block = np.broadcast_to(labels[:, None, :], (b, t, N_CONDITIONS))
    return concat([seq, Tensor(np.ascontiguousarray(block))], axis=2)
