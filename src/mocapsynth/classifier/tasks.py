"""Task definitions: label extraction, filtering, balancing, and splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.preprocess import MotionSequence, cluster_columns
from ..errors import ContractError, DataError, LabelError
from ..seeding import derive_rng

WEIGHT_CLASSES = (640, 1640)  # lightest vs heaviest load
BALANCE_CLASSES = ("balanced", "unbalanced")
STRATEGY_CLASSES = ("A", "B", "C", "D", "G")  # the five most frequent
TASKS = ("weight", "balance", "strategy")
DEFAULT_VALIDATION = {"weight": 50, "balance": 100, "strategy": 100}


@dataclass(frozen=True)
class TaskSpec:
    task: str
    validation_size: int = 0  # 0 means the task default
    augment_factor: int = 10

    def __post_init__(self):
        if self.task not in TASKS:
            raise ContractError(f"unknown task {self.task!r}; expected one of {TASKS}")

    @property
    def n_validation(self) -> int:
        return self.validation_size or DEFAULT_VALIDATION[self.task]

    @property
    def class_names(self) -> tuple[str, ...]:
        if self.task == "weight":
            return ("heavy", "heaviest")
        if self.task == "balance":
            return BALANCE_CLASSES
        return STRATEGY_CLASSES

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def label_of(self, seq: MotionSequence) -> int:
        if seq.meta is None:
            raise LabelError(f"sequence {seq.name!r} carries no metadata")
        if self.task == "weight":
            if seq.meta.weight_g not in WEIGHT_CLASSES:
                raise LabelError(f"weight {seq.meta.weight_g} outside the two-class task")
            return WEIGHT_CLASSES.index(seq.meta.weight_g)
        if self.task == "balance":
            return BALANCE_CLASSES.index(seq.meta.balance)
        if seq.meta.strategy not in STRATEGY_CLASSES:
            raise LabelError(f"strategy {seq.meta.strategy!r} outside the five-class task")
        return STRATEGY_CLASSES.index(seq.meta.strategy)


def filter_for_task(sequences: list[MotionSequence], spec: TaskSpec) -> list[MotionSequence]:
    """Keep only sequences whose labels belong to the task."""
    if spec.task == "weight":
        return [s for s in sequences if s.meta and s.meta.weight_g in WEIGHT_CLASSES]
    if spec.task == "strategy":
        return [s for s in sequences if s.meta and s.meta.strategy in STRATEGY_CLASSES]
    return [s for s in sequences if s.meta is not None]


def balance_classes(
    sequences: list[MotionSequence], spec: TaskSpec, seed: int
) -> list[MotionSequence]:
    """Downsample every class to the smallest class count (weight task only)."""
    rng = derive_rng(seed, "balance-classes")
    by_class: dict[int, list[MotionSequence]] = {}
    for s in sequences:
        by_class.setdefault(spec.label_of(s), []).append(s)
    if not by_class:
        raise DataError("no sequences left after task filtering")
    target = min(len(v) for v in by_class.values())
    out: list[MotionSequence] = []
    for label in sorted(by_class):
        group = by_class[label]
        if len(group) > target:
            keep = rng.choice(len(group), size=target, replace=False)
            group = [group[i] for i in sorted(keep)]
        out.extend(group)
    return out


def validation_split(
    sequences: list[MotionSequence], n_validation: int, seed: int
) -> tuple[list[MotionSequence], list[MotionSequence]]:
    """Uniform seeded split without replacement; validation drawn first."""
    if n_validation >= len(sequences):
        raise DataError(f"validation size {n_validation} >= dataset size {len(sequences)}")
    rng = derive_rng(seed, "validation-split")
    picks = set(rng.choice(len(sequences), size=n_validation, replace=False).tolist())
    val = [s for i, s in enumerate(sequences) if i in picks]
    train = [s for i, s in enumerate(sequences) if i not in picks]
    return train, val


def cluster_views(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split stacked (n, 32, 48) feature matrices into the three branch views."""
    cols = cluster_columns()
    return (
        data[:, :, cols["cluster1"]],
        data[:, :, cols["cluster2"]],
        data[:, :, cols["cluster3"]],
    )


def labels_of(sequences: list[MotionSequence], spec: TaskSpec) -> np.ndarray:
    return np.array([spec.label_of(s) for s in sequences], dtype=int)
