"""Task definitions: one label rule per task, and row-index balancing and splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.trials import BALANCES, WEIGHT_NAMES, WEIGHTS_G
from ..errors import ContractError, DataError, SettingError
from ..markers import CLUSTERS
from ..seeding import derive_rng

WEIGHT_CLASSES = (WEIGHTS_G[0], WEIGHTS_G[-1])  # lightest vs heaviest load
STRATEGY_CLASSES = ("A", "B", "C", "D", "G")  # the five most frequent
# task -> the label field it reads and the values that are its classes, in class order
_CLASSES = {
    "weight": ("weight_g", WEIGHT_CLASSES),
    "balance": ("balance", BALANCES),
    "strategy": ("strategy", STRATEGY_CLASSES),
}
TASKS = tuple(_CLASSES)
DEFAULT_VALIDATION = {"weight": 50, "balance": 100, "strategy": 100}
# each branch's feature columns: x, y and z of each marker of its cluster, in cluster order
BRANCH_COLUMNS = tuple([3 * m + axis for m in cluster for axis in range(3)] for cluster in CLUSTERS)
_BRANCH_INDEX = tuple(np.array(cols, dtype=np.intp) for cols in BRANCH_COLUMNS)  # a list is converted at every use


@dataclass(frozen=True)
class TaskSpec:
    task: str
    validation_size: int = 0  # 0 means the task default
    augment_factor: int = 10

    def __post_init__(self):
        if self.task not in TASKS:  # a ContractError: eval-classifier reads the task from a checkpoint
            raise ContractError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.validation_size < 0 or self.augment_factor < 1:
            raise SettingError(f"a task needs a validation size >= 0 and an augment factor >= 1, "
                               f"got {self.validation_size} and {self.augment_factor}",
                               "validation_size", "augment_factor")

    @property
    def n_validation(self) -> int:
        return self.validation_size or DEFAULT_VALIDATION[self.task]

    @property
    def class_names(self) -> tuple[str, ...]:
        classes = _CLASSES[self.task][1]
        return tuple(WEIGHT_NAMES[w] for w in classes) if self.task == "weight" else classes

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def labels(self, metas) -> np.ndarray:
        """Each row's class index: -1 for an unlabelled row or a value outside the task's classes."""
        field, classes = _CLASSES[self.task]
        index = {value: i for i, value in enumerate(classes)}
        return np.array([-1 if m is None else index.get(getattr(m, field), -1) for m in metas], dtype=int)


def balance_classes(labels: np.ndarray, seed: int) -> np.ndarray:
    """Rows that downsample every class to the smallest class count; -1 rows are left out.

    Classes come in sorted order and each class's rows ascending.
    """
    rng = derive_rng(seed, "balance-classes")
    labels = np.asarray(labels)
    groups = [np.flatnonzero(labels == c) for c in np.unique(labels[labels >= 0])]
    if not groups:
        raise DataError("no sequences left after task filtering")
    target = min(len(g) for g in groups)
    return np.concatenate([
        g[np.sort(rng.choice(len(g), size=target, replace=False))] if len(g) > target else g for g in groups
    ])


def validation_split(n: int, n_validation: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Training and validation positions in range(n), each ascending; validation is drawn uniformly."""
    if n_validation >= n:
        raise DataError(f"validation size {n_validation} >= dataset size {n}")
    rng = derive_rng(seed, "validation-split")
    is_val = np.zeros(n, dtype=bool)
    is_val[rng.choice(n, size=n_validation, replace=False)] = True
    return np.flatnonzero(~is_val), np.flatnonzero(is_val)


def cluster_views(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split stacked (n, 32, 48) feature matrices into the three branch views."""
    return tuple(data[:, :, cols] for cols in _BRANCH_INDEX)
