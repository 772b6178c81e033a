"""Hierarchical three-branch 1-d CNN over overlapping body clusters.

Each cluster (21/15/21 features wide) runs through its own stack of
widening convolutions with halving max-pools; the first convolution of
every branch is dilated (one zero between taps) to widen its receptive
field. Branch outputs are flattened, concatenated, and classified by a
small dense head.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# perfbench's tracer patches read_container and write_container by name on this module
from ..container import JsonRecord, read_container, write_container  # noqa: F401
from ..dataset.preprocess import SEQUENCE_LENGTH
from ..errors import ContractError, SettingError, ShapeError
from ..nn import Sequential, Tensor, concat
from ..nn.checkpoint import load_model, save_model
from ..nn.layers import Activation, Conv1D, Dense, Dropout, Flatten, MaxPool, Model
from ..seeding import derive_rng
from .tasks import BRANCH_COLUMNS

BRANCH_WIDTHS = tuple(len(cols) for cols in BRANCH_COLUMNS)


@dataclass(frozen=True)
class HierarchicalNetSpec(JsonRecord):
    n_classes: int
    branch_filters: tuple[int, int, int] = (4, 8, 8)
    dense_width: int = 32
    dropout: float = 0.25
    kernel: int = 3
    first_spacing: int = 1

    def __post_init__(self):
        if self.n_classes < 2:
            raise SettingError(f"need at least 2 classes, got {self.n_classes}")
        if any(f < 1 for f in self.branch_filters) or self.dense_width < 1 or self.kernel < 1:
            raise SettingError("filter counts, dense width, and kernel must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise SettingError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.first_spacing < 0:
            raise SettingError(f"first_spacing must be at least 0, got {self.first_spacing}")
        span = (self.kernel - 1) * (self.first_spacing + 1) + 1
        if span > SEQUENCE_LENGTH:
            raise SettingError(
                f"kernel {self.kernel} at first_spacing {self.first_spacing} spans {span} frames,"
                f" more than the {SEQUENCE_LENGTH}-frame sequence"
            )


class HierarchicalClassifier(Model):
    """Three parallel conv branches -> concat -> dense head -> logits."""

    def __init__(self, spec: HierarchicalNetSpec, seed: int = 0):
        self.spec = spec
        f1, f2, f3 = spec.branch_filters
        self.branches: list[Sequential] = []
        for b, width in enumerate(BRANCH_WIDTHS):
            rng = derive_rng(seed, "branch", b)
            self.branches.append(
                Sequential(
                    [
                        Conv1D(spec.kernel, width, f1, spacing=spec.first_spacing, rng=rng),
                        Activation("relu"),
                        MaxPool(2),
                        Conv1D(spec.kernel, f1, f2, rng=rng),
                        Activation("relu"),
                        MaxPool(2),
                        Conv1D(spec.kernel, f2, f3, rng=rng),
                        Activation("relu"),
                        MaxPool(2),
                        Flatten(),
                    ]
                )
            )
        concat_width = 3 * (SEQUENCE_LENGTH // 8) * f3
        rng = derive_rng(seed, "head")
        self.head = Sequential(
            [
                Dense(concat_width, spec.dense_width, rng=rng),
                Activation("relu"),
                Dropout(spec.dropout),
                Dense(spec.dense_width, spec.n_classes, rng=rng),
            ]
        )

    def forward(
        self,
        views: tuple[Tensor, Tensor, Tensor],
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """views: three (B, 32, width) tensors -> (B, n_classes) logits."""
        for v, width in zip(views, BRANCH_WIDTHS):
            if v.ndim != 3 or v.shape[1] != SEQUENCE_LENGTH or v.shape[2] != width:
                raise ShapeError(f"branch input must be (B, {SEQUENCE_LENGTH}, {width}), got {v.shape}")
        outs = [branch.forward(v, training=training, rng=rng) for branch, v in zip(self.branches, views)]
        h = concat(outs, axis=1)
        return self.head.forward(h, training=training, rng=rng)

    __call__ = forward

    def parts(self) -> dict[str, Sequential]:
        """The branches and the head, keyed by the prefix of their saved arrays."""
        return {**{f"branch{b}": branch for b, branch in enumerate(self.branches)}, "head": self.head}

    def architecture(self) -> dict:
        return {"hierarchical": self.spec.to_dict()}

    @classmethod
    def from_architecture(cls, arch: dict) -> "HierarchicalClassifier":
        if not isinstance(arch, dict) or set(arch) != {"hierarchical"}:
            raise ContractError("checkpoint does not hold a hierarchical classifier")
        return cls(HierarchicalNetSpec.from_dict(arch["hierarchical"]))

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        save_model(path, self, extra)

    @classmethod
    def load(cls, path: str | Path) -> tuple["HierarchicalClassifier", dict]:
        return load_model(path, cls)
