"""Skeleton wiring: which nodes get joined by cylinders.

Nodes are the 15 body markers plus two inferred points, the pelvis
(centroid of the four waist markers) and the head center (centroid of
the four head markers). The default bone table is a readable guess at
a stick figure; it is deliberately stored as plain JSON so a different
wiring can be swapped in without touching code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..container import JsonRecord
from ..errors import ContractError, SettingError
from ..markers import MARKER_NAMES

PELVIS = "pelvis"
HEAD_CENTER = "head_center"
NODE_NAMES = tuple(MARKER_NAMES) + (PELVIS, HEAD_CENTER)

DEFAULT_BONES = (
    # head markers in a loop
    ("head_fl", "head_fr"),
    ("head_fr", "head_br"),
    ("head_br", "head_bl"),
    ("head_bl", "head_fl"),
    # shoulder girdle
    ("shoulder_l", "c7"),
    ("shoulder_r", "c7"),
    # spine
    ("c7", PELVIS),
    # waist markers in a loop
    ("waist_fl", "waist_fr"),
    ("waist_fr", "waist_br"),
    ("waist_br", "waist_bl"),
    ("waist_bl", "waist_fl"),
    # arms
    ("hand_l", "shoulder_l"),
    ("hand_r", "shoulder_r"),
    # legs, attached to the same-side waist markers
    ("foot_l", "waist_fl"),
    ("foot_r", "waist_fr"),
)


@dataclass(frozen=True)
class SkeletonTopology(JsonRecord):
    bones: tuple[tuple[str, str], ...]

    def __post_init__(self):
        for a, b in self.bones:
            for end in (a, b):
                if end not in NODE_NAMES:
                    raise ContractError(
                        f"bone endpoint {end!r} is not a marker or inferred node"
                    )
            if a == b:
                raise ContractError(f"bone {a!r}-{b!r} joins a node to itself")

    @classmethod
    def from_json(cls, text: str | bytes) -> "SkeletonTopology":
        """The bone table of a JSON document; any fault in it is a ContractError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ContractError(f"topology is not JSON: {exc}") from None
        try:
            return cls.from_dict(doc)
        except SettingError as exc:  # a fault of the file, not a refused setting
            raise ContractError(f"topology: {exc}") from None


def default_topology() -> SkeletonTopology:
    return SkeletonTopology(DEFAULT_BONES)


def load_topology(path) -> SkeletonTopology:
    return SkeletonTopology.from_json(Path(path).read_bytes())
