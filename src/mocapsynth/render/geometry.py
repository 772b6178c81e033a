"""Per-frame sphere and cylinder geometry for a motion sequence."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, DegenerateBoneError, StateError
from ..markers import BOWL, HEAD, MARKER_NAMES, N_BODY_MARKERS, WAIST
from .topology import HEAD_CENTER, NODE_NAMES, PELVIS, SkeletonTopology, default_topology

SPHERE_RADIUS = 0.03
CYLINDER_RADIUS = 0.015
BOWL_RADIUS = 0.05


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    tag: str


@dataclass(frozen=True)
class Cylinder:
    center: np.ndarray
    axis: np.ndarray
    length: float
    radius: float


@dataclass
class GeometryFrame:
    frame_index: int
    spheres: list[Sphere] = field(default_factory=list)
    cylinders: list[Cylinder] = field(default_factory=list)


def cylinder_between(p1, p2) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Midpoint, unit direction and length of the segment p1 -> p2, or of each segment of a block (..., 3).

    A length is the sqrt of the BLAS dot product np.linalg.norm takes, so
    it has norm's bits. A lone segment of length 0 has no direction, a
    DegenerateBoneError; in a block it keeps length 0 and a non-finite axis.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    delta = p2 - p1
    length = np.sqrt(np.matmul(delta[..., None, :], delta[..., :, None]))[..., 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        center, axis = (p1 + p2) / 2.0, delta / length[..., None]
    if delta.ndim == 1:
        if length == 0.0:
            raise DegenerateBoneError("coincident endpoints leave the cylinder axis undefined")
        length = float(length)
    return center, axis, length


# the spheres of a frame, in order: the body markers, the inferred nodes, the bowl
_SPHERE_NODES = tuple(MARKER_NAMES[:N_BODY_MARKERS]) + (PELVIS, HEAD_CENTER, MARKER_NAMES[BOWL])
_SPHERE_RADII = tuple(BOWL_RADIUS if node == MARKER_NAMES[BOWL] else SPHERE_RADIUS for node in _SPHERE_NODES)


def build_geometry(seq, topo: SkeletonTopology | None = None) -> list[GeometryFrame]:
    """One GeometryFrame per time step: 18 spheres plus one cylinder per bone.

    Spheres cover the 15 body markers, the inferred pelvis and head
    center, and the bowl. Every frame's nodes and every bone's cylinder
    are formed in one pass over the whole sequence. A bone whose
    endpoints coincide in some frame is skipped for that frame with a
    warning; a non-finite coordinate is a DataError.
    """
    if getattr(seq, "normalized", False):
        raise StateError("render world-space sequences; invert the normalizer first")
    topo = topo or default_topology()
    points = seq.points()
    finite = np.isfinite(points).all(axis=(1, 2))
    if not finite.all():
        raise DataError(f"sequence {seq.name!r}: frame {int(np.argmin(finite))} has a non-finite coordinate")
    # (frames, nodes, 3) in NODE_NAMES order: the markers, then the pelvis and the head center
    nodes = np.concatenate([points, points[:, WAIST].mean(axis=1, keepdims=True),
                            points[:, HEAD].mean(axis=1, keepdims=True)], axis=1)
    spheres = nodes[:, [NODE_NAMES.index(node) for node in _SPHERE_NODES]]
    first = [NODE_NAMES.index(a) for a, _ in topo.bones]
    second = [NODE_NAMES.index(b) for _, b in topo.bones]
    centers, axes, lengths = cylinder_between(nodes[:, first], nodes[:, second])
    frames = []
    for t, lengths_t in enumerate(lengths.tolist()):
        frame = GeometryFrame(t, [Sphere(*sphere) for sphere in zip(spheres[t], _SPHERE_RADII, _SPHERE_NODES)])
        for (a, b), center, axis, length in zip(topo.bones, centers[t], axes[t], lengths_t):
            if length == 0.0:
                warnings.warn(f"frame {t}: bone {a}-{b} has coincident endpoints, skipped")
                continue
            frame.cylinders.append(Cylinder(center, axis, length, CYLINDER_RADIUS))
        frames.append(frame)
    return frames
