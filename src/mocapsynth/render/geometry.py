"""Whole-sequence sphere and cylinder geometry for a motion sequence."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, DegenerateBoneError, StateError
from ..markers import BOWL, HEAD, MARKER_NAMES, N_BODY_MARKERS, WAIST
from .topology import HEAD_CENTER, NODE_NAMES, PELVIS, SkeletonTopology, default_topology

SPHERE_RADIUS = 0.03
CYLINDER_RADIUS = 0.015
BOWL_RADIUS = 0.05

# the spheres of a frame, in order: the body markers, the inferred nodes, the bowl
SPHERE_TAGS = tuple(MARKER_NAMES[:N_BODY_MARKERS]) + (PELVIS, HEAD_CENTER, MARKER_NAMES[BOWL])
SPHERE_RADII = tuple(BOWL_RADIUS if tag == MARKER_NAMES[BOWL] else SPHERE_RADIUS for tag in SPHERE_TAGS)


@dataclass(frozen=True, eq=False)
class Geometry:
    """A sequence's spheres and its bones' cylinders, every frame at once.

    spheres is (frames, 18, 3), in SPHERE_TAGS order. centers and axes
    are (frames, bones, 3) and lengths (frames, bones), in the order of
    bones. A bone whose endpoints coincide in a frame has length 0 and a
    non-finite axis there; the exporters leave it out of that frame.
    """

    spheres: np.ndarray
    centers: np.ndarray
    axes: np.ndarray
    lengths: np.ndarray
    bones: tuple[tuple[str, str], ...]


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


def build_geometry(seq, topo: SkeletonTopology | None = None) -> Geometry:
    """The 18 spheres and one cylinder per bone of every frame, formed in one pass over the sequence.

    Spheres cover the 15 body markers, the inferred pelvis and head
    center, and the bowl. A bone whose endpoints coincide in some frame
    keeps length 0 there, with one warning per frame and bone; a
    non-finite coordinate is a DataError.
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
    first = [NODE_NAMES.index(a) for a, _ in topo.bones]
    second = [NODE_NAMES.index(b) for _, b in topo.bones]
    centers, axes, lengths = cylinder_between(nodes[:, first], nodes[:, second])
    for t, bone in np.argwhere(lengths == 0.0).tolist():
        a, b = topo.bones[bone]
        warnings.warn(f"frame {t}: bone {a}-{b} has coincident endpoints, skipped")
    return Geometry(nodes[:, [NODE_NAMES.index(tag) for tag in SPHERE_TAGS]], centers, axes, lengths, topo.bones)
