"""Label-preserving geometric augmentation of world-space motion sequences.

Every transform works on unnormalized coordinates. One augmented sample
composes a rotation about the bowl's starting point, a scale about the
torso center, and a floor-plane translation, each drawn independently.
The rotation pivot is defined on the original bowl position, so rotation
is applied first, then scale, then translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .container import JsonRecord
from .dataset.preprocess import SEQUENCE_LENGTH, SequenceSet, writable_block
from .errors import ContractError, SettingError, StateError
from .markers import BOWL, N_MARKERS, SHOULDERS, WAIST
from .seeding import derive_uniforms


@dataclass(frozen=True)
class AugmentSpec(JsonRecord):
    translate_m: float = 0.20  # +- range along X and Y
    scale_lo: float = 0.85
    scale_hi: float = 1.15
    rotate_lo_deg: float = 0.0
    rotate_hi_deg: float = 60.0
    factor: int = 10
    seed: int = 0

    def __post_init__(self):
        # each range is drawn with Generator.uniform, which needs hi - lo finite and >= 0
        for what, lo, hi, names in (
            ("rotation", self.rotate_lo_deg, self.rotate_hi_deg, ("rotate_lo_deg", "rotate_hi_deg")),
            ("scale", self.scale_lo, self.scale_hi, ("scale_lo", "scale_hi")),
            ("translation", -self.translate_m, self.translate_m, ("translate_m",)),
        ):
            if not 0 <= hi - lo < math.inf:
                raise SettingError(f"bad {what} range [{lo}, {hi}]", *names)
        if self.scale_lo <= 0:
            raise SettingError(f"bad scale range [{self.scale_lo}, {self.scale_hi}]", "scale_lo")
        if self.factor < 1:
            raise SettingError(f"factor must be >= 1, got {self.factor}", "factor")


# The kernels work on coordinate planes, shaped (3, ..., 32, 16), so each
# pass runs over contiguous memory, and per-copy parameters broadcast
# against one plane: one source with (n, 1, 1) parameters gives n copies.
# The arithmetic is elementwise, so a block equals its copies made one at a
# time, bit for bit. (The in-place updates only swap the operands of + and
# *, which IEEE arithmetic does not see.)


def _rotated(pts: np.ndarray, c, s, out: np.ndarray) -> np.ndarray:
    """pts (..., 32, 16, 3) turned by cosine c and sine s about the vertical through the frame-0 bowl.

    The planes go into `out` (3, ..., 32, 16), whose z plane holds x's and then y's last term until z is written.
    """
    pivot_x = pts[..., :1, BOWL : BOWL + 1, 0]
    pivot_y = pts[..., :1, BOWL : BOWL + 1, 1]
    rel_x = pts[..., 0] - pivot_x
    rel_y = pts[..., 1] - pivot_y
    x, y, z = out
    np.multiply(s, rel_y, out=z)
    np.multiply(c, rel_x, out=x)
    x += pivot_x
    x -= z  # pivot_x + c * rel_x - s * rel_y
    np.multiply(c, rel_y, out=z)
    np.multiply(s, rel_x, out=y)
    y += pivot_y
    y += z  # pivot_y + s * rel_x + c * rel_y
    z[...] = pts[..., 2]
    return out


def _torso_centers(planes: np.ndarray) -> np.ndarray:
    """(3, ..., 32): each frame's midpoint of the shoulders' mean and the waist's mean, markers added as np.mean adds them."""
    shoulders, waist = (reduce(np.add, [planes[..., i] for i in markers]) / len(markers) for markers in (SHOULDERS, WAIST))
    return 0.5 * (shoulders + waist)


def _scale(planes: np.ndarray, factor) -> None:
    """In place: planes scaled about their own per-frame torso centers."""
    centers = np.repeat(_torso_centers(planes)[..., None], planes.shape[-1], axis=-1)
    planes -= centers
    planes *= factor
    planes += centers


def _translate(planes: np.ndarray, dx, dy) -> None:
    """In place: planes shifted by (dx, dy) on the floor plane."""
    planes[0] += dx
    planes[1] += dy


def _cos_sin(angle_deg) -> np.ndarray:
    """(2, ...): cos and sin of angles in degrees; np.remainder and np.radians have the bits of % 360.0 and math.radians."""
    theta = np.radians(np.remainder(angle_deg, 360.0))
    flat = theta.ravel().tolist()  # scalar math, not np.cos: the two may differ in the last bit
    return np.array([list(map(math.cos, flat)), list(map(math.sin, flat))]).reshape((2,) + theta.shape)


def copy_names_and_labels(names, labels, factor: int) -> tuple[list[str], list]:
    """The names and labels of each source's factor copies: copy j > 0 of "s" is "s+a<j>", with the label of s."""
    return ([name if j == 0 else f"{name}+a{j}" for name in names for j in range(factor)],
            [meta for meta in labels for _ in range(factor)])


def augment_dataset(sequences, spec: AugmentSpec, rows: range | None = None,
                    out: np.ndarray | None = None) -> SequenceSet:
    """factor copies per input, the first being the original; labels verbatim.

    `sequences` is a SequenceSet or a list of MotionSequence. Copy j of
    input i is row i * factor + j of the result, named "<name>+a<j>" for
    j > 0, and draws its rotation, scale and shift from its own stream,
    derive_rng(spec.seed, "augment", i, j), so the result is
    deterministic and independent of evaluation order; derive_uniforms
    computes every copy's draws in one pass, with the same bits. The factor - 1
    copies of one input are rotated into one scratch block of coordinate
    planes, scaled about their rotated torso centers and translated there
    in place, and then written into their rows of the one preallocated
    output. A factor of 1 returns the input set.

    `rows`, a range of input rows, copies only those inputs, and `out`
    is a block to fill in place of a new one (its first len(rows) *
    factor rows; see writable_block). i stays the index in the whole set, so the ranges of
    a set augmented one at a time are the rows of the set augmented whole.
    """
    src = SequenceSet.of(sequences)
    if src.normalized:
        raise StateError("augment_dataset needs world-space coordinates, got a normalized sequence set")
    f = spec.factor
    if f == 1 and rows is None and out is None:
        return src
    rows = range(len(src)) if rows is None else rows
    if rows.step != 1 or not 0 <= rows.start <= rows.stop <= len(src):
        raise ContractError(f"rows {rows} is not a range of the {len(src)} input rows")
    n, picked = len(rows), slice(rows.start, rows.stop)
    draws = derive_uniforms(spec.seed, "augment", rows, range(1, f), (
        (spec.rotate_lo_deg, spec.rotate_hi_deg),
        (spec.scale_lo, spec.scale_hi),
        (-spec.translate_m, spec.translate_m),
        (-spec.translate_m, spec.translate_m),
    ))
    # (n, 5, f - 1): each copy's cosine, sine, scale and shift
    params = np.concatenate([_cos_sin(draws[..., 0]).transpose(1, 0, 2), draws[..., 1:].transpose(0, 2, 1)], axis=1)
    out = np.empty((n * f,) + src.data.shape[1:]) if out is None else writable_block(out, n * f)
    copies = out.reshape(n, f, SEQUENCE_LENGTH, N_MARKERS, 3)
    planes = np.empty((3, f - 1, SEQUENCE_LENGTH, N_MARKERS))
    for i, pts in enumerate(src.data[picked].reshape(n, SEQUENCE_LENGTH, N_MARKERS, 3)):
        c, s, factor, dx, dy = params[i, ..., None, None]
        _rotated(pts, c, s, out=planes)
        _scale(planes, factor)
        _translate(planes, dx, dy)
        copies[i, 0] = pts
        for axis, plane in enumerate(planes):
            copies[i, 1:, ..., axis] = plane
    return SequenceSet(out, *copy_names_and_labels(src.names[picked], src.labels[picked], f))
