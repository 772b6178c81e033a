"""Geometry serialization: JSONL for tools, orthographic SVG for eyes.

Both writers are deterministic: the same geometry always produces the
same bytes, so golden-file comparisons are meaningful. Both leave a
bone out of each frame where its length is 0.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..markers import BOWL, MARKER_NAMES
from .geometry import CYLINDER_RADIUS, SPHERE_RADII, SPHERE_TAGS, Geometry
from .topology import HEAD_CENTER, PELVIS

SVG_SCALE = 200.0  # pixels per meter
SVG_MARGIN = 20.0  # pixels

SPHERE_FILL = "#3a6ea5"
INFERRED_FILL = "#e08a2e"
BOWL_FILL = "#b03030"
BONE_STROKE = "#555555"


def _fmt(v: float) -> str:
    return f"{v:.3f}"


_FILLS = {PELVIS: INFERRED_FILL, HEAD_CENTER: INFERRED_FILL, MARKER_NAMES[BOWL]: BOWL_FILL}
# what follows each element's page position
_BONE_STYLE = f'stroke="{BONE_STROKE}" stroke-width="{_fmt(2 * CYLINDER_RADIUS * SVG_SCALE)}" stroke-linecap="round"/>'
_SPHERE_STYLES = tuple(f'r="{_fmt(r * SVG_SCALE)}" fill="{_FILLS.get(tag, SPHERE_FILL)}"><title>{tag}</title></circle>'
                       for r, tag in zip(SPHERE_RADII, SPHERE_TAGS))


class _Bare(str):
    """A string that %r writes without quotes."""

    __repr__ = str.__str__


# json.dumps's spelling of each non-finite float, by its repr
_JSON_NON_FINITE = {"inf": _Bare("Infinity"), "-inf": _Bare("-Infinity"), "nan": _Bare("NaN")}


@functools.cache
def _jsonl_template(n_cylinders: int) -> str:
    """The % template of a frame's line with n cylinders: %d the frame, then %r each sphere's and cylinder's floats.

    %r spells a float as float.__repr__, as json.dumps does, and the text
    between the floats is json.dumps's.
    """
    def text(v) -> str:
        return json.dumps(v).replace("%", "%%")

    spheres = ", ".join(f'{{"c": [%r, %r, %r], "r": {text(r)}, "tag": {text(tag)}}}'
                        for r, tag in zip(SPHERE_RADII, SPHERE_TAGS))
    cylinder = f'{{"c": [%r, %r, %r], "axis": [%r, %r, %r], "len": %r, "r": {text(CYLINDER_RADIUS)}}}'
    return f'{{"frame": %d, "spheres": [{spheres}], "cylinders": [{", ".join([cylinder] * n_cylinders)}]}}\n'


def export_jsonl(geometry: Geometry, path) -> Path:
    """One JSON object per frame and line, with json.dumps's bytes; floats keep full precision.

    Each line fills the % template of its count of cylinders with the
    frame's floats; a frame holding a non-finite float spells it as json does.
    """
    if not len(geometry.spheres):
        raise DataError("nothing to export")
    path = Path(path)
    frames = len(geometry.spheres)
    spheres = geometry.spheres.reshape(frames, -1)
    cylinders = np.concatenate([geometry.centers, geometry.axes, geometry.lengths[..., None]], axis=-1)
    kept = geometry.lengths != 0.0
    finite = np.isfinite(spheres).all(axis=1) & (np.isfinite(cylinders).all(axis=2) | ~kept).all(axis=1)
    counts = kept.sum(axis=1).tolist()
    lines = []
    for t, (floats, n, whole) in enumerate(zip(spheres.tolist(), counts, finite.tolist())):
        floats += cylinders[t, kept[t]].reshape(-1).tolist()
        if not whole:
            floats = [_JSON_NON_FINITE.get(repr(v), v) for v in floats]
        lines.append(_jsonl_template(n) % (t, *floats))
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(lines))
    return path


def export_svg_ortho(geometry: Geometry, directory) -> list[Path]:
    """One SVG per frame (frame_000.svg, ...), orthographic XZ projection.

    The world-to-page scale is fixed across the whole sequence and
    recorded in each file's metadata block, so frames line up when
    flipped through.
    """
    if not len(geometry.spheres):
        raise DataError("nothing to export")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    half = geometry.axes * (geometry.lengths / 2.0)[..., None]
    ends = np.stack([geometry.centers - half, geometry.centers + half])  # (2, frames, bones, 3)
    kept = geometry.lengths != 0.0
    # the world-space XZ box over all frames, radii included; fmin and fmax
    # pass over the NaN ends of a bone whose length overflows to inf
    reach = ((geometry.spheres[..., ::2], np.array(SPHERE_RADII)[:, None]), (ends[:, kept][..., ::2], CYLINDER_RADIUS))
    lo = np.fmin.reduce(np.concatenate([(xz - r).reshape(-1, 2) for xz, r in reach]))
    hi = np.fmax.reduce(np.concatenate([(xz + r).reshape(-1, 2) for xz, r in reach]))
    (x_lo, z_lo), (x_hi, z_hi) = lo.tolist(), hi.tolist()
    width = (x_hi - x_lo) * SVG_SCALE + 2 * SVG_MARGIN
    height = (z_hi - z_lo) * SVG_SCALE + 2 * SVG_MARGIN

    def page(p) -> tuple[np.ndarray, np.ndarray]:
        # z points up in the world, down the page in SVG
        return SVG_MARGIN + (p[..., 0] - x_lo) * SVG_SCALE, height - (SVG_MARGIN + (p[..., 2] - z_lo) * SVG_SCALE)

    (x1, x2), (y1, y2) = page(ends)
    bone_lines = np.stack([x1, y1, x2, y2], axis=-1).tolist()
    circles = np.stack(page(geometry.spheres), axis=-1).tolist()
    meta = json.dumps({"scale_px_per_m": SVG_SCALE, "x_range": [x_lo, x_hi], "z_range": [z_lo, z_hi]})
    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f"<metadata>{meta}</metadata>",
    ]
    paths = []
    for t, (lines_t, kept_t, circles_t) in enumerate(zip(bone_lines, kept.tolist(), circles)):
        bones = ['<line x1="{}" y1="{}" x2="{}" y2="{}" '.format(*map(_fmt, line)) + _BONE_STYLE
                 for line, keep in zip(lines_t, kept_t) if keep]
        spheres = [f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" {style}' for (cx, cy), style in zip(circles_t, _SPHERE_STYLES)]
        out = directory / f"frame_{t:03d}.svg"
        out.write_text("\n".join(header + bones + spheres + ["</svg>"]) + "\n")
        paths.append(out)
    return paths
