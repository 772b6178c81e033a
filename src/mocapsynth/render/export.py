"""Geometry serialization: JSONL for tools, orthographic SVG for eyes.

Both writers are deterministic: the same geometry always produces the
same bytes, so golden-file comparisons are meaningful. Both leave a
bone out of each frame where its length is 0.
"""

from __future__ import annotations

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


def export_jsonl(geometry: Geometry, path) -> Path:
    """One JSON object per frame and line; floats keep full precision."""
    if not len(geometry.spheres):
        raise DataError("nothing to export")
    path = Path(path)
    cylinders = zip(geometry.centers.tolist(), geometry.axes.tolist(), geometry.lengths.tolist())
    with open(path, "w", newline="\n") as fh:
        for t, (spheres, (centers, axes, lengths)) in enumerate(zip(geometry.spheres.tolist(), cylinders)):
            doc = {
                "frame": t,
                "spheres": [{"c": c, "r": r, "tag": tag} for c, r, tag in zip(spheres, SPHERE_RADII, SPHERE_TAGS)],
                "cylinders": [{"c": c, "axis": axis, "len": length, "r": CYLINDER_RADIUS}
                              for c, axis, length in zip(centers, axes, lengths) if length != 0.0],
            }
            fh.write(json.dumps(doc) + "\n")
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
