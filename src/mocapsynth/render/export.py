"""Geometry serialization: JSONL for tools, orthographic SVG for eyes.

Both writers are deterministic: the same frames always produce the
same bytes, so golden-file comparisons are meaningful.
"""

from __future__ import annotations

import json
from pathlib import Path


from ..errors import DataError
from .geometry import GeometryFrame

SVG_SCALE = 200.0  # pixels per meter
SVG_MARGIN = 20.0  # pixels

SPHERE_FILL = "#3a6ea5"
INFERRED_FILL = "#e08a2e"
BOWL_FILL = "#b03030"
BONE_STROKE = "#555555"


def frame_to_dict(frame: GeometryFrame) -> dict:
    return {
        "frame": frame.frame_index,
        "spheres": [
            {"c": [float(v) for v in s.center], "r": s.radius, "tag": s.tag}
            for s in frame.spheres
        ],
        "cylinders": [
            {
                "c": [float(v) for v in c.center],
                "axis": [float(v) for v in c.axis],
                "len": c.length,
                "r": c.radius,
            }
            for c in frame.cylinders
        ],
    }


def export_jsonl(frames: list[GeometryFrame], path) -> Path:
    """One JSON object per line; floats keep full precision."""
    if not frames:
        raise DataError("nothing to export")
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        for frame in frames:
            fh.write(json.dumps(frame_to_dict(frame)) + "\n")
    return path


def _svg_bounds(frames) -> tuple[float, float, float, float]:
    """World-space XZ bounding box over all frames, radii included."""
    xs, zs = [], []
    for frame in frames:
        for s in frame.spheres:
            xs += [s.center[0] - s.radius, s.center[0] + s.radius]
            zs += [s.center[2] - s.radius, s.center[2] + s.radius]
        for c in frame.cylinders:
            half = c.axis * (c.length / 2.0)
            for end in (c.center - half, c.center + half):
                xs += [end[0] - c.radius, end[0] + c.radius]
                zs += [end[2] - c.radius, end[2] + c.radius]
    return min(xs), max(xs), min(zs), max(zs)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def export_svg_ortho(frames: list[GeometryFrame], directory, scale: float = SVG_SCALE) -> list[Path]:
    """One SVG per frame (frame_000.svg, ...), orthographic XZ projection.

    The world-to-page scale is fixed across the whole sequence and
    recorded in each file's metadata block, so frames line up when
    flipped through.
    """
    if not frames:
        raise DataError("nothing to export")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    x_lo, x_hi, z_lo, z_hi = _svg_bounds(frames)
    width = (x_hi - x_lo) * scale + 2 * SVG_MARGIN
    height = (z_hi - z_lo) * scale + 2 * SVG_MARGIN

    def page(p) -> tuple[float, float]:
        # z points up in the world, down the page in SVG
        return (
            SVG_MARGIN + (p[0] - x_lo) * scale,
            height - (SVG_MARGIN + (p[2] - z_lo) * scale),
        )

    meta = json.dumps({"scale_px_per_m": scale, "x_range": [x_lo, x_hi], "z_range": [z_lo, z_hi]})
    paths = []
    for frame in frames:
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
            f"<metadata>{meta}</metadata>",
        ]
        for c in frame.cylinders:
            half = c.axis * (c.length / 2.0)
            (x1, y1), (x2, y2) = page(c.center - half), page(c.center + half)
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{BONE_STROKE}" stroke-width="{_fmt(2 * c.radius * scale)}" '
                'stroke-linecap="round"/>'
            )
        for s in frame.spheres:
            cx, cy = page(s.center)
            fill = SPHERE_FILL
            if s.tag in ("pelvis", "head_center"):
                fill = INFERRED_FILL
            elif s.tag == "bowl":
                fill = BOWL_FILL
            lines.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(s.radius * scale)}" '
                f'fill="{fill}"><title>{s.tag}</title></circle>'
            )
        lines.append("</svg>")
        out = directory / f"frame_{frame.frame_index:03d}.svg"
        out.write_text("\n".join(lines) + "\n")
        paths.append(out)
    return paths
