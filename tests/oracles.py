"""Slow, direct reference implementations used to pin expected values.

Everything here is deliberately loop-based and independent of the package
code paths it checks against.
"""

from __future__ import annotations

import json
import math

import numpy as np

from mocapsynth.markers import BOWL, HEAD, MARKER_NAMES, SHOULDERS, WAIST
from mocapsynth.seeding import derive_rng


def naive_conv1d(x, w, b, stride=1, spacing=0):
    """Quadruple-loop same-padded convolution over (B, T, Cin)."""
    B, T, Cin = x.shape
    K, _, Cout = w.shape
    reach = (K - 1) * (1 + spacing)
    left = reach // 2
    Tout = math.ceil(T / stride)
    out = np.zeros((B, Tout, Cout), dtype=x.dtype)
    for bi in range(B):
        for t in range(Tout):
            for co in range(Cout):
                acc = b[co]
                for k in range(K):
                    src = t * stride + k * (1 + spacing) - left
                    if 0 <= src < T:
                        for ci in range(Cin):
                            acc += x[bi, src, ci] * w[k, ci, co]
                out[bi, t, co] = acc
    return out


def naive_maxpool1d(x, width=2):
    """Max over non-overlapping windows; a short tail repeats the last step."""
    B, T, C = x.shape
    Tout = math.ceil(T / width)
    out = np.empty((B, Tout, C), dtype=x.dtype)
    for t in range(Tout):
        hi = min((t + 1) * width, T)
        out[:, t, :] = np.max(x[:, t * width : hi, :], axis=1)
    return out


def maxpool_by_argmax(x, width):
    """The pool as whole-array numpy steps: np.argmax winners, a put_along_axis mask, np.sum.

    Returns (mask, out); mask is (B, Tout, width, C), one-hot at each
    window's np.argmax, and a short tail repeats the last step.
    """
    b, t, c = x.shape
    t_out = -(-t // width)
    tail = t_out * width - t
    if tail:
        x = np.concatenate([x, np.repeat(x[:, t - 1 : t], tail, axis=1)], axis=1)
    windows = x.reshape(b, t_out, width, c)
    winners = np.argmax(windows, axis=2)
    mask = np.zeros(windows.shape)
    np.put_along_axis(mask, winners[:, :, None, :], 1.0, axis=2)
    return mask, np.sum(windows * mask, axis=2)


def maxpool_grad_by_argmax(g, mask, length):
    """The pool's input gradient formed step by step: mask * g laid out, the tail summed onto the last step."""
    b, t_out, width, c = mask.shape
    laid = (np.broadcast_to(g[:, :, None, :], mask.shape).copy() * mask).reshape(b, t_out * width, c)
    grad = laid[:, :length].copy()
    if t_out * width > length:
        last = np.sum(laid[:, length:].reshape(b, 1, -1, c), axis=2)
        grad = grad + np.pad(last, ((0, 0), (length - 1, 0), (0, 0)))
    return grad


def naive_upsample1d(x, factor=2):
    B, T, C = x.shape
    out = np.empty((B, T * factor, C), dtype=x.dtype)
    for t in range(T):
        for f in range(factor):
            out[:, t * factor + f, :] = x[:, t, :]
    return out


def naive_kl(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p = p / p.sum()
    q = q / q.sum()
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi)
    return total


def naive_js(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p = p / p.sum()
    q = q / q.sum()
    m = 0.5 * (p + q)
    return 0.5 * naive_kl(p, m) + 0.5 * naive_kl(q, m)


def adam_single_step(theta, grad, lr, beta1, beta2, eps):
    """One Adam update from zero moments at t=1, written out longhand."""
    m = (1 - beta1) * grad
    v = (1 - beta2) * grad * grad
    m_hat = m / (1 - beta1)
    v_hat = v / (1 - beta2)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps)


def adam_per_parameter(thetas, grad_steps, lr, beta1, beta2, eps):
    """Adam run longhand, one parameter at a time, over a list of steps.

    Each step gives one gradient per parameter, or None to leave that
    parameter, and its moments, as they are. Returns (thetas, ms, vs).
    """
    thetas = [np.array(theta, dtype=float) for theta in thetas]
    ms = [np.zeros_like(theta) for theta in thetas]
    vs = [np.zeros_like(theta) for theta in thetas]
    for t, grads in enumerate(grad_steps, start=1):
        for i, g in enumerate(grads):
            if g is None:
                continue
            ms[i] = beta1 * ms[i] + (1 - beta1) * g
            vs[i] = beta2 * vs[i] + (1 - beta2) * g * g
            m_hat = ms[i] / (1 - beta1**t)
            v_hat = vs[i] / (1 - beta2**t)
            thetas[i] = thetas[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return thetas, ms, vs


def parameter_count(spec) -> int:
    """Closed-form trainable parameter count of a HierarchicalNetSpec."""
    f1, f2, f3 = spec.branch_filters
    k = spec.kernel
    total = 0
    for width in (21, 15, 21):  # the upper, center and lower cluster widths
        total += k * width * f1 + f1
        total += k * f1 * f2 + f2
        total += k * f2 * f3 + f3
    concat_width = 3 * (32 // 8) * f3  # three pooled-by-8 branches of 32 steps
    total += concat_width * spec.dense_width + spec.dense_width
    total += spec.dense_width * spec.n_classes + spec.n_classes
    return total


def rotate_xy_about(points, angle, center):
    """CCW rotation of each (x, y) about `center`; z untouched. points (N, 3)."""
    c, s = math.cos(angle), math.sin(angle)
    out = np.array(points, dtype=float, copy=True)
    for i in range(out.shape[0]):
        dx = out[i, 0] - center[0]
        dy = out[i, 1] - center[1]
        out[i, 0] = center[0] + c * dx - s * dy
        out[i, 1] = center[1] + s * dx + c * dy
    return out


def same_bits(a, b) -> bool:
    """True when a and b hold the same float64 bits, signs of zero and NaN payloads included."""
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


def augmented_copy_by_broadcasting(pts, angle_deg, factor, dx, dy):
    """One augmented copy of pts (32, 16, 3), formed alone with broadcasting and np.mean.

    These are the per-copy expressions augmentation started from: the
    turn about the vertical through the frame-0 bowl, the scale about each
    frame's torso center (the midpoint of the shoulders' and the waist's
    np.mean), then the floor shift.
    """
    theta = math.radians(angle_deg % 360.0)
    c, s = math.cos(theta), math.sin(theta)
    pivot_x = pts[:1, BOWL : BOWL + 1, 0]
    pivot_y = pts[:1, BOWL : BOWL + 1, 1]
    rel_x = pts[..., 0] - pivot_x
    rel_y = pts[..., 1] - pivot_y
    out = np.empty(pts.shape)
    out[..., 0] = pivot_x + c * rel_x - s * rel_y
    out[..., 1] = pivot_y + s * rel_x + c * rel_y
    out[..., 2] = pts[..., 2]
    centers = 0.5 * (out[..., SHOULDERS, :].mean(axis=-2) + out[..., WAIST, :].mean(axis=-2))[..., None, :]
    out = (out - centers) * factor + centers
    out[..., 0] += dx
    out[..., 1] += dy
    return out


def render_nodes_by_frame(frame_points):
    """The render nodes of one frame (16, 3) by name: the markers, and the pelvis and head center as np.mean centroids."""
    nodes = {name: frame_points[i] for i, name in enumerate(MARKER_NAMES)}
    nodes["pelvis"] = frame_points[list(WAIST)].mean(axis=0)
    nodes["head_center"] = frame_points[list(HEAD)].mean(axis=0)
    return nodes


def cylinder_by_norm(p1, p2):
    """Midpoint, unit direction and length of one segment, with np.linalg.norm."""
    delta = p2 - p1
    length = float(np.linalg.norm(delta))
    return (p1 + p2) / 2.0, delta / length, length


def render_files_by_frame(geometry):
    """The JSONL text and each frame's SVG text of a render Geometry, written one primitive at a time.

    Each sphere and each cylinder of length other than 0 becomes a dict
    or a page element on its own, and the SVG box is Python's min and max
    over every element's reach.
    """
    from mocapsynth.render.export import (BONE_STROKE, BOWL_FILL, CYLINDER_RADIUS, INFERRED_FILL, SPHERE_FILL,
                                          SPHERE_RADII, SPHERE_TAGS, SVG_MARGIN, SVG_SCALE)

    frames = []
    for t in range(len(geometry.spheres)):
        spheres = [(geometry.spheres[t, i], r, tag) for i, (r, tag) in enumerate(zip(SPHERE_RADII, SPHERE_TAGS))]
        cylinders = [(geometry.centers[t, j], geometry.axes[t, j], float(geometry.lengths[t, j]))
                     for j in range(len(geometry.bones)) if geometry.lengths[t, j] != 0.0]
        frames.append((spheres, cylinders))
    jsonl = "".join(json.dumps({
        "frame": t,
        "spheres": [{"c": c.tolist(), "r": r, "tag": tag} for c, r, tag in spheres],
        "cylinders": [{"c": c.tolist(), "axis": a.tolist(), "len": n, "r": CYLINDER_RADIUS} for c, a, n in cylinders],
    }) + "\n" for t, (spheres, cylinders) in enumerate(frames))

    xs, zs = [], []
    for spheres, cylinders in frames:
        for c, r, _ in spheres:
            xs += [c[0] - r, c[0] + r]
            zs += [c[2] - r, c[2] + r]
        for c, a, n in cylinders:
            for end in (c - a * (n / 2.0), c + a * (n / 2.0)):
                xs += [end[0] - CYLINDER_RADIUS, end[0] + CYLINDER_RADIUS]
                zs += [end[2] - CYLINDER_RADIUS, end[2] + CYLINDER_RADIUS]
    x_lo, x_hi, z_lo, z_hi = min(xs), max(xs), min(zs), max(zs)
    width = (x_hi - x_lo) * SVG_SCALE + 2 * SVG_MARGIN
    height = (z_hi - z_lo) * SVG_SCALE + 2 * SVG_MARGIN
    meta = json.dumps({"scale_px_per_m": SVG_SCALE, "x_range": [x_lo, x_hi], "z_range": [z_lo, z_hi]})

    def page(p):
        return f"{SVG_MARGIN + (p[0] - x_lo) * SVG_SCALE:.3f}", f"{height - (SVG_MARGIN + (p[2] - z_lo) * SVG_SCALE):.3f}"

    svgs = []
    for spheres, cylinders in frames:
        lines = ['<?xml version="1.0" encoding="UTF-8"?>',
                 f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.3f}" height="{height:.3f}" '
                 f'viewBox="0 0 {width:.3f} {height:.3f}">',
                 f"<metadata>{meta}</metadata>"]
        for c, a, n in cylinders:
            (x1, y1), (x2, y2) = page(c - a * (n / 2.0)), page(c + a * (n / 2.0))
            lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{BONE_STROKE}" '
                         f'stroke-width="{2 * CYLINDER_RADIUS * SVG_SCALE:.3f}" stroke-linecap="round"/>')
        for c, r, tag in spheres:
            fill = INFERRED_FILL if tag in ("pelvis", "head_center") else BOWL_FILL if tag == "bowl" else SPHERE_FILL
            cx, cy = page(c)
            lines.append(f'<circle cx="{cx}" cy="{cy}" r="{r * SVG_SCALE:.3f}" fill="{fill}"><title>{tag}</title></circle>')
        svgs.append("\n".join(lines + ["</svg>"]) + "\n")
    return jsonl, svgs


def pairwise_distances(points):
    n = points.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = math.sqrt(((points[i] - points[j]) ** 2).sum())
    return out


def csv_bytes_per_value(header, rows):
    """Trial CSV bytes formatted one value at a time with f"{v:.6f}"."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.6f}" for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def csv_rows_per_value(path, columns, error):
    """A trial CSV's coordinates read one float() at a time; faults raise `error`.

    The header must equal `columns`; a bad row names its line number.
    """
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise error(f"{path}: empty file")
    header = lines[0].split(",")
    if header != list(columns):
        raise error(f"{path}: unexpected header ({len(header)} columns)")
    rows = np.empty((len(lines) - 1, len(columns)), dtype=np.float64)
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise error(f"{path}: line {i}: expected {len(columns)} columns, got {len(parts)}")
        try:
            rows[i - 2] = [float(p) for p in parts]
        except ValueError as exc:
            raise error(f"{path}: line {i}: {exc}") from None
    return rows


def balanced_rows_by_lists(labels, seed):
    """The list walk the classifier's class balancing started as: group, draw, keep row order."""
    rng = derive_rng(seed, "balance-classes")
    by_class = {}
    for row, label in enumerate(labels):
        if label >= 0:
            by_class.setdefault(label, []).append(row)
    target = min(len(v) for v in by_class.values())
    out = []
    for label in sorted(by_class):
        group = by_class[label]
        if len(group) > target:
            keep = rng.choice(len(group), size=target, replace=False)
            group = [group[i] for i in sorted(keep)]
        out.extend(group)
    return out


def split_rows_by_lists(n, n_validation, seed):
    """The list walk of the validation split: training rows, then validation rows, each in order."""
    picks = set(derive_rng(seed, "validation-split").choice(n, size=n_validation, replace=False).tolist())
    return [i for i in range(n) if i not in picks], [i for i in range(n) if i in picks]
