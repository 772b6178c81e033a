"""Reference computations the benchmark checks the program against.

Nothing here imports mocapsynth. The container reader, the layer
forwards and the geometry checks are written from the documented file
formats and network definitions, so a fault in the program's own
reader or layers cannot hide itself.
"""

from __future__ import annotations

import json
import struct
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np

MAGIC = b"MCSYNTH1"

# Label frequencies of the published 805-trial corpus.
PUBLISHED_STRATEGY_COUNTS = {"A": 40, "B": 227, "C": 94, "D": 44, "E": 31, "F": 34, "G": 318, "H": 13, "I": 4}
PUBLISHED_WEIGHT_COUNTS = {640: 218, 1140: 287, 1640: 300}
PUBLISHED_KEPT = 805
PUBLISHED_MISSING_C7 = 53

# Marker layout: 16 markers x (x, y, z); body markers 0-14, bowl 15.
HEAD = [0, 1, 2, 3]
WAIST = [7, 8, 9, 10]
CLUSTERS = (
    [0, 1, 2, 3, 4, 5, 6],  # head, shoulders, C7
    [4, 5, 6, 11, 12],  # shoulders, C7, hands
    [7, 8, 9, 10, 6, 13, 14],  # waist, C7, feet
)
WEIGHT_TASK = (640, 1640)


# ------------------------------------------------------------- container


def read_header(path) -> tuple[dict, int]:
    """(header, offset of the first array byte) of a container file."""
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise ValueError(f"{path}: not a container")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        return json.loads(fh.read(hlen)), 16 + hlen


def read_arrays(path) -> tuple[dict, dict[str, np.ndarray]]:
    header, offset = read_header(path)
    raw = Path(path).read_bytes()
    arrays = {}
    for entry in header["arrays"]:
        dt = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"], dtype=np.int64))
        arrays[entry["name"]] = np.frombuffer(raw, dt, count, offset).reshape(entry["shape"])
        offset += count * dt.itemsize
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes")
    return header["meta"], arrays


def archive_count(path) -> int:
    header, _ = read_header(path)
    (data,) = [e for e in header["arrays"] if e["name"] == "data"]
    return data["shape"][0]


# ------------------------------------------------------------ networks


def conv1d(x, w, b, stride=1, spacing=0):
    """Same-padded convolution over time; x (B, T, Cin), w (K, Cin, Cout)."""
    k = w.shape[0]
    reach = (k - 1) * (1 + spacing)
    left = reach // 2
    xp = np.pad(x, ((0, 0), (left, reach - left), (0, 0)))
    t_out = -(-x.shape[1] // stride)
    out = np.zeros((x.shape[0], t_out, w.shape[2]))
    for tap in range(k):
        start = tap * (1 + spacing)
        out += xp[:, start : start + stride * (t_out - 1) + 1 : stride, :] @ w[tap]
    return out + b


def maxpool(x, width):
    t_out = -(-x.shape[1] // width)
    idx = np.minimum(np.arange(t_out * width), x.shape[1] - 1)
    return x[:, idx, :].reshape(x.shape[0], t_out, width, x.shape[2]).max(axis=2)


def sequential(specs: list[dict], params: dict, x, masks: list | None = None, frozen: list | None = None):
    """Evaluation-mode forward of a saved layer list.

    params maps 'layer000.weight'-style keys to arrays. When `masks` is
    a list, the pattern (input > 0) of every activation is appended to
    it. When `frozen` holds such patterns, the activations use them
    instead of their own input, which makes a piecewise-linear network
    the affine map it is on the region those patterns came from.
    """
    act = 0
    for i, spec in enumerate(specs):
        kind = spec["layer"]
        p = lambda name: params[f"layer{i:03d}.{name}"]  # noqa: E731
        if kind == "dense":
            x = x @ p("weight") + p("bias")
        elif kind == "conv1d":
            x = conv1d(x, p("weight"), p("bias"), spec["stride"], spec["spacing"])
        elif kind == "activation":
            mask = frozen[act] if frozen is not None else x > 0
            act += 1
            if masks is not None:
                masks.append(mask)
            if spec["kind"] == "relu":
                x = np.where(mask, x, 0.0)
            elif spec["kind"] == "leaky_relu":
                x = np.where(mask, x, 0.2 * x)
            else:
                raise ValueError(f"activation {spec['kind']!r} is not modelled")
        elif kind == "reshape":
            x = x.reshape((x.shape[0],) + tuple(spec["shape"]))
        elif kind == "upsample":
            x = np.repeat(x, spec["factor"], axis=1)
        elif kind == "maxpool":
            x = maxpool(x, spec["width"])
        elif kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        elif kind == "dropout":
            pass
        else:
            raise ValueError(f"layer {kind!r} is not modelled")
    return x


def load_sequential(path) -> tuple[list[dict], dict, dict]:
    """(layer specs, parameters, extra meta) of a saved Sequential model."""
    meta, arrays = read_arrays(path)
    return meta["architecture"], arrays, meta["extra"]


def classifier_logits(path, views) -> np.ndarray:
    """Evaluation-mode logits of a saved hierarchical classifier."""
    meta, arrays = read_arrays(path)
    spec = meta["architecture"]["hierarchical"]
    branch = [
        {"layer": "conv1d", "stride": 1, "spacing": spec["first_spacing"]},
        {"layer": "activation", "kind": "relu"},
        {"layer": "maxpool", "width": 2},
        {"layer": "conv1d", "stride": 1, "spacing": 0},
        {"layer": "activation", "kind": "relu"},
        {"layer": "maxpool", "width": 2},
        {"layer": "conv1d", "stride": 1, "spacing": 0},
        {"layer": "activation", "kind": "relu"},
        {"layer": "maxpool", "width": 2},
        {"layer": "flatten"},
    ]
    head = [
        {"layer": "dense"},
        {"layer": "activation", "kind": "relu"},
        {"layer": "dropout"},
        {"layer": "dense"},
    ]
    outs = []
    for b, v in enumerate(views):
        params = {key[len(f"branch{b}."):]: a for key, a in arrays.items() if key.startswith(f"branch{b}.")}
        outs.append(sequential(branch, params, v))
    params = {key[len("head."):]: a for key, a in arrays.items() if key.startswith("head.")}
    return sequential(head, params, np.concatenate(outs, axis=1))


def cluster_views(data: np.ndarray) -> list[np.ndarray]:
    pts = data.reshape(data.shape[0], data.shape[1], 16, 3)
    return [pts[:, :, c, :].reshape(data.shape[0], data.shape[1], -1) for c in CLUSTERS]


# ------------------------------------------------------------- geometry


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def centred_gram(points: np.ndarray) -> np.ndarray:
    """(..., 16, 3) -> (..., 16, 16) Gram matrix of the frame-centred points.

    It holds exactly the within-frame marker distances: two frames have
    the same pairwise distances iff their centred Gram matrices agree,
    and scaling every distance by s scales the matrix by s**2.
    """
    c = points - points.mean(axis=-2, keepdims=True)
    return c @ np.swapaxes(c, -1, -2)


def check_geometry_frame(frame: dict, points: np.ndarray, tol: float = 1e-9) -> str | None:
    """None when one JSONL frame matches the 16 markers `points` (16, 3).

    Spheres must sit at the markers, the waist mean and the head mean
    (18 in all). Every cylinder must have a unit axis, both ends at a
    node, and a length equal to the distance between those nodes.
    """
    nodes = np.vstack([points, points[WAIST].mean(axis=0), points[HEAD].mean(axis=0)])
    centers = np.array([s["c"] for s in frame["spheres"]], dtype=float)
    if centers.shape != (18, 3):
        return f"frame {frame['frame']}: {len(frame['spheres'])} spheres, want 18"
    dist = np.linalg.norm(nodes[:, None, :] - centers[None, :, :], axis=2)
    nearest = dist.argmin(axis=1)
    if len(set(nearest.tolist())) != 18 or dist.min(axis=1).max() > tol:
        return f"frame {frame['frame']}: spheres do not sit at the markers and inferred centers"
    if len(frame["cylinders"]) != 15:
        return f"frame {frame['frame']}: {len(frame['cylinders'])} cylinders, want 15"
    for cyl in frame["cylinders"]:
        axis = np.array(cyl["axis"])
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            return f"frame {frame['frame']}: cylinder axis is not unit length"
        half = axis * cyl["len"] / 2.0
        ends = []
        for end in (np.array(cyl["c"]) - half, np.array(cyl["c"]) + half):
            gap = np.linalg.norm(nodes - end, axis=1)
            if gap.min() > tol:
                return f"frame {frame['frame']}: a cylinder end is at no node"
            ends.append(nodes[gap.argmin()])
        if abs(np.linalg.norm(ends[1] - ends[0]) - cyl["len"]) > tol:
            return f"frame {frame['frame']}: cylinder length differs from its end distance"
    return None


def svg_parses(path) -> bool:
    return ET.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def label_tables(labels: list[dict]) -> tuple[Counter, Counter]:
    return Counter(l["strategy"] for l in labels), Counter(l["weight_g"] for l in labels)
