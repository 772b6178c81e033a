"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from mocapsynth.nn import Tensor


def numeric_gradient(
    f: Callable[[], Tensor],
    x: Tensor,
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the scalar f() with respect to x.data."""
    # no_grad would be cheaper but breaks functions that differentiate
    # internally, so the graph is built and discarded each probe
    g = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f().item()
        flat[i] = keep - h
        lo = f().item()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(|a| + |n|, 1e-6)."""
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Worst relative error between backprop and finite differences.

    f must rebuild the graph from params on every call.
    """
    for p in params:
        p.grad = None
    out = f()
    out.backward()
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_gradient(f, p, h=h)
        worst = max(worst, relative_error(analytic, numeric))
    return worst
