"""Network building blocks composed from differentiable primitives.

Sequences are (batch, time, channels). The convolutions and the pool
also take leading group axes, (..., batch, time, channels), with weights
(..., K, Cin, Cout) and biases (..., Cout): each group is convolved with
its own weights by numpy's stacked matmul, which calls the same gemm on
each group as on a lone (batch, time, channels) array, so a group has
the bits it would have alone. A convolution is one graph node:
its forward pass multiplies an im2col matrix of same-padded input
windows by the flattened kernel. Its input and weight gradients are two
further primitives, a transposed convolution and a windows-by-gradient
product. The three are adjoints, so each one's vjp is written with the
other two and a gradient penalty's double backward stays exact. Max
pooling, over pairs of steps (`select`, `spread`), and `dense` are
single nodes the same way.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, ShapeError
from .tensor import (
    Tensor,
    _make,
    _unbroadcast,
    leaf_grad,
    matmul,
    mul_const,
    needs_grad,
    reshape,
    transpose,
    tsum,
)


def conv_output_length(length: int, stride: int) -> int:
    """Output steps for same-padded convolution: ceil(length / stride)."""
    return -(-length // stride)


def conv_padding(kernel: int, spacing: int) -> tuple[int, int]:
    """Left/right zero padding that keeps stride-1 output length equal to input.

    A kernel of size K with `spacing` zeros between taps spans
    K + (K - 1) * spacing input steps.
    """
    reach = (kernel - 1) * (1 + spacing)
    left = reach // 2
    return left, reach - left


def _window_cols(x: np.ndarray, kernel: int, stride: int, spacing: int) -> np.ndarray:
    """im2col of a (..., B, T, Cin) array: the (..., B * Tout, K * Cin) window matrices.

    Row b * Tout + t holds padded steps t * stride + k * (1 + spacing) for
    k = 0..K-1, channels innermost, so it lines up with a (K, Cin, Cout)
    weight flattened to (K * Cin, Cout). Original step p sits at padded
    step p + left.
    """
    *lead, b, t, c = x.shape
    left, right = conv_padding(kernel, spacing)
    t_out = conv_output_length(t, stride)
    padded = np.zeros((*lead, b, left + t + right, c), dtype=x.dtype)
    padded[..., left : left + t, :] = x
    *sl, st, sc = padded.strides
    # the bare constructor: as_strided's checks and wrapping cost a few microseconds a call
    windows = np.ndarray((*lead, b, t_out, kernel, c), padded.dtype, padded, 0, (*sl, stride * st, (1 + spacing) * st, sc))
    return windows.reshape(*lead, b * t_out, kernel * c)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    spacing: int = 0,
    cols: np.ndarray | None = None,
) -> Tensor:
    """Same-padded 1-d convolution over the time axis.

    x: (..., B, T, Cin); weight: (..., K, Cin, Cout); bias: (..., Cout) or
    None, with the same leading group axes. Returns (..., B, ceil(T /
    stride), Cout). `cols` is x's window matrix when the caller already
    has it. The node keeps that matrix for the weight gradient only when x
    is data, which needs no gradient; over an activation it holds x, and
    the weight gradient rebuilds the windows.
    """
    if x.ndim < 3:
        raise ShapeError(f"conv1d expects (B, T, C), got shape {x.shape}")
    if weight.ndim != x.ndim or weight.shape[:-3] != x.shape[:-3]:
        raise ShapeError(f"conv1d weight must be (K, Cin, Cout) for each group of {x.shape}, got {weight.shape}")
    *lead, k, c_in, c_out = weight.shape
    if x.shape[-1] != c_in:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape[-1]}, weight {c_in}")
    if stride < 1 or spacing < 0:
        raise ContractError(f"invalid stride={stride} spacing={spacing}")

    b, t = x.shape[-3], x.shape[-2]
    if cols is None:
        cols = _window_cols(x.data, k, stride, spacing)
    out = cols @ weight.data.reshape(*lead, k * c_in, c_out)
    if bias is not None:
        out += bias.data[..., None, :]
    held = None if x.requires_grad else cols

    def vjp(g: Tensor):
        gw = leaf_grad(g.size * k * c_in, lambda: conv1d_weight_grad(x, g, k, stride, spacing, held), weight)
        gx = conv1d_input_grad(g, weight, t, stride, spacing) if needs_grad(x) else None
        if bias is None:
            return gx, gw
        return gx, gw, (tsum(g, axis=(-3, -2)) if needs_grad(bias) else None)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make(out.reshape(*lead, b, conv_output_length(t, stride), c_out), inputs, vjp, "conv1d")


def conv1d_input_grad(g: Tensor, weight: Tensor, length: int, stride: int = 1, spacing: int = 0) -> Tensor:
    """Transposed convolution: the adjoint of conv1d in its input.

    g: (..., B, Tout, Cout); weight: (..., K, Cin, Cout). Returns (..., B,
    length, Cin) with <conv1d(x, w), g> == <x, conv1d_input_grad(g, w, T)>.
    """
    *lead, b, t_out, c_out = g.shape
    k, c_in = weight.shape[-3], weight.shape[-2]
    left = conv_padding(k, spacing)[0]
    taps = g.data.reshape(*lead, b * t_out, c_out) @ np.swapaxes(weight.data.reshape(*lead, k * c_in, c_out), -1, -2)
    taps = taps.reshape(*lead, b, t_out, k, c_in)
    data = np.zeros((*lead, b, length, c_in), dtype=taps.dtype)
    # last tap first: every step then sums its terms in output-window order.
    # Output t of tap j lands on step t * stride + j * (1 + spacing) - left;
    # the terms that land in the padding are dropped.
    for j in reversed(range(k)):
        shift = j * (1 + spacing) - left
        lo = max(0, -(shift // stride))
        hi = min(t_out, -((shift - length) // stride))
        if lo < hi:
            first = lo * stride + shift
            data[..., first : first + (hi - lo - 1) * stride + 1 : stride, :] += taps[..., lo:hi, j, :]

    def vjp(gg: Tensor):
        # one window matrix of gg serves both halves
        cols = _window_cols(gg.data, k, stride, spacing)
        gw = leaf_grad(g.size * k * c_in, lambda: conv1d_weight_grad(gg, g, k, stride, spacing, cols), weight)
        return (conv1d(gg, weight, stride=stride, spacing=spacing, cols=cols) if needs_grad(g) else None), gw

    return _make(data, (g, weight), vjp, "conv1d_input_grad")


def conv1d_weight_grad(
    x: Tensor,
    g: Tensor,
    kernel: int,
    stride: int = 1,
    spacing: int = 0,
    cols: np.ndarray | None = None,
) -> Tensor:
    """Adjoint of conv1d in its weight: windows of x times the output gradient.

    x: (..., B, T, Cin); g: (..., B, Tout, Cout). Returns (..., K, Cin,
    Cout) with <conv1d(x, w), g> == <w, conv1d_weight_grad(x, g, K)>.
    `cols` is x's window matrix when the caller already has it.
    """
    lead, (t, c_in), c_out = x.shape[:-3], x.shape[-2:], g.shape[-1]
    if cols is None:
        cols = _window_cols(x.data, kernel, stride, spacing)
    data = (np.swapaxes(cols, -1, -2) @ g.data.reshape(*lead, -1, c_out)).reshape(*lead, kernel, c_in, c_out)

    def vjp(gw: Tensor):
        gx = conv1d_input_grad(g, gw, t, stride, spacing) if needs_grad(x) else None
        return gx, (conv1d(x, gw, stride=stride, spacing=spacing) if needs_grad(g) else None)

    return _make(data, (x, g), vjp, "conv1d_weight_grad")


def _pool_windows(x: np.ndarray) -> np.ndarray:
    """(..., B, T, C) -> (2, ..., B, T / 2, C): each pair of steps, its earlier step first."""
    *lead, b, t, c = x.shape
    n = x.ndim
    return x.reshape(*lead, b, t // 2, 2, c).transpose(n - 1, *range(n - 1), n).copy()


def maxpool1d(x: Tensor) -> Tensor:
    """Max pooling over time of (..., B, T, C) in pairs of steps: (..., B, T / 2, C), T even.

    The winning positions are frozen from the forward values into a mask,
    so the op is locally linear and safe to differentiate twice.
    """
    if x.ndim < 3 or x.shape[-2] % 2:
        raise ShapeError(f"maxpool1d expects (B, T, C) with T even, got shape {x.shape}")
    windows = _pool_windows(x.data)
    return select(x, winner_mask(windows), windows)


def winner_mask(windows: np.ndarray) -> np.ndarray:
    """One-hot mask of each pair's first maximum, or first NaN, as np.argmax picks it."""
    best = windows[0]
    mask = np.empty(windows.shape, windows.dtype)
    np.logical_and(best == best, ~(best >= windows[1]), out=mask[1])
    np.subtract(1.0, mask[1], out=mask[0])
    return mask


def select(x: Tensor, mask: np.ndarray, windows: np.ndarray | None = None) -> Tensor:
    """Sum each pair of steps of x against `mask`, laid out as `_pool_windows` lays out x: (..., B, T, C) -> (..., B, T / 2, C)."""
    terms = (_pool_windows(x.data) if windows is None else windows) * mask
    out = 0.0 + terms[0] + terms[1]  # from +0.0, as np.sum adds: a pair of -0.0 terms sums to +0.0
    return _make(out, (x,), lambda g: (spread(g, mask),), "select")


def spread(g: Tensor, mask: np.ndarray) -> Tensor:
    """The adjoint of `select`: mask * g laid out over the pairs of steps."""
    n = mask.ndim
    out = (g.data * mask).transpose(*range(1, n - 1), 0, n - 1).reshape(*g.shape[:-2], -1, g.shape[-1])
    return _make(out, (g,), lambda gg: (select(gg, mask),), "spread")


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map on feature vectors, one node: (B, Fin) -> (B, Fout)."""
    if x.ndim != 2:
        raise ShapeError(f"dense expects (B, F), got shape {x.shape}")

    def vjp(g: Tensor):
        gx = matmul(g, transpose(weight, (1, 0))) if needs_grad(x) else None
        gw = matmul(transpose(x, (1, 0)), g) if needs_grad(weight) else None
        return gx, gw, (reshape(_unbroadcast(g, (1, bias.shape[0])), bias.shape) if needs_grad(bias) else None)

    return _make(x.data @ weight.data + bias.data, (x, weight, bias), vjp, "dense")


def flatten(x: Tensor) -> Tensor:
    """(B, ...) -> (B, product of the rest)."""
    b = x.shape[0]
    return reshape(x, (b, int(np.prod(x.shape[1:]))))


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout at a rate in (0, 1), which the Dropout layer checks; scaling keeps the expectation unchanged."""
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return mul_const(x, mask)
