"""Network building blocks composed from differentiable primitives.

Sequences are (batch, time, channels). A convolution is one graph node:
its forward pass multiplies an im2col matrix of same-padded input
windows by the flattened kernel. Its input and weight gradients are two
further primitives, a transposed convolution and a windows-by-gradient
product. The three are adjoints, so each one's vjp is written with the
other two and a gradient penalty's double backward stays exact. Max
pooling (`select`, `spread`) and `dense` are single nodes the same way.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ContractError, ShapeError
from .tensor import (
    Tensor,
    _make,
    _unbroadcast,
    leaf_grad,
    matmul,
    mul_const,
    needs_grad,
    repeat_time,
    reshape,
    transpose2d,
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
    """im2col of a (B, T, Cin) array: the (B * Tout, K * Cin) window matrix.

    Row b * Tout + t holds padded steps t * stride + k * (1 + spacing) for
    k = 0..K-1, channels innermost, so it lines up with a (K, Cin, Cout)
    weight flattened to (K * Cin, Cout). Original step p sits at padded
    step p + left.
    """
    b, t, c = x.shape
    left, right = conv_padding(kernel, spacing)
    t_out = conv_output_length(t, stride)
    padded = np.zeros((b, left + t + right, c), dtype=x.dtype)
    padded[:, left : left + t] = x
    sb, st, sc = padded.strides
    windows = as_strided(
        padded,
        shape=(b, t_out, kernel, c),
        strides=(sb, stride * st, (1 + spacing) * st, sc),
        writeable=False,
    )
    return windows.reshape(b * t_out, kernel * c)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    spacing: int = 0,
    cols: np.ndarray | None = None,
) -> Tensor:
    """Same-padded 1-d convolution over the time axis.

    x: (B, T, Cin); weight: (K, Cin, Cout); bias: (Cout,) or None.
    Returns (B, ceil(T / stride), Cout). `cols` is x's window matrix when
    the caller already has it.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d expects (B, T, C), got shape {x.shape}")
    if weight.ndim != 3:
        raise ShapeError(f"conv1d weight must be (K, Cin, Cout), got {weight.shape}")
    k, c_in, c_out = weight.shape
    if x.shape[2] != c_in:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape[2]}, weight {c_in}")
    if stride < 1 or spacing < 0:
        raise ContractError(f"invalid stride={stride} spacing={spacing}")

    b, t, _ = x.shape
    if cols is None:
        cols = _window_cols(x.data, k, stride, spacing)
    out = cols @ weight.data.reshape(k * c_in, c_out)
    if bias is not None:
        out += bias.data

    def vjp(g: Tensor):
        gw = leaf_grad(g.size * k * c_in, lambda: conv1d_weight_grad(x, g, k, stride, spacing, cols), weight)
        gx = conv1d_input_grad(g, weight, t, stride, spacing) if needs_grad(x) else None
        if bias is None:
            return gx, gw
        return gx, gw, (tsum(g, axis=(0, 1)) if needs_grad(bias) else None)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make(out.reshape(b, conv_output_length(t, stride), c_out), inputs, vjp, "conv1d")


def conv1d_input_grad(g: Tensor, weight: Tensor, length: int, stride: int = 1, spacing: int = 0) -> Tensor:
    """Transposed convolution: the adjoint of conv1d in its input.

    g: (B, Tout, Cout); weight: (K, Cin, Cout). Returns (B, length, Cin)
    with <conv1d(x, w), g> == <x, conv1d_input_grad(g, w, T)>.
    """
    b, t_out, c_out = g.shape
    k, c_in, _ = weight.shape
    left, right = conv_padding(k, spacing)
    taps = g.data.reshape(b * t_out, c_out) @ weight.data.reshape(k * c_in, c_out).T
    taps = taps.reshape(b, t_out, k, c_in)
    padded = np.zeros((b, left + length + right, c_in), dtype=taps.dtype)
    span = (t_out - 1) * stride + 1
    # last tap first: every step then sums its terms in output-window order
    for j in reversed(range(k)):
        start = j * (1 + spacing)
        padded[:, start : start + span : stride] += taps[:, :, j]

    def vjp(gg: Tensor):
        # one window matrix of gg serves both halves
        cols = _window_cols(gg.data, k, stride, spacing)
        gw = leaf_grad(g.size * k * c_in, lambda: conv1d_weight_grad(gg, g, k, stride, spacing, cols), weight)
        return (conv1d(gg, weight, stride=stride, spacing=spacing, cols=cols) if needs_grad(g) else None), gw

    data = np.ascontiguousarray(padded[:, left : left + length])
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

    x: (B, T, Cin); g: (B, Tout, Cout). Returns (K, Cin, Cout) with
    <conv1d(x, w), g> == <w, conv1d_weight_grad(x, g, K)>. `cols` is x's
    window matrix when the caller already has it.
    """
    t, c_in = x.shape[1], x.shape[2]
    c_out = g.shape[2]
    if cols is None:
        cols = _window_cols(x.data, kernel, stride, spacing)
    data = (cols.T @ g.data.reshape(-1, c_out)).reshape(kernel, c_in, c_out)

    def vjp(gw: Tensor):
        gx = conv1d_input_grad(g, gw, t, stride, spacing) if needs_grad(x) else None
        return gx, (conv1d(x, gw, stride=stride, spacing=spacing) if needs_grad(g) else None)

    return _make(data, (x, g), vjp, "conv1d_weight_grad")


def _pool_windows(x: np.ndarray, width: int) -> np.ndarray:
    """(B, T, C) -> (width, B, ceil(T / width), C), window step first; odd tails repeat the last step."""
    b, t, c = x.shape
    if t % width:
        x = np.concatenate([x, np.repeat(x[:, t - 1 :], -t % width, axis=1)], axis=1)
    return x.reshape(b, -1, width, c).transpose(2, 0, 1, 3).copy()


def maxpool1d(x: Tensor, width: int = 2) -> Tensor:
    """Non-overlapping max pooling over time; odd tails repeat the last step.

    The winning positions are frozen from the forward values into a mask,
    so the op is locally linear and safe to differentiate twice.
    """
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d expects (B, T, C), got shape {x.shape}")
    windows = _pool_windows(x.data, width)
    return select(x, winner_mask(windows), windows)


def winner_mask(windows: np.ndarray) -> np.ndarray:
    """One-hot mask of each window's first maximum, or first NaN, as np.argmax picks it."""
    best, winner = windows[0], np.zeros(windows.shape[1:], dtype=np.intp)
    for k in range(1, len(windows)):
        later = (best == best) & ~(best >= windows[k])
        best = np.where(later, windows[k], best)
        winner[later] = k
    return (winner == np.arange(len(windows))[:, None, None, None]).astype(windows.dtype)


def select(x: Tensor, mask: np.ndarray, windows: np.ndarray | None = None) -> Tensor:
    """Sum each window of x against `mask`, laid out as `_pool_windows` lays out x: (B, T, C) -> (B, Tout, C)."""
    terms = (_pool_windows(x.data, len(mask)) if windows is None else windows) * mask
    out = sum(terms[1:], 0.0 + terms[0])  # from +0.0, as np.sum adds: a window of -0.0 terms sums to +0.0
    return _make(out, (x,), lambda g: (spread(g, mask, x.shape[1]),), "select")


def spread(g: Tensor, mask: np.ndarray, length: int) -> Tensor:
    """The adjoint of `select`: mask * g laid out over the windows, tail shares on the last step."""
    out = (g.data * mask).transpose(1, 2, 0, 3).reshape(g.shape[0], -1, g.shape[2])
    if out.shape[1] > length:
        out = out[:, :length] + np.pad(out[:, length:].sum(axis=1, keepdims=True), ((0, 0), (length - 1, 0), (0, 0)))
    return _make(out, (g,), lambda gg: (select(gg, mask),), "spread")


def upsample1d(x: Tensor, factor: int = 2) -> Tensor:
    """Nearest-neighbour upsampling over time."""
    if factor < 1:
        raise ContractError(f"upsample factor must be >= 1, got {factor}")
    return repeat_time(x, factor)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map on feature vectors, one node: (B, Fin) -> (B, Fout)."""
    if x.ndim != 2:
        raise ShapeError(f"dense expects (B, F), got shape {x.shape}")

    def vjp(g: Tensor):
        gx = matmul(g, transpose2d(weight)) if needs_grad(x) else None
        gw = matmul(transpose2d(x), g) if needs_grad(weight) else None
        return gx, gw, (reshape(_unbroadcast(g, (1, bias.shape[0])), bias.shape) if needs_grad(bias) else None)

    return _make(x.data @ weight.data + bias.data, (x, weight, bias), vjp, "dense")


def flatten(x: Tensor) -> Tensor:
    """(B, ...) -> (B, product of the rest)."""
    b = x.shape[0]
    return reshape(x, (b, int(np.prod(x.shape[1:]))))


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; scaling keeps the expectation unchanged."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return mul_const(x, mask)
