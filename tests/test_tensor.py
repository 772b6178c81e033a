"""Engine tests: forward values, graph mechanics, gradients vs finite differences."""

import gc
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mocapsynth
from mocapsynth.errors import ContractError, NumericalError, ShapeError
from mocapsynth.nn import (
    Tensor,
    add,
    backward_pass,
    clip,
    concat,
    conv1d,
    conv1d_input_grad,
    conv1d_weight_grad,
    cross_entropy,
    dense,
    grad,
    leaky_relu,
    log_softmax,
    matmul,
    maxpool1d,
    mul,
    mul_const,
    narrow,
    no_grad,
    pad_axis,
    power,
    relu,
    reshape,
    sigmoid,
    softmax,
    tanh,
    texp,
    tlog,
    tmean,
    tsqrt,
    tsum,
    upsample1d,
)

from mocapsynth.nn import fork, grad_enabled, ops, tensor
from mocapsynth.nn.ops import _pool_windows, select, spread, winner_mask

from gradcheck import check_gradients, numeric_gradient, relative_error
from oracles import maxpool_by_argmax, maxpool_grad_by_argmax, naive_conv1d, naive_maxpool1d, naive_upsample1d

TOL = 1e-6


def away_from_zero(rng, shape, margin=0.2):
    """Samples with |x| >= margin so kinked activations are FD-safe."""
    return (rng.uniform(margin, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape))


def separated_values(rng, shape, gap=0.05):
    """Random values with pairwise gaps >= gap (no pooling ties)."""
    n = int(np.prod(shape))
    vals = np.arange(n) * gap + rng.uniform(0, gap / 4, size=n)
    return rng.permutation(vals).reshape(shape)


# -- forward values ----------------------------------------------------------


def test_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    ta, tb = Tensor(a), Tensor(b)
    npt.assert_allclose((ta + tb).data, a + b)
    npt.assert_allclose((ta * tb).data, a * b)
    npt.assert_allclose((ta - tb).data, a - b)
    npt.assert_allclose((ta / tb).data, a / b)
    npt.assert_allclose(texp(ta).data, np.exp(a))
    npt.assert_allclose(tanh(ta).data, np.tanh(a))
    npt.assert_allclose(relu(ta).data, np.maximum(a, 0))
    npt.assert_allclose(sigmoid(ta).data, 1 / (1 + np.exp(-a)))
    npt.assert_allclose(ta.sum().item(), a.sum())
    npt.assert_allclose(ta.mean(axis=0).data, a.mean(axis=0))
    npt.assert_allclose(matmul(ta, Tensor(b.T)).data, a @ b.T)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(scale=30.0, size=(8, 5)))  # large scale: stability check
    s = softmax(x)
    npt.assert_allclose(s.data.sum(axis=1), np.ones(8), atol=1e-12)
    assert np.all(s.data >= 0)
    npt.assert_allclose(np.exp(log_softmax(x).data), s.data, atol=1e-12)


# -- graph mechanics ----------------------------------------------------------


def test_fanout_accumulates():
    x = Tensor(3.0, requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1
    y.backward()
    npt.assert_allclose(x.grad, 7.0)


def test_diamond_graph():
    x = Tensor(2.0, requires_grad=True)
    a = x * 3.0
    b = x * 5.0
    y = a * b  # y = 15 x^2, dy/dx = 30 x
    y.backward()
    npt.assert_allclose(x.grad, 60.0)


def test_grad_accumulates_across_backward_calls():
    x = Tensor(1.5, requires_grad=True)
    (x * x).backward()
    (x * x).backward()
    npt.assert_allclose(x.grad, 6.0)


def test_no_grad_blocks_graph():
    x = Tensor(2.0, requires_grad=True)
    with no_grad():
        y = x * x
    assert not y.requires_grad
    assert y._prev == ()


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * 2.0
    with pytest.raises(ContractError):
        y.backward()


def test_nan_guard_names_the_node():
    x = Tensor(0.0, requires_grad=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = tlog(x)  # -inf forward, nan/inf gradients downstream
        with pytest.raises(NumericalError):
            (y * 0.0 + y).backward()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("op, shape, build", [
    ("select", (2, 5, 3), lambda x: maxpool1d(x, 2)),
    ("dense", (2, 3), lambda x: dense(x, Tensor(np.ones((3, 4)), requires_grad=True), Tensor(np.ones(4)))),
    ("mul_const", (2, 3), lambda x: mul_const(x, 2.0)),
])
def test_a_non_finite_gradient_is_caught_at_the_node_it_reaches(op, shape, build, bad):
    x = Tensor(np.random.default_rng(27).normal(size=shape), requires_grad=True)
    y = build(x)
    weights = np.ones(y.shape)
    weights.flat[1] = bad
    with pytest.raises(NumericalError, match=f"at node '{op}'"):
        tsum(mul_const(y, weights)).backward()


def test_functional_grad_leaves_dotgrad_alone():
    x = Tensor(2.0, requires_grad=True)
    y = x * x
    (g,) = grad(y, [x])
    npt.assert_allclose(g.data, 4.0)
    assert x.grad is None


def test_a_backward_pass_returns_only_the_leaves_and_wrt_tensors():
    # an intermediate gradient is dropped once its vjp has run
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    h = tanh(matmul(x, w))
    y = tsum(h * h)
    for create_graph in (False, True):
        seed = Tensor(np.ones(()))
        assert {id(t) for t in backward_pass(y, seed, create_graph)} == {id(x), id(w)}
        assert {id(t) for t in backward_pass(y, seed, create_graph, wrt=[h, w])} == {id(h), id(w)}


def test_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((2, 8))), Tensor(np.ones((3, 1, 4)), requires_grad=True), Tensor(np.zeros(4)))


# -- gradients vs finite differences ------------------------------------------


def test_elementwise_gradients():
    rng = np.random.default_rng(7)
    for trial in range(20):
        a = Tensor(away_from_zero(rng, (4, 3)), requires_grad=True)
        b = Tensor(away_from_zero(rng, (4, 3)), requires_grad=True)
        cases = [
            lambda: (a * b + a - b).sum(),
            lambda: (a / b).sum(),
            lambda: tsum(texp(a * 0.3)),
            lambda: tsum(tanh(a) * sigmoid(b)),
            lambda: tsum(relu(a) + leaky_relu(b)),
            lambda: tsum(tlog(a * a + 1.0)),
            lambda: tsum(tsqrt(a * a + 0.5)),
            lambda: tsum(power(a * a + 1.0, 1.7)),
            lambda: tsum(clip(a, -0.7, 0.7) * b),
        ]
        case = cases[trial % len(cases)]
        assert check_gradients(case, [a, b]) < 1e-5


def test_broadcast_gradients():
    rng = np.random.default_rng(8)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    row = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    col = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    scalar = Tensor(rng.normal(), requires_grad=True)
    assert check_gradients(lambda: tsum(a * row + col * scalar), [a, row, col, scalar]) < 1e-6


def test_reduction_gradients():
    rng = np.random.default_rng(9)
    a = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    assert check_gradients(lambda: tsum(tmean(a, axis=1) ** 2.0), [a]) < 1e-6
    assert check_gradients(lambda: tsum(tsum(a, axis=(0, 2), keepdims=True) ** 2.0), [a]) < 1e-6


def test_matmul_dense_gradients():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    assert check_gradients(lambda: tsum(tanh(dense(x, w, b))), [x, w, b]) < 1e-6


def test_concat_narrow_pad_gradients():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def f():
        c = concat([a, b], axis=1)
        d = pad_axis(narrow(c, 1, 1, 3), 0, 1, 1)
        return tsum(d * d)

    assert check_gradients(f, [a, b]) < 1e-6


def test_softmax_cross_entropy_gradients():
    rng = np.random.default_rng(12)
    logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    onehot = np.eye(4)[rng.integers(0, 4, size=6)]
    assert check_gradients(lambda: cross_entropy(logits, onehot), [logits]) < 1e-6
    # softmax gradient through an arbitrary downstream weighting
    w = rng.normal(size=(6, 4))
    assert check_gradients(lambda: tsum(softmax(logits) * Tensor(w)), [logits]) < 1e-6


def test_cross_entropy_matches_hand_value():
    # two rows, uniform logits: loss must be log(n_classes)
    logits = Tensor(np.zeros((2, 5)))
    onehot = np.eye(5)[[0, 3]]
    npt.assert_allclose(cross_entropy(logits, onehot).item(), np.log(5.0), atol=1e-12)


# -- structured ops vs naive oracles ------------------------------------------


def test_conv1d_matches_naive_oracle():
    rng = np.random.default_rng(13)
    for k, stride, spacing in [(1, 1, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (5, 2, 0), (4, 1, 0), (5, 1, 3), (2, 3, 1)]:
        for t in (1, 5, 8, 32):
            x = rng.normal(size=(2, t, 3))
            w = rng.normal(size=(k, 3, 4))
            b = rng.normal(size=4)
            got = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, spacing=spacing)
            want = naive_conv1d(x, w, b, stride=stride, spacing=spacing)
            assert got.shape == want.shape
            npt.assert_allclose(got.data, want, atol=1e-10)


def test_conv1d_output_length_is_ceil():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(1, 7, 2)))
    w = Tensor(rng.normal(size=(3, 2, 2)))
    b = Tensor(np.zeros(2))
    assert conv1d(x, w, b, stride=2).shape == (1, 4, 2)
    assert conv1d(x, w, b, stride=3).shape == (1, 3, 2)


def test_conv1d_gradients():
    rng = np.random.default_rng(15)
    for stride, spacing in [(1, 0), (2, 0), (1, 1), (2, 1)]:
        x = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        f = lambda: tsum(tanh(conv1d(x, w, b, stride=stride, spacing=spacing)))
        assert check_gradients(f, [x, w, b]) < 1e-5


def test_conv1d_is_one_graph_node():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    out = conv1d(x, w, b, stride=2, spacing=1)
    assert out.op == "conv1d"
    assert out._prev == (x, w, b)


def test_a_conv_over_an_activation_holds_no_window_matrix(traced_peak):
    # the window matrix is K copies of x; over an activation, which the node
    # holds anyway, the weight gradient rebuilds it, to the same bits
    rng = np.random.default_rng(30)
    k = 5
    x = leaky_relu(Tensor(rng.normal(size=(16, 32, 24)), requires_grad=True))
    w = Tensor(rng.normal(size=(k, 24, 24)), requires_grad=True)
    with traced_peak() as traced:
        out = conv1d(x, w, spacing=1)
    assert traced.held < k * x.data.nbytes, f"held {traced.held / x.data.nbytes:.2f}x x"
    g = rng.normal(size=out.shape)
    tsum(mul_const(out, g)).backward(wrt=[w])
    rebuilt, w.grad = w.grad, None
    tsum(mul_const(conv1d(Tensor(x.data), w, spacing=1), g)).backward()
    assert rebuilt.tobytes() == w.grad.tobytes()


def test_a_leaky_relu_holds_its_sign_as_a_byte(traced_peak):
    x = Tensor(np.random.default_rng(31).normal(size=(64, 256)), requires_grad=True)
    with traced_peak() as traced:
        y = leaky_relu(x)
    assert traced.held <= 1.25 * x.data.nbytes, f"held {traced.held / x.data.nbytes:.2f}x x"
    (g,) = grad(tsum(y), [x])
    assert g.data.tobytes() == np.where(x.data > 0, 1.0, 0.2).tobytes()


@pytest.mark.parametrize("op", ["relu", "clip"])
def test_relu_and_clip_hold_their_masks_as_bytes(traced_peak, op):
    f = {"relu": relu, "clip": lambda t: clip(t, -1.0, 1.0)}[op]
    x = Tensor(np.random.default_rng(32).normal(size=(64, 16, 96)), requires_grad=True)
    with traced_peak() as traced:
        y = f(x)
    assert traced.held <= 1.25 * x.data.nbytes, f"held {traced.held / x.data.nbytes:.2f}x x"  # 2.00x with float masks
    assert y.op == op
    keep = x.data > 0 if op == "relu" else (x.data >= -1.0) & (x.data <= 1.0)
    w = Tensor(np.random.default_rng(33).normal(size=x.shape), requires_grad=True)
    (g,) = grad(tsum(mul(y, w)), [x], create_graph=True)
    assert g.data.tobytes() == (w.data * keep.astype(float)).tobytes()
    (gg,) = grad(tsum(mul(g, g)), [w])
    assert gg.data.tobytes() == (2.0 * g.data * keep.astype(float)).tobytes()


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("spacing", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_conv1d_primitives_are_adjoint(stride, spacing, k):
    # <conv1d(x, w), g> = <x, input_grad(g, w)> = <w, weight_grad(x, g)>
    rng = np.random.default_rng(100 * stride + 10 * spacing + k)
    t = 11
    x = Tensor(rng.normal(size=(2, t, 3)))
    w = Tensor(rng.normal(size=(k, 3, 4)))
    y = conv1d(x, w, stride=stride, spacing=spacing)
    g = Tensor(rng.normal(size=y.shape))
    forward = np.vdot(y.data, g.data)
    via_input = np.vdot(x.data, conv1d_input_grad(g, w, t, stride, spacing).data)
    via_weight = np.vdot(w.data, conv1d_weight_grad(x, g, k, stride, spacing).data)
    scale = np.linalg.norm(y.data) * np.linalg.norm(g.data)
    assert abs(via_input - forward) <= 1e-12 * scale
    assert abs(via_weight - forward) <= 1e-12 * scale


def test_conv1d_adjoint_primitives_gradients():
    rng = np.random.default_rng(24)
    for stride, spacing in [(1, 0), (2, 0), (2, 1)]:
        t = 9
        x = Tensor(rng.normal(size=(2, t, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)
        g = Tensor(rng.normal(size=(2, -(-t // stride), 2)), requires_grad=True)
        f = lambda: tsum(tanh(conv1d_input_grad(g, w, t, stride, spacing)))
        assert check_gradients(f, [g, w]) < 1e-5
        f = lambda: tsum(tanh(conv1d_weight_grad(x, g, 3, stride, spacing)))
        assert check_gradients(f, [x, g]) < 1e-5


def test_maxpool_matches_naive_oracle():
    rng = np.random.default_rng(16)
    for t in (2, 5, 8, 9, 32):
        x = rng.normal(size=(3, t, 4))
        got = maxpool1d(Tensor(x), 2)
        npt.assert_allclose(got.data, naive_maxpool1d(x, 2), atol=0)


def test_maxpool_gradients():
    rng = np.random.default_rng(17)
    x = Tensor(separated_values(rng, (2, 7, 3)), requires_grad=True)
    assert check_gradients(lambda: tsum(maxpool1d(x, 2) ** 2.0), [x]) < 1e-5


def test_maxpool_odd_tail_routes_gradient_to_last_step():
    x = Tensor(np.arange(6, dtype=float).reshape(1, 3, 2), requires_grad=True)
    y = maxpool1d(x, 2)  # windows: {t0,t1}, {t2 repeated}
    tsum(y).backward()
    want = np.array([[[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]])
    npt.assert_allclose(x.grad, want)


# signed zeros, infinities, NaN, the largest finite value and subnormals
POOL_VALUES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324, 2.5e-310]


@st.composite
def pool_cases(draw):
    """(width, x, g): an input of any width 1-5 pool, odd tails included, and a finite upstream gradient."""
    width = draw(st.integers(1, 5))
    b, t, c = draw(st.integers(1, 3)), draw(st.integers(1, 11)), draw(st.integers(1, 3))
    x = draw(hnp.arrays(np.float64, (b, t, c), elements=st.sampled_from(POOL_VALUES)))
    finite = st.sampled_from([v for v in POOL_VALUES if np.isfinite(v)])
    g = draw(hnp.arrays(np.float64, (b, -(-t // width), c), elements=finite))
    return width, x, g


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(pool_cases())
@example((2, np.full((1, 4, 2), -0.0), np.full((1, 2, 2), -0.0)))
@example((3, np.array([[[-0.0], [-3.0], [-0.0], [-0.0]]]), np.array([[[-0.0], [-1.0]]])))
def test_pool_matches_the_argmax_pool_bit_for_bit(case):
    width, x, g = case
    t = x.shape[1]
    with np.errstate(invalid="ignore"):
        want_mask, want = maxpool_by_argmax(x, width)
        mask = winner_mask(_pool_windows(x, width))
        got = maxpool1d(Tensor(x), width).data
    assert mask.tobytes() == want_mask.transpose(2, 0, 1, 3).tobytes()
    # a window holding inf or NaN sums to NaN both ways, but its sign and payload may differ
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert spread(Tensor(g), mask, t).data.tobytes() == maxpool_grad_by_argmax(g, want_mask, t).tobytes()


def test_pool_select_and_spread_are_adjoint():
    rng = np.random.default_rng(26)
    for t, width in [(8, 2), (9, 2), (7, 3)]:
        x = Tensor(separated_values(rng, (2, t, 3)), requires_grad=True)
        g = Tensor(rng.normal(size=(2, -(-t // width), 3)), requires_grad=True)
        mask = winner_mask(_pool_windows(x.data, width))
        forward = np.vdot(select(x, mask).data, g.data)
        assert abs(np.vdot(x.data, spread(g, mask, t).data) - forward) <= 1e-12 * np.abs(g.data).sum()
        assert check_gradients(lambda: tsum(tanh(select(x, mask))), [x]) < 1e-6
        assert check_gradients(lambda: tsum(tanh(spread(g, mask, t))), [g]) < 1e-6


def test_upsample_matches_naive_oracle():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 5, 3))
    npt.assert_allclose(upsample1d(Tensor(x), 2).data, naive_upsample1d(x, 2))
    npt.assert_allclose(upsample1d(Tensor(x), 3).data, naive_upsample1d(x, 3))


def test_upsample_gradients():
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    assert check_gradients(lambda: tsum(upsample1d(x, 2) ** 2.0), [x]) < 1e-6


# -- double backward -----------------------------------------------------------


def test_double_backward_cubic():
    x = Tensor(2.0, requires_grad=True)
    y = x * x * x
    (g,) = grad(y, [x], create_graph=True)  # 3x^2 = 12
    npt.assert_allclose(g.data, 12.0)
    (gg,) = grad(g, [x])  # 6x = 12
    npt.assert_allclose(gg.data, 12.0)


def test_double_backward_through_norm_penalty():
    # p(x) = (||dx f|| - 1)^2 for f = sum(x^2): grad is 2x, ||2x|| = 2||x||
    # dp/dx = 2 (2||x|| - 1) * 2 x / ||x||
    rng = np.random.default_rng(20)
    xv = rng.normal(size=(1, 4))
    x = Tensor(xv, requires_grad=True)
    f = tsum(x * x)
    (g,) = grad(f, [x], create_graph=True)
    norm = tsqrt(tsum(g * g))
    p = (norm - 1.0) ** 2.0
    p.backward()
    r = np.linalg.norm(xv)
    want = 2 * (2 * r - 1) * 2 * xv / r
    npt.assert_allclose(x.grad, want, rtol=1e-9)


@pytest.mark.parametrize("op", [texp, tsqrt, tanh, sigmoid])
def test_graph_is_freed_without_the_cyclic_collector(op):
    # a vjp holding its own output strongly makes each graph a reference cycle,
    # which only the cyclic collector frees
    gc.disable()
    try:
        x = Tensor(np.array([0.3, 0.7, 1.2]), requires_grad=True)
        y = op(x)
        (g,) = grad(tsum(y * y), [x], create_graph=True)
        loss = tsum(g * g)
        loss.backward()
        assert x.grad is not None
        nodes = [weakref.ref(t) for t in (y, g, loss)]
        del y, g, loss
        assert [ref() for ref in nodes] == [None, None, None]
    finally:
        gc.enable()


def test_double_backward_matches_finite_difference():
    rng = np.random.default_rng(21)
    xv = rng.normal(size=(3, 2))
    w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def penalty():
        x = Tensor(xv, requires_grad=True)
        out = tsum(tanh(matmul(x, w)))
        (g,) = grad(out, [x], create_graph=True)
        return tsum((tsqrt(tsum(g * g, axis=1)) - 1.0) ** 2.0)

    w.grad = None
    penalty().backward()
    analytic = w.grad.copy()
    numeric = numeric_gradient(penalty, w, h=1e-5)
    assert relative_error(analytic, numeric) < 1e-5


def test_double_backward_through_conv_and_pool():
    rng = np.random.default_rng(22)
    xv = separated_values(rng, (1, 8, 2))
    w = Tensor(rng.normal(size=(3, 2, 2)) * 0.7, requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)

    def penalty():
        x = Tensor(xv, requires_grad=True)
        h = maxpool1d(leaky_relu(conv1d(x, w, b)), 2)
        out = tsum(h)
        (g,) = grad(out, [x], create_graph=True)
        return tsum((tsqrt(tsum(g * g) + 1e-12) - 1.0) ** 2.0)

    w.grad = None
    b.grad = None
    penalty().backward()
    aw = w.grad.copy()
    # the input gradient of an affine-in-x network never sees the bias,
    # so the penalty has no bias dependence at all
    ab = b.grad if b.grad is not None else np.zeros_like(b.data)
    assert relative_error(aw, numeric_gradient(penalty, w)) < 1e-4
    assert relative_error(ab, numeric_gradient(penalty, b)) < 1e-4


@pytest.mark.parametrize("stride, spacing", [(2, 0), (1, 1)])
def test_double_backward_through_strided_and_spaced_conv(stride, spacing):
    # stride 2 is the critic's convolution, spacing 1 the classifier's first
    rng = np.random.default_rng(25)
    xv = separated_values(rng, (2, 9, 2))
    w = Tensor(rng.normal(size=(3, 2, 2)) * 0.7, requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)

    def penalty():
        x = Tensor(xv, requires_grad=True)
        h = maxpool1d(leaky_relu(conv1d(x, w, b, stride=stride, spacing=spacing)), 2)
        out = tsum(h * h)
        (g,) = grad(out, [x], create_graph=True)
        return tsum((tsqrt(tsum(g * g) + 1e-12) - 1.0) ** 2.0)

    w.grad = None
    b.grad = None
    penalty().backward()
    assert relative_error(w.grad, numeric_gradient(penalty, w)) < 1e-4
    assert relative_error(b.grad, numeric_gradient(penalty, b)) < 1e-4


# -- graph size -------------------------------------------------------------------


def test_graph_node_counts_do_not_grow(monkeypatch):
    # per-node Python cost dominates small-shape training: fewer nodes, same values
    from mocapsynth.classifier.network import BRANCH_WIDTHS, HierarchicalClassifier, HierarchicalNetSpec
    from mocapsynth.gan import GanTrainSpec, train_gan
    from mocapsynth.nn import tensor

    from toys import toy_critic_spec, toy_generator_spec, two_mode_sequences

    made = [0]
    make = tensor._make

    def counted(*args, **kwargs):
        made[0] += 1
        return make(*args, **kwargs)

    monkeypatch.setattr(tensor, "_make", counted)
    monkeypatch.setattr(ops, "_make", counted)

    rng = np.random.default_rng(28)
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=2), seed=0)
    views = tuple(Tensor(rng.normal(size=(32, 32, w))) for w in BRANCH_WIDTHS)
    onehot = np.eye(2)[rng.integers(0, 2, size=32)]
    loss = cross_entropy(model.forward(views, training=True, rng=rng), onehot)
    forward, made[0] = made[0], 0
    loss.backward()
    backward, made[0] = made[0], 0
    assert forward <= 46 and backward <= 76, (forward, backward)  # 70 and 103 before the fused nodes

    data, _ = two_mode_sequences(480, seed=7)
    spec = GanTrainSpec(kind="wgan_gp", epochs=1, batch=32, critic_steps=15, seed=0)
    _, _, hist = train_gan(spec, data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec())
    assert hist.gen_updates == 1
    assert made[0] <= 2355, made[0]  # one generator step of 15 critic steps; 2,541 before


# -- two threads ------------------------------------------------------------------


@pytest.fixture
def always_fork(monkeypatch):
    """Every fork hands its first half to the worker thread, whatever the machine, BLAS and the work."""
    monkeypatch.setattr(tensor, "FORK_MIN_WORK", 0)
    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(tensor, "_blas_threads", lambda: 1)


def test_no_grad_on_one_thread_leaves_another_recording():
    entered, done = threading.Event(), threading.Event()

    def elsewhere():
        with no_grad():
            entered.set()
            done.wait(10)

    other = threading.Thread(target=elsewhere)
    other.start()
    try:
        assert entered.wait(10)
        assert mul_const(Tensor(np.ones(3), requires_grad=True), 2.0).requires_grad
    finally:
        done.set()
        other.join(10)
    assert not other.is_alive()


def test_a_forked_half_sees_the_callers_grad_mode_and_keep_set(always_fork):
    def seen():
        return threading.current_thread(), grad_enabled(), tensor._STATE.keep

    keep = {1, 2}
    with no_grad(), tensor._set("keep", keep):
        (where, mode, kept), _ = fork(0, seen, lambda: None)
    assert where is not threading.current_thread()
    assert mode is False and kept is keep
    # the worker's own state is back once a half ends
    (_, mode, kept), _ = fork(0, seen, lambda: None)
    assert mode is True and kept is None


def test_a_fork_inside_a_forked_half_runs_inline():
    # in a child process: a worker that waits on its own queue would also hang the interpreter's exit
    child = (
        "import sys, threading\n"
        f"sys.path.insert(0, {str(Path(mocapsynth.__file__).parents[1])!r})\n"
        "from mocapsynth.nn import fork, tensor\n"
        "tensor.FORK_MIN_WORK, tensor._usable_cpus, tensor._blas_threads = 0, lambda: 2, lambda: 1\n"
        "inner = lambda: fork(0, threading.current_thread, threading.current_thread)\n"
        "(first, second), caller = fork(0, inner, threading.current_thread)\n"
        "print(first is second, first is not caller, caller is threading.main_thread())\n"
    )
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["True", "True", "True"]


class _FirstError(Exception):
    pass


class _SecondError(Exception):
    pass


def test_the_first_halfs_error_comes_out_and_the_worker_stays_usable(always_fork):
    ran = []

    def first():
        ran.append("first")
        raise _FirstError

    def second():
        ran.append("second")
        raise _SecondError

    with pytest.raises(_FirstError):
        fork(0, first, second)
    assert sorted(ran) == ["first", "second"]
    with pytest.raises(_SecondError):
        fork(0, lambda: ran.append("both run to the end"), second)
    assert "both run to the end" in ran
    where, value = fork(0, threading.current_thread, lambda: 7)
    assert value == 7 and where is not threading.current_thread()


def test_forks_from_many_threads_share_one_worker_and_keep_their_own_state(always_fork, monkeypatch):
    monkeypatch.setattr(tensor, "_pool", None)  # made afresh, with every caller racing to make it
    made = []
    executor = tensor.ThreadPoolExecutor

    def counted(*args, **kwargs):
        made.append(executor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tensor, "ThreadPoolExecutor", counted)
    monkeypatch.setattr(tensor, "_one_malloc_arena", lambda: time.sleep(0.01))  # widens the race to make the pool
    wrong = []

    def caller(i):
        for j in range(50):
            mode = (i + j) % 2 == 0
            with tensor._set("grad_mode", mode):
                got, own = fork(0, lambda: (grad_enabled(), (i, j)), grad_enabled)
            if got != (mode, (i, j)) or own != mode:
                wrong.append((i, j))

    callers = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(30)
    finally:
        sys.setswitchinterval(switch)
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert len(made) == 1 and not wrong


def _mixed_contributions_loss(x_big, x_small, w, b):
    # w gets five gradient terms: two from the product, one from each
    # convolution, large or small (deferred or not by the gate)
    big = conv1d(x_big, w, spacing=1)
    small = conv1d(x_small, w)
    return tsum(mul(w, w)) + tsum(big * big) + tsum(small) + tsum(conv1d(x_big, w, b, stride=2))


def test_deferred_and_direct_contributions_to_a_leaf_add_up_in_serial_order(monkeypatch, handoffs):
    rng = np.random.default_rng(31)
    x_big, x_small = Tensor(rng.normal(size=(6, 9, 3)), requires_grad=True), Tensor(rng.normal(size=(1, 5, 3)))
    w, b = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True), Tensor(rng.normal(size=4), requires_grad=True)

    def grads():
        for t in (x_big, w, b):
            t.zero_grad()
        _mixed_contributions_loss(x_big, x_small, w, b).backward()
        return [t.grad.tobytes() for t in (x_big, w, b)]

    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 1)
    serial = grads()
    assert not handoffs
    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(tensor, "_blas_threads", lambda: 1)
    # the big convolutions' weight gradients pass the gate (6 * 9 * 4 * 3 * 3 = 1,944 multiply-adds
    # for stride 1, 972 for stride 2), the small one's (1 * 5 * 4 * 3 * 3 = 180) does not
    monkeypatch.setattr(tensor, "FORK_MIN_WORK", 900)
    assert grads() == serial
    assert handoffs["gradient"] == 2
    monkeypatch.setattr(tensor, "FORK_MIN_WORK", 0)
    assert grads() == serial
    assert handoffs["gradient"] == 2 + 3


class _DeferredError(Exception):
    pass


def test_an_error_in_a_deferred_gradient_comes_out_of_backward(always_fork, monkeypatch):
    rng = np.random.default_rng(32)
    x = Tensor(rng.normal(size=(4, 6, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, 5)), requires_grad=True)
    weight_grad = ops.conv1d_weight_grad

    def failing(*args, **kwargs):
        if tensor._STATE.on_worker:
            raise _DeferredError
        return weight_grad(*args, **kwargs)

    monkeypatch.setattr(ops, "conv1d_weight_grad", failing)
    with pytest.raises(_DeferredError):
        tsum(conv1d(x, w)).backward()
    assert w.grad is None
    monkeypatch.setattr(ops, "conv1d_weight_grad", weight_grad)
    where, value = fork(0, threading.current_thread, lambda: 7)
    assert value == 7 and where is not threading.current_thread()
    x.zero_grad()
    tsum(conv1d(x, w)).backward()
    assert np.isfinite(w.grad).all() and w.grad.shape == w.shape


@pytest.mark.filterwarnings("ignore:overflow encountered")  # raised on the worker, outside this thread's errstate
def test_a_non_finite_deferred_contribution_raises(always_fork, handoffs):
    # each weight gradient entry sums at least 36 terms of 1e307: past the largest double
    x = Tensor(np.full((4, 12, 2), 1e307))
    w = Tensor(np.full((3, 2, 5), 1e-300), requires_grad=True)
    with pytest.raises(NumericalError, match="non-finite gradient"):
        tsum(conv1d(x, w)).backward()
    assert handoffs["gradient"] == 1 and w.grad is None


def test_a_create_graph_pass_never_defers(always_fork, handoffs):
    rng = np.random.default_rng(33)
    x = Tensor(rng.normal(size=(4, 8, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    (gx,) = grad(tsum(leaky_relu(conv1d(x, w))), [x], create_graph=True)
    gw, gx2 = grad(tsum(gx * gx), [w, x], create_graph=True)
    # nor does a conv vjp that wants both operands' gradients: with the gate open, no hand-off at all
    grad(tsum(conv1d(x, w) ** 2), [x, w], create_graph=True)
    assert not handoffs
    # gw's pass without create_graph defers, and gives the same bits
    gw_plain, gx2_plain = grad(tsum(gx * gx), [w, x])
    assert handoffs["gradient"] > 0 and handoffs.keys() <= {"gradient", "sum"}
    assert gw.data.tobytes() == gw_plain.data.tobytes() and gx2.data.tobytes() == gx2_plain.data.tobytes()


def test_backward_passes_from_many_threads_defer_to_one_worker_and_keep_their_bits(always_fork, handoffs, monkeypatch):
    rng = np.random.default_rng(34)
    cases = []
    for _ in range(8):
        x_big, x_small = Tensor(rng.normal(size=(6, 9, 3)), requires_grad=True), Tensor(rng.normal(size=(1, 5, 3)))
        w, b = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True), Tensor(rng.normal(size=4), requires_grad=True)
        cases.append((x_big, x_small, w, b))

    def grads(case):
        x_big, x_small, w, b = case
        found = grad(_mixed_contributions_loss(*case), [x_big, w, b])
        return [g.data.tobytes() for g in found]

    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 1)
    serial = [grads(case) for case in cases]
    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)
    assert not handoffs
    wrong = []

    def caller(i):
        for _ in range(20):
            if grads(cases[i]) != serial[i]:
                wrong.append(i)

    callers = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(len(cases))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in callers)
    assert not wrong and handoffs["gradient"] == 8 * 20 * 3


def test_small_shapes_stay_on_one_thread(monkeypatch, handoffs):
    # a classifier batch and a toy WGAN-GP step are bound by Python: two threads would only take turns
    from mocapsynth.classifier.network import BRANCH_WIDTHS, HierarchicalClassifier, HierarchicalNetSpec
    from mocapsynth.gan import GanTrainSpec, train_gan

    from toys import toy_critic_spec, toy_generator_spec, two_mode_sequences

    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(tensor, "_blas_threads", lambda: 1)
    rng = np.random.default_rng(28)
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=2), seed=0)
    views = tuple(Tensor(rng.normal(size=(32, 32, w))) for w in BRANCH_WIDTHS)
    onehot = np.eye(2)[rng.integers(0, 2, size=32)]
    cross_entropy(model.forward(views, training=True, rng=rng), onehot).backward()
    assert not handoffs

    data, _ = two_mode_sequences(480, seed=7)
    spec = GanTrainSpec(kind="wgan_gp", epochs=1, batch=32, critic_steps=15, seed=0)
    _, _, hist = train_gan(spec, data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec())
    assert hist.gen_updates == 1
    assert not handoffs


@pytest.mark.parametrize("blas_threads", [2, None])
def test_blas_on_every_cpu_or_unknown_keeps_work_on_one_thread(blas_threads, monkeypatch):
    # a BLAS call that already spreads over every CPU leaves the worker none; unknown BLAS counts as that
    monkeypatch.setattr(tensor, "FORK_MIN_WORK", 0)
    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(tensor, "_blas_threads", lambda: blas_threads)
    where, _ = fork(0, threading.current_thread, lambda: None)
    assert where is threading.current_thread()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_threads_reads_the_loaded_blas(threads):
    # OpenBLAS reads its thread count when loaded, so each setting needs a fresh process
    child = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(Path(mocapsynth.__file__).parents[1])!r})\n"
        "from mocapsynth.nn import tensor\n"
        "print(tensor._blas_threads(), len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else 1)\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60, check=True, env=env)
    got, cpus = out.stdout.split()
    if got == "None":
        pytest.skip("the loaded BLAS is not OpenBLAS, or this platform has no /proc")
    assert int(got) == min(int(threads), int(cpus))
