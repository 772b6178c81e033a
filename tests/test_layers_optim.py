"""Layer objects, checkpoint round-trips, Adam, divergences."""

import numpy as np
import numpy.testing as npt
import pytest

from mocapsynth.container import write_container
from mocapsynth.errors import ContractError, DegenerateBatchError, ShapeError
from mocapsynth.nn import (
    Activation,
    Adam,
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Reshape,
    Sequential,
    Tensor,
    Upsample,
    js_divergence,
    load_model,
    save_model,
    tsum,
)
from mocapsynth.seeding import derive_rng

from gradcheck import check_gradients, square
from oracles import adam_per_parameter, adam_single_step, naive_js, naive_kl


def small_net(seed=0):
    rng = derive_rng(seed, "net")
    return Sequential(
        [
            Conv1D(3, 2, 4, stride=1, spacing=1, rng=rng),
            Activation("relu"),
            Flatten(),
            Dense(32, 3, rng=rng),
        ]
    )


def test_sequential_forward_shape_and_param_count():
    net = small_net()
    x = Tensor(np.random.default_rng(0).normal(size=(5, 8, 2)))
    out = net(x)
    assert out.shape == (5, 3)
    # conv 3*2*4 + 4, dense 32*3 + 3
    assert net.num_parameters() == 24 + 4 + 96 + 3


def test_sequential_gradcheck_end_to_end():
    net = small_net(1)
    x = np.random.default_rng(1).normal(size=(3, 8, 2))
    params = net.parameters()
    f = lambda: tsum(square(net(Tensor(x))))
    assert check_gradients(f, params) < 1e-5


def test_batchnorm_train_statistics():
    rng = np.random.default_rng(2)
    bn = BatchNorm(3)
    x = Tensor(rng.normal(loc=5.0, scale=2.0, size=(16, 4, 3)))
    out = bn.forward(x, training=True)
    npt.assert_allclose(out.data.mean(axis=(0, 1)), np.zeros(3), atol=1e-10)
    npt.assert_allclose(out.data.std(axis=(0, 1)), np.ones(3), atol=1e-3)


def test_batchnorm_rejects_single_sample_batch():
    bn = BatchNorm(3)
    with pytest.raises(DegenerateBatchError):
        bn.forward(Tensor(np.ones((1, 4, 3))), training=True)
    # inference mode is fine with one sample
    out = bn.forward(Tensor(np.ones((1, 4, 3))), training=False)
    assert out.shape == (1, 4, 3)


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 5), (2, 2, 4, 3)])
def test_batchnorm_refuses_anything_but_sequences_of_its_channels(shape):
    with pytest.raises(ShapeError, match="batchnorm"):
        BatchNorm(3).forward(Tensor(np.ones(shape)), training=True)


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(3)
    bn = BatchNorm(2, momentum=0.0)  # running stats copy the last batch
    x = rng.normal(loc=3.0, scale=1.5, size=(64, 4, 2))
    bn.forward(Tensor(x), training=True)
    probe = Tensor(np.full((1, 1, 2), 3.0))
    out = bn.forward(probe, training=False)
    want = (3.0 - x.mean(axis=(0, 1))) / np.sqrt(x.var(axis=(0, 1)) + bn.eps)
    npt.assert_allclose(out.data[0, 0], want, atol=1e-10)


def test_batchnorm_gradcheck():
    # note: sum(normed**2) would be nearly x-invariant by construction, so a
    # random weighting keeps the x-gradient well away from FD noise
    rng = np.random.default_rng(4)
    bn = BatchNorm(3)
    xv = rng.normal(size=(6, 4, 3))
    wv = rng.normal(size=(6, 4, 3))
    x = Tensor(xv, requires_grad=True)
    f = lambda: tsum(bn.forward(x, training=True) * Tensor(wv))
    assert check_gradients(f, [x, bn.gamma, bn.beta]) < 1e-5


def test_dropout_scaling_and_eval_identity():
    rng = derive_rng(5, "dropout")
    layer = Dropout(0.25)
    x = Tensor(np.ones((2000, 4)))
    out = layer.forward(x, training=True, rng=rng)
    kept = out.data[out.data != 0]
    npt.assert_allclose(kept, np.full_like(kept, 1 / 0.75))
    assert abs(out.data.mean() - 1.0) < 0.05
    npt.assert_allclose(layer.forward(x, training=False).data, x.data)
    with pytest.raises(ContractError):
        layer.forward(x, training=True)


def test_reshape_upsample_layers():
    x = Tensor(np.arange(12, dtype=float).reshape(2, 6))
    y = Reshape((3, 2)).forward(x)
    assert y.shape == (2, 3, 2)
    z = Upsample(2).forward(y)
    assert z.shape == (2, 6, 2)
    npt.assert_allclose(z.data[:, 0], z.data[:, 1])


def test_checkpoint_round_trip(tmp_path):
    net = small_net(7)
    x = np.random.default_rng(7).normal(size=(2, 8, 2))
    before = net(Tensor(x)).data
    path = tmp_path / "model.bin"
    save_model(path, net, {"note": "unit"})
    loaded, extra = load_model(path)
    assert extra == {"note": "unit"}
    npt.assert_array_equal(loaded(Tensor(x)).data, before)


def test_checkpoint_architecture_mismatch(tmp_path):
    net = small_net(8)
    path = tmp_path / "model.bin"
    arrays = net.state_arrays()
    other = Sequential([Dense(4, 2)])
    # another architecture over these weights, one weight with the wrong shape, one weight gone
    for arch, saved in [
        (other.architecture(), arrays),
        (net.architecture(), {**arrays, "layer003.weight": np.zeros((3, 32))}),
        (net.architecture(), {k: v for k, v in arrays.items() if k != "layer000.bias"}),
    ]:
        write_container(path, "model", {"architecture": arch, "extra": {}}, saved)
        with pytest.raises(ContractError):
            load_model(path)


CONV = {"layer": "conv1d", "kernel": 3, "cin": 2, "cout": 4}
DENSE = {"layer": "dense", "fin": 4, "fout": 2}
REFUSED_SPECS = {
    "stride-0": {**CONV, "stride": 0},
    "spacing-negative": {**CONV, "spacing": -1},
    "kernel-0": {**CONV, "kernel": 0},
    "kernel-float": {**CONV, "kernel": 3.0},
    "fin-bool": {**DENSE, "fin": True},
    "dense-without-fout": {"layer": "dense", "fin": 4},
    "unknown-key": {**DENSE, "units": 2},
    "rng-key": {**DENSE, "rng": 0},
    "rate-1": {"layer": "dropout", "rate": 1.0},
    "rate-negative": {"layer": "dropout", "rate": -0.1},
    "rate-string": {"layer": "dropout", "rate": "0.1"},
    "kind-unknown": {"layer": "activation", "kind": "swish"},
    "kind-number": {"layer": "activation", "kind": 3},
    "shape-0": {"layer": "reshape", "shape": [0, 4]},
    "shape-bool": {"layer": "reshape", "shape": [2, True]},
    "shape-scalar": {"layer": "reshape", "shape": 4},
    "momentum-string": {"layer": "batchnorm", "features": 4, "momentum": "0.9"},
    "eps-bool": {"layer": "batchnorm", "features": 4, "eps": True},
    "width-0": {"layer": "maxpool", "width": 0},
    "factor-0": {"layer": "upsample", "factor": 0},
    "flatten-with-key": {"layer": "flatten", "width": 2},
}
# each accepted spec with the arrays its layer holds
ACCEPTED_SPECS = {
    "reshape": ({"layer": "reshape", "shape": [4, 384]}, {}),
    "batchnorm-whole-floats": (
        {"layer": "batchnorm", "features": 4, "momentum": 1, "eps": 0},
        {k: np.ones(4) for k in ("gamma", "beta", "running_mean", "running_var")},
    ),
    "conv1d-strided-spaced": ({**CONV, "stride": 2, "spacing": 1}, {"weight": np.ones((3, 2, 4)), "bias": np.ones(4)}),
    "dropout-0": ({"layer": "dropout", "rate": 0}, {}),
}


@pytest.mark.parametrize("case", REFUSED_SPECS)
def test_checkpoint_refuses_a_malformed_layer_spec(tmp_path, case):
    path = tmp_path / "model.bin"
    write_container(path, "model", {"architecture": [REFUSED_SPECS[case]], "extra": {}}, {})
    with pytest.raises(ContractError, match="layer spec"):
        load_model(path)


@pytest.mark.parametrize("case", ACCEPTED_SPECS)
def test_checkpoint_accepts_a_valid_layer_spec(tmp_path, case):
    spec, arrays = ACCEPTED_SPECS[case]
    path = tmp_path / "model.bin"
    write_container(path, "model", {"architecture": [spec], "extra": {}}, {f"layer000.{k}": v for k, v in arrays.items()})
    loaded, _ = load_model(path)
    assert loaded.architecture() == [spec]


# -- Adam ----------------------------------------------------------------------


def test_adam_first_step_matches_hand_calculation():
    theta0 = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.1, 2.0])
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = Adam([p], lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    p.grad = g.copy()
    opt.step()
    want = adam_single_step(theta0, g, 0.01, 0.9, 0.999, 1e-8)
    npt.assert_allclose(p.data, want, rtol=1e-12)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    target = np.array([1.0, 2.0])
    for _ in range(500):
        opt.zero_grad()
        loss = tsum(square(p - Tensor(target)))
        loss.backward()
        opt.step()
    npt.assert_allclose(p.data, target, atol=1e-4)


def test_adam_bias_correction_first_step_size():
    # with bias correction the first step is ~lr regardless of gradient scale
    for scale in (1e-3, 1.0, 1e3):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.05)
        p.grad = np.array([scale])
        opt.step()
        npt.assert_allclose(abs(p.data[0]), 0.05, rtol=1e-4)


SHAPES = [(3, 4), (5,), (), (2, 1, 3), (1,)]


def test_flat_adam_matches_per_parameter_adam_bit_for_bit():
    rng = np.random.default_rng(29)
    thetas = [rng.normal(size=shape) for shape in SHAPES]
    # parameter 1 has no gradient at steps 2 and 4, parameter 4 none at step 1, and no parameter one at step 3
    steps = [[None if (i, t) in {(1, 1), (1, 3), (4, 0)} or t == 2 else rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
              for i, shape in enumerate(SHAPES)] for t in range(6)]
    params = [Tensor(theta.copy(), requires_grad=True) for theta in thetas]
    opt = Adam(params, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-7)
    for grads in steps:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
    want, ms, vs = adam_per_parameter(thetas, steps, 0.01, 0.8, 0.99, 1e-7)
    for p, w in zip(params, want):
        assert p.data.shape == w.shape and p.data.tobytes() == w.tobytes()
    assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ms]).tobytes()
    assert opt.v.tobytes() == np.concatenate([v.ravel() for v in vs]).tobytes()


# -- divergences -----------------------------------------------------------------


def test_kl_js_hand_values():
    p = [0.5, 0.5]
    q = [0.9, 0.1]
    m = [0.7, 0.3]
    kl_pm = 0.5 * np.log(0.5 / 0.7) + 0.5 * np.log(0.5 / 0.3)
    kl_qm = 0.9 * np.log(0.9 / 0.7) + 0.1 * np.log(0.1 / 0.3)
    npt.assert_allclose(naive_kl(p, m), kl_pm, rtol=1e-12)
    npt.assert_allclose(js_divergence(p, q), 0.5 * kl_pm + 0.5 * kl_qm, rtol=1e-12)
    npt.assert_allclose(js_divergence(p, q), naive_js(p, q), rtol=1e-12)


def test_js_accepts_counts():
    npt.assert_allclose(js_divergence([5, 5], [9, 1]), js_divergence([0.5, 0.5], [0.9, 0.1]))


def test_js_disjoint_supports_is_log_two():
    npt.assert_allclose(js_divergence([1, 0, 0], [0, 0.5, 0.5]), np.log(2.0), rtol=1e-12)


def test_js_identical_is_zero():
    assert js_divergence([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == pytest.approx(0.0, abs=1e-15)


def test_js_symmetric_and_bounded():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = rng.random(6)
        q = rng.random(6)
        a, b = js_divergence(p, q), js_divergence(q, p)
        npt.assert_allclose(a, b, rtol=1e-10)
        assert 0.0 <= a <= np.log(2.0) + 1e-12


def test_divergence_rejects_bad_input():
    with pytest.raises(ContractError):
        js_divergence([0.5, -0.5], [0.5, 0.5])
    with pytest.raises(ContractError):
        js_divergence([0, 0], [1, 0])
    with pytest.raises(ContractError):
        js_divergence([1, 0], [0.5, 0.3, 0.2])
