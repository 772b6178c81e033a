import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import pairwise_distances
from pins import pinned_on
from toys import mode_fractions, toy_critic_spec, toy_generator_spec, two_mode_centers, two_mode_sequences

from mocapsynth.dataset.trials import TrialMeta
from mocapsynth.errors import (
    ContractError,
    DataError,
    LabelError,
    NumericalError,
    SettingError,
    ShapeError,
    StateError,
)
from mocapsynth.dataset import ArchiveRows, SequenceSet, apply_zscore, fit_normalizer, save_sequences
from mocapsynth.dataset.preprocess import NormStats
from mocapsynth.gan import (
    CONDITION_CLASSES,
    ConditionLabel,
    CriticSpec,
    GanTrainSpec,
    GeneratorSpec,
    assign_modes,
    build_critic,
    build_generator,
    condition_channels,
    condition_concat,
    critic_wloss,
    discriminator_logloss,
    generate_sequences,
    generator_logloss,
    generator_wloss,
    gradient_penalty,
    interpolate,
    onehot_batch,
    pairwise_distance_stats,
    sample_generator,
    save_gan,
    train_gan,
    validate_wgan_critic,
    wasserstein_estimate,
)
import mocapsynth
import mocapsynth.gan.training as gan_training
from mocapsynth.nn import Adam, Sequential, Tensor, load_model, ops, tensor
from mocapsynth.nn.layers import Dense
from mocapsynth.seeding import derive_rng


# ---------------------------------------------------------------- losses


def test_gan_objective_hand_value():
    d_real = Tensor(np.array([0.9, 0.9]))
    d_fake = Tensor(np.array([0.1, 0.1]))
    d_loss = discriminator_logloss(d_real, d_fake, real_label=0.9)
    # -(0.9*log 0.9 + log 0.9) = -1.9 log 0.9
    assert abs(float(d_loss.data) - (-1.9 * math.log(0.9))) < 1e-12
    assert abs(float(d_loss.data) - 0.200) < 1e-3


def test_generator_loss_at_half_is_log_two():
    g = generator_logloss(Tensor(np.array([0.5, 0.5, 0.5])))
    assert abs(float(g.data) - math.log(2.0)) < 1e-12


def test_gan_objective_clamps_saturated_probabilities():
    d_real, d_fake = Tensor(np.array([0.0, 1.0])), Tensor(np.array([1.0, 0.0]))
    d_loss, g_loss = discriminator_logloss(d_real, d_fake), generator_logloss(d_fake)
    assert np.isfinite(d_loss.data) and np.isfinite(g_loss.data)


def test_generator_loss_rewards_fooling():
    lo = generator_logloss(Tensor(np.array([0.8])))
    hi = generator_logloss(Tensor(np.array([0.5])))
    assert float(lo.data) < float(hi.data)


def test_wasserstein_hand_values():
    c_real, c_fake = Tensor(np.array([2.0, 2.0])), Tensor(np.array([1.0, 1.0]))
    core, gen = critic_wloss(c_real, c_fake), generator_wloss(c_fake)
    assert float(core.data) == -1.0
    assert float(gen.data) == -1.0
    assert wasserstein_estimate(np.array([2.0, 2.0]), np.array([1.0, 1.0])) == 1.0


def test_wasserstein_accepts_column_scores():
    core = critic_wloss(Tensor(np.array([[2.0], [2.0]])), Tensor(np.array([[1.0], [1.0]])))
    assert float(core.data) == -1.0
    with pytest.raises(ShapeError):
        critic_wloss(Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


# ------------------------------------------------------- gradient penalty


def _linear_critic(w):
    w = np.asarray(w, dtype=float)

    def critic(x):
        flat = x.reshape((x.shape[0], int(np.prod(x.shape[1:]))))
        return flat @ Tensor(w.reshape(-1, 1))

    return critic


def test_penalty_zero_for_unit_slope_critic():
    # f(x) = x[0,0]: the gradient is a one-hot with norm exactly 1
    rng = derive_rng(0, "gp-unit")
    w = np.zeros(12)
    w[3] = 1.0
    real = rng.normal(size=(6, 4, 3))
    fake = rng.normal(size=(6, 4, 3))
    pen = gradient_penalty(_linear_critic(w), real, fake, rng)
    assert float(pen.data) == 0.0


def test_penalty_one_for_constant_critic():
    rng = derive_rng(0, "gp-zero")
    pen = gradient_penalty(
        _linear_critic(np.zeros(12)),
        rng.normal(size=(5, 4, 3)),
        rng.normal(size=(5, 4, 3)),
        rng,
    )
    assert float(pen.data) == 1.0


def test_penalty_matches_analytic_for_scaled_sum():
    # f(x) = 2 * sum(x): gradient 2 everywhere, norm 2 sqrt(n)
    rng = derive_rng(0, "gp-sum")
    t, c = 8, 6
    n = t * c
    pen = gradient_penalty(
        _linear_critic(np.full(n, 2.0)),
        rng.normal(size=(7, t, c)),
        rng.normal(size=(7, t, c)),
        rng,
    )
    want = (2.0 * math.sqrt(n) - 1.0) ** 2
    assert abs(float(pen.data) - want) < 1e-9


def test_interpolates_lie_between_batches():
    rng = derive_rng(0, "gp-eps")
    real = np.ones((50, 3, 2))
    fake = np.zeros((50, 3, 2))
    x_hat = interpolate(real, fake, rng).data
    per_sample = x_hat.reshape(50, -1)
    # each sample uses a single epsilon, strictly inside (0, 1)
    assert np.all(per_sample.max(axis=1) - per_sample.min(axis=1) < 1e-15)
    eps = per_sample[:, 0]
    assert np.all((eps > 0.0) & (eps < 1.0))
    assert np.std(eps) > 0.05


def test_penalty_rejects_empty_and_mismatched_batches():
    rng = derive_rng(0, "gp-bad")
    with pytest.raises(DataError):
        interpolate(np.zeros((0, 3, 2)), np.zeros((0, 3, 2)), rng)
    with pytest.raises(ShapeError):
        interpolate(np.zeros((4, 3, 2)), np.zeros((5, 3, 2)), rng)


def test_penalty_trains_the_critic():
    rng = derive_rng(0, "gp-grad")
    critic = Sequential([Dense(6, 1, rng=rng)])
    real = rng.normal(size=(8, 6))
    fake = rng.normal(size=(8, 6))
    pen = gradient_penalty(lambda x: critic(x), real, fake, rng)
    pen.backward()
    w = critic.parameters()[0]
    assert w.grad is not None
    assert np.all(np.isfinite(w.grad.data))
    assert np.any(w.grad.data != 0.0)


# -------------------------------------------------------------- networks


def test_generator_shape_chain():
    gen = build_generator(GeneratorSpec(), seed=1)
    x = Tensor(np.zeros((2, 100)))
    shapes = []
    for layer in gen.layers:
        x = layer.forward(x)
        shapes.append(x.shape[1:])
    assert shapes == [
        (1536,),
        (1536,),
        (4, 384),
        (8, 384),
        (8, 192),
        (8, 192),
        (16, 192),
        (16, 96),
        (16, 96),
        (32, 96),
        (32, 48),
    ]


def test_critic_shape_chain():
    critic = build_critic(CriticSpec(), seed=1)
    x = Tensor(np.zeros((2, 32, 48)))
    shapes = []
    for layer in critic.layers:
        x = layer.forward(x)
        shapes.append(x.shape[1:])
    assert shapes == [
        (16, 96),
        (16, 96),
        (8, 192),
        (8, 192),
        (4, 384),
        (4, 384),
        (1536,),
        (1,),
    ]


def test_conditional_dimensions():
    gen = build_generator(GeneratorSpec(cond_dim=6), seed=0)
    assert gen.layers[0].fin == 106
    out = gen(Tensor(np.zeros((3, 106))))
    assert out.shape == (3, 32, 48)
    critic = build_critic(CriticSpec(cond_channels=6), seed=0)
    score = critic(Tensor(np.zeros((3, 32, 54))))
    assert score.shape == (3, 1)


def test_wgan_critic_rejects_batchnorm_and_sigmoid():
    with pytest.raises(ContractError):
        validate_wgan_critic(CriticSpec(batchnorm=True))
    with pytest.raises(ContractError):
        validate_wgan_critic(CriticSpec(head="sigmoid"))
    validate_wgan_critic(CriticSpec())  # clean spec passes


def test_spec_round_trips_and_validation():
    g = GeneratorSpec(cond_dim=6, batchnorm=True)
    assert GeneratorSpec.from_dict(g.to_dict()) == g
    c = CriticSpec(head="sigmoid", batchnorm=True)
    assert CriticSpec.from_dict(c.to_dict()) == c
    assert GeneratorSpec().out_steps == 32
    assert GeneratorSpec().out_channels == 48
    assert CriticSpec().flat_width == 1536
    with pytest.raises(ShapeError):
        CriticSpec(in_steps=30)  # not divisible by 2^3
    with pytest.raises(ContractError):
        CriticSpec(head="tanh")


# ----------------------------------------------------------- conditioning


def test_condition_class_order():
    assert CONDITION_CLASSES == (
        ("heavy", "balanced"),
        ("heavy", "unbalanced"),
        ("heavier", "balanced"),
        ("heavier", "unbalanced"),
        ("heaviest", "balanced"),
        ("heaviest", "unbalanced"),
    )


def test_condition_label_round_trip():
    for i, (weight, balance) in enumerate(CONDITION_CLASSES):
        assert ConditionLabel(weight, balance).index == i
        hot = onehot_batch(np.array([i]))[0]
        assert hot.sum() == 1.0 and hot[i] == 1.0
    with pytest.raises(SettingError):
        ConditionLabel("light", "balanced")


def test_condition_label_from_meta():
    meta = TrialMeta(
        participant=1,
        bowl_size="medium",
        weight_g=1140,
        balance="unbalanced",
        orientation="facing",
        strategy="B",
    )
    lab = ConditionLabel.from_meta(meta)
    assert (lab.weight_name, lab.balance) == ("heavier", "unbalanced")
    assert lab.index == 3


def test_condition_concat_and_channels():
    z = np.arange(8.0).reshape(2, 4)
    hot = onehot_batch(np.array([1, 4]))
    zc = condition_concat(z, hot)
    assert zc.shape == (2, 10)
    assert np.array_equal(zc[:, :4], z)
    assert np.array_equal(zc[:, 4:], hot)

    seq = np.ones((2, 5, 3))
    sc = condition_channels(Tensor(seq), hot).data
    assert sc.shape == (2, 5, 9)
    # label block is constant along time
    for t in range(5):
        assert np.array_equal(sc[:, t, 3:], hot)


def test_condition_rejects_malformed_labels():
    z = np.zeros((2, 4))
    with pytest.raises(ShapeError):
        condition_concat(z, np.zeros((2, 6)))  # all-zero rows
    two_hot = np.zeros((2, 6))
    two_hot[:, [0, 3]] = 1.0
    with pytest.raises(ShapeError):
        condition_concat(z, two_hot)
    with pytest.raises(ShapeError):
        condition_concat(z, np.zeros((2, 5)))
    with pytest.raises(LabelError):
        onehot_batch(np.array([0, 6]))


# --------------------------------------------------------------- training


def _toy(n=480, seed=7):
    data, modes = two_mode_sequences(n, seed=seed)
    return data, modes


def test_fifteen_critic_updates_per_generator_step():
    data, _ = _toy(n=1000)
    spec = GanTrainSpec(kind="wgan_gp", epochs=1, batch=32, critic_steps=15, seed=0)
    _, _, hist = train_gan(spec, data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec())
    # 31 full batches -> two groups of 15, one leftover dropped
    assert hist.gen_updates == 2
    assert hist.critic_updates == 30
    assert hist.critic_counts == [15, 15]


def test_only_needed_weight_gradients_are_formed(monkeypatch):
    # the penalty's gradient at the interpolates needs no critic weight
    # gradient, and the generator update none of the frozen critic's
    from mocapsynth.gan import training
    from mocapsynth.nn import ops

    calls, per_update = [0], []
    weight_grad = ops.conv1d_weight_grad

    def counted(*args, **kwargs):
        calls[0] += 1
        return weight_grad(*args, **kwargs)

    def counting(name):
        update = getattr(training, name)

        def run(*args, **kwargs):
            before = calls[0]
            out = update(*args, **kwargs)
            per_update.append((name, calls[0] - before))
            return out

        return run

    monkeypatch.setattr(ops, "conv1d_weight_grad", counted)
    for name in ("_critic_update", "_generator_update"):
        monkeypatch.setattr(training, name, counting(name))
    data, _ = _toy(n=480)
    spec = GanTrainSpec(kind="wgan_gp", epochs=1, batch=32, critic_steps=15, seed=0)
    _, _, hist = train_gan(spec, data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec())
    assert hist.gen_updates == 1
    assert per_update == [("_critic_update", 9)] * 15 + [("_generator_update", 3)]
    assert calls[0] == 138


def test_lambda_zero_reduces_critic_loss_to_core():
    data, _ = _toy(n=320)
    spec = GanTrainSpec(kind="wgan_gp", epochs=1, batch=32, critic_steps=5, gp_lambda=0.0, seed=1)
    _, _, hist = train_gan(spec, data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec())
    assert hist.penalty == [0.0, 0.0]
    for core, west in zip(hist.critic_loss, hist.w_estimate):
        assert core == -west


def test_training_is_bit_deterministic():
    data, _ = _toy(n=320)
    spec = GanTrainSpec(kind="wgan_gp", epochs=2, batch=32, critic_steps=5, seed=9)

    def run():
        gen, crit, hist = train_gan(
            spec, data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec()
        )
        params = [p.data.copy() for p in gen.parameters() + crit.parameters()]
        return hist, params

    h1, p1 = run()
    h2, p2 = run()
    assert h1.w_estimate == h2.w_estimate
    assert h1.critic_loss == h2.critic_loss
    assert h1.gen_loss == h2.gen_loss
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_seed_changes_the_run():
    data, _ = _toy(n=320)
    base = dict(kind="wgan_gp", epochs=1, batch=32, critic_steps=5)
    _, _, h1 = train_gan(GanTrainSpec(seed=0, **base), data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec())
    _, _, h2 = train_gan(GanTrainSpec(seed=1, **base), data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec())
    assert h1.w_estimate != h2.w_estimate


def test_dcgan_alternates_single_steps():
    data, _ = _toy(n=128)
    spec = GanTrainSpec(kind="dcgan", epochs=2, batch=32, seed=0)
    cs = CriticSpec(in_steps=32, in_channels=4, conv_filters=(8, 16, 32), head="sigmoid")
    _, _, hist = train_gan(spec, data, gen_spec=toy_generator_spec(), critic_spec=cs)
    assert hist.gen_updates == 8
    assert hist.critic_updates == 8
    assert hist.critic_counts == [1] * 8
    assert hist.epoch_ends == [4, 8]
    assert len(hist.d_loss) == 8
    assert all(np.isfinite(v) for v in hist.d_loss + hist.gen_loss)


def test_conditional_training_and_sampling():
    data, _ = _toy(n=240)
    labels = np.arange(240) % 6
    spec = GanTrainSpec(kind="cond_wgan_gp", epochs=1, batch=24, critic_steps=5, seed=2)
    gs = GeneratorSpec(noise_dim=8, cond_dim=6, base_steps=4, base_channels=16, conv_filters=(8, 8, 4))
    cs = CriticSpec(in_steps=32, in_channels=4, cond_channels=6, conv_filters=(8, 16, 32))
    gen, _, hist = train_gan(spec, data, labels=labels, gen_spec=gs, critic_spec=cs)
    assert hist.gen_updates == 2
    out = sample_generator(gen, gs, 5, seed=3, condition=4)
    assert out.shape == (5, 32, 4)
    with pytest.raises(LabelError):
        sample_generator(gen, gs, 5, seed=3)  # conditional needs a label
    with pytest.raises(ContractError):
        sample_generator(gen, toy_generator_spec(), 5, seed=3, condition=4)


def test_conditional_label_validation():
    data, _ = _toy(n=96)
    spec = GanTrainSpec(kind="cond_wgan_gp", epochs=1, batch=24, critic_steps=2, seed=0)
    gs = GeneratorSpec(noise_dim=8, cond_dim=6, base_steps=4, base_channels=16, conv_filters=(8, 8, 4))
    cs = CriticSpec(in_steps=32, in_channels=4, cond_channels=6, conv_filters=(8, 16, 32))
    with pytest.raises(LabelError):
        train_gan(spec, data, gen_spec=gs, critic_spec=cs)
    with pytest.raises(LabelError):
        train_gan(spec, data, labels=np.zeros(5, dtype=int), gen_spec=gs, critic_spec=cs)


def test_training_validation_errors():
    data, _ = _toy(n=64)
    with pytest.raises(DataError):
        train_gan(
            GanTrainSpec(kind="wgan_gp", epochs=1, batch=128),
            data,
            gen_spec=toy_generator_spec(),
            critic_spec=toy_critic_spec(),
        )
    with pytest.raises(ShapeError):
        train_gan(GanTrainSpec(kind="wgan_gp", epochs=1, batch=32), data)  # 48-channel default vs 4-channel toy
    with pytest.raises(ContractError):
        train_gan(
            GanTrainSpec(kind="dcgan", epochs=1, batch=32),
            data,
            gen_spec=toy_generator_spec(),
            critic_spec=toy_critic_spec(),  # linear head
        )
    with pytest.raises(ContractError):
        train_gan(
            GanTrainSpec(kind="wgan_gp", epochs=1, batch=32),
            data,
            gen_spec=toy_generator_spec(),
            critic_spec=CriticSpec(in_steps=32, in_channels=4, conv_filters=(8, 16, 32), batchnorm=True),
        )
    with pytest.raises(ContractError):
        GanTrainSpec(kind="vae")
    with pytest.raises(ContractError):
        GanTrainSpec(gp_lambda=-1.0)


def test_training_on_archive_rows_is_training_on_the_z_scored_block(tmp_path):
    rng = np.random.default_rng(3)
    seqs = SequenceSet(rng.normal(2.0, 3.0, size=(24, 32, 48)), [f"s{i}" for i in range(24)], [None] * 24)
    save_sequences(tmp_path / "a.bin", seqs)
    spec = GanTrainSpec(kind="wgan_gp", epochs=2, batch=4, critic_steps=2, seed=5)
    nets = dict(gen_spec=toy_generator_spec(channels=48), critic_spec=toy_critic_spec(channels=48))
    gen, critic, history = train_gan(spec, apply_zscore(seqs, fit_normalizer(seqs)), **nets)
    with ArchiveRows(tmp_path / "a.bin") as rows:
        with pytest.raises(StateError, match="z-scored"):
            train_gan(spec, rows, **nets)
        rows.zscore_on_read(fit_normalizer(rows))
        gen2, critic2, history2 = train_gan(spec, rows, **nets)
    assert history2.to_dict() == history.to_dict() and history.gen_updates == 6
    for a, b in zip(gen.parameters() + critic.parameters(), gen2.parameters() + critic2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_unstable_run_raises_numerical_error():
    # an absurd learning rate overflows the critic within a few updates
    data, _ = _toy(n=160)
    spec = GanTrainSpec(kind="wgan_gp", epochs=2, batch=32, critic_steps=5, lr=1e150, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
        train_gan(spec, data, gen_spec=toy_generator_spec(), critic_spec=toy_critic_spec())


def test_checkpoints_round_trip(tmp_path):
    data, _ = _toy(n=160)
    spec = GanTrainSpec(kind="wgan_gp", epochs=1, batch=32, critic_steps=5, seed=4)
    gs, cs = toy_generator_spec(), toy_critic_spec()
    gen, crit, _ = train_gan(spec, data, gen_spec=gs, critic_spec=cs)
    save_gan(str(tmp_path), gen, crit, gs, cs, spec)
    gen2, meta = load_model(str(tmp_path / "generator.model"))
    assert meta["role"] == "generator"
    assert meta["train"]["kind"] == "wgan_gp"
    a = sample_generator(gen, gs, 4, seed=8)
    b = sample_generator(gen2, gs, 4, seed=8)
    assert np.array_equal(a, b)
    crit2, _ = load_model(str(tmp_path / "critic.model"))
    x = Tensor(data[:3])
    assert np.array_equal(crit(x).data, crit2(x).data)


# sha256 of a 3-step toy run per kind, taken when dcgan and the
# Wasserstein kinds still had separate batch walks
PINNED_RUNS = {
    "dcgan": "21e6e64320fd39defd0f297e1cb6e48cac64d6fe78df36b0449f0e5ead91299c",
    "wgan_gp": "3424a2610f03e566f560ef4fbd3e9e453e3d6c77e2a1fe6bc4624c600415bb77",
    "cond_wgan_gp": "5780517b616254b0f9d3dee2eee49ea40297b0b348fcb166808674e306e8f913",
}


def _toy_run_digest(kind: str, epochs: int = 1, gen_batchnorm: bool = False) -> str:
    data, _ = _toy(n=96, seed=3)
    cond = 6 if kind == "cond_wgan_gp" else 0
    labels = np.arange(96) % 6 if cond else None
    gs = GeneratorSpec(noise_dim=8, cond_dim=cond, base_steps=4, base_channels=16, conv_filters=(8, 8, 4),
                       batchnorm=gen_batchnorm)
    cs = CriticSpec(in_steps=32, in_channels=4, cond_channels=cond, conv_filters=(8, 16, 32),
                    head="sigmoid" if kind == "dcgan" else "linear")
    # dcgan: 3 batches of 32; Wasserstein kinds: 3 groups of 2 batches of 16
    spec = GanTrainSpec(kind=kind, epochs=epochs, batch=32 if kind == "dcgan" else 16, critic_steps=2, seed=11)
    gen, crit, hist = train_gan(spec, data, labels=labels, gen_spec=gs, critic_spec=cs)
    assert hist.gen_updates == 3 * epochs
    digest = hashlib.sha256(json.dumps(hist.to_dict(), sort_keys=True).encode())
    for model in (gen, crit):
        for key, arr in sorted(model.state_arrays().items()):
            digest.update(key.encode())
            digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(PINNED_RUNS))
def test_training_bytes_are_pinned(kind):
    assert _toy_run_digest(kind) == PINNED_RUNS[kind], pinned_on()


@pytest.mark.parametrize("kind", sorted(PINNED_RUNS))
def test_forked_and_serial_runs_give_the_same_bytes(kind, monkeypatch, handoffs):
    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 1)
    serial = _toy_run_digest(kind, epochs=2, gen_batchnorm=True)
    # toy shapes sit below the gate: at 0 every fork site hands its first half to the worker
    real_rows = {row.tobytes() for row in _toy(n=96, seed=3)[0]}
    on_worker = set()

    def seen(owner, name, what):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if tensor._STATE.on_worker:
                on_worker.add(what(sys._getframe(1).f_code.co_name, *args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    seen(ops, "conv1d_weight_grad", lambda caller, *args: "weight gradient")
    seen(Adam, "_update", lambda caller, *args: "Adam half")
    seen(gan_training._Run, "generate", lambda caller, *args: "next fake" if caller == "beside_penalty" else "own fake")
    seen(gan_training._Run, "critic_score",
         lambda caller, run, x, hot: "real score" if x.data[0].tobytes() in real_rows else "fake score")
    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(tensor, "_blas_threads", lambda: 1)
    monkeypatch.setattr(tensor, "FORK_MIN_WORK", 0)
    assert _toy_run_digest(kind, epochs=2, gen_batchnorm=True) == serial
    handed_off = {"weight gradient", "Adam half", "own fake"}
    if kind != "dcgan":  # a group of critic steps: the scores pair up, and each fake batch but the first is made ahead
        handed_off |= {"real score", "fake score", "next fake"}
    assert on_worker == handed_off
    assert handoffs["gradient"] and handoffs["fork"] and not handoffs["fork in backward"]


@pytest.mark.parametrize("kind", sorted(PINNED_RUNS))
def test_each_generator_step_makes_one_fake_batch_per_critic_step_and_one_with_grad(kind, monkeypatch):
    made = []
    generate = gan_training._Run.generate

    def counted(run, n, hot, with_grad):
        made.append(with_grad)
        return generate(run, n, hot, with_grad)

    monkeypatch.setattr(gan_training._Run, "generate", counted)
    data, _ = _toy(n=96, seed=3)
    cond = 6 if kind == "cond_wgan_gp" else 0
    gs = GeneratorSpec(noise_dim=8, cond_dim=cond, base_steps=4, base_channels=16, conv_filters=(8, 8, 4))
    cs = CriticSpec(in_steps=32, in_channels=4, cond_channels=cond, conv_filters=(8, 16, 32),
                    head="sigmoid" if kind == "dcgan" else "linear")
    spec = GanTrainSpec(kind=kind, epochs=2, batch=8, critic_steps=4, seed=5)
    _, _, hist = train_gan(spec, data, labels=np.arange(96) % 6 if cond else None, gen_spec=gs, critic_spec=cs)
    group = 1 if kind == "dcgan" else 4
    assert hist.gen_updates == 2 * 12 // group
    assert made == ([False] * group + [True]) * hist.gen_updates


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks on this platform")
def test_one_cpu_starts_no_thread_and_gives_the_same_bytes():
    child = (
        "import os, sys, threading\n"
        f"os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
        f"sys.path[:0] = [{str(Path(__file__).parent)!r}, {str(Path(mocapsynth.__file__).parents[1])!r}]\n"
        "from mocapsynth.nn import tensor\n"
        "tensor.FORK_MIN_WORK = 0\n"
        "from test_gan import _toy_run_digest\n"
        "print(_toy_run_digest('wgan_gp', epochs=2), tensor._pool is None, threading.active_count())\n"
    )
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == [_toy_run_digest("wgan_gp", epochs=2), "True", "1"]


def test_a_paper_size_generator_step_holds_each_activation_once(monkeypatch, traced_peak):
    # one wgan_gp generator step (batch 64, 15 critic steps) on one thread, its
    # models and Adam moments included: 104 MB at its peak with each conv's
    # window matrix over an activation, each pass's intermediate gradients
    # and float leaky ReLU masks held, 66 MB without them
    monkeypatch.setattr(tensor, "_usable_cpus", lambda: 1)
    data = np.random.default_rng(0).standard_normal((960, 32, 48))
    spec = GanTrainSpec(kind="wgan_gp", epochs=1, batch=64, critic_steps=15, seed=0)
    with traced_peak() as traced:
        generator, _, hist = train_gan(spec, data)
    assert hist.gen_updates == 1
    assert traced.peak <= 75e6, f"peak {traced.peak / 1e6:.1f} MB"
    # spent once Adam steps: held, they would sit in the next critic steps' peaks
    assert all(p.grad is None for p in generator.parameters())


def test_generate_sequences_denormalizes():
    gs = GeneratorSpec()
    gen = build_generator(gs, seed=0)
    stats = NormStats(np.arange(48.0), np.full(48, 2.0))
    seqs = generate_sequences(gen, gs, stats, 2, seed=5)
    raw = sample_generator(gen, gs, 2, seed=5)
    assert len(seqs) == 2
    for i, s in enumerate(seqs):
        assert not s.normalized
        assert s.data.shape == (32, 48)
        assert np.array_equal(s.data, raw[i] * 2.0 + np.arange(48.0))


def test_adam_defaults_per_kind():
    assert GanTrainSpec(kind="dcgan").adam_settings() == (2e-4, 0.5, 0.999)
    assert GanTrainSpec(kind="wgan_gp").adam_settings() == (1e-4, 0.0, 0.9)
    assert GanTrainSpec(kind="wgan_gp", lr=3e-4).adam_settings() == (3e-4, 0.0, 0.9)


# ------------------------------------------------------------ diagnostics


def test_pairwise_stats_match_oracle():
    rng = derive_rng(0, "diag")
    x = rng.normal(size=(10, 4, 3))
    stats = pairwise_distance_stats(x)
    full = pairwise_distances(x.reshape(10, -1))
    iu = np.triu_indices(10, k=1)
    want = full[iu]
    assert abs(stats["mean"] - want.mean()) < 1e-12
    assert abs(stats["std"] - want.std()) < 1e-12
    assert abs(stats["min"] - want.min()) < 1e-12
    assert abs(stats["max"] - want.max()) < 1e-12
    assert stats["n"] == 10


def test_mode_collapse_detection():
    flat = np.ones((20, 6, 2)) + 1e-6
    assert pairwise_distance_stats(flat)["mean"] < 0.1
    rng = derive_rng(1, "diag")
    spread = rng.normal(size=(20, 6, 2))
    assert pairwise_distance_stats(spread)["mean"] >= 0.1
    with pytest.raises(DataError):
        pairwise_distance_stats(np.zeros((1, 3)))


def test_mode_assignment_on_toy_data():
    data, modes = two_mode_sequences(300, seed=5)
    centers = two_mode_centers()
    assign = assign_modes(data, centers)
    assert np.mean(assign == modes) > 0.99
    frac = mode_fractions(data, centers)
    assert abs(frac.sum() - 1.0) < 1e-12
    assert np.all(frac > 0.3)


def test_short_wgan_run_produces_finite_diverse_samples():
    data, _ = _toy(n=480)
    spec = GanTrainSpec(kind="wgan_gp", epochs=3, batch=32, critic_steps=5, seed=6)
    gs = toy_generator_spec()
    gen, _, hist = train_gan(spec, data, gen_spec=gs, critic_spec=toy_critic_spec())
    assert hist.gen_updates == 9
    out = sample_generator(gen, gs, 32, seed=1)
    assert np.all(np.isfinite(out))
    assert pairwise_distance_stats(out)["mean"] > 0.0
