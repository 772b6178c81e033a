"""Release gate: eleven end-to-end checks with stated tolerances.

Each check prints one `acceptance NN <name>: PASS` line on success (run
with -s or -rA to see them); under -v the per-test PASSED/FAILED column
gives the same verdict. The two toy training runs are module-scoped
fixtures so the determinism check can rerun them for comparison without
paying for the first run twice.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from mocapsynth.augment import AugmentSpec, augment_dataset
from mocapsynth.classifier import (
    HierarchicalClassifier,
    HierarchicalNetSpec,
    TaskSpec,
    balance_classes,
    cluster_views,
    train_classifier,
    validation_split,
)
from mocapsynth.dataset import MotionSequence, SequenceSet
from mocapsynth.dataset.trials import TrialMeta
from mocapsynth.gan import (
    CriticSpec,
    GanTrainSpec,
    GeneratorSpec,
    build_critic,
    build_generator,
    gradient_penalty,
    sample_generator,
    save_gan,
    train_gan,
)
from mocapsynth.nn import BatchNorm, Conv1D, Dense, MaxPool, Tensor, Upsample, conv1d, cross_entropy, js_divergence, tsum
from mocapsynth.render import build_geometry, cylinder_between, export_jsonl, export_svg_ortho
from mocapsynth.seeding import derive_rng

from gradcheck import check_gradients
from oracles import naive_conv1d
from toys import (
    demo_sequence,
    mode_fractions,
    rotate_about_bowl_start,
    scale_about_torso,
    separable_sequences,
    torso_centers,
    toy_critic_spec,
    toy_generator_spec,
    translate_xy,
    two_mode_centers,
    two_mode_sequences,
)

GOLDEN = __file__.rsplit("/", 1)[0] + "/golden"


def _ok(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: PASS{suffix}")


# ---------------------------------------------------------------- 1


def test_01_network_shape_chains():
    start = time.perf_counter()

    gen = build_generator(GeneratorSpec(), seed=0)
    x = Tensor(np.zeros((2, 100)))
    chain = [x.shape[1:]]
    for layer in gen.layers:
        x = layer.forward(x)
        chain.append(x.shape[1:])
    assert chain == [
        (100,),
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

    critic = build_critic(CriticSpec(), seed=0)
    y = Tensor(np.zeros((2, 32, 48)))
    seen = []
    for layer in critic.layers:
        y = layer.forward(y)
        seen.append(y.shape[1:])
    assert (16, 96) in seen and (8, 192) in seen and (4, 384) in seen
    assert seen[-2] == (1536,) and seen[-1] == (1,)

    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=3), seed=0)
    views = cluster_views(np.zeros((2, 32, 48)))
    assert tuple(v.shape[2] for v in views) == (21, 15, 21)
    logits = model(tuple(Tensor(v) for v in views))
    assert logits.shape == (2, 3)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, "network shape chains", f"{elapsed:.2f} s")


# ---------------------------------------------------------------- 2


def _labeled_zeros(weight_counts: dict[int, int]) -> SequenceSet:
    metas = []
    for weight, count in weight_counts.items():
        for _ in range(count):
            i = len(metas)
            metas.append(TrialMeta(
                participant=f"p{i % 13:02d}",
                bowl_size="medium",
                weight_g=weight,
                balance=("balanced", "unbalanced")[i % 2],
                orientation="facing",
                strategy="ABCDEFGHI"[i % 9],
                frame_rate=119.88,
            ))
    return SequenceSet(np.zeros((len(metas), 32, 48)), [f"s{i:04d}" for i in range(len(metas))], metas)


def test_02_dataset_arithmetic():
    # label frequencies mirror the study corpus: 218 / 287 / 300 by load
    corpus = _labeled_zeros({640: 218, 1140: 287, 1640: 300})
    assert len(corpus) == 805

    task = TaskSpec("weight")
    labels = task.labels(corpus.labels)
    assert np.count_nonzero(labels >= 0) == 218 + 300
    balanced = balance_classes(labels, seed=0)
    assert len(balanced) == 436
    train, val = validation_split(len(balanced), task.n_validation, seed=0)
    assert (len(train), len(val)) == (386, 50)

    def take(rows):
        return SequenceSet(corpus.data[rows], [corpus.names[i] for i in rows], [corpus.labels[i] for i in rows])

    assert len(augment_dataset(take(balanced[train]), AugmentSpec(factor=10, seed=0))) == 3860

    usable = take(np.arange(795))
    assert len(augment_dataset(usable, AugmentSpec(factor=27, seed=0))) == 21465
    _ok(2, "dataset arithmetic", "386->3860, 795->21465, weight task 436/50")


# ---------------------------------------------------------------- 3


def test_03_layer_gradients_match_finite_differences():
    start = time.perf_counter()
    cases = 100
    tol = 1e-4
    worst = {}

    rng = np.random.default_rng(301)
    w = 0.0
    for _ in range(cases):
        k = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        spacing = int(rng.integers(0, 3))
        t = int(rng.integers(3, 9))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        layer = Conv1D(k, cin, cout, stride=stride, spacing=spacing, rng=rng)
        x = Tensor(rng.normal(size=(2, t, cin)), requires_grad=True)
        probe = Tensor(rng.normal(size=layer.forward(x).shape))
        f = lambda: tsum(layer.forward(x) * probe)
        w = max(w, check_gradients(f, [x, layer.weight, layer.bias]))
    worst["conv1d"] = w

    rng = np.random.default_rng(302)
    w = 0.0
    for _ in range(cases):
        t = int(rng.choice([4, 6, 8]))
        c = int(rng.integers(1, 4))
        layer = MaxPool(2)
        x = Tensor(rng.normal(size=(2, t, c)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, t // 2, c)))
        f = lambda: tsum(layer.forward(x) * probe)
        w = max(w, check_gradients(f, [x]))
    worst["maxpool"] = w

    rng = np.random.default_rng(303)
    w = 0.0
    for _ in range(cases):
        t = int(rng.integers(2, 7))
        c = int(rng.integers(1, 4))
        layer = Upsample(2)
        x = Tensor(rng.normal(size=(2, t, c)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 2 * t, c)))
        f = lambda: tsum(layer.forward(x) * probe)
        w = max(w, check_gradients(f, [x]))
    worst["upsample"] = w

    rng = np.random.default_rng(304)
    w = 0.0
    for _ in range(cases):
        fin, fout = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        layer = Dense(fin, fout, rng=rng)
        x = Tensor(rng.normal(size=(3, fin)), requires_grad=True)
        probe = Tensor(rng.normal(size=(3, fout)))
        f = lambda: tsum(layer.forward(x) * probe)
        w = max(w, check_gradients(f, [x, layer.weight, layer.bias]))
    worst["dense"] = w

    rng = np.random.default_rng(305)
    w = 0.0
    for _ in range(cases):
        c = int(rng.integers(1, 4))
        layer = BatchNorm(c)
        # a weighted sum keeps the x-gradient away from the FD noise floor;
        # plain sums of normalized outputs are nearly x-invariant
        x = Tensor(rng.normal(size=(4, 3, c)), requires_grad=True)
        probe = Tensor(rng.normal(size=(4, 3, c)))
        f = lambda: tsum(layer.forward(x, training=True) * probe)
        w = max(w, check_gradients(f, [x, layer.gamma, layer.beta]))
    worst["batchnorm"] = w

    rng = np.random.default_rng(306)
    w = 0.0
    for _ in range(cases):
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        logits = Tensor(rng.normal(size=(n, k)), requires_grad=True)
        onehot = np.eye(k)[rng.integers(0, k, size=n)]
        f = lambda: cross_entropy(logits, onehot)
        w = max(w, check_gradients(f, [logits]))
    worst["softmax-cross-entropy"] = w

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert all(v < tol for v in worst.values()), worst
    peak = max(worst.values())
    _ok(3, "layer gradients", f"{cases} cases/layer, worst rel err {peak:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------- 4


def test_04_convolution_matches_naive_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(401)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        stride = int(rng.integers(1, 4))
        spacing = int(rng.integers(0, 4))
        batch = int(rng.integers(1, 4))
        t = int(rng.integers(1, 33))
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.normal(size=(batch, t, cin))
        w = rng.normal(size=(k, cin, cout))
        b = rng.normal(size=cout)
        got = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, spacing=spacing)
        want = naive_conv1d(x, w, b, stride=stride, spacing=spacing)
        assert got.shape == want.shape
        npt.assert_allclose(got.data, want, rtol=0.0, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(4, "convolution oracle", f"1000 cases, {elapsed:.1f} s")


# ---------------------------------------------------------------- 5


def _linear_critic(w: np.ndarray):
    wt = Tensor(w)

    def critic(x: Tensor) -> Tensor:
        return tsum(x * wt, axis=tuple(range(1, x.ndim)))

    return critic


def test_05_gradient_penalty_analytics():
    rng = np.random.default_rng(501)
    real = np.asarray(rng.normal(size=(4, 8, 6)))
    fake = np.asarray(rng.normal(size=(4, 8, 6)))
    n = real[0].size

    unit = np.zeros((8, 6))
    unit[3, 2] = 1.0
    pen = gradient_penalty(_linear_critic(unit), real, fake, derive_rng(5, "gp"))
    assert pen.item() == 0.0

    pen = gradient_penalty(_linear_critic(np.zeros((8, 6))), real, fake, derive_rng(5, "gp"))
    assert pen.item() == 1.0

    for k in (0.5, 2.0, 3.0):
        pen = gradient_penalty(_linear_critic(np.full((8, 6), k)), real, fake, derive_rng(5, "gp"))
        want = (k * np.sqrt(n) - 1.0) ** 2
        npt.assert_allclose(pen.item(), want, rtol=0.0, atol=1e-9)
    _ok(5, "gradient penalty analytics", "0 exact, 1 exact, scaled to 1e-9")


# ---------------------------------------------------------------- 6


def _frame_pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, :, None, :] - points[:, None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    iu = np.triu_indices(points.shape[1], k=1)
    return dist[:, iu[0], iu[1]]


def test_06_augmentation_isometries():
    start = time.perf_counter()
    rng = np.random.default_rng(601)
    n_sequences = 313  # 313 * 32 = 10016 frames checked
    checked = 0
    for i in range(n_sequences):
        seq = MotionSequence(rng.normal(scale=0.6, size=(32, 48)) + 1.0, name=f"r{i}")
        before = _frame_pairwise(seq.points())

        dx, dy = rng.uniform(-0.2, 0.2, size=2)
        angle = float(rng.uniform(0.0, 60.0))
        moved = rotate_about_bowl_start(translate_xy(seq, dx, dy), angle)
        npt.assert_allclose(_frame_pairwise(moved.points()), before, rtol=0.0, atol=1e-9)

        factor = float(rng.uniform(0.85, 1.15))
        centers = torso_centers(seq)
        scaled = scale_about_torso(seq, factor)
        r_before = np.linalg.norm(seq.points() - centers[:, None, :], axis=2)
        r_after = np.linalg.norm(scaled.points() - centers[:, None, :], axis=2)
        npt.assert_allclose(r_after, factor * r_before, rtol=0.0, atol=1e-9)
        checked += 32
    elapsed = time.perf_counter() - start
    assert checked >= 10000
    assert elapsed < 30.0
    _ok(6, "augmentation isometries", f"{checked} frames, {elapsed:.1f} s")


# ---------------------------------------------------------------- 7


def test_07_divergence_oracles():
    rng = np.random.default_rng(701)
    for size in (2, 5, 16):
        p = np.zeros(2 * size)
        q = np.zeros(2 * size)
        p[:size] = rng.uniform(0.1, 1.0, size=size)
        q[size:] = rng.uniform(0.1, 1.0, size=size)
        npt.assert_allclose(js_divergence(p, q), np.log(2.0), rtol=0.0, atol=1e-12)

        r = rng.uniform(0.1, 1.0, size=size)
        npt.assert_allclose(js_divergence(r, r.copy()), 0.0, rtol=0.0, atol=1e-12)
    _ok(7, "divergence oracles", "disjoint = log 2, identical = 0")


# ---------------------------------------------------------------- 8


TOY_GAN_SPEC = GanTrainSpec(
    kind="wgan_gp", epochs=150, batch=32, critic_steps=5, lr=3e-4, seed=3
)


@pytest.fixture(scope="module")
def toy_gan_run():
    data, _ = two_mode_sequences(2000, seed=7)
    gen_spec, critic_spec = toy_generator_spec(), toy_critic_spec()
    start = time.perf_counter()
    generator, critic, history = train_gan(
        TOY_GAN_SPEC, data, gen_spec=gen_spec, critic_spec=critic_spec
    )
    elapsed = time.perf_counter() - start
    return {
        "data": data,
        "gen_spec": gen_spec,
        "critic_spec": critic_spec,
        "generator": generator,
        "critic": critic,
        "history": history,
        "elapsed": elapsed,
    }


def test_08_toy_wgan_gp_converges_and_covers_modes(toy_gan_run):
    history = toy_gan_run["history"]
    w = np.asarray(history.w_estimate)
    assert len(w) >= 70
    early = abs(w[49])
    late = abs(np.mean(w[-20:]))
    assert early > 0.0
    ratio = late / early
    assert ratio <= 0.20, f"late/early distance ratio {ratio:.3f}"

    samples = sample_generator(toy_gan_run["generator"], toy_gan_run["gen_spec"], 500, seed=11)
    fractions = mode_fractions(samples, two_mode_centers())
    assert fractions.min() >= 0.20, f"mode fractions {fractions}"
    assert toy_gan_run["elapsed"] <= 600.0
    _ok(
        8,
        "toy wgan-gp end to end",
        f"distance ratio {ratio:.3f}, modes {fractions.round(3).tolist()}, {toy_gan_run['elapsed']:.0f} s",
    )


# ---------------------------------------------------------------- 9


TOY_CLF_ARGS = dict(epochs=25, batch=32, lr=1e-3, seed=2026)


@pytest.fixture(scope="module")
def toy_classifier_run():
    train_x, train_y, val_x, val_y = separable_sequences(900, 100, seed=2026)
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=3), seed=2026)
    start = time.perf_counter()
    report = train_classifier(model, train_x, train_y, val_x, val_y, **TOY_CLF_ARGS)
    elapsed = time.perf_counter() - start
    return {
        "data": (train_x, train_y, val_x, val_y),
        "model": model,
        "report": report,
        "elapsed": elapsed,
    }


def test_09_toy_classifier_reaches_95_percent(toy_classifier_run):
    report = toy_classifier_run["report"]
    best = max(report.val_acc)
    assert len(report.val_acc) <= 100
    assert best >= 0.95, f"best validation accuracy {best:.3f}"
    assert toy_classifier_run["elapsed"] <= 300.0
    _ok(9, "toy classifier end to end", f"val acc {best:.3f}, {toy_classifier_run['elapsed']:.0f} s")


# ---------------------------------------------------------------- 10


def test_10_seeded_reruns_are_bit_identical(toy_gan_run, toy_classifier_run, tmp_path):
    generator2, critic2, history2 = train_gan(
        TOY_GAN_SPEC,
        toy_gan_run["data"],
        gen_spec=toy_gan_run["gen_spec"],
        critic_spec=toy_gan_run["critic_spec"],
    )
    first, second = tmp_path / "gan-a", tmp_path / "gan-b"
    save_gan(first, toy_gan_run["generator"], toy_gan_run["critic"],
             toy_gan_run["gen_spec"], toy_gan_run["critic_spec"], TOY_GAN_SPEC)
    save_gan(second, generator2, critic2,
             toy_gan_run["gen_spec"], toy_gan_run["critic_spec"], TOY_GAN_SPEC)
    for name in ("generator.model", "critic.model"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert toy_gan_run["history"].to_dict() == history2.to_dict()

    train_x, train_y, val_x, val_y = toy_classifier_run["data"]
    model2 = HierarchicalClassifier(HierarchicalNetSpec(n_classes=3), seed=2026)
    report2 = train_classifier(model2, train_x, train_y, val_x, val_y, **TOY_CLF_ARGS)
    toy_classifier_run["model"].save(tmp_path / "clf-a.model")
    model2.save(tmp_path / "clf-b.model")
    assert (tmp_path / "clf-a.model").read_bytes() == (tmp_path / "clf-b.model").read_bytes()
    assert toy_classifier_run["report"].to_dict() == report2.to_dict()
    _ok(10, "seeded rerun determinism", "checkpoints and reports bit-identical")


# ---------------------------------------------------------------- 11


def test_11_render_geometry(tmp_path):
    rng = np.random.default_rng(1101)
    worst = 0.0
    for _ in range(10000):
        a = rng.normal(scale=2.0, size=3)
        b = rng.normal(scale=2.0, size=3)
        center, axis, length = cylinder_between(a, b)
        v = b - a
        want_len = np.linalg.norm(v)
        npt.assert_allclose(center, (a + b) / 2.0, rtol=0.0, atol=1e-12)
        npt.assert_allclose(length, want_len, rtol=0.0, atol=1e-12)
        npt.assert_allclose(axis, v / want_len, rtol=0.0, atol=1e-12)
        worst = max(worst, float(np.abs(axis - v / want_len).max()))

    geometry = build_geometry(demo_sequence())
    export_jsonl(geometry, tmp_path / "demo.jsonl")
    assert (tmp_path / "demo.jsonl").read_bytes() == open(f"{GOLDEN}/demo.jsonl", "rb").read()
    export_svg_ortho(geometry, tmp_path / "svg")
    for name in ("frame_000.svg", "frame_017.svg"):
        assert (tmp_path / "svg" / name).read_bytes() == open(f"{GOLDEN}/{name}", "rb").read()
    _ok(11, "render geometry", f"10000 cylinder pairs (worst axis err {worst:.1e}), goldens byte-identical")
