"""Hierarchical classifier: architecture, tasks, training harness."""

import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import balanced_rows_by_lists, classifier_by_branches, parameter_count, same_bits, split_rows_by_lists
from toys import separable_sequences

from mocapsynth.classifier import (
    TASKS,
    HierarchicalClassifier,
    HierarchicalNetSpec,
    TaskSpec,
    balance_classes,
    cluster_views,
    evaluate,
    train_classifier,
    validation_split,
)
from mocapsynth.dataset import TrialMeta
from mocapsynth.errors import ContractError, DataError, LabelError, NumericalError, SettingError, ShapeError
from mocapsynth.nn import Tensor, conv1d, cross_entropy, flatten, maxpool1d, relu


def meta(**overrides) -> TrialMeta:
    base = dict(
        participant="p01",
        bowl_size="medium",
        weight_g=1140,
        balance="balanced",
        orientation="facing",
        strategy="B",
        frame_rate=119.88,
    )
    base.update(overrides)
    return TrialMeta(**base)


# -- architecture -----------------------------------------------------------------


def test_default_parameter_count_near_reported_total():
    for n_classes in (2, 5):
        spec = HierarchicalNetSpec(n_classes=n_classes)
        count = parameter_count(spec)
        assert 4500 <= count <= 5800
        assert HierarchicalClassifier(spec).num_parameters() == count


def test_parameter_count_closed_form_one_filter():
    spec = HierarchicalNetSpec(n_classes=2, branch_filters=(1, 1, 1), dense_width=1)
    # per branch: 3*w*1+1 (w=21,15,21) + (3+1) + (3+1); concat 3*4*1=12
    want = (64 + 4 + 4) + (46 + 4 + 4) + (64 + 4 + 4) + (12 * 1 + 1) + (1 * 2 + 2)
    assert parameter_count(spec) == want
    assert HierarchicalClassifier(spec).num_parameters() == want


def test_saved_arrays_keep_the_names_and_order_of_the_per_branch_layer_chains():
    # the parameter order is Adam's flat vector; the names are every checkpoint's
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=3))
    convs = [f"branch{b}.layer{i:03d}.{p}" for b in range(3) for i in (0, 3, 6) for p in ("weight", "bias")]
    head = [f"head.layer{i:03d}.{p}" for i in (0, 3) for p in ("weight", "bias")]
    assert list(model.state_arrays()) == convs + head
    saved = list(model.state_arrays().values())
    assert len(saved) == len(model.parameters()) and all(p.data is a for p, a in zip(model.parameters(), saved))


def test_branch_shape_chain():
    spec = HierarchicalNetSpec(n_classes=3)
    model = HierarchicalClassifier(spec, seed=1)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 32, 21)))
    shapes = []
    for c in model.convs[0]:
        for step in (lambda h: conv1d(h, c.weight, c.bias, spacing=c.spacing), relu, maxpool1d):
            x = step(x)
            shapes.append(x.shape)
    shapes.append(flatten(x).shape)
    assert shapes == [
        (4, 32, 4), (4, 32, 4), (4, 16, 4),
        (4, 16, 8), (4, 16, 8), (4, 8, 8),
        (4, 8, 8), (4, 8, 8), (4, 4, 8),
        (4, 32),
    ]


@pytest.mark.parametrize("spec", [{}, {"branch_filters": (3, 5, 2), "kernel": 5, "first_spacing": 2}],
                         ids=["default", "other"])
@pytest.mark.parametrize("batch", [1, 4, 32, 33])
@pytest.mark.parametrize("n_classes", [2, 3, 5])
def test_the_grouped_pass_has_the_bits_of_three_branch_passes(n_classes, batch, spec):
    # the branches run as one grouped pass; each branch run alone from its convolutions is the reference
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=n_classes, **spec), seed=batch)
    rng = np.random.default_rng(100 * batch + n_classes)
    block = rng.normal(size=(batch, 32, 48))
    block[0, :3] = 0.0
    block[0, 3:6] = -0.0
    onehot = np.eye(n_classes)[rng.integers(0, n_classes, size=batch)]
    names = list(model.state_arrays())

    def run(forward, data):
        """Training-mode logits, and each parameter's gradient of the loss (or the error backward raises)."""
        for p in model.parameters():
            p.grad = None
        logits = forward(tuple(Tensor(v) for v in cluster_views(data)), True, np.random.default_rng(7))
        try:
            cross_entropy(logits, onehot).backward()
        except NumericalError as exc:
            return logits.data, str(exc)
        return logits.data, [p.grad for p in model.parameters()]

    def by_branches(views, training, rng):
        return classifier_by_branches(model, views, training, rng)

    logits, grads = run(model.forward, block)
    want_logits, want_grads = run(by_branches, block)
    assert same_bits(logits, want_logits)
    for name, g, want in zip(names, grads, want_grads, strict=True):
        assert same_bits(g, want), name

    block[-1, 9] = np.nan  # a NaN frame in the last sequence
    with np.errstate(invalid="ignore"):
        logits, error = run(model.forward, block)
        want_logits, want_error = run(by_branches, block)
    assert np.isnan(logits[-1]).all() and same_bits(logits, want_logits)
    assert error == want_error and "non-finite gradient" in error


def test_forward_logits_shape_and_input_validation():
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=5), seed=2)
    rng = np.random.default_rng(1)
    views = cluster_views(rng.normal(size=(6, 32, 48)))
    logits = model.forward(tuple(Tensor(v) for v in views))
    assert logits.shape == (6, 5)
    bad = (Tensor(np.zeros((6, 32, 21))), Tensor(np.zeros((6, 32, 21))), Tensor(np.zeros((6, 32, 21))))
    with pytest.raises(ShapeError):
        model.forward(bad)


def test_zero_input_gives_exactly_uniform_softmax():
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=4), seed=3)
    views = (Tensor(np.zeros((2, 32, 21))), Tensor(np.zeros((2, 32, 15))), Tensor(np.zeros((2, 32, 21))))
    logits = model.forward(views).data
    # equal logits in a row: each shifted exponential is exactly 1.0
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    npt.assert_array_equal(e / e.sum(axis=1, keepdims=True), np.full((2, 4), 0.25))


def test_logit_shift_invariance_of_prediction():
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=3), seed=4)
    rng = np.random.default_rng(2)
    views = tuple(Tensor(v) for v in cluster_views(rng.normal(size=(8, 32, 48))))
    logits = model.forward(views).data
    assert np.array_equal(logits.argmax(axis=1), (logits + 7.3).argmax(axis=1))


def test_checkpoint_round_trip(tmp_path):
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=5), seed=5)
    rng = np.random.default_rng(3)
    views = tuple(Tensor(v) for v in cluster_views(rng.normal(size=(3, 32, 48))))
    before = model.forward(views).data
    model.save(tmp_path / "clf.bin", {"task": "strategy"})
    loaded, extra = HierarchicalClassifier.load(tmp_path / "clf.bin")
    assert extra == {"task": "strategy"}
    npt.assert_array_equal(loaded.forward(views).data, before)


def test_spec_validation():
    with pytest.raises(SettingError):
        HierarchicalNetSpec(n_classes=1)
    with pytest.raises(SettingError):
        HierarchicalNetSpec(n_classes=2, branch_filters=(0, 1, 1))


# -- tasks -----------------------------------------------------------------------


def test_weight_task_filter_and_balance():
    metas = (
        [meta(weight_g=640)] * 218
        + [meta(weight_g=1140)] * 287
        + [meta(weight_g=1640, bowl_size="largest")] * 300
    )
    spec = TaskSpec("weight")
    labels = spec.labels(metas)
    kept = np.flatnonzero(labels >= 0)
    assert len(kept) == 518  # the middle class drops out
    balanced = balance_classes(labels, seed=0)
    assert len(balanced) == 436
    labels = labels[balanced]
    assert (labels == 0).sum() == 218 and (labels == 1).sum() == 218


def test_weight_task_split_sizes():
    train, val = validation_split(218 + 218, TaskSpec("weight").n_validation, seed=1)
    assert len(val) == 50 and len(train) == 386
    assert set(train.tolist()).isdisjoint(val.tolist())


def test_strategy_task_filters_to_top_five():
    metas = [meta(strategy=s) for s in "ABCDEFGHI"]
    spec = TaskSpec("strategy")
    kept = np.flatnonzero(spec.labels(metas) >= 0)
    assert sorted(metas[i].strategy for i in kept) == list("ABCDG")
    assert spec.n_classes == 5
    assert spec.labels([meta(strategy="E")]).tolist() == [-1]


def test_balance_task_labels():
    spec = TaskSpec("balance")
    assert spec.labels([meta(balance="balanced"), meta(balance="unbalanced")]).tolist() == [0, 1]
    assert spec.n_validation == 100


def test_unlabelled_rows_are_outside_every_task():
    for task in TASKS:
        assert TaskSpec(task).labels([None, meta(weight_g=640, strategy="A")]).tolist() == [-1, 0]
    assert TaskSpec("weight").class_names == ("heavy", "heaviest")
    assert TaskSpec("balance").class_names == ("balanced", "unbalanced")


@settings(derandomize=True, database=None, max_examples=150)
@given(labels=st.lists(st.integers(-1, 3), max_size=40), seed=st.integers(0, 2**32 - 1))
def test_balance_classes_matches_the_list_walk(labels, seed):
    labels = np.array(labels, dtype=int)
    if not (labels >= 0).any():
        with pytest.raises(DataError):
            balance_classes(labels, seed)
        return
    assert balance_classes(labels, seed).tolist() == balanced_rows_by_lists(labels.tolist(), seed)


@settings(derandomize=True, database=None, max_examples=150)
@given(n=st.integers(1, 60), data=st.data())
def test_validation_split_matches_the_list_walk(n, data):
    n_validation = data.draw(st.integers(0, n - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    train, val = validation_split(n, n_validation, seed)
    assert (train.tolist(), val.tolist()) == split_rows_by_lists(n, n_validation, seed)


def test_validation_split_is_deterministic():
    t1, v1 = validation_split(40, 10, seed=5)
    t2, v2 = validation_split(40, 10, seed=5)
    assert v1.tolist() == v2.tolist()
    with pytest.raises(DataError):
        validation_split(40, 40, seed=5)


def test_unknown_task_rejected():
    with pytest.raises(ContractError):
        TaskSpec("speed")
    for sizes in ({"validation_size": -1}, {"augment_factor": 0}):
        with pytest.raises(ContractError):
            TaskSpec("weight", **sizes)


# -- evaluation -------------------------------------------------------------------


def test_evaluate_perfect_and_constant_predictors():
    # route predictions through a model whose weights are forced by hand:
    # bias-only head makes a constant predictor
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=2), seed=9)
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    model.head.layers[-1].bias.data = np.array([0.0, 1.0])  # always class 1
    rng = np.random.default_rng(9)
    block = rng.normal(size=(40, 32, 48))
    labels = np.array([0, 1] * 20)
    acc, confusion = evaluate(model, block, labels)
    assert acc == 0.5
    npt.assert_array_equal(confusion, [[0, 20], [0, 20]])
    # rows sum to per-class counts
    npt.assert_array_equal(confusion.sum(axis=1), [20, 20])


def test_evaluate_twice_is_identical():
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=3), seed=10)
    rng = np.random.default_rng(10)
    block = rng.normal(size=(30, 32, 48))
    labels = rng.integers(0, 3, 30)
    a1, c1 = evaluate(model, block, labels)
    a2, c2 = evaluate(model, block, labels)
    assert a1 == a2
    npt.assert_array_equal(c1, c2)


def test_evaluate_rejects_bad_labels():
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=2), seed=11)
    block = np.zeros((4, 32, 48))
    with pytest.raises(LabelError):
        evaluate(model, block, np.array([0, 1, 2, 0]))
    with pytest.raises(LabelError):
        evaluate(model, block, np.array([0, -1, 1, 0]))
    with pytest.raises(DataError):
        evaluate(model, np.zeros((0, 32, 48)), np.array([], dtype=int))


# -- training ---------------------------------------------------------------------


def test_overfits_tiny_set():
    # capacity check: a handful of samples must be memorized
    rng = np.random.default_rng(12)
    x = rng.normal(size=(10, 32, 48))
    y = np.arange(10) % 2
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=2, branch_filters=(2, 2, 2), dense_width=8), seed=12)
    report = train_classifier(model, x, y, x, y, epochs=60, batch=10, seed=12)
    assert max(report.train_acc) == 1.0
    assert report.n_parameters == model.num_parameters()


def test_training_report_and_restored_best_weights():
    train_x, train_y, val_x, val_y = separable_sequences(n_train=60, n_val=30, seed=13)
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=3, branch_filters=(2, 4, 4), dense_width=16), seed=13)
    report = train_classifier(model, train_x, train_y, val_x, val_y, epochs=8, batch=16, seed=13)
    assert len(report.val_acc) == 8 and len(report.train_loss) == 8
    assert 0 <= report.best_epoch < 8
    # the kept weights must reproduce the best recorded validation accuracy
    acc, confusion = evaluate(model, val_x, val_y)
    assert acc == pytest.approx(max(report.val_acc))
    assert confusion.sum() == 30
    npt.assert_array_equal(confusion.sum(axis=1), np.bincount(val_y, minlength=3))


def test_training_is_deterministic():
    train_x, train_y, val_x, val_y = separable_sequences(n_train=30, n_val=12, seed=14)

    def run():
        model = HierarchicalClassifier(
            HierarchicalNetSpec(n_classes=3, branch_filters=(2, 2, 2), dense_width=8), seed=14
        )
        report = train_classifier(model, train_x, train_y, val_x, val_y, epochs=3, batch=8, seed=14)
        return model, report

    m1, r1 = run()
    m2, r2 = run()
    assert r1.train_loss == r2.train_loss
    assert r1.val_acc == r2.val_acc
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        npt.assert_array_equal(p1.data, p2.data)


def test_a_training_step_releases_its_graph_before_the_next_forward(monkeypatch):
    # the loop drops each step's logits and loss, so a step's graph is freed
    # by reference counting, not held while the next forward builds its own
    train_x, train_y, val_x, val_y = separable_sequences(n_train=30, n_val=12, seed=16)
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=3, branch_filters=(2, 2, 2), dense_width=8), seed=16)
    forward = HierarchicalClassifier.forward
    previous, alive = [], []

    def spied(self, *args, **kwargs):
        alive.append(bool(previous) and previous[-1]() is not None)
        logits = forward(self, *args, **kwargs)
        previous.append(weakref.ref(logits))
        return logits

    monkeypatch.setattr(HierarchicalClassifier, "forward", spied)
    gc.disable()  # the cyclic collector must not be what frees a graph
    try:
        train_classifier(model, train_x, train_y, val_x, val_y, epochs=2, batch=8, seed=16)
    finally:
        gc.enable()
    assert len(alive) == 2 * (4 + 1) + 1  # 4 steps and a validation pass an epoch, and the final evaluation
    assert not any(alive), alive


def test_training_rejects_empty_and_bad_labels():
    model = HierarchicalClassifier(HierarchicalNetSpec(n_classes=2), seed=15)
    empty = np.zeros((0, 32, 48))
    some = np.zeros((4, 32, 48))
    with pytest.raises(DataError):
        train_classifier(model, empty, np.array([]), some, np.zeros(4, dtype=int), epochs=1)
    with pytest.raises(LabelError):
        train_classifier(model, some, np.array([0, 1, 3, 0]), some, np.zeros(4, dtype=int), epochs=1)
    with pytest.raises(LabelError):
        train_classifier(model, some, np.array([0, -1, 1, 0]), some, np.zeros(4, dtype=int), epochs=1)
    with pytest.raises(LabelError):
        train_classifier(model, some, np.zeros(4, dtype=int), some, np.array([0, 1, -1, 0]), epochs=1)
