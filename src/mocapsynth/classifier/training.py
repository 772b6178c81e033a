"""Classifier training loop and evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..container import JsonRecord
from ..errors import DataError, LabelError, NumericalError, SettingError
from ..nn import Adam, Tensor, cross_entropy, no_grad
from ..seeding import derive_rng
from .network import HierarchicalClassifier
from .tasks import cluster_views

# defaults of train_classifier, which the CLI settings also take
EPOCHS, BATCH, LR = 400, 32, 1e-3


@dataclass
class TrainReport(JsonRecord):
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    confusion: list[list[int]] | None = None  # rows actual, columns predicted
    best_epoch: int = -1
    n_parameters: int = 0


def _views(block: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
    return tuple(Tensor(v) for v in cluster_views(block))


def predict_logits(model: HierarchicalClassifier, block: np.ndarray, batch: int = 256) -> np.ndarray:
    """Logits of a z-scored (n, 32, 48) block, whose branch views are cut one batch at a time."""
    outs = []
    with no_grad():
        for lo in range(0, len(block), batch):
            outs.append(model.forward(_views(block[lo : lo + batch]), training=False).data)
    return np.concatenate(outs, axis=0)


def evaluate(
    model: HierarchicalClassifier, block: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix (rows actual, columns predicted) on a z-scored (n, 32, 48) block."""
    n_classes = model.spec.n_classes
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise DataError("cannot evaluate on an empty set")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise LabelError(f"label outside [0, {n_classes}): {labels.min()}..{labels.max()}")
    preds = predict_logits(model, block).argmax(axis=1)
    confusion = np.bincount(labels * n_classes + preds, minlength=n_classes * n_classes)
    confusion = confusion.reshape(n_classes, n_classes)
    accuracy = float(np.trace(confusion) / labels.size)
    return accuracy, confusion


def _onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes)[labels]


def train_classifier(
    model: HierarchicalClassifier,
    train_block: np.ndarray,
    train_labels: np.ndarray,
    val_block: np.ndarray,
    val_labels: np.ndarray,
    epochs: int = EPOCHS,
    batch: int = BATCH,
    lr: float = LR,
    seed: int = 0,
) -> TrainReport:
    """Cross-entropy training with Adam; weights end at the best-validation epoch.

    The blocks are z-scored (n, 32, 48) sequences; each batch's rows are
    cut into the three branch views as the batch is drawn.
    """
    for name, value in (("epochs", epochs), ("batch", batch)):
        if value < 1:
            raise SettingError(f"{name} must be at least 1, got {value}", name)
    if not 0 < lr < np.inf:
        raise SettingError(f"lr must be finite and positive, got {lr}", "lr")
    n = len(train_block)
    if n == 0 or len(val_block) == 0:
        raise DataError("empty training or validation split")
    train_labels = np.asarray(train_labels, dtype=int)
    val_labels = np.asarray(val_labels, dtype=int)
    n_classes = model.spec.n_classes
    if not all(0 <= y.min() and y.max() < n_classes for y in (train_labels, val_labels)):
        raise LabelError("training or validation label outside the task's class range")

    report = TrainReport(n_parameters=model.num_parameters())
    params = model.parameters()
    opt = Adam(params, lr=lr)
    onehot = _onehot(train_labels, n_classes)
    best_acc = -1.0
    best_state: list[np.ndarray] = []

    for epoch in range(epochs):
        rng = derive_rng(seed, "epoch", epoch)
        order = rng.permutation(n)
        drop_rng = derive_rng(seed, "dropout", epoch)
        losses = []
        correct = 0
        for lo in range(0, n, batch):
            sel = order[lo : lo + batch]
            logits = model.forward(_views(train_block[sel]), training=True, rng=drop_rng)
            loss = cross_entropy(logits, onehot[sel])
            if not np.isfinite(loss.item()):
                raise NumericalError(f"loss diverged at epoch {epoch}, batch {lo // batch}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
            correct += int((logits.data.argmax(axis=1) == train_labels[sel]).sum())
            del logits, loss  # the step's graph goes before the next forward builds one
        report.train_loss.append(float(np.mean(losses)))
        report.train_acc.append(correct / n)

        val_logits = predict_logits(model, val_block)
        vl = cross_entropy(Tensor(val_logits), _onehot(val_labels, n_classes)).item()
        va = float((val_logits.argmax(axis=1) == val_labels).mean())
        report.val_loss.append(vl)
        report.val_acc.append(va)
        if va > best_acc:
            best_acc = va
            best_state = [p.data.copy() for p in params]
            report.best_epoch = epoch

    for p, saved in zip(params, best_state):
        p.data = saved
    report.confusion = evaluate(model, val_block, val_labels)[1].tolist()
    return report
