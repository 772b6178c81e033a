"""Adversarial training.

One batch walk serves every kind. The Wasserstein kinds run a fixed
number of critic updates (default 15, each on a fresh real batch and a
fresh fake batch) per generator update, with the gradient penalty added
to the critic loss. The classic kind alternates single
discriminator/generator steps with one-sided label smoothing. Only the
loss expressions and the history series they fill depend on the kind.
Training is bit-deterministic under a seed: every random draw comes
from a stream derived with an explicit label, and batch order is a
plain shuffled walk over the data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..container import JsonRecord
from ..dataset.archive import ArchiveRows
from ..dataset.preprocess import SequenceSet, invert_zscore
from ..errors import ContractError, DataError, LabelError, NumericalError, SettingError, ShapeError, StateError
from ..nn import Adam, Tensor, fork, no_grad
from ..nn.checkpoint import save_model
from ..seeding import derive_rng
from .conditioning import N_CONDITIONS, condition_channels, condition_concat, onehot_batch
from .losses import (
    critic_wloss,
    discriminator_logloss,
    generator_logloss,
    generator_wloss,
    gradient_penalty,
    wasserstein_estimate,
)
from .networks import (
    CriticSpec,
    GeneratorSpec,
    build_critic,
    build_generator,
    validate_wgan_critic,
)

KINDS = ("dcgan", "wgan_gp", "cond_wgan_gp")

# lr, beta1, beta2
ADAM_DEFAULTS = {
    "dcgan": (2e-4, 0.5, 0.999),
    "wgan_gp": (1e-4, 0.0, 0.9),
    "cond_wgan_gp": (1e-4, 0.0, 0.9),
}


@dataclass(frozen=True)
class GanTrainSpec(JsonRecord):
    kind: str = "wgan_gp"
    epochs: int = 10
    batch: int = 64
    critic_steps: int = 15
    gp_lambda: float = 10.0
    real_label: float = 0.9
    lr: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SettingError(f"unknown training kind {self.kind!r}; expected one of {KINDS}", "kind")
        for name in ("epochs", "batch", "critic_steps"):
            if getattr(self, name) < 1:
                raise SettingError(f"{name} must be at least 1, got {getattr(self, name)}", name)
        if not 0 <= self.gp_lambda < math.inf:
            raise SettingError(f"gp_lambda must be finite and nonnegative, got {self.gp_lambda}", "gp_lambda")
        if not (self.lr is None or 0 < self.lr < math.inf):
            raise SettingError(f"lr must be finite and positive, got {self.lr}", "lr")
        if not 0.0 < self.real_label <= 1.0:
            raise SettingError(f"real_label must sit in (0, 1], got {self.real_label}", "real_label")

    @property
    def conditional(self) -> bool:
        return self.kind == "cond_wgan_gp"

    @property
    def wasserstein(self) -> bool:
        return self.kind in ("wgan_gp", "cond_wgan_gp")

    def adam_settings(self) -> tuple[float, float, float]:
        lr0, b10, b20 = ADAM_DEFAULTS[self.kind]
        return (
            self.lr if self.lr is not None else lr0,
            self.beta1 if self.beta1 is not None else b10,
            self.beta2 if self.beta2 is not None else b20,
        )


@dataclass
class GanHistory(JsonRecord):
    """Per-generator-step loss traces plus update counters."""

    kind: str
    w_estimate: list[float] = field(default_factory=list)
    critic_loss: list[float] = field(default_factory=list)
    penalty: list[float] = field(default_factory=list)
    gen_loss: list[float] = field(default_factory=list)
    d_loss: list[float] = field(default_factory=list)
    critic_counts: list[int] = field(default_factory=list)
    epoch_ends: list[int] = field(default_factory=list)
    critic_updates: int = 0
    gen_updates: int = 0


def _as_array(data) -> np.ndarray | ArchiveRows:
    """The (n, T, C) rows of a raw array or of a z-scored SequenceSet or ArchiveRows; float64 data is not copied."""
    if isinstance(data, SequenceSet | ArchiveRows):
        if not data.normalized:
            raise StateError("train on z-scored sequences; fit and apply a normalizer first")
        return data if isinstance(data, ArchiveRows) else data.data
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise ShapeError(f"training data must be (n, steps, channels), got {data.shape}")
    return data


def _check_shapes(spec: GanTrainSpec, data, gen_spec, critic_spec):
    n, t, c = data.shape
    if gen_spec.out_steps != t or gen_spec.out_channels != c:
        raise ShapeError(
            f"generator emits {gen_spec.out_steps}x{gen_spec.out_channels}, data is {t}x{c}"
        )
    if critic_spec.in_steps != t or critic_spec.in_channels != c:
        raise ShapeError(
            f"critic expects {critic_spec.in_steps}x{critic_spec.in_channels}, data is {t}x{c}"
        )
    want_cond = N_CONDITIONS if spec.conditional else 0
    if gen_spec.cond_dim != want_cond or critic_spec.cond_channels != want_cond:
        raise ContractError(
            f"{spec.kind} needs cond_dim={want_cond} and cond_channels={want_cond}"
        )
    if n < spec.batch:
        raise DataError(f"{n} sequences cannot fill one batch of {spec.batch}")
    if spec.wasserstein and n // spec.batch < spec.critic_steps:
        raise SettingError(
            f"{n} sequences give {n // spec.batch} full batches of {spec.batch} per epoch, fewer than"
            f" the {spec.critic_steps} critic steps of one generator step, so no generator step would run",
            "critic_steps",
        )


def _finite(value: float, what: str, step: int) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"non-finite {what} at generator step {step}")
    return float(value)


class _Run:
    """Shared state for one training run."""

    def __init__(self, spec, data, labels, gen_spec, critic_spec):
        self.spec = spec
        self.data = data
        self.onehots = None
        if spec.conditional:
            if labels is None:
                raise LabelError("conditional training needs a condition label per sequence")
            labels = np.asarray(labels)
            if labels.shape != (data.shape[0],):
                raise LabelError(f"expected {data.shape[0]} labels, got shape {labels.shape}")
            self.onehots = onehot_batch(labels)

        self.generator = build_generator(gen_spec, seed=spec.seed)
        self.critic = build_critic(critic_spec, seed=spec.seed)
        self.critic_size = self.critic.num_parameters()
        lr, b1, b2 = spec.adam_settings()
        self.gen_opt = Adam(self.generator.parameters(), lr=lr, beta1=b1, beta2=b2)
        self.critic_opt = Adam(self.critic.parameters(), lr=lr, beta1=b1, beta2=b2)
        self.noise_dim = gen_spec.noise_dim

        self.shuffle_rng = derive_rng(spec.seed, "gan", "shuffle")
        self.noise_rng = derive_rng(spec.seed, "gan", "noise")
        self.gp_rng = derive_rng(spec.seed, "gan", "gp")
        self.label_rng = derive_rng(spec.seed, "gan", "labels")
        self.history = GanHistory(kind=spec.kind)

    def critic_score(self, x: Tensor, hot: np.ndarray | None) -> Tensor:
        if hot is not None:
            x = condition_channels(x, hot)
        return self.critic(x, training=True)

    def generate(self, n: int, hot: np.ndarray | None, with_grad: bool) -> Tensor:
        z = self.noise_rng.standard_normal((n, self.noise_dim))
        z = Tensor(z if hot is None else condition_concat(z, hot))
        if with_grad:
            return self.generator(z, training=True)
        with no_grad():
            return self.generator(z, training=True)

    def batches(self):
        """Disjoint shuffled full batches; the remainder is dropped."""
        perm = self.shuffle_rng.permutation(self.data.shape[0])
        b = self.spec.batch
        for start in range(0, len(perm) - b + 1, b):
            yield perm[start : start + b]


def _critic_update(
    run: _Run, idx: np.ndarray, step: int, fake: np.ndarray | None, next_idx: np.ndarray | None
) -> tuple[dict[str, float], np.ndarray | None]:
    """One critic step on batch `idx` and its fake batch, made here when `fake` is None.

    Returns the history series it fills, by name, and the fake batch for
    `next_idx`, made beside this step's penalty, or None without a next batch.
    """
    spec = run.spec
    real = run.data[idx]
    hot = run.onehots[idx] if run.onehots is not None else None
    next_hot = run.onehots[next_idx] if run.onehots is not None and next_idx is not None else None
    # The halves of each pair share no mutable state: only the generator's
    # own batch norm moves, on one side, the critic is paired with itself
    # only within a group of Wasserstein steps, whose critic has none, and
    # each random stream is drawn on one side only, in the serial order.
    # One critic forward takes at least batch x parameters multiply-adds.
    work = len(idx) * run.critic_size
    run.critic_opt.zero_grad()
    c_fake = None
    if fake is None:
        fake, c_real = fork(
            work,
            lambda: run.generate(len(idx), hot, with_grad=False).data,
            lambda: run.critic_score(Tensor(real), hot),
        )
    else:
        c_real, c_fake = fork(
            work, lambda: run.critic_score(Tensor(real), hot), lambda: run.critic_score(Tensor(fake), hot)
        )

    def beside_penalty():
        """This step's fake score if it is still due, then the next step's fake batch."""
        score = run.critic_score(Tensor(fake), hot) if c_fake is None else c_fake
        if next_idx is None:
            return score, None
        return score, run.generate(len(next_idx), next_hot, with_grad=False).data

    (c_fake, next_fake), gp = fork(
        work,
        beside_penalty,
        (lambda: gradient_penalty(lambda x: run.critic_score(x, hot), real, fake, run.gp_rng))
        if spec.wasserstein and spec.gp_lambda > 0.0
        else None,
    )
    # each loss is checked before backward so a diverged run names its step
    if not spec.wasserstein:
        loss = discriminator_logloss(c_real, c_fake, real_label=spec.real_label)
        record = {"d_loss": _finite(float(loss.data), "discriminator loss", step)}
    else:
        loss = critic_wloss(c_real, c_fake)
        penalty = 0.0
        if gp is not None:
            loss = loss + gp * spec.gp_lambda
            penalty = float(gp.data)
        record = {
            "critic_loss": _finite(float(loss.data), "critic loss", step),
            "penalty": _finite(penalty, "gradient penalty", step),
            "w_estimate": _finite(wasserstein_estimate(c_real.data, c_fake.data), "distance estimate", step),
        }
    loss.backward()
    run.critic_opt.step()
    run.history.critic_updates += 1
    return record, next_fake


def _generator_update(run: _Run, step: int) -> float:
    spec = run.spec
    hot = None
    if run.onehots is not None:
        picks = run.label_rng.integers(0, run.data.shape[0], size=spec.batch)
        hot = run.onehots[picks]
    fake = run.generate(spec.batch, hot, with_grad=True)
    c_fake = run.critic_score(fake, hot)
    gen_loss = generator_wloss(c_fake) if spec.wasserstein else generator_logloss(c_fake)
    value = _finite(float(gen_loss.data), "generator loss", step)
    # the critic stays frozen: its last gradients are released before this
    # step's graph peaks, and no new ones are formed
    run.critic_opt.zero_grad()
    gen_loss.backward(wrt=run.gen_opt.params)
    run.gen_opt.step()
    run.gen_opt.zero_grad()  # spent: held on, they would sit in every critic step's peak until the next generator step
    run.history.gen_updates += 1
    return value


def _train(run: _Run):
    """Walk shuffled batches: a group of critic steps, then one generator step."""
    spec = run.spec
    h = run.history
    group_size = spec.critic_steps if spec.wasserstein else 1
    for _epoch in range(spec.epochs):
        group: list[np.ndarray] = []
        for idx in run.batches():
            group.append(idx)
            if len(group) < group_size:
                continue
            step = h.gen_updates
            # each step but the last makes the next one's fake batch: the generator holds still in a group
            fake = None
            for bidx, next_idx in zip(group, group[1:] + [None]):
                record, fake = _critic_update(run, bidx, step, fake, next_idx)
            h.gen_loss.append(_generator_update(run, step))
            # the Wasserstein series keep the group's last critic step
            for series, value in record.items():
                getattr(h, series).append(value)
            h.critic_counts.append(len(group))
            group = []
        h.epoch_ends.append(h.gen_updates)


def train_gan(
    spec: GanTrainSpec,
    data,
    labels=None,
    gen_spec: GeneratorSpec | None = None,
    critic_spec: CriticSpec | None = None,
):
    """Train a generator/critic pair; returns (generator, critic, history).

    data is a (n, steps, channels) array, a z-scored SequenceSet, or a
    z-scored ArchiveRows, whose rows are read from its file a batch at a
    time; it is read, never written. labels (condition indices, 0..5) are
    required for the conditional kind and ignored otherwise.
    """
    data = _as_array(data)
    cond = N_CONDITIONS if spec.conditional else 0
    if gen_spec is None:
        gen_spec = GeneratorSpec(cond_dim=cond)
    if critic_spec is None:
        head = "sigmoid" if spec.kind == "dcgan" else "linear"
        critic_spec = CriticSpec(cond_channels=cond, head=head)
    _check_shapes(spec, data, gen_spec, critic_spec)
    if spec.wasserstein:
        validate_wgan_critic(critic_spec)
    elif critic_spec.head != "sigmoid":
        raise ContractError("dcgan needs a sigmoid discriminator head")

    run = _Run(spec, data, labels, gen_spec, critic_spec)
    _train(run)
    return run.generator, run.critic, run.history


def save_gan(directory, generator, critic, gen_spec, critic_spec, train_spec):
    """Write generator.model and critic.model checkpoints (atomic)."""
    os.makedirs(directory, exist_ok=True)
    meta = {"train": train_spec.to_dict()}
    gpath = os.path.join(directory, "generator.model")
    cpath = os.path.join(directory, "critic.model")
    save_model(gpath, generator, {**meta, "role": "generator", "spec": gen_spec.to_dict()})
    save_model(cpath, critic, {**meta, "role": "critic", "spec": critic_spec.to_dict()})
    return gpath, cpath


def sample_generator(
    generator,
    gen_spec: GeneratorSpec,
    n: int,
    seed: int = 0,
    condition: int | None = None,
) -> np.ndarray:
    """Draw n sequences from a trained generator (normalized space)."""
    if n < 1:
        raise SettingError(f"need at least one sequence, got {n}", "n")
    rng = derive_rng(seed, "sample")
    z = rng.standard_normal((n, gen_spec.noise_dim))
    if gen_spec.cond_dim:
        if condition is None:
            raise LabelError("conditional generator needs a condition index")
        z = condition_concat(z, onehot_batch(np.full(n, condition, dtype=int)))
    elif condition is not None:
        raise ContractError("unconditional generator cannot honor a condition")
    with no_grad():
        out = generator(Tensor(z), training=False)
    return out.data.copy()


def generate_sequences(
    generator,
    gen_spec: GeneratorSpec,
    stats,
    n: int,
    seed: int = 0,
    condition: int | None = None,
) -> SequenceSet:
    """Sample and denormalize: n world-space 32x48 motion sequences, named generated0000 on."""
    raw = sample_generator(generator, gen_spec, n, seed=seed, condition=condition)
    names = [f"generated{i:04d}" for i in range(n)]
    return invert_zscore(SequenceSet(raw, names, [None] * n, normalized=True), stats)
