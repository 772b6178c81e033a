"""Generator and critic construction for sequence synthesis.

The generator projects noise onto a short, wide sequence and repeatedly
upsamples and convolves, halving the filter count at each stage until
the target 32x48 shape. The critic mirrors it with stride-2
convolutions down to a single score. A WGAN critic must stay free of
batch normalization: per-sample gradients feed the penalty term, and
batch statistics would couple samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..container import JsonRecord
from ..errors import ContractError, ShapeError
from ..nn import Sequential
from ..nn.layers import Activation, BatchNorm, Conv1D, Dense, Flatten, Reshape, Upsample
from ..seeding import derive_rng


@dataclass(frozen=True)
class GeneratorSpec(JsonRecord):
    noise_dim: int = 100
    cond_dim: int = 0
    base_steps: int = 4
    base_channels: int = 384
    conv_filters: tuple[int, ...] = (192, 96, 48)
    kernel: int = 5
    batchnorm: bool = False

    def __post_init__(self):
        if self.noise_dim < 1 or self.base_steps < 1 or self.base_channels < 1:
            raise ShapeError("generator dimensions must be positive")
        if not self.conv_filters:
            raise ShapeError("generator needs at least one conv stage")

    @property
    def out_steps(self) -> int:
        return self.base_steps * 2 ** len(self.conv_filters)

    @property
    def out_channels(self) -> int:
        return self.conv_filters[-1]


@dataclass(frozen=True)
class CriticSpec(JsonRecord):
    in_steps: int = 32
    in_channels: int = 48
    cond_channels: int = 0
    conv_filters: tuple[int, ...] = (96, 192, 384)
    kernel: int = 5
    batchnorm: bool = False
    head: str = "linear"  # linear (critic) or sigmoid (discriminator)

    def __post_init__(self):
        if self.head not in ("linear", "sigmoid"):
            raise ContractError(f"unknown head {self.head!r}")
        if self.in_steps % 2 ** len(self.conv_filters) != 0:
            raise ShapeError(
                f"{len(self.conv_filters)} stride-2 stages cannot evenly reduce {self.in_steps} steps"
            )

    @property
    def flat_width(self) -> int:
        return (self.in_steps // 2 ** len(self.conv_filters)) * self.conv_filters[-1]


def build_generator(spec: GeneratorSpec, seed: int = 0) -> Sequential:
    rng = derive_rng(seed, "generator")
    layers = [
        Dense(spec.noise_dim + spec.cond_dim, spec.base_steps * spec.base_channels, rng=rng),
        Activation("relu"),
        Reshape((spec.base_steps, spec.base_channels)),
    ]
    ch = spec.base_channels
    for i, f in enumerate(spec.conv_filters):
        last = i == len(spec.conv_filters) - 1
        layers.append(Upsample(2))
        layers.append(Conv1D(spec.kernel, ch, f, rng=rng))
        if not last:
            if spec.batchnorm:
                layers.append(BatchNorm(f))
            layers.append(Activation("relu"))
        ch = f
    # linear output: sequences are z-scored, so the range is unbounded
    return Sequential(layers)


def build_critic(spec: CriticSpec, seed: int = 0) -> Sequential:
    rng = derive_rng(seed, "critic")
    layers: list = []
    ch = spec.in_channels + spec.cond_channels
    for f in spec.conv_filters:
        layers.append(Conv1D(spec.kernel, ch, f, stride=2, rng=rng))
        if spec.batchnorm:
            layers.append(BatchNorm(f))
        layers.append(Activation("leaky_relu"))
        ch = f
    layers.append(Flatten())
    layers.append(Dense(spec.flat_width, 1, rng=rng))
    if spec.head == "sigmoid":
        layers.append(Activation("sigmoid"))
    return Sequential(layers)


def validate_wgan_critic(spec: CriticSpec) -> None:
    """WGAN critics must have a linear head and no batch normalization."""
    if spec.batchnorm:
        raise ContractError(
            "batch normalization in a WGAN critic couples samples and breaks "
            "the per-sample gradient penalty; remove it"
        )
    if spec.head != "linear":
        raise ContractError("a WGAN critic needs a linear head, not a squashed one")
