"""Composable layers over the autodiff tensors.

Each layer is a record of its settings: its JSON form is the ``spec()``
that checkpoints record, and it is rebuilt from that spec. It also
knows its trainable parameters; stateful layers (batch norm) carry
buffers as well.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields
from typing import ClassVar

import numpy as np

from ..container import JsonRecord, field_types
from ..errors import ContractError, DegenerateBatchError, SettingError, ShapeError
from .ops import conv1d, dense, dropout, flatten, maxpool1d, upsample1d
from .tensor import (
    Tensor,
    add,
    broadcast_to,
    div,
    leaky_relu,
    mul,
    neg,
    relu,
    reshape,
    sigmoid,
    tanh,
    tmean,
    tsqrt,
)

ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": lambda x: leaky_relu(x, 0.2),
    "tanh": tanh,
    "sigmoid": sigmoid,
}


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


@dataclass(eq=False)  # layers compare and hash by identity
class Layer(JsonRecord):
    name: ClassVar[str] = "layer"
    param_names: ClassVar[tuple[str, ...]] = ()  # the trainable Tensor attributes, saved under these names

    def __post_init__(self):
        """Every whole-number setting is at least 1, but spacing, which is at least 0."""
        types = field_types(type(self))
        for f in fields(self):
            least = 0 if f.name == "spacing" else 1
            if types[f.name] is int and getattr(self, f.name) < least:
                raise SettingError(f"{self.name} {f.name} must be at least {least}, got {getattr(self, f.name)}")

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        raise NotImplementedError

    def parameters(self) -> list[Tensor]:
        return [getattr(self, n) for n in self.param_names]

    def spec(self) -> dict:
        """The settings, tuples as lists, under the layer's name."""
        return {"layer": self.name, **{k: list(v) if isinstance(v, tuple) else v for k, v in self.to_dict().items()}}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n).data for n in self.param_names}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for n in self.param_names:
            getattr(self, n).data = arrays[n].astype(np.float64)


@dataclass(eq=False)
class Dense(Layer):
    name = "dense"
    param_names = ("weight", "bias")
    fin: int
    fout: int
    rng: InitVar[np.random.Generator | None] = None

    def __post_init__(self, rng):
        super().__post_init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(glorot_uniform(rng, (self.fin, self.fout), self.fin, self.fout), requires_grad=True)
        self.bias = Tensor(np.zeros(self.fout, dtype=np.float64), requires_grad=True)

    def forward(self, x, training=False, rng=None):
        return dense(x, self.weight, self.bias)


@dataclass(eq=False)
class Conv1D(Layer):
    name = "conv1d"
    param_names = ("weight", "bias")
    kernel: int
    cin: int
    cout: int
    stride: int = 1
    spacing: int = 0
    rng: InitVar[np.random.Generator | None] = None

    def __post_init__(self, rng):
        super().__post_init__()
        rng = rng or np.random.default_rng(0)
        kernel, cin, cout = self.kernel, self.cin, self.cout
        self.weight = Tensor(
            glorot_uniform(rng, (kernel, cin, cout), kernel * cin, kernel * cout),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(cout, dtype=np.float64), requires_grad=True)

    def forward(self, x, training=False, rng=None):
        return conv1d(x, self.weight, self.bias, stride=self.stride, spacing=self.spacing)


@dataclass(eq=False)
class BatchNorm(Layer):
    """Per-feature normalisation with running statistics for evaluation.

    Works on (B, F) feature vectors and (B, T, C) sequences; for sequences
    the statistics pool over batch and time.
    """

    name = "batchnorm"
    param_names = ("gamma", "beta")
    features: int
    momentum: float = 0.9
    eps: float = 1e-5

    def __post_init__(self):
        super().__post_init__()
        self.gamma = Tensor(np.ones(self.features, dtype=np.float64), requires_grad=True)
        self.beta = Tensor(np.zeros(self.features, dtype=np.float64), requires_grad=True)
        self.running_mean = np.zeros(self.features, dtype=np.float64)
        self.running_var = np.ones(self.features, dtype=np.float64)

    def forward(self, x, training=False, rng=None):
        if x.ndim == 2:
            axes: tuple[int, ...] = (0,)
            pshape = (1, self.features)
        elif x.ndim == 3:
            axes = (0, 1)
            pshape = (1, 1, self.features)
        else:
            raise ShapeError(f"batchnorm expects 2- or 3-d input, got shape {x.shape}")
        if x.shape[-1] != self.features:
            raise ShapeError(f"batchnorm feature mismatch: {x.shape[-1]} != {self.features}")

        if training:
            if x.shape[0] < 2:
                raise DegenerateBatchError("batch statistics need at least 2 samples")
            mean = tmean(x, axis=axes, keepdims=True)
            centred = add(x, neg(broadcast_to(mean, x.shape)))
            var = tmean(mul(centred, centred), axis=axes, keepdims=True)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mean.data.reshape(-1)
            self.running_var = m * self.running_var + (1 - m) * var.data.reshape(-1)
            denom = tsqrt(add(var, self.eps))
            normed = div(centred, broadcast_to(denom, x.shape))
        else:
            mean = self.running_mean.reshape(pshape)
            denom = np.sqrt(self.running_var.reshape(pshape) + self.eps)
            normed = div(add(x, Tensor(-mean)), Tensor(denom))
        scaled = mul(normed, broadcast_to(reshape(self.gamma, pshape), x.shape))
        return add(scaled, broadcast_to(reshape(self.beta, pshape), x.shape))


    def state_arrays(self):
        return {**super().state_arrays(), "running_mean": self.running_mean, "running_var": self.running_var}

    def load_state(self, arrays):
        super().load_state(arrays)
        self.running_mean = arrays["running_mean"].astype(np.float64)
        self.running_var = arrays["running_var"].astype(np.float64)


@dataclass(eq=False)
class Activation(Layer):
    name = "activation"
    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATIONS:
            raise SettingError(f"unknown activation {self.kind!r}")

    def forward(self, x, training=False, rng=None):
        return ACTIVATIONS[self.kind](x)


@dataclass(eq=False)
class MaxPool(Layer):
    name = "maxpool"
    width: int = 2

    def forward(self, x, training=False, rng=None):
        return maxpool1d(x, self.width)


@dataclass(eq=False)
class Upsample(Layer):
    name = "upsample"
    factor: int = 2

    def forward(self, x, training=False, rng=None):
        return upsample1d(x, self.factor)


class Flatten(Layer):
    name = "flatten"

    def forward(self, x, training=False, rng=None):
        return flatten(x)


@dataclass(eq=False)
class Reshape(Layer):
    name = "reshape"
    shape: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.shape):
            raise SettingError(f"reshape shape entries must be at least 1, got {list(self.shape)}")

    def forward(self, x, training=False, rng=None):
        return reshape(x, (x.shape[0],) + self.shape)


@dataclass(eq=False)
class Dropout(Layer):
    name = "dropout"
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise SettingError(f"dropout rate must be in [0, 1), got {self.rate}")

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            return x
        if rng is None:
            raise ContractError("dropout in training mode needs an rng")
        return dropout(x, self.rate, rng)


_LAYER_TYPES = {
    cls.name: cls
    for cls in (Dense, Conv1D, BatchNorm, Activation, MaxPool, Upsample, Flatten, Reshape, Dropout)
}


def layer_from_spec(spec: dict) -> Layer:
    """Rebuild a layer from its spec; a malformed spec is a ContractError."""
    kind = spec.get("layer") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _LAYER_TYPES:
        raise ContractError(f"unknown layer spec {spec!r}")
    try:
        return _LAYER_TYPES[kind].from_dict({k: v for k, v in spec.items() if k != "layer"})
    except SettingError as exc:  # a fault of the checkpoint, not a refused setting
        raise ContractError(f"{kind} layer spec {spec}: {exc}") from None


class Model:
    """Parameters and saved arrays of named parts, layers or models: part `name`'s array `key` saves as `name.key`."""

    def parts(self) -> dict[str, "Layer | Model"]:
        raise NotImplementedError

    def parameters(self) -> list[Tensor]:
        return [p for part in self.parts().values() for p in part.parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{name}.{key}": arr for name, part in self.parts().items()
                for key, arr in part.state_arrays().items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Install saved arrays: exactly the ones the parts hold, each with its shape."""
        expected = self.state_arrays()
        for what, keys in (("missing", expected.keys() - arrays.keys()),
                           ("unknown", arrays.keys() - expected.keys())):
            if keys:
                raise ContractError(f"{what} saved arrays {sorted(keys)}")
        for key, arr in expected.items():
            if arrays[key].shape != arr.shape:
                raise ContractError(f"saved array {key} has shape {arrays[key].shape}, not {arr.shape}")
        for name, part in self.parts().items():
            part.load_state({k[len(name) + 1:]: v for k, v in arrays.items() if k.startswith(name + ".")})


class Sequential(Model):
    """A forward chain of layers."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x, training=training, rng=rng)
        return x

    __call__ = forward

    def parts(self) -> dict[str, Layer]:
        return {f"layer{i:03d}": layer for i, layer in enumerate(self.layers)}

    def architecture(self) -> list[dict]:
        """The layer specs, as a checkpoint records them."""
        return [layer.spec() for layer in self.layers]

    @classmethod
    def from_architecture(cls, specs: list[dict]) -> "Sequential":
        if not isinstance(specs, list):
            raise ContractError(f"a Sequential architecture is a list of layers, not {type(specs).__name__}")
        return cls([layer_from_spec(s) for s in specs])
