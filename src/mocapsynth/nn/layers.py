"""Composable layers over the autodiff tensors.

Each layer knows its trainable parameters, a JSON-friendly ``spec()``
that checkpoints record, and how to rebuild itself from that spec.
Stateful layers (batch norm) also carry buffers.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..container import fits
from ..errors import ContractError, DegenerateBatchError, ShapeError
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


class Layer:
    name = "layer"
    param_names: tuple[str, ...] = ()  # the trainable Tensor attributes, saved under these names

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        raise NotImplementedError

    def parameters(self) -> list[Tensor]:
        return [getattr(self, n) for n in self.param_names]

    def spec(self) -> dict:
        """The constructor arguments but rng, read from the attributes of the same names; tuples as lists."""
        args = {a: getattr(self, a) for a in inspect.signature(type(self)).parameters if a != "rng"}
        return {"layer": self.name, **{a: list(v) if isinstance(v, tuple) else v for a, v in args.items()}}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n).data for n in self.param_names}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for n in self.param_names:
            getattr(self, n).data = arrays[n].astype(np.float64)


class Dense(Layer):
    name = "dense"
    param_names = ("weight", "bias")

    def __init__(self, fin: int, fout: int, rng: np.random.Generator | None = None):
        self.fin, self.fout = fin, fout
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(glorot_uniform(rng, (fin, fout), fin, fout), requires_grad=True)
        self.bias = Tensor(np.zeros(fout, dtype=np.float64), requires_grad=True)

    def forward(self, x, training=False, rng=None):
        return dense(x, self.weight, self.bias)


class Conv1D(Layer):
    name = "conv1d"
    param_names = ("weight", "bias")

    def __init__(
        self,
        kernel: int,
        cin: int,
        cout: int,
        stride: int = 1,
        spacing: int = 0,
        rng: np.random.Generator | None = None,
    ):
        self.kernel, self.cin, self.cout = kernel, cin, cout
        self.stride, self.spacing = stride, spacing
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(
            glorot_uniform(rng, (kernel, cin, cout), kernel * cin, kernel * cout),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(cout, dtype=np.float64), requires_grad=True)

    def forward(self, x, training=False, rng=None):
        return conv1d(x, self.weight, self.bias, stride=self.stride, spacing=self.spacing)


class BatchNorm(Layer):
    """Per-feature normalisation with running statistics for evaluation.

    Works on (B, F) feature vectors and (B, T, C) sequences; for sequences
    the statistics pool over batch and time.
    """

    name = "batchnorm"
    param_names = ("gamma", "beta")

    def __init__(self, features: int, momentum: float = 0.9, eps: float = 1e-5):
        self.features = features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(features, dtype=np.float64), requires_grad=True)
        self.beta = Tensor(np.zeros(features, dtype=np.float64), requires_grad=True)
        self.running_mean = np.zeros(features, dtype=np.float64)
        self.running_var = np.ones(features, dtype=np.float64)

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


class Activation(Layer):
    name = "activation"

    def __init__(self, kind: str):
        if kind not in ACTIVATIONS:
            raise ContractError(f"unknown activation {kind!r}")
        self.kind = kind

    def forward(self, x, training=False, rng=None):
        return ACTIVATIONS[self.kind](x)


class MaxPool(Layer):
    name = "maxpool"

    def __init__(self, width: int = 2):
        self.width = width

    def forward(self, x, training=False, rng=None):
        return maxpool1d(x, self.width)


class Upsample(Layer):
    name = "upsample"

    def __init__(self, factor: int = 2):
        self.factor = factor

    def forward(self, x, training=False, rng=None):
        return upsample1d(x, self.factor)


class Flatten(Layer):
    name = "flatten"

    def forward(self, x, training=False, rng=None):
        return flatten(x)


class Reshape(Layer):
    name = "reshape"

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(int(n) for n in shape)

    def forward(self, x, training=False, rng=None):
        return reshape(x, (x.shape[0],) + self.shape)


class Dropout(Layer):
    name = "dropout"

    def __init__(self, rate: float):
        self.rate = rate

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


def _whole(lo: int):
    return lambda v: fits(v, int) and v >= lo


# what a saved spec may give each constructor argument
_ARG_RULES = {
    **dict.fromkeys(("fin", "fout", "kernel", "cin", "cout", "stride", "features", "width", "factor"),
                    _whole(1)),
    "spacing": _whole(0),
    "momentum": lambda v: fits(v, float),
    "eps": lambda v: fits(v, float),
    "rate": lambda v: fits(v, float) and 0.0 <= v < 1.0,
    "kind": lambda v: isinstance(v, str) and v in ACTIVATIONS,
    "shape": lambda v: isinstance(v, list) and all(_whole(1)(n) for n in v),
}


def layer_from_spec(spec: dict) -> Layer:
    """Rebuild a layer from its spec; a malformed spec is a ContractError."""
    kind = spec.get("layer") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _LAYER_TYPES:
        raise ContractError(f"unknown layer spec {spec!r}")
    args = {k: v for k, v in spec.items() if k != "layer"}
    try:
        inspect.signature(_LAYER_TYPES[kind]).bind(**args)
    except TypeError as exc:
        raise ContractError(f"{kind} layer spec {spec}: {exc}") from None
    bad = [k for k, v in args.items() if k not in _ARG_RULES or not _ARG_RULES[k](v)]
    if bad:
        raise ContractError(f"{kind} layer spec {spec}: invalid {', '.join(bad)}")
    if kind == "reshape":
        args["shape"] = tuple(args["shape"])
    return _LAYER_TYPES[kind](**args)


class Sequential:
    """A forward chain of layers with shared parameter bookkeeping."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x, training=training, rng=rng)
        return x

    __call__ = forward

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def architecture(self) -> list[dict]:
        """The layer specs, as a checkpoint records them."""
        return [layer.spec() for layer in self.layers]

    @classmethod
    def from_architecture(cls, specs: list[dict]) -> "Sequential":
        if not isinstance(specs, list):
            raise ContractError(f"a Sequential architecture is a list of layers, not {type(specs).__name__}")
        return cls([layer_from_spec(s) for s in specs])

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            for key, arr in layer.state_arrays().items():
                out[f"layer{i:03d}.{key}"] = arr
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Install saved arrays: exactly the ones the layers hold, each with its shape."""
        expected = self.state_arrays()
        for what, keys in (("missing", expected.keys() - arrays.keys()),
                           ("unknown", arrays.keys() - expected.keys())):
            if keys:
                raise ContractError(f"{what} saved arrays {sorted(keys)}")
        for key, arr in expected.items():
            if arrays[key].shape != arr.shape:
                raise ContractError(f"saved array {key} has shape {arrays[key].shape}, not {arr.shape}")
        for i, layer in enumerate(self.layers):
            prefix = f"layer{i:03d}."
            layer.load_state({k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)})
