"""First-order optimizers operating on parameter tensors in place."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with bias-corrected moment estimates, kept flat: a step is one elementwise pass."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        ends = np.cumsum([0] + [p.size for p in self.params]).tolist()
        self._spans = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
        self.m, self.v = np.zeros(ends[-1]), np.zeros(ends[-1])

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        idle = [(s, self.m[s].copy(), self.v[s].copy()) for p, s in zip(self.params, self._spans) if p.grad is None]
        g = np.concatenate([np.zeros(p.size) if p.grad is None else p.grad.ravel() for p in self.params])
        # the usual terms in the usual order; the moments update in place, sparing whole-model temporaries
        self.m *= b1
        self.m += (1 - b1) * g
        self.v *= b2
        self.v += (1 - b2) * g * g
        del g
        step = self.lr * (self.m / (1 - b1**self.t)) / (np.sqrt(self.v / (1 - b2**self.t)) + self.eps)
        for s, m, v in idle:  # a parameter without a gradient keeps its moments and, as x - 0.0 == x, its data
            self.m[s], self.v[s], step[s] = m, v, 0.0
        new = np.concatenate([p.data.ravel() for p in self.params]) - step
        for p, s in zip(self.params, self._spans):  # each parameter's data is its view of the flat vector
            p.data = new[s].reshape(p.shape)
