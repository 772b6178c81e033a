"""First-order optimizers operating on parameter tensors in place."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, fork, forks

# elementwise passes over the flat vector in one step, each counted as a
# multiply-add an element: the units of fork's gate
ADAM_PASSES = 14


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
        idle = [(p, s, self.m[s].copy(), self.v[s].copy()) for p, s in zip(self.params, self._spans) if p.grad is None]
        g = np.concatenate([np.zeros(p.size) if p.grad is None else p.grad.ravel() for p in self.params])
        new = np.concatenate([p.data.ravel() for p in self.params])
        n, work = len(new), ADAM_PASSES * len(new)
        if forks(work):  # elementwise, so two halves of the vector give the bits of one pass
            fork(work, lambda: self._update(slice(0, n // 2), g, new), lambda: self._update(slice(n // 2, n), g, new))
        else:
            self._update(slice(None), g, new)
        for p, s, m, v in idle:  # a parameter without a gradient keeps its moments and its data
            self.m[s], self.v[s], new[s] = m, v, p.data.ravel()
        for p, s in zip(self.params, self._spans):  # each parameter's data is its view of the flat vector
            p.data = new[s].reshape(p.shape)

    def _update(self, s: slice, g: np.ndarray, new: np.ndarray) -> None:
        """Step span `s` of the flat moments and data in place.

        The usual terms in the usual order, written into one scratch array
        and then into the spent gradient, not into a temporary per term.
        """
        b1, b2 = self.beta1, self.beta2
        m, v, g = self.m[s], self.v[s], g[s]
        t = np.empty_like(g)
        m *= b1
        m += np.multiply(g, 1 - b1, out=t)
        v *= b2
        np.multiply(g, 1 - b2, out=t)
        t *= g
        v += t
        np.divide(m, 1 - b1**self.t, out=t)
        t *= self.lr
        np.divide(v, 1 - b2**self.t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        t /= g
        new[s] -= t
