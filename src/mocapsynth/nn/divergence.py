"""The Jensen-Shannon divergence between discrete distributions given as count or mass vectors."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError


def _normalise(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractError(f"distribution must be a vector, got shape {arr.shape}")
    if np.any(arr < 0):
        raise ContractError("distribution has negative mass")
    total = arr.sum()
    if total <= 0:
        raise ContractError("distribution has zero total mass")
    return arr / total


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats; bounded by log 2, symmetric.

    Defined for any pair of distributions: the mixture m covers both
    supports, so the two KL terms are always finite.
    """
    p, q = _normalise(p), _normalise(q)
    if p.shape != q.shape:
        raise ContractError(f"support sizes differ: {p.shape} vs {q.shape}")
    m = 0.5 * (p + q)
    left = p > 0
    right = q > 0
    kl_pm = float(np.sum(p[left] * np.log(p[left] / m[left])))
    kl_qm = float(np.sum(q[right] * np.log(q[right] / m[right])))
    return 0.5 * kl_pm + 0.5 * kl_qm
