"""Spread and mode coverage of generator output."""

from __future__ import annotations

import numpy as np

from ..errors import DataError, ShapeError


def _flat(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 2:
        raise ShapeError("need a batch of samples")
    return samples.reshape(samples.shape[0], -1)


def pairwise_distance_stats(samples: np.ndarray) -> dict:
    """Euclidean distance statistics over all unordered sample pairs.

    A collapsed generator produces near-identical outputs, which shows
    up here as a tiny mean distance.
    """
    x = _flat(samples)
    n = x.shape[0]
    if n < 2:
        raise DataError("pairwise statistics need at least two samples")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    iu = np.triu_indices(n, k=1)
    d = np.sqrt(np.maximum(d2[iu], 0.0))
    return {
        "n": n,
        "mean": float(d.mean()),
        "std": float(d.std()),
        "min": float(d.min()),
        "max": float(d.max()),
    }


def assign_modes(samples: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for each sample."""
    x = _flat(samples)
    c = _flat(centers)
    if x.shape[1] != c.shape[1]:
        raise ShapeError("samples and centers live in different spaces")
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(c * c, axis=1)[None, :]
        - 2.0 * (x @ c.T)
    )
    return np.argmin(d2, axis=1)
