"""Adversarial objectives.

Two families, one function per loss. The classic log losses work on
discriminator probabilities, with one-sided label smoothing for the
discriminator and the non-saturating form for the generator. The
Wasserstein losses work on raw critic scores; the critic's is
regularized by a gradient penalty on random interpolates between real
and fake batches.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, ShapeError
from ..nn import Tensor, clip, grad, tlog, tmean, tsqrt, tsum

PROB_FLOOR = 1e-7


def _scores(t: Tensor, name: str) -> Tensor:
    """Accept (B,) or (B, 1) score tensors; reject anything wider."""
    if t.ndim == 2 and t.shape[1] == 1:
        return t.reshape((t.shape[0],))
    if t.ndim != 1:
        raise ShapeError(f"{name} must be (batch,) or (batch, 1), got {t.shape}")
    return t


def discriminator_logloss(d_real: Tensor, d_fake: Tensor, real_label: float = 0.9) -> Tensor:
    """Discriminator loss -mean(real_label * log D(x) + log(1 - D(x_fake))).

    Probabilities are clamped away from 0 and 1 before the logs so a
    saturated discriminator yields large finite losses, not infinities.
    """
    d_real = clip(_scores(d_real, "d_real"), PROB_FLOOR, 1.0 - PROB_FLOOR)
    d_fake = clip(_scores(d_fake, "d_fake"), PROB_FLOOR, 1.0 - PROB_FLOOR)
    return -(tmean(tlog(d_real)) * real_label + tmean(tlog(-d_fake + 1.0)))


def generator_logloss(d_fake: Tensor) -> Tensor:
    """Non-saturating generator loss -mean(log D(fake)), clamped like the discriminator's."""
    d_fake = clip(_scores(d_fake, "d_fake"), PROB_FLOOR, 1.0 - PROB_FLOOR)
    return -tmean(tlog(d_fake))


def critic_wloss(c_real: Tensor, c_fake: Tensor) -> Tensor:
    """Critic loss mean(c_fake) - mean(c_real) on raw scores; the penalty is added separately."""
    c_real, c_fake = _scores(c_real, "c_real"), _scores(c_fake, "c_fake")
    return tmean(c_fake) - tmean(c_real)


def generator_wloss(c_fake: Tensor) -> Tensor:
    """Wasserstein generator loss -mean(c_fake) on raw scores."""
    return -tmean(_scores(c_fake, "c_fake"))


def wasserstein_estimate(c_real: np.ndarray, c_fake: np.ndarray) -> float:
    """mean(c_real) - mean(c_fake): the critic's distance estimate."""
    return float(np.mean(c_real) - np.mean(c_fake))


def interpolate(real: np.ndarray, fake: np.ndarray, rng: np.random.Generator) -> Tensor:
    """Per-sample convex mix eps*real + (1-eps)*fake, eps ~ Uniform(0,1)."""
    real = np.asarray(real, dtype=float)
    fake = np.asarray(fake, dtype=float)
    if real.shape != fake.shape:
        raise ShapeError(f"real {real.shape} and fake {fake.shape} batches must match")
    if real.shape[0] == 0:
        raise DataError("cannot interpolate an empty batch")
    eps = rng.uniform(size=(real.shape[0],) + (1,) * (real.ndim - 1))
    return Tensor(eps * real + (1.0 - eps) * fake, requires_grad=True)


def gradient_penalty(critic_fn, real: np.ndarray, fake: np.ndarray, rng: np.random.Generator) -> Tensor:
    """mean((||grad of critic at the interpolates||_2 - 1)^2).

    The returned tensor is differentiable with respect to the critic
    parameters (the gradient is taken with a live graph), which is what
    lets the penalty train the critic toward unit slope.
    """
    x_hat = interpolate(real, fake, rng)
    scores = _scores(critic_fn(x_hat), "critic output")
    # samples are independent through the critic, so the gradient of the
    # score sum is the stack of per-sample gradients
    (g,) = grad(tsum(scores), [x_hat], create_graph=True)
    sq = tsum(g * g, axis=tuple(range(1, g.ndim)))
    norms = tsqrt(sq)
    dev = norms - 1.0
    return tmean(dev * dev)
