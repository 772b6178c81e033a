"""Toy data sets, toy network specs and per-sequence helpers used only by the tests.

The toy sets are small fixtures for fast adversarial and classifier
convergence checks. The per-sequence augmentation helpers run the
program's own kernels from `mocapsynth.augment` on one sequence, so a
test of them measures the arithmetic `augment_dataset` uses.
"""

from __future__ import annotations

import math

import numpy as np

from mocapsynth.augment import _cos_sin, _rotated, _scale, _torso_centers, _translate
from mocapsynth.dataset.preprocess import MotionSequence, resample_centered, trim_to_motion
from mocapsynth.dataset.synthetic import make_trial
from mocapsynth.dataset.trials import TrialMeta
from mocapsynth.gan import CriticSpec, GeneratorSpec, assign_modes
from mocapsynth.seeding import derive_rng


def demo_sequence(seed: int = 0) -> MotionSequence:
    """One trimmed, resampled world-space sequence; the render goldens are drawn from it."""
    meta = TrialMeta(
        participant=1,
        bowl_size="medium",
        weight_g=1140,
        balance="balanced",
        orientation="facing",
        strategy="B",
    )
    trial = make_trial("demo", meta, derive_rng(seed, "demo"), carry=120)
    return resample_centered(trim_to_motion(trial))


def two_mode_sequences(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Toy generative target: (n, 32, 4) sequences drawn from two far-apart modes.

    Returns (data, mode_index). Mode 0 rides a sine around +2, mode 1 a
    cosine around -2; noise keeps each mode a tight cluster.
    """
    rng = derive_rng(seed, "two-mode")
    base0, base1 = two_mode_centers()
    modes = rng.integers(0, 2, size=n)
    data = np.where(modes[:, None, None] == 0, base0[None], base1[None])
    data = data + rng.normal(scale=0.05, size=(n, 32, 4))
    return data, modes


def two_mode_centers() -> np.ndarray:
    """(2, 32, 4) noise-free mode centers for nearest-mode assignment."""
    t = np.linspace(0, 2 * math.pi, 32)
    c0 = 2.0 + 0.5 * np.sin(t)[:, None] * np.ones((1, 4))
    c1 = -2.0 + 0.5 * np.cos(t)[:, None] * np.ones((1, 4))
    return np.stack([c0, c1])


def separable_sequences(
    n_train: int = 900,
    n_val: int = 100,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Linearly separable 3-class motion set: (train_x, train_y, val_x, val_y).

    Each class adds its own fixed 32x48 pattern; noise is small relative
    to the class separation, so a linear boundary exists by construction.
    """
    rng = derive_rng(seed, "three-class")
    patterns = rng.normal(size=(3, 32, 48))
    patterns /= np.linalg.norm(patterns, axis=(1, 2), keepdims=True)

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        y = np.arange(count) % 3
        amp = rng.uniform(6.0, 10.0, size=count)
        x = patterns[y] * amp[:, None, None] + rng.normal(scale=0.15, size=(count, 32, 48))
        perm = rng.permutation(count)
        return x[perm], y[perm]

    train_x, train_y = draw(n_train)
    val_x, val_y = draw(n_val)
    return train_x, train_y, val_x, val_y


def toy_generator_spec(noise_dim: int = 16, channels: int = 4) -> GeneratorSpec:
    """Small stack for fast end-to-end checks on 32-step toy sequences."""
    return GeneratorSpec(
        noise_dim=noise_dim,
        base_steps=4,
        base_channels=32,
        conv_filters=(16, 8, channels),
        kernel=5,
    )


def toy_critic_spec(channels: int = 4) -> CriticSpec:
    return CriticSpec(in_steps=32, in_channels=channels, conv_filters=(8, 16, 32), kernel=5)


def mode_fractions(samples: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Fraction of samples assigned to each center."""
    counts = np.bincount(assign_modes(samples, centers), minlength=len(centers))
    return counts / counts.sum()


def _like(seq: MotionSequence, pts: np.ndarray) -> MotionSequence:
    return MotionSequence(pts.reshape(seq.data.shape), normalized=False, meta=seq.meta, name=seq.name)


def translate_xy(seq: MotionSequence, dx: float, dy: float) -> MotionSequence:
    """Shift every marker in every frame by (dx, dy) on the floor plane."""
    pts = seq.points().copy()
    _translate(pts, dx, dy)
    return _like(seq, pts)


def torso_centers(seq: MotionSequence) -> np.ndarray:
    """(32, 3) per-frame scaling pivot: midpoint of shoulder mean and waist mean."""
    return _torso_centers(seq.points())


def scale_about_torso(seq: MotionSequence, factor: float) -> MotionSequence:
    """Scale every marker (bowl included) about the per-frame torso center."""
    pts = seq.points().copy()
    _scale(pts, factor)
    return _like(seq, pts)


def rotate_about_bowl_start(seq: MotionSequence, angle_deg: float) -> MotionSequence:
    """Rotate all frames about the vertical axis through the bowl's frame-0 spot.

    Positive angles turn counter-clockwise seen from above (+Z).
    """
    pts = seq.points()
    return _like(seq, _rotated(pts, *_cos_sin(angle_deg), out=np.empty(pts.shape)))
