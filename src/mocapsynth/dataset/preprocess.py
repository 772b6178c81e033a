"""Trim, resample, normalize, and cluster-split trials into fixed-length sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateFeatureError, NoMotionError, StateError, TooShortError
from ..markers import CLUSTER_CENTER, CLUSTER_LOWER, CLUSTER_UPPER, cluster_feature_columns
from .trials import Trial, TrialMeta

SEQUENCE_LENGTH = 32
DEFAULT_SPEED_THRESHOLD = 0.05  # m/s, roughly the tracker noise floor
DEFAULT_HOLD_FRAMES = 12
CENTER_STRIDE = 12


@dataclass
class MotionSequence:
    data: np.ndarray  # (32, 48)
    normalized: bool = False
    meta: TrialMeta | None = None
    name: str = ""

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != (SEQUENCE_LENGTH, 48):
            raise TooShortError(f"sequence must be {SEQUENCE_LENGTH}x48, got {arr.shape}")
        self.data = arr

    def points(self) -> np.ndarray:
        return self.data.reshape(SEQUENCE_LENGTH, 16, 3)


@dataclass
class NormStats:
    mean: np.ndarray  # (48,)
    std: np.ndarray  # (48,)

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"norm_mean": self.mean, "norm_std": self.std}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "NormStats":
        return cls(arrays["norm_mean"], arrays["norm_std"])


def bowl_speeds(trial: Trial) -> np.ndarray:
    """Per-frame bowl speed in m/s via backward differences; frame 0 copies frame 1."""
    bowl = trial.bowl_track()
    steps = np.linalg.norm(np.diff(bowl, axis=0), axis=1) * trial.meta.frame_rate
    if steps.size == 0:
        return np.zeros(1)
    return np.concatenate([[steps[0]], steps])


def trim_to_motion(
    trial: Trial,
    speed_threshold: float = DEFAULT_SPEED_THRESHOLD,
    hold_frames: int = DEFAULT_HOLD_FRAMES,
) -> Trial:
    """Cut the trial to [first, last] frame of sustained bowl motion.

    A frame starts (ends) the motion when the speed stays at or above the
    threshold for hold_frames consecutive frames from (up to) it.
    """
    speeds = bowl_speeds(trial)
    fast = speeds >= speed_threshold
    if hold_frames < 1:
        hold_frames = 1
    # run[i] = True when fast[i : i + hold] is all True
    kernel = np.ones(hold_frames, dtype=int)
    runs = np.convolve(fast.astype(int), kernel, mode="valid") == hold_frames
    if not runs.any():
        raise NoMotionError(
            f"trial {trial.name!r}: bowl speed never holds >= {speed_threshold} m/s "
            f"for {hold_frames} frames"
        )
    first = int(np.argmax(runs))
    last = int(len(runs) - 1 - np.argmax(runs[::-1])) + hold_frames - 1
    trimmed = trial.coords[first : last + 1]
    if trimmed.shape[0] < SEQUENCE_LENGTH:
        raise TooShortError(
            f"trial {trial.name!r}: {trimmed.shape[0]} frames after trimming, need {SEQUENCE_LENGTH}"
        )
    return trial.with_coords(trimmed)


def centered_indices(n_frames: int, stride: int = CENTER_STRIDE) -> np.ndarray:
    """32 indices at the given stride, centered on the midpoint frame.

    When the strided span does not fit, the stride shrinks to the largest
    integer that does; the window is then clamped inside [0, n_frames).
    """
    if n_frames < SEQUENCE_LENGTH:
        raise TooShortError(f"{n_frames} frames, need {SEQUENCE_LENGTH}")
    span = (SEQUENCE_LENGTH - 1) * stride
    if span > n_frames - 1:
        stride = max(1, (n_frames - 1) // (SEQUENCE_LENGTH - 1))
        span = (SEQUENCE_LENGTH - 1) * stride
    center = n_frames // 2
    start = min(max(0, center - span // 2), n_frames - 1 - span)
    return start + stride * np.arange(SEQUENCE_LENGTH)


def uniform_indices(n_frames: int) -> np.ndarray:
    """32 indices spread across the whole trial; endpoints always included."""
    if n_frames < SEQUENCE_LENGTH:
        raise TooShortError(f"{n_frames} frames, need {SEQUENCE_LENGTH}")
    i = np.arange(SEQUENCE_LENGTH)
    # i*(n-1)/31 never lands on an exact half: 2*i*(n-1) is even, 31*(2k+1) odd
    return np.rint(i * (n_frames - 1) / (SEQUENCE_LENGTH - 1)).astype(int)


def resample_centered(trial: Trial, stride: int = CENTER_STRIDE) -> MotionSequence:
    idx = centered_indices(trial.n_frames, stride)
    return MotionSequence(trial.coords[idx], normalized=False, meta=trial.meta, name=trial.name)


def resample_uniform(trial: Trial) -> MotionSequence:
    idx = uniform_indices(trial.n_frames)
    return MotionSequence(trial.coords[idx], normalized=False, meta=trial.meta, name=trial.name)


def fit_normalizer(train: list[MotionSequence]) -> NormStats:
    """Per-feature mean/std over every frame of every training sequence."""
    if not train:
        raise StateError("cannot fit a normalizer on an empty training set")
    if any(seq.normalized for seq in train):
        raise StateError("normalizer must be fit on unnormalized sequences")
    stacked = np.concatenate([seq.data for seq in train], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)  # population std: every frame is data, not a sample
    bad = np.where(std <= 1e-12 * np.maximum(1.0, np.abs(mean)))[0]
    if bad.size:
        raise DegenerateFeatureError(int(bad[0]))
    return NormStats(mean, std)


def apply_zscore(seq: MotionSequence, stats: NormStats) -> MotionSequence:
    if seq.normalized:
        raise StateError(f"sequence {seq.name!r} is already normalized")
    return MotionSequence((seq.data - stats.mean) / stats.std, normalized=True, meta=seq.meta, name=seq.name)


def invert_zscore(seq: MotionSequence, stats: NormStats) -> MotionSequence:
    if not seq.normalized:
        raise StateError(f"sequence {seq.name!r} is not normalized")
    return MotionSequence(seq.data * stats.std + stats.mean, normalized=False, meta=seq.meta, name=seq.name)


_CLUSTER_COLS = {
    "cluster1": cluster_feature_columns(CLUSTER_UPPER),
    "cluster2": cluster_feature_columns(CLUSTER_CENTER),
    "cluster3": cluster_feature_columns(CLUSTER_LOWER),
}


def cluster_columns() -> dict[str, list[int]]:
    """Stable feature-column order for each cluster (documented interface)."""
    return {k: list(v) for k, v in _CLUSTER_COLS.items()}
