"""Trim, resample and normalize trials into fixed-length sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, DataError, DegenerateFeatureError, NoMotionError, SettingError, ShapeError, StateError, TooShortError, feature_name
from ..markers import N_FEATURES
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


@dataclass(eq=False)
class SequenceSet:
    """N sequences as one C-ordered float64 (N, 32, 48) block, with a name and label per row.

    len() counts the rows; indexing or iterating gives MotionSequence
    views of them, so nothing is copied.
    """

    data: np.ndarray  # (N, 32, 48)
    names: list[str]
    labels: list[TrialMeta | None]
    normalized: bool = False

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[1:] != (SEQUENCE_LENGTH, N_FEATURES):
            raise ShapeError(f"a sequence set is (N, {SEQUENCE_LENGTH}, {N_FEATURES}), got {self.data.shape}")
        if not len(self.names) == len(self.labels) == len(self.data):
            raise ContractError(f"{len(self.data)} sequences, {len(self.names)} names and {len(self.labels)} labels")

    @classmethod
    def of(cls, sequences) -> "SequenceSet":
        """A set as it is; any other iterable of MotionSequence stacked into a new one."""
        if isinstance(sequences, cls):
            return sequences
        seqs = list(sequences)
        flags = {seq.normalized for seq in seqs}
        if len(flags) > 1:
            raise ContractError("a sequence set mixes normalized and unnormalized sequences")
        data = np.stack([seq.data for seq in seqs]) if seqs else np.empty((0, SEQUENCE_LENGTH, N_FEATURES))
        return cls(data, [seq.name for seq in seqs], [seq.meta for seq in seqs], flags == {True})

    def __len__(self) -> int:
        return len(self.data)

    def frame_chunks(self, frames: int):
        """Every row's frames in order, as views of up to `frames` (k, 48) frames each."""
        flat = self.data.reshape(-1, N_FEATURES)
        return (flat[lo : lo + frames] for lo in range(0, len(flat), frames))

    def __getitem__(self, i: int) -> MotionSequence:
        # iteration goes through here too, and stops at the IndexError past the last row
        return MotionSequence(self.data[i], self.normalized, self.labels[i], self.names[i])


@dataclass
class NormStats:
    mean: np.ndarray  # (48,)
    std: np.ndarray  # (48,)

    def __post_init__(self):
        if np.shape(self.mean) != (N_FEATURES,) or np.shape(self.std) != (N_FEATURES,):
            raise ContractError(f"norm stats are two ({N_FEATURES},) arrays, got {np.shape(self.mean)}, {np.shape(self.std)}")
        bad = ~(np.isfinite(self.mean) & np.isfinite(self.std) & (self.std > 0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ContractError(f"norm stats of {feature_name(i)}: mean {self.mean[i]}, std {self.std[i]};"
                                " the mean must be finite and the std finite and above 0")

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"norm_mean": self.mean, "norm_std": self.std}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "NormStats":
        if not {"norm_mean", "norm_std"} <= arrays.keys():
            raise ContractError(f"norm stats need norm_mean and norm_std arrays, got {sorted(arrays)}")
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
    check_trim(speed_threshold, hold_frames)
    speeds = bowl_speeds(trial)
    fast = speeds >= speed_threshold
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


def check_trim(speed_threshold: float, hold_frames: int) -> None:
    if not 0 < speed_threshold < np.inf:
        raise SettingError(f"speed_threshold must be finite and positive, got {speed_threshold}", "speed_threshold")
    if hold_frames < 1:
        raise SettingError(f"hold_frames must be at least 1, got {hold_frames}", "hold_frames")


def check_stride(stride: int) -> None:
    if stride < 1:
        raise SettingError(f"stride must be at least 1, got {stride}", "stride")


def centered_indices(n_frames: int, stride: int = CENTER_STRIDE) -> np.ndarray:
    """32 indices at the given stride, centered on the midpoint frame.

    When the strided span does not fit, the stride shrinks to the largest
    integer that does; the window is then clamped inside [0, n_frames).
    """
    check_stride(stride)
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


# fit_normalizer reduces the frames this many at a time (1.5 MB)
NORMALIZE_CHUNK_FRAMES = 4096


def _column_sum(chunks) -> np.ndarray:
    """np.add.reduce(axis=0) of the (k, 48) chunks stacked, bit for bit.

    NumPy reduces axis 0 of a C-ordered block one row after another from
    the first, so carrying the running sum as the first row of each
    chunk's reduce adds the same numbers in the same order.
    """
    acc = np.empty((0, N_FEATURES))
    for chunk in chunks:
        acc = np.add.reduce(np.concatenate([acc, chunk]), axis=0)[None]
    return acc[0]


def fit_normalizer(train) -> NormStats:
    """Per-feature mean/std over every frame of every training sequence.

    train is a SequenceSet, a list of MotionSequence, or an ArchiveRows,
    whose frames are read from its file. The results are frames.mean(axis=0)
    and frames.std(axis=0) of the (N*32, 48) frames, bit for bit, but the
    frames are walked twice, a chunk at a time, and never held whole; a
    feature without a finite mean is refused after the first walk.
    """
    if not hasattr(train, "frame_chunks"):
        train = SequenceSet.of(train)
    if not len(train):
        raise StateError("cannot fit a normalizer on an empty training set")
    if train.normalized:
        raise StateError("normalizer must be fit on unnormalized sequences")
    n_frames = len(train) * SEQUENCE_LENGTH
    mean = _column_sum(train.frame_chunks(NORMALIZE_CHUNK_FRAMES)) / n_frames
    bad = np.flatnonzero(~np.isfinite(mean))
    if bad.size:
        raise DataError(f"{feature_name(int(bad[0]))} has no finite mean over the training frames")
    squares = _column_sum(np.square(c - mean) for c in train.frame_chunks(NORMALIZE_CHUNK_FRAMES))
    std = np.sqrt(squares / n_frames)  # population std: every frame is data, not a sample
    bad = np.where(std <= 1e-12 * np.maximum(1.0, np.abs(mean)))[0]
    if bad.size:
        raise DegenerateFeatureError(int(bad[0]))
    return NormStats(mean, std)


def writable_block(out, rows: int) -> np.ndarray:
    """The first `rows` rows of `out`, a block that a result may be written into.

    `out` must be a writable, C-ordered float64 (>= rows, 32, 48) array,
    else ContractError; a prefix of it reshapes to a view, so what is
    written there lands in `out`.
    """
    shape = (SEQUENCE_LENGTH, N_FEATURES)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.c_contiguous
            and out.flags.writeable and out.shape[1:] == shape and len(out) >= rows):
        raise ContractError(f"out must be a writable, C-ordered float64 block of at least {rows} rows of {shape}")
    return out[:rows]


def apply_zscore(sequences, stats: NormStats, out: np.ndarray | None = None) -> SequenceSet:
    """The z-scored set (of a SequenceSet or a list): (x - mean) / std.

    The result fills one new block, or the first rows of `out` (see
    writable_block), which may be the input's own block: a caller that
    owns its block z-scores it in place, with the same bits.
    """
    sequences = SequenceSet.of(sequences)
    if sequences.normalized:
        raise StateError("the sequence set is already normalized")
    out = np.subtract(sequences.data, stats.mean, out=None if out is None else writable_block(out, len(sequences)))
    out /= stats.std
    return SequenceSet(out, sequences.names, sequences.labels, normalized=True)


def invert_zscore(sequences: SequenceSet, stats: NormStats) -> SequenceSet:
    if not sequences.normalized:
        raise StateError("the sequence set is not normalized")
    out = np.multiply(sequences.data, stats.std)
    out += stats.mean
    return SequenceSet(out, sequences.names, sequences.labels, normalized=False)
