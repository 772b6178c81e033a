"""Synthetic fixture data: a label-faithful trial corpus.

The real capture corpus is private. These generators produce stand-ins
whose label frequencies match the published counts exactly, so every
piece of dataset arithmetic can be exercised end to end.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..markers import BOWL, CSV_COLUMNS_NO_C7, N_MARKERS
from ..seeding import derive_rng
from .trials import BALANCES, BOWL_SIZES, FRAME_RATE_HZ, ORIENTATIONS, WEIGHTS_G, Trial, TrialMeta, _write_csv_rows, save_trial

# Strategy frequencies of the full usable corpus (805 trials).
CORPUS_STRATEGY_COUNTS = {
    "A": 40, "B": 227, "C": 94, "D": 44, "E": 31, "F": 34, "G": 318, "H": 13, "I": 4,
}
# Load-weight frequencies; the lightest class is the rarest, so the
# two-class weight task balances down to 2 x 218 = 436 trials.
CORPUS_WEIGHT_COUNTS = {640: 218, 1140: 287, 1640: 300}
N_PARTICIPANTS = 13
MISSING_C7_FILES = 53

# resting marker offsets from the body origin (floor under the pelvis)
_BODY_OFFSETS = np.array(
    [
        [0.07, 0.07, 1.70],    # head_fl
        [0.07, -0.07, 1.70],   # head_fr
        [-0.07, 0.07, 1.72],   # head_bl
        [-0.07, -0.07, 1.72],  # head_br
        [0.0, 0.20, 1.45],     # shoulder_l
        [0.0, -0.20, 1.45],    # shoulder_r
        [-0.06, 0.0, 1.50],    # c7
        [0.10, 0.12, 1.00],    # waist_fl
        [0.10, -0.12, 1.00],   # waist_fr
        [-0.10, 0.12, 1.02],   # waist_bl
        [-0.10, -0.12, 1.02],  # waist_br
        [0.30, 0.18, 1.05],    # hand_l
        [0.30, -0.18, 1.05],   # hand_r
        [0.05, 0.12, 0.05],    # foot_l
        [0.05, -0.12, 0.05],   # foot_r
        [0.38, 0.0, 1.10],     # bowl (carried in front)
    ]
)


def _smoothstep(u: np.ndarray) -> np.ndarray:
    return u * u * (3.0 - 2.0 * u)


def make_trial(
    name: str,
    meta: TrialMeta,
    rng: np.random.Generator,
    lead_in: int = 20,
    carry: int = 100,
    lead_out: int = 20,
) -> Trial:
    """One synthetic transport: still, carry along a straight path, still."""
    total = lead_in + carry + lead_out
    start = rng.uniform(-1.0, 1.0, size=2)
    heading = rng.uniform(0, 2 * math.pi)
    distance = rng.uniform(1.5, 2.5)
    end = start + distance * np.array([math.cos(heading), math.sin(heading)])

    u = np.zeros(total)
    u[lead_in : lead_in + carry] = _smoothstep(np.linspace(0.0, 1.0, carry))
    u[lead_in + carry :] = 1.0
    origin = start[None, :] + u[:, None] * (end - start)[None, :]  # (total, 2)

    c, s = math.cos(heading), math.sin(heading)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    offsets = _BODY_OFFSETS @ rot.T  # body faces the walking direction

    points = np.zeros((total, N_MARKERS, 3))
    points[:, :, 0] = origin[:, 0:1] + offsets[None, :, 0]
    points[:, :, 1] = origin[:, 1:2] + offsets[None, :, 1]
    points[:, :, 2] = offsets[None, :, 2]
    # gentle vertical bob on body markers during the carry; the bowl keeps
    # a clean track so motion detection sees crisp rest segments
    bob = 0.01 * np.sin(np.linspace(0, 6 * math.pi, total))
    points[:, :BOWL, 2] += (u * (1 - u) * 4)[:, None] * bob[:, None]
    return Trial(name, points.reshape(total, N_MARKERS * 3), meta)


def _corpus_metas(seed: int) -> list[TrialMeta]:
    rng = derive_rng(seed, "corpus-labels")
    strategies = [s for s, n in sorted(CORPUS_STRATEGY_COUNTS.items()) for _ in range(n)]
    weights = [w for w, n in sorted(CORPUS_WEIGHT_COUNTS.items()) for _ in range(n)]
    rng.shuffle(strategies)
    rng.shuffle(weights)
    metas = []
    for i, (strat, weight) in enumerate(zip(strategies, weights)):
        # the largest bowl never carries the lightest load
        sizes = BOWL_SIZES[:-1] if weight == WEIGHTS_G[0] else BOWL_SIZES
        metas.append(
            TrialMeta(
                participant=f"p{(i % N_PARTICIPANTS) + 1:02d}",
                bowl_size=sizes[rng.integers(len(sizes))],
                weight_g=weight,
                balance=BALANCES[rng.integers(len(BALANCES))],
                orientation=ORIENTATIONS[rng.integers(len(ORIENTATIONS))],
                strategy=strat,
                frame_rate=FRAME_RATE_HZ,
            )
        )
    return metas


def make_corpus(seed: int = 0, carry: int = 100) -> list[Trial]:
    """The full 805-trial synthetic corpus with exact label frequencies."""
    metas = _corpus_metas(seed)
    trials = []
    for i, meta in enumerate(metas):
        rng = derive_rng(seed, "corpus-trial", i)
        trials.append(make_trial(f"trial{i:04d}", meta, rng, carry=carry))
    return trials


def write_corpus(directory: str | Path, seed: int = 0, carry: int = 36) -> Path:
    """Write the corpus plus the C7-less rejects: 858 files, 805 loadable."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    trials = make_corpus(seed, carry=carry)
    for trial in trials:
        save_trial(directory, trial)
    rng = derive_rng(seed, "corpus-no-c7")
    keep = [i for i in range(N_MARKERS) if i != 6]
    for j in range(MISSING_C7_FILES):
        meta = TrialMeta(
            participant=f"p{(j % N_PARTICIPANTS) + 1:02d}",
            bowl_size="medium",
            weight_g=1140,
            balance="balanced",
            orientation="facing",
            strategy="B",
            frame_rate=119.88,
        )
        trial = make_trial(f"zrej{j:04d}", meta, rng, lead_in=2, carry=30, lead_out=2)
        rows = trial.points()[:, keep, :].reshape(trial.n_frames, -1)
        _write_csv_rows(CSV_COLUMNS_NO_C7, rows, directory / f"zrej{j:04d}.csv")
        (directory / f"zrej{j:04d}.json").write_text("{}")
    return directory
