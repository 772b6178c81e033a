"""Trial records: typed metadata plus a frames-by-coordinates matrix.

One trial is stored on disk as a CSV of 48 columns (16 markers x x,y,z,
header row naming each column) and a JSON sidecar with the recording
metadata. Writing is canonical, so load followed by save is byte-stable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..container import TYPE_NAMES, JsonRecord, fits
from ..errors import TrialFormatError
from ..markers import CSV_COLUMNS, CSV_COLUMNS_NO_C7, N_MARKERS

BOWL_SIZES = ("small", "medium", "large", "largest")
WEIGHTS_G = (640, 1140, 1640)
WEIGHT_NAMES = {640: "heavy", 1140: "heavier", 1640: "heaviest"}
BALANCES = ("balanced", "unbalanced")
ORIENTATIONS = ("facing", "left", "right")
STRATEGIES = tuple("ABCDEFGHI")
FRAME_RATE_HZ = 119.88


@dataclass(frozen=True)
class TrialMeta(JsonRecord):
    participant: str
    bowl_size: str
    weight_g: int
    balance: str
    orientation: str
    strategy: str
    frame_rate: float = FRAME_RATE_HZ

    def __post_init__(self):
        checks = (
            ("bowl_size", self.bowl_size, BOWL_SIZES),
            ("weight_g", self.weight_g, WEIGHTS_G),
            ("balance", self.balance, BALANCES),
            ("orientation", self.orientation, ORIENTATIONS),
            ("strategy", self.strategy, STRATEGIES),
        )
        for field, value, allowed in checks:
            if value not in allowed:
                raise TrialFormatError(f"unknown value {value!r} for field {field!r}")
        if self.bowl_size == "largest" and self.weight_g == 640:
            raise TrialFormatError("largest bowl cannot carry the 640 g load")

    @property
    def weight_name(self) -> str:
        return WEIGHT_NAMES[self.weight_g]

    @classmethod
    def from_dict(cls, d) -> "TrialMeta":
        """Read a sidecar's JSON object: string labels, whole-number weight, finite positive frame rate.

        Unlike a JsonRecord's, unknown keys are ignored, frame_rate is required and a fault is a TrialFormatError.
        """
        if not isinstance(d, dict):
            raise TrialFormatError(f"metadata must be a JSON object, got {json.dumps(d)}")
        required = {"participant", "bowl_size", "weight_g", "balance", "orientation", "strategy", "frame_rate"}
        missing = required - set(d)
        if missing:
            raise TrialFormatError(f"metadata missing fields: {sorted(missing)}")
        kinds = {"weight_g": int, "frame_rate": float}  # the rest are string labels
        for key in sorted(required):
            kind = kinds.get(key, str)
            if not fits(d[key], kind):
                raise TrialFormatError(f"metadata field {key!r} must be {TYPE_NAMES[kind]}, got {json.dumps(d[key])}")
        if not (math.isfinite(d["frame_rate"]) and d["frame_rate"] > 0):
            raise TrialFormatError(f"metadata field 'frame_rate' must be finite and positive, got {d['frame_rate']!r}")
        return cls(**{k: d[k] for k in required})


@dataclass
class Trial:
    name: str
    coords: np.ndarray  # (frames, 48) world-space meters
    meta: TrialMeta

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != N_MARKERS * 3:
            raise TrialFormatError(f"trial {self.name!r}: expected (N, 48) coordinates, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise TrialFormatError(f"trial {self.name!r}: non-finite coordinate values")
        self.coords = arr

    @property
    def n_frames(self) -> int:
        return self.coords.shape[0]

    def points(self) -> np.ndarray:
        """(frames, 16, 3) view of the coordinate matrix."""
        return self.coords.reshape(self.n_frames, N_MARKERS, 3)

    def bowl_track(self) -> np.ndarray:
        """(frames, 3) bowl marker trajectory."""
        return self.coords[:, -3:]

    def with_coords(self, coords: np.ndarray) -> "Trial":
        return Trial(self.name, coords, self.meta)


@dataclass
class LoadResult:
    trials: list  # what load_trials' keep returned for each loaded trial
    skipped_missing_c7: int


def save_trial(directory: str | Path, trial: Trial) -> tuple[Path, Path]:
    """Write <name>.csv and <name>.json in canonical form (LF, 6 decimals)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{trial.name}.csv"
    json_path = directory / f"{trial.name}.json"
    write_sequence_csv(trial.coords, csv_path)
    json_path.write_bytes(
        (json.dumps(trial.meta.to_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8")
    )
    return csv_path, json_path


def write_sequence_csv(coords: np.ndarray, path: str | Path) -> Path:
    """Write bare coordinates in the trial column layout, no sidecar.

    Used for generated sequences, which carry no recording metadata.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != len(CSV_COLUMNS):
        raise TrialFormatError(f"expected (frames, {len(CSV_COLUMNS)}) coordinates, got {coords.shape}")
    return _write_csv_rows(CSV_COLUMNS, coords, path)


def _write_csv_rows(header: tuple[str, ...], rows: np.ndarray, path: str | Path) -> Path:
    """Write a header line, then each row at 6 decimals, with LF line endings.

    One %-format call renders the file; "%.6f" rounds exactly as f"{v:.6f}" does.
    """
    n, width = rows.shape
    line = ",".join(["%.6f"] * width) + "\n"
    body = (line * n) % tuple(rows.ravel().tolist())
    path = Path(path)
    path.write_bytes((",".join(header) + "\n" + body).encode("utf-8"))
    return path


def read_sequence_csv(path: str | Path) -> np.ndarray:
    """Read a bare coordinate CSV (trial column layout, no sidecar)."""
    return _parse_csv(Path(path))


class MissingC7(Exception):
    """Internal signal: trial lacks the C7 marker columns."""


# ASCII separators np.loadtxt strips as whitespace where float() refuses them
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def _parse_csv(path: Path) -> np.ndarray:
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TrialFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header == list(CSV_COLUMNS_NO_C7):
        raise MissingC7()
    if header != list(CSV_COLUMNS):
        raise TrialFormatError(f"{path}: unexpected header ({len(header)} columns)")
    body = lines[1:]
    if body and not any(c in text for c in _LOADTXT_ONLY_SPACE):
        # one parse for the whole file, with the same correctly rounded
        # conversion as float(); it skips blank lines (warning when no line
        # is left), hence the row count
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(body, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            rows = None
        if rows is not None and rows.shape == (len(body), len(CSV_COLUMNS)):
            return rows
    # line by line with float(): names the first bad line, and reads the few
    # forms only float() accepts (digit underscores, non-ASCII digits)
    rows = np.empty((len(body), len(CSV_COLUMNS)), dtype=np.float64)
    for i, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise TrialFormatError(f"{path}: line {i}: expected {len(CSV_COLUMNS)} columns, got {len(parts)}")
        try:
            rows[i - 2] = [float(p) for p in parts]
        except ValueError as exc:
            raise TrialFormatError(f"{path}: line {i}: {exc}") from None
    return rows


def load_trial(csv_path: str | Path) -> Trial:
    csv_path = Path(csv_path)
    json_path = csv_path.with_suffix(".json")
    if not json_path.exists():
        raise TrialFormatError(f"{csv_path}: missing metadata sidecar {json_path.name}")
    coords = _parse_csv(csv_path)
    try:
        meta = TrialMeta.from_dict(json.loads(json_path.read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise TrialFormatError(f"{json_path}: invalid JSON: {exc}") from None
    return Trial(csv_path.stem, coords, meta)


def load_trials(directory: str | Path, keep: Callable[[Trial], object] = lambda trial: trial) -> LoadResult:
    """Load each trial CSV under `directory` and pass it to `keep` at once; C7-less trials are skipped and counted."""
    kept, skipped = [], 0
    for csv_path in sorted(Path(directory).glob("*.csv")):
        try:
            kept.append(keep(load_trial(csv_path)))
        except MissingC7:  # raised by the parse only, never by keep
            skipped += 1
    return LoadResult(kept, skipped)
