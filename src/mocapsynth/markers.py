"""Fixed marker layout shared by every module.

A frame is 48 values: 16 markers x (x, y, z), world space, meters, Z up.
Body markers come first (indices 0-14), the bowl marker is last (15).
"""

from __future__ import annotations

MARKER_NAMES = (
    # 4 head markers: front-left, front-right, back-left, back-right
    "head_fl",
    "head_fr",
    "head_bl",
    "head_br",
    "shoulder_l",
    "shoulder_r",
    "c7",
    # 4 waist markers: front-left, front-right, back-left, back-right
    "waist_fl",
    "waist_fr",
    "waist_bl",
    "waist_br",
    "hand_l",
    "hand_r",
    "foot_l",
    "foot_r",
    "bowl",
)

N_MARKERS = len(MARKER_NAMES)
N_BODY_MARKERS = N_MARKERS - 1
N_FEATURES = 3 * N_MARKERS

HEAD = (0, 1, 2, 3)
SHOULDERS = (4, 5)
C7 = 6
WAIST = (7, 8, 9, 10)
HANDS = (11, 12)
FEET = (13, 14)
BOWL = 15

# Overlapping body clusters fed to the classifier's parallel branches.
# Shoulders and C7 repeat across clusters; the bowl belongs to none.
CLUSTER_UPPER = HEAD + SHOULDERS + (C7,)          # 7 markers, 21 features
CLUSTER_CENTER = SHOULDERS + (C7,) + HANDS        # 5 markers, 15 features
CLUSTER_LOWER = WAIST + (C7,) + FEET              # 7 markers, 21 features
CLUSTERS = (CLUSTER_UPPER, CLUSTER_CENTER, CLUSTER_LOWER)

# Column order in trial CSVs: marker0_x,marker0_y,marker0_z,...,bowl_z.
# Body markers are numbered by position in MARKER_NAMES; the bowl keeps
# its name so the last column is bowl_z.
CSV_COLUMNS = tuple(
    f"{'bowl' if i == BOWL else f'marker{i}'}_{axis}"
    for i in range(N_MARKERS)
    for axis in ("x", "y", "z")
)

# Same header with the C7 (marker6) triple absent; such files are skipped
# by the loader and counted, mirroring capture sessions that lost C7.
CSV_COLUMNS_NO_C7 = tuple(c for c in CSV_COLUMNS if not c.startswith("marker6_"))


def marker_columns(marker: int) -> tuple[int, int, int]:
    """Feature-column indices (x, y, z) of one marker."""
    return (3 * marker, 3 * marker + 1, 3 * marker + 2)


def cluster_feature_columns(cluster: tuple[int, ...]) -> list[int]:
    """Flat feature columns for a marker cluster, marker order preserved."""
    cols: list[int] = []
    for m in cluster:
        cols.extend(marker_columns(m))
    return cols

