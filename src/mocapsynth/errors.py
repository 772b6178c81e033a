"""Exception taxonomy shared by all subpackages."""

from .markers import MARKER_NAMES


class MocapError(Exception):
    """Base class for all package errors."""


class TrialFormatError(MocapError):
    """A trial file (CSV or metadata JSON) does not match the documented format."""


class NoMotionError(MocapError):
    """Bowl speed never exceeds the motion threshold for the required hold."""


class TooShortError(MocapError):
    """Trial has fewer frames than a resampler needs."""


class DegenerateFeatureError(MocapError):
    """A feature has zero variance across the training set."""

    def __init__(self, feature_index: int):
        self.feature_index = feature_index
        name = f"{MARKER_NAMES[feature_index // 3]}_{'xyz'[feature_index % 3]}"
        super().__init__(f"feature {feature_index} ({name}) has zero variance")


class StateError(MocapError):
    """Operation applied to a sequence in the wrong normalization state."""


class ShapeError(MocapError):
    """Tensor or layer shapes are incompatible."""


class ContractError(MocapError):
    """An operation was called in violation of its documented contract."""


class SettingError(ContractError):
    """A setting's value lies outside what the code that consumes it accepts.

    `names` are the refused settings, as that code calls them. The command
    line reports a refused flag or config value as a usage error; a loader
    that read the value from a file wraps it as a format error.
    """

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.names = names


class NumericalError(MocapError):
    """NaN or non-finite value encountered during computation."""


class DegenerateBatchError(MocapError):
    """Batch statistics requested on a batch of fewer than 2 samples."""


class DataError(MocapError):
    """Training/evaluation data is empty or otherwise unusable."""


class LabelError(MocapError):
    """A sample carries a label outside the task's class set, or lacks one."""


class DegenerateBoneError(MocapError):
    """Cylinder endpoints coincide; the bone has no direction."""
