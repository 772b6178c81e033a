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


class InvalidFactorError(MocapError):
    """Scale or multiplicity factor outside its valid range."""


class ShapeError(MocapError):
    """Tensor or layer shapes are incompatible."""


class ContractError(MocapError):
    """An operation was called in violation of its documented contract."""


class NumericalError(MocapError):
    """NaN or non-finite value encountered during computation."""


class DegenerateBatchError(MocapError):
    """Batch statistics requested on a batch of fewer than 2 samples."""


class SupportError(MocapError):
    """Divergence requested between distributions with incompatible support."""


class DataError(MocapError):
    """Training/evaluation data is empty or otherwise unusable."""


class LabelError(MocapError):
    """A sample carries a label outside the task's class set, or lacks one."""


class DegenerateBoneError(MocapError):
    """Cylinder endpoints coincide; the bone has no direction."""
