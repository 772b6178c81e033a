"""The OpenBLAS core a test run multiplies on, for the messages of the byte pins.

The pinned digests and goldens were taken on OpenBLAS's SkylakeX core. Other
cores (Haswell, for one) round matmul and dot differently, so a pin that
fails says which core ran.
"""

import ctypes

from mocapsynth.nn import tensor

PINNED_CORE = "SkylakeX"
# OpenBLAS's core-name getter as scipy-openblas, the older numpy wheels and plain builds name it
_CORE_NAME_GETTERS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


def blas_core() -> str:
    """The loaded OpenBLAS's core name, or "not OpenBLAS" when no OpenBLAS can be asked."""
    getter = tensor._openblas_getter(_CORE_NAME_GETTERS, ctypes.c_char_p)
    return "not OpenBLAS" if getter is None else getter().decode().strip()


def pinned_on() -> str:
    """The message of a byte pin's assertion."""
    return f"the pins were taken on OpenBLAS {PINNED_CORE}; this run's core is {blas_core()}"
