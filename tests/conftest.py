import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_report_header(config):
    from pins import blas_core

    from mocapsynth.nn import tensor

    threads = tensor._blas_threads()
    return f"OpenBLAS core: {blas_core()}, threads: {'unknown' if threads is None else threads}"


@pytest.fixture
def handoffs(monkeypatch):
    """Counts the hand-offs to the worker thread, by kind.

    "gradient" is a leaf's gradient term that a vjp defers, "sum" a
    deferred sum of a leaf's terms, "fork" a fork's first half, and
    "fork in backward" a fork's first half handed off while a backward
    pass runs on the calling thread. "backward_pass" is a failed pass
    waiting for its hand-offs to end.
    """
    from mocapsynth.nn import tensor

    counts = Counter()
    worker = tensor._worker

    def spied():
        frame = sys._getframe(1)
        kind = frame.f_code.co_name
        if kind == "_defer":
            kind = {"leaf_grad": "gradient", "backward_pass": "sum"}.get(frame.f_back.f_code.co_name, kind)
        elif kind == "fork":
            while frame is not None and frame.f_code.co_name != "backward_pass":
                frame = frame.f_back
            kind = "fork" if frame is None else "fork in backward"
        counts[kind] += 1
        return worker()

    monkeypatch.setattr(tensor, "_worker", spied)
    return counts


@pytest.fixture
def traced_peak():
    """A context manager that traces allocations in its block.

    What it yields has, after the block, `held` (bytes still traced at its
    end) and `peak` (the most traced at once). tracemalloc sees numpy's
    buffers, so a bound counts copies of the data and does not depend on
    the machine, where a process's RSS moves between levels by megabytes.
    """

    @contextmanager
    def traced():
        memory = SimpleNamespace(held=0, peak=0)
        tracemalloc.start()
        try:
            yield memory
        finally:
            memory.held, memory.peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

    return traced
