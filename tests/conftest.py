import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


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
