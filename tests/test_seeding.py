"""derive_rng: labelled streams equal SeedSequence fed the same entropy as Python ints;
derive_uniforms: the same streams' uniform draws, in bulk, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mocapsynth.seeding import derive_rng, derive_uniforms


def reference_rng(seed: int, *labels) -> np.random.Generator:
    """The entropy list as Python ints, each split into words by SeedSequence itself."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        if isinstance(label, int):
            entropy += [label & 0xFFFFFFFF, (label >> 32) & 0xFFFFFFFF]
        else:
            data = label.encode("utf-8")
            entropy += [len(data)] + [int.from_bytes(data[i : i + 4], "little") for i in range(0, len(data), 4)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1])
@pytest.mark.parametrize("labels", [(), ("augment",), ("augment", 3, 26), ("corpus-trial", 2**32 + 7), (0, "", 2**40)])
def test_derive_rng_matches_seed_sequence_of_python_ints(seed, labels):
    got = derive_rng(seed, *labels)
    want = reference_rng(seed, *labels)
    assert np.array_equal(got.integers(0, 2**63, size=8), want.integers(0, 2**63, size=8))
    assert np.array_equal(got.uniform(size=4), want.uniform(size=4))


def drawn_one_stream_at_a_time(seed, label, rows, cols, bounds) -> np.ndarray:
    out = np.empty((len(rows), len(cols), len(bounds)))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            rng = derive_rng(seed, label, i, j)
            out[a, b] = [rng.uniform(lo, hi) for lo, hi in bounds]
    return out


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
index = st.integers(0, 40) | st.integers(2**32 - 2, 2**32 + 2) | st.integers(0, 2**64 - 1)
ranges = st.tuples(finite, finite).map(sorted).map(tuple) | finite.map(lambda v: (v, v))


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1, -1])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    label=st.sampled_from(["augment", "", "corpus-trial"]) | st.integers(0, 2**40),
    rows=st.lists(index, min_size=1, max_size=4),
    cols=st.lists(index, min_size=1, max_size=4),
    bounds=st.lists(ranges, max_size=5),
)
@example(label="augment", rows=[2**32, 2**32 + 1, 2**64 - 1], cols=[0, 2**33 + 7],
         bounds=[(0.0, 60.0), (2.5, 2.5), (-0.2, 0.2), (-7.5, -3.0)])
def test_derive_uniforms_equals_derive_rng(seed, label, rows, cols, bounds):
    got = derive_uniforms(seed, label, rows, cols, bounds)
    want = drawn_one_stream_at_a_time(seed, label, rows, cols, bounds)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_derive_uniforms_equals_derive_rng_on_the_augment_grid():
    # augment --factor 27 of the 805-trial corpus: 20,930 streams and 83,720
    # draws, about one in 64 of them with a rotate count of 0
    bounds = [(0.0, 60.0), (0.85, 1.15), (-0.2, 0.2), (-0.2, 0.2)]
    got = derive_uniforms(5, "augment", range(805), range(1, 27), bounds)
    want = drawn_one_stream_at_a_time(5, "augment", range(805), range(1, 27), bounds)
    assert (got == want).all()


@pytest.mark.parametrize("lo, hi, error", [
    (0.2, -0.2, ValueError),
    (-3.0, -7.5, ValueError),
    (-1e308, 1e308, OverflowError),
    (0.0, float("inf"), OverflowError),
    (float("nan"), 1.0, OverflowError),
])
def test_derive_uniforms_rejects_a_range_as_uniform_does(lo, hi, error):
    with pytest.raises(error):
        derive_rng(0, "augment", 0, 1).uniform(lo, hi)
    with pytest.raises(error):
        derive_uniforms(0, "augment", [0], [1], [(0.0, 1.0), (lo, hi)])
