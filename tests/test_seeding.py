"""derive_rng: labelled streams equal SeedSequence fed the same entropy as Python ints."""

import numpy as np
import pytest

from mocapsynth.seeding import derive_rng


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
