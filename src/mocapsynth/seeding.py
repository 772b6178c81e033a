"""Deterministic RNG derivation.

All randomness in a run flows from one integer seed; submodules get their
own generators by labeled splitting so adding a consumer never perturbs
the streams of the others.
"""

from __future__ import annotations

import numpy as np


def _label_entropy(label: str | int) -> list[int]:
    if isinstance(label, int):
        return [label & 0xFFFFFFFF, (label >> 32) & 0xFFFFFFFF]
    data = label.encode("utf-8")
    # fold the bytes into 32-bit words, length-prefixed to avoid collisions
    words = [len(data)]
    for i in range(0, len(data), 4):
        words.append(int.from_bytes(data[i : i + 4], "little"))
    return words


def derive_rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Generator for `seed` split by a stable sequence of labels."""
    # SeedSequence splits an int into 32-bit words, low first, one word
    # for an int below 2**32; handing it the words as one uint32 array
    # gives the same entropy at a quarter of the cost of a list of ints
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    entropy = [seed] if seed <= 0xFFFFFFFF else [seed & 0xFFFFFFFF, seed >> 32]
    for label in labels:
        entropy.extend(_label_entropy(label))
    return np.random.default_rng(np.random.SeedSequence(np.array(entropy, dtype=np.uint32)))
