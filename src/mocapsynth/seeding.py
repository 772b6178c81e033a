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


def _entropy(seed: int, labels) -> list[int]:
    # SeedSequence splits an int into 32-bit words, low first, one word
    # for an int below 2**32; handing it the words as one uint32 array
    # gives the same entropy at a quarter of the cost of a list of ints
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    entropy = [seed] if seed <= 0xFFFFFFFF else [seed & 0xFFFFFFFF, seed >> 32]
    for label in labels:
        entropy.extend(_label_entropy(label))
    return entropy


def derive_rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Generator for `seed` split by a stable sequence of labels."""
    return np.random.default_rng(np.random.SeedSequence(np.array(_entropy(seed, labels), dtype=np.uint32)))


# -- the same streams in bulk -----------------------------------------------
#
# numpy's own steps, on arrays with one element per stream. SeedSequence
# (numpy/random/bit_generator.pyx) hashes the entropy words into a pool of
# four uint32 words and expands the pool into PCG64's seed; PCG64
# (numpy/random/src/pcg64) is a 128-bit LCG, held here as (high, low)
# uint64 arrays, with the XSL-RR output. uint32 and uint64 array arithmetic
# wraps, as the C does.

_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix constants while mixing entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # and while generating state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HIGH, _PCG_MULT_LOW = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


class _HashMix:
    """SeedSequence's hashmix; its multiplier advances with every call."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _M32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_state(words: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(words).generate_state(4, np.uint64) for at least 4 words, as four uint64 arrays."""
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _HashMix(_INIT_B, _MULT_B)
    state = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return [state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(4)]


def _mul_wide(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The full 128-bit product of uint64 arrays, as (high, low)."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32), (p00 & m32) | (mid << s32)


def _add128(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _step(state: tuple, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, state * multiplier + inc modulo 2**128."""
    high, low = state
    mult_high, mult_low = np.uint64(_PCG_MULT_HIGH), np.uint64(_PCG_MULT_LOW)
    prod_high, prod_low = _mul_wide(low, mult_low)
    return _add128((prod_high + high * mult_low + low * mult_high, prod_low), inc)


def _next_double(state: tuple) -> np.ndarray:
    """The XSL-RR output of an already stepped state, as numpy's next_double."""
    high, low = state
    value = high ^ low
    rot = high >> np.uint64(58)
    value = (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))
    return (value >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _index_words(values) -> tuple[np.ndarray, np.ndarray]:
    """The two entropy words _label_entropy gives each int, as uint32 arrays."""
    wide = np.array([int(v) & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64)
    return (wide & np.uint64(_M32)).astype(np.uint32), (wide >> np.uint64(32)).astype(np.uint32)


def derive_uniforms(seed: int, label: str | int, rows, cols, bounds) -> np.ndarray:
    """Uniform draws from the stream of every (row, col) cell, in one array pass.

    out[a, b, k] is the k-th of the draws
    `rng = derive_rng(seed, label, rows[a], cols[b])`,
    `rng.uniform(*bounds[0])`, `rng.uniform(*bounds[1])`, ..., bit for bit:
    the streams are numpy's SeedSequence and PCG64 steps on uint32 and
    uint64 arrays, and each draw is lo + (hi - lo) * u as Generator.uniform
    forms it. A range uniform rejects raises the same error here. Returns
    shape (len(rows), len(cols), len(bounds)).
    """
    rows, cols, bounds = list(rows), list(cols), list(bounds)
    shape = (len(rows), len(cols))
    row_lo, row_hi = (w[:, None] for w in _index_words(rows))
    col_lo, col_hi = (w[None, :] for w in _index_words(cols))
    prefix = [np.full(shape, w, dtype=np.uint32) for w in _entropy(seed, (label,))]
    cells = [np.broadcast_to(w, shape) for w in (row_lo, row_hi, col_lo, col_hi)]
    s0, s1, s2, s3 = (w.ravel() for w in _seed_state(prefix + cells))
    # PCG64 seeding: state 0, inc = (s2:s3 << 1) | 1, step, add s0:s1, step
    inc = ((s2 << np.uint64(1)) | (s3 >> np.uint64(63)), (s3 << np.uint64(1)) | np.uint64(1))
    state = _step(_add128(inc, (s0, s1)), inc)
    out = np.empty((s0.size, len(bounds)))
    for k, (lo, hi) in enumerate(bounds):
        lo, span = float(lo), float(hi) - float(lo)
        if not np.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        state = _step(state, inc)
        out[:, k] = lo + span * _next_double(state)
    return out.reshape(shape + (len(bounds),))
