"""The counter-based draws of README's "Numerical conventions", in Python
integers, one word at a time: the reference the tests hold
``transition``'s array functions to. The file's name keeps pytest from
collecting it."""

import numpy as np

MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15
# the scenario stream (residual directions) and the sample stream
# (certificate samples): each name's ASCII bytes, little-endian
STREAMS = (int.from_bytes(b"scenario", "little"),
           int.from_bytes(b"sampling", "little"))


def mix64(x: int) -> int:
    """The SplitMix64 finalizer."""
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & MASK
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & MASK
    return x ^ x >> 31


def key(stream: int, seed: int) -> int:
    """mix64 folded over the seed's 64-bit limbs, low limb first, from the
    stream constant; seed 0 has one limb."""
    folded = stream
    for k in range(max(1, -(-seed.bit_length() // 64))):
        folded = mix64(folded ^ (seed >> 64 * k & MASK))
    return folded


def words(stream: int, seed: int, start: int, count: int) -> list:
    """Words ``start`` to ``start + count - 1`` of the seed's stream."""
    base = key(stream, seed)
    return [mix64((base + (k + 1) * GAMMA) & MASK)
            for k in range(start, start + count)]


def uniform(word: int) -> float:
    return (word >> 11) * 2.0 ** -53


def normal(w0: int, w1: int) -> complex:
    """Box-Muller on a pair of words. The transcendentals are numpy's, on
    scalars, as the arrays' are: libm's may differ in the last bit."""
    radius = np.sqrt(-2.0 * np.log(((w0 >> 11) + 1) * 2.0 ** -53))
    turn = 2.0 * np.pi * uniform(w1)
    return complex(radius * np.cos(turn), radius * np.sin(turn))
