"""Counter-based deterministic pseudo-random streams.

All randomness in the pipeline flows through this module so that every
artifact is reproducible from a single 64-bit seed, independent of numpy
version, thread scheduling, or chunking. The generator is deliberately a
fixed, fully documented algorithm (splitmix64 finalizer over a counter),
so a reimplementation in any language can reproduce the exact streams:

    mix64(x):
        x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9   (mod 2^64)
        x ^= x >> 27;  x *= 0x94D049BB133111EB   (mod 2^64)
        return x ^ (x >> 31)

    stream key   K(seed, tag) = mix64(mix64(seed) ^ (tag * GOLDEN + 1))
    draw i       U64(i)       = mix64(K + (i + 1) * GOLDEN)
    uniform      u_i          = (U64(i) >> 11) * 2^-53          in [0, 1)
    normal       z_i          = sqrt(-2 ln(1 - u_{2i})) * cos(2 pi u_{2i+1})

with GOLDEN = 0x9E3779B97F4A7C15 and all integer arithmetic mod 2^64.
Streams are indexed by an absolute counter, so any sub-range of a stream
can be generated without generating its prefix.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(GOLDEN)
_MASK = 0xFFFFFFFFFFFFFFFF


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied elementwise to a uint64 array."""
    x = np.asarray(x, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def stream_key(seed: int, tag: int) -> int:
    """Derive the 64-bit key of stream `tag` under `seed`."""
    s = mix64(np.array([seed & _MASK], dtype=np.uint64))
    k = mix64(s ^ np.uint64((tag * GOLDEN + 1) & _MASK))
    return int(k[0])


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed, producing an independent sub-seed."""
    s = seed & _MASK
    for t in tags:
        s = stream_key(s, t)
    return s


def uniforms(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    """`count` float64 uniforms in [0, 1) at absolute positions start..start+count."""
    key = np.uint64(stream_key(seed, tag))
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    bits = mix64(key + idx * _GOLDEN)
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def integers(seed: int, tag: int, start: int, count: int, bound: int) -> np.ndarray:
    """Uniform int64 draws in [0, bound) defined as floor(u * bound)."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    u = uniforms(seed, tag, start, count)
    return np.minimum((u * bound).astype(np.int64), bound - 1)


def normals(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    """Standard normals via Box-Muller; draw i consumes uniforms 2i and 2i+1."""
    u = uniforms(seed, tag, 2 * start, 2 * count)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    return r * np.cos(2.0 * np.pi * u[1::2])


def permutation(seed: int, tag: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): stable argsort of uniform keys."""
    keys = uniforms(seed, tag, 0, n)
    return np.argsort(keys, kind="stable")
