import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamcast import rng


def test_uniforms_deterministic_and_chunkable():
    a = rng.uniforms(42, 7, 0, 100)
    b = rng.uniforms(42, 7, 0, 100)
    assert np.array_equal(a, b)
    # absolute-counter indexing: any sub-range matches the full stream
    tail = rng.uniforms(42, 7, 60, 40)
    assert np.array_equal(a[60:], tail)


def test_uniform_range_and_spread():
    u = rng.uniforms(1, 2, 0, 100_000)
    assert (u >= 0).all() and (u < 1).all()
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.quantile(u, 0.25) - 0.25) < 0.01


def test_streams_are_independent():
    a = rng.uniforms(5, 1, 0, 1000)
    b = rng.uniforms(5, 2, 0, 1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1
    assert not np.array_equal(a, b)


def test_integers_bounds():
    x = rng.integers(3, 4, 0, 10_000, 7)
    assert x.min() >= 0 and x.max() <= 6
    assert set(np.unique(x)) == set(range(7))


def test_normals_moments():
    z = rng.normals(9, 1, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.isfinite(z).all()


@pytest.mark.parametrize(
    "start, count, digest",
    [
        (0, 1, "85309f09c8f9ee4045f2f40694e276ef074e29b8f3c5c36f13782a79c8941715"),
        (0, 1000, "98d26f2f0f3a30d5e0450b413ec2a3756151a2db69cb27761500d27ee62dd20b"),
        (123457, 4097, "e45ec1a9a7020318b6e9eb1c9872989511a3e3055e8ca533f178c0284521456e"),
        (2**40, 33, "c9c0dde5c63050cbe6067e448215aaad89f4025914be7414e52767d670f0a345"),
    ],
)
def test_normals_bytes_are_pinned(start, count, digest):
    assert hashlib.sha256(rng.normals(77, 5, start, count).tobytes()).hexdigest() == digest


def test_permutation_is_permutation():
    p = rng.permutation(11, 0, 500)
    assert np.array_equal(np.sort(p), np.arange(500))
    assert not np.array_equal(p, np.arange(500))


def test_derive_seed_spreads():
    seeds = {rng.derive_seed(1, tag) for tag in range(100)}
    assert len(seeds) == 100


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=1000))
def test_uniforms_always_in_unit_interval(seed, start):
    u = rng.uniforms(seed, 3, start, 50)
    assert (u >= 0).all() and (u < 1).all()
