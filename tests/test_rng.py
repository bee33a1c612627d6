import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_cd import rng as rng_mod
from manifold_cd.rng import SplitMix64

_MASK = (1 << 64) - 1


def test_known_sequence_is_stable():
    # frozen outputs of the published algorithm for seed 0
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_streams_reproducible():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]
    assert a.normal() == b.normal()


def test_uniform_range():
    rng = SplitMix64(5)
    us = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert abs(np.mean(us) - 0.5) < 0.03


def test_below_bounds_and_determinism():
    rng = SplitMix64(6)
    xs = [rng.below(7) for _ in range(2000)]
    assert set(xs) == set(range(7))
    fresh = SplitMix64(6)
    assert [fresh.below(7) for _ in range(5)] == xs[:5]
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.below(2**64 + 1)
    assert SplitMix64(6).below(2**64) == SplitMix64(6).next_u64()


def test_gaussian_matrix_properties():
    g = SplitMix64(7).gaussian(40, 30)
    assert g.shape == (40, 30)
    assert np.isfinite(g).all()
    assert abs(g.mean()) < 0.05
    assert abs(g.std() - 1.0) < 0.05
    assert np.array_equal(g, SplitMix64(7).gaussian(40, 30))


def test_permutation_is_permutation():
    rng = SplitMix64(8)
    for n in (1, 2, 7, 30):
        perm = rng.permutation(n)
        assert sorted(perm.tolist()) == list(range(n))


class ScalarSplitMix64:
    """The scalar generator, one draw at a time: the reference stream that
    SplitMix64's block draws must reproduce bit for bit."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._cached_normal = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def below_vector(self, n: int, k: int) -> np.ndarray:
        return np.array([self.below(n) for _ in range(k)], dtype=np.int64)

    def normal(self) -> float:
        if self._cached_normal is not None:
            z, self._cached_normal = self._cached_normal, None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        self._cached_normal = r * math.sin(a)
        return r * math.cos(a)

    def gaussian(self, rows: int, cols: int) -> np.ndarray:
        out = np.empty((rows, cols), dtype=np.float64)
        flat = out.reshape(-1)
        for k in range(flat.size):
            flat[k] = self.normal()
        return out

    def uniform_vector(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        for k in range(n):
            out[k] = self.uniform()
        return out

    def permutation(self, n: int) -> np.ndarray:
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def _bits(v):
    """A value as bytes, so that equal means bitwise equal (floats included)."""
    if isinstance(v, np.ndarray):
        return (v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, float):
        return ("float", v.hex())
    return (type(v).__name__, v)


def _same_stream(block, scalar):
    assert block._state == scalar._state
    assert _bits(block._cached_normal) == _bits(scalar._cached_normal)


_CALLS = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("uniform")),
    st.tuples(st.just("below"), st.integers(1, 2**64 - 1)),
    st.tuples(st.just("below_vector"), st.integers(1, 2**63), st.integers(0, 21)),
    st.tuples(st.just("normal")),
    st.tuples(st.just("gaussian"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("uniform_vector"), st.integers(0, 21)),
    st.tuples(st.just("permutation"), st.integers(0, 40)),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(_CALLS, max_size=12),
       block=st.sampled_from([2, 4, 6, 8192]))
def test_block_draws_match_scalar_stream(seed, calls, block):
    # every public method, interleaved (odd gaussians then normal,
    # permutation then below, ...), with small blocks to cross their edges
    fast, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    with mock.patch.object(rng_mod, "_BLOCK", block):
        for name, *args in calls:
            assert _bits(getattr(fast, name)(*args)) == _bits(getattr(ref, name)(*args))
            _same_stream(fast, ref)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1600, 8193])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_permutation_matches_scalar(seed, n):
    fast, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    assert _bits(fast.permutation(n)) == _bits(ref.permutation(n))
    _same_stream(fast, ref)


@pytest.mark.parametrize("shape", [(0, 5), (1, 1), (3, 3), (1, 8192), (1, 8193), (3, 2731)])
def test_gaussian_matches_scalar_across_chunks(shape):
    fast, ref = SplitMix64(11), ScalarSplitMix64(11)
    for _ in range(2):  # the second call starts from the first's spare, if odd
        assert _bits(fast.gaussian(*shape)) == _bits(ref.gaussian(*shape))
        _same_stream(fast, ref)
    assert _bits(fast.normal()) == _bits(ref.normal())


def test_below_block_rejection_falls_back_to_scalar():
    # below(b) rejects u >= (2**64 // b) * b.  With b just above 2**63 the
    # limit is b itself, so about half of all draws are rejected, at every
    # position of the block (first, middle, last).
    b = 2**63 + 1
    limit = (2**64 // b) * b
    positions = set()
    for seed in range(200):
        fast, ref = SplitMix64(seed), ScalarSplitMix64(seed)
        probe = ScalarSplitMix64(seed)
        draws = [probe.next_u64() for _ in range(5)]
        if any(u >= limit for u in draws):
            positions.add(next(t for t, u in enumerate(draws) if u >= limit))
        got = fast._below_block(np.full(5, b, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.tolist() == [ref.below(b) for _ in range(5)]
        _same_stream(fast, ref)
        assert fast.next_u64() == ref.next_u64()
    assert {0, 2, 4} <= positions


@pytest.mark.parametrize("k", [0, 1, 8192, 8193, 20000])
@pytest.mark.parametrize("n", [1, 7, 2**62 + 1, 2**63])
def test_below_vector_matches_scalar(n, k):
    # below(2**62 + 1) keeps u < 3 * 2**62 + 3 and rejects a quarter of all
    # draws, so each block of more than a few draws takes the scalar fallback
    fast, ref = SplitMix64(13), ScalarSplitMix64(13)
    for _ in range(2):
        assert _bits(fast.below_vector(n, k)) == _bits(ref.below_vector(n, k))
        _same_stream(fast, ref)


def test_below_vector_rejects_a_bound_it_cannot_hold():
    rng = SplitMix64(0)
    for n in (0, 2**63 + 1):
        with pytest.raises(ValueError):
            rng.below_vector(n, 3)
    assert rng.below_vector(0, 0).size == 0 and rng._state == 0


def test_permutation_rejects_negative_size():
    with pytest.raises(ValueError):
        SplitMix64(0).permutation(-1)


def test_frozen_block_outputs():
    # recorded from the scalar generator before block draws existed
    rng = SplitMix64(0)
    perm = rng.permutation(1600)
    assert perm.dtype == np.int64
    assert hashlib.sha256(perm.tobytes()).hexdigest() == (
        "c1b35a8021fa78575d492c4a3f210cd58b9602f31aba853a83c3005c24771107")
    assert rng._state == 0x3C814DA2123D072B
    rng = SplitMix64(0)
    g = rng.gaussian(3, 3)
    assert [v.hex() for v in g.ravel().tolist()] == [
        "-0x1.cf9fb99cfab8fp-2", "0x1.a9813db388d76p-3", "0x1.53470d1ebc1f2p+1",
        "-0x1.f63166b13249ep-2", "-0x1.fa2a51dfe785cp-1", "0x1.df42093b5207bp+0",
        "0x1.0285969ebe6b6p-2", "-0x1.da7a04fa551b9p+0", "0x1.99992ecac5d51p+0",
    ]
    assert rng._cached_normal.hex() == "-0x1.fd5434397e744p-2"
    assert rng._state == 0x2E2AC13EF8E8D8D2
