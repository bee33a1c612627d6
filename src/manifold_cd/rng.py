"""Deterministic random generator used by every component of the package.

All randomness (data generation, index selection, shuffles) flows through
SplitMix64, a counter-based 64-bit generator with fixed published constants,
so that identical seeds reproduce identical runs bit for bit, independent of
platform, numpy version, or thread count.

Algorithm: state advances by the golden-gamma increment 0x9E3779B97F4A7C15;
the output is a two-round xor-multiply finalizer of the new state
(multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  Uniform doubles
take the top 53 bits; integers in a range use threshold rejection (no modulo
bias); normals use Box-Muller.

Block draws.  The k-th draw is a fixed function of state + k*gamma (Steele,
Lea & Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014),
so ``_block(k)`` computes the next k outputs as one numpy uint64 expression
whose wrapping multiplies are exact.  Every method that returns an array
draws through it and yields the same stream, bit for bit, as the scalar
methods: the same values, the same final state and the same cached normal.
Box-Muller keeps ``math.log``, ``math.cos`` and ``math.sin`` (numpy's
``log`` rounds differently); the square root and the multiplies are
IEEE-exact either way.  ``below_vector`` and ``permutation`` test the whole
block against ``below``'s rejection threshold; at a draw that ``below``
would reject (chance about b/2**64) they rewind the state to that draw and
finish the block on the scalar ``below``.

The uint64 trap: every block operand is a numpy uint64 array or an
``np.uint64`` constant.  Under numpy 1.x an ``np.uint64`` scalar mixed with a
Python int promotes to float64, and scalar uint64 arithmetic warns on
overflow, while array arithmetic wraps silently as SplitMix64 needs.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U_MAX = np.uint64(_MASK)
_U_ONE = np.uint64(1)
_U_11, _U_27, _U_30, _U_31 = (np.uint64(s) for s in (11, 27, 30, 31))
_TWO_PI = 2.0 * math.pi
_BLOCK = 8192  # draws per numpy block (even): caps each transient array at 64 KiB


class SplitMix64:
    """Counter-based 64-bit generator with a published, fixed algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._cached_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def _block(self, k: int) -> np.ndarray:
        """The next k outputs of ``next_u64`` as a uint64 array."""
        z = np.uint64(self._state) + _U_GAMMA * np.arange(1, k + 1, dtype=np.uint64)
        self._state = (self._state + k * _GAMMA) & _MASK
        z ^= z >> _U_30
        z *= _U_MIX1
        z ^= z >> _U_27
        z *= _U_MIX2
        z ^= z >> _U_31
        return z

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), sampled by rejection."""
        if not 0 < n <= 1 << 64:  # above 2**64 the limit is 0: no draw is kept
            raise ValueError("below() needs a bound in [1, 2**64]")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def _below_block(self, bounds: np.ndarray) -> np.ndarray:
        """``[below(b) for b in bounds]`` for a uint64 array of positive
        bounds, drawn as one block, as a uint64 array."""
        start = self._state
        u = self._block(bounds.size)
        out = u % bounds
        # below(b) keeps u < 2**64 - r with r = 2**64 mod b
        reject = u > _U_MAX - (_U_MAX % bounds + _U_ONE) % bounds
        if reject.any():
            t = int(reject.argmax())
            self._state = (start + t * _GAMMA) & _MASK
            out[t:] = [self.below(b) for b in bounds[t:].tolist()]
        return out

    def below_vector(self, n: int, k: int) -> np.ndarray:
        """``k`` draws of ``below(n)`` as an int64 array."""
        if k and not 0 < n <= 1 << 63:
            raise ValueError("below_vector() needs a bound in [1, 2**63]")
        out = np.empty(k, dtype=np.int64)
        for lo in range(0, k, _BLOCK):
            hi = min(k, lo + _BLOCK)
            out[lo:hi] = self._below_block(np.full(hi - lo, n, dtype=np.uint64))
        return out

    def normal(self) -> float:
        """Standard normal via Box-Muller; the second of each pair is cached."""
        if self._cached_normal is not None:
            z, self._cached_normal = self._cached_normal, None
            return z
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # in (0, 1], log-safe
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        a = 2.0 * math.pi * u2
        self._cached_normal = r * math.sin(a)
        return r * math.cos(a)

    def _normal_pairs(self, pairs: int) -> np.ndarray:
        """The next 2*pairs normals of ``normal``'s stream, from one block."""
        u = self._block(2 * pairs) >> _U_11
        u1 = (u[0::2] + _U_ONE).astype(np.float64) * 2.0**-53
        a = (_TWO_PI * (u[1::2].astype(np.float64) * 2.0**-53)).tolist()
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.fromiter(map(math.cos, a), np.float64, pairs)
        out[1::2] = r * np.fromiter(map(math.sin, a), np.float64, pairs)
        return out

    def gaussian(self, rows: int, cols: int) -> np.ndarray:
        """Row-major matrix of independent standard normals."""
        out = np.empty((rows, cols), dtype=np.float64)
        flat = out.reshape(-1)
        k = 0
        if flat.size and self._cached_normal is not None:
            flat[0], self._cached_normal = self._cached_normal, None
            k = 1
        while k < flat.size:
            z = self._normal_pairs(min((flat.size - k + 1) // 2, _BLOCK // 2))
            take = min(z.size, flat.size - k)
            flat[k:k + take] = z[:take]
            if take < z.size:  # odd tail: the spare waits for the next draw
                self._cached_normal = float(z[-1])
            k += take
        if not np.isfinite(out).all():
            raise FloatingPointError("generator produced a non-finite entry")
        return out

    def uniform_vector(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _BLOCK):
            hi = min(n, lo + _BLOCK)
            out[lo:hi] = (self._block(hi - lo) >> _U_11).astype(np.float64) * 2.0**-53
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n): for i = n-1 down to 1, swap
        entry i with entry below(i + 1)."""
        if n < 0:
            raise ValueError("permutation() needs n >= 0")
        perm = list(range(n))
        for hi in range(n, 1, -_BLOCK):  # bounds hi, hi-1, ..., lo+1
            lo = max(hi - _BLOCK, 1)
            js = self._below_block(np.arange(hi, lo, -1, dtype=np.uint64)).tolist()
            for i, j in zip(range(hi - 1, lo - 1, -1), js):
                perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)
