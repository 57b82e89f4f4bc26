"""Seeded pseudo-random numbers with a fixed, documented algorithm.

Scene generation and weight initialization must be reproducible bit for bit,
independent of the host platform and of any library's RNG internals. The
generator here is xorshift64* (Vigna 2016): a 64-bit xorshift step followed
by a multiplicative scramble,

    s ^= s >> 12;  s ^= s << 25;  s ^= s >> 27;  output = s * 2685821657736338717

with all arithmetic modulo 2**64. Uniform doubles take the top 53 output
bits: u = (output >> 11) * 2**-53, so u is in [0, 1).

A seed of 0 (the one forbidden xorshift state) is remapped to the constant
0x9E3779B97F4A7C15.

``uniform_array(n)`` returns the next n ``uniform`` draws and leaves the state
where n scalar draws would. Lane j of its K lanes of L draws starts at A^(jL) s,
where A is the xorshift step as a 64x64 bit matrix over GF(2) (A^L by repeated
squaring, the starts by doubling). The lanes step together as a uint64 array;
step t's outputs fill column t of a (K, L) float64 array, so the draws read
lane after lane are in stream order.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
_ZERO_SEED = 0x9E3779B97F4A7C15
_BITS = np.arange(64, dtype=np.uint64)


def _xorshift(s):
    """One xorshift step of an int state, or in place of every state in a uint64 array."""
    s ^= s >> 12
    s ^= (s << 25) & _MASK
    s ^= s >> 27
    return s


def _gf2_apply(cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Image of each state in ``v`` under the GF(2) map that sends bit i to ``cols[i]``."""
    return np.bitwise_xor.reduce(((v[..., None] >> _BITS) & 1) * cols, axis=-1)


class Xorshift64Star:
    """xorshift64* stream. Deterministic for a given seed."""

    def __init__(self, seed: int):
        self._state = (seed & _MASK) or _ZERO_SEED

    def next_u64(self) -> int:
        self._state = _xorshift(self._state)
        return (self._state * _MULT) & _MASK

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi)."""
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform_array(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next ``n`` ``uniform(lo, hi)`` draws as one float64 array."""
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"uniform_array needs a non-negative integer count, got {n!r}")
        if n == 0:
            return np.empty(0)
        # lanes of about sqrt(n) / 4 draws, a power of two; up to 32 draws take one lane
        steps = min(n, 1 << max(5, int(n - 1).bit_length() // 2 - 2))
        lanes = -(-n // steps)
        state = np.array([self._state], dtype=np.uint64)
        jump = 1
        while state.size < lanes:
            # the bit images of A^jump: A's own, then squared
            cols = _xorshift(1 << _BITS) if jump == 1 else _gf2_apply(cols, cols)
            if jump >= steps:  # lane j + 2^m starts 2^m * steps draws after lane j
                state = np.concatenate([state, _gf2_apply(cols, state)])
            jump *= 2
        state = state[:lanes]
        out = np.empty((lanes, steps))
        last = n - 1 - (lanes - 1) * steps  # the step at which the last lane makes draw n
        for t in range(steps):
            _xorshift(state)
            if t == last:
                self._state = int(state[-1])
            out[:, t] = (state * np.uint64(_MULT)) >> 11  # exact: below 2**53
        # u = (output >> 11) * 2**-53, then lo + (hi - lo) * u: the scalar ops, in place
        out = out.reshape(-1)[:n]
        out *= 2.0**-53
        out *= hi - lo
        out += lo
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n). Derived from the uniform double; n must be small."""
        if n <= 0:
            raise ValueError("randint needs a positive bound")
        k = int(self.uniform() * n)
        return min(k, n - 1)
