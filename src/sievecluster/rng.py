"""Deterministic pseudo-random generator used by the verification harness.

The generator is SplitMix64 (Steele, Lea, Flood: "Fast splittable
pseudorandom number generators", OOPSLA 2014): a 64-bit counter advanced by
the odd constant 0x9E3779B97F4A7C15, finalized with two xor-shift
multiplications. It is implemented here in full rather than taken from a
library so that every random stream the harness produces is reproducible
from the seed alone, on any platform, independent of interpreter or numpy
versioning. Reports compared byte for byte across runs rely on this.

All derived draws (floats, bounded ints, shuffles) are defined on the
outputs of ``next_u64`` with explicit arithmetic, no platform-dependent
calls.
"""

from __future__ import annotations

from .errors import InvalidArgument

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


# the rejection limit of each bound randint has seen, up to this many bounds
_LIMITS: dict[int, int] = {}
_MAX_LIMITS = 256


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Stateful SplitMix64 stream seeded by a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    # next_u64, uniform and randint each advance the state and mix it
    # inline, as _mix does: a call less per draw
    def next_u64(self) -> int:
        z = self._state = (self._state + _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Float in [lo, hi) with 53 random bits of resolution."""
        z = self._state = (self._state + _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        u = (z ^ (z >> 31)) >> 11
        return lo + (hi - lo) * (u * (2.0**-53))

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Uses rejection to avoid modulo bias:
        a draw at or above the largest multiple of n that fits in 64 bits
        is redrawn."""
        limit = _LIMITS.get(n)
        if limit is None:
            if n <= 0:
                raise InvalidArgument("randint bound must be positive")
            limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
            if len(_LIMITS) < _MAX_LIMITS:
                _LIMITS[n] = limit
        while True:
            z = self._state = (self._state + _GAMMA) & _MASK64
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
            u = z ^ (z >> 31)
            if u < limit:
                return u % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def spawn(self, tag: int) -> "SplitMix64":
        """Independent substream for e.g. one trial; derivation is pure."""
        return SplitMix64(_mix(self._state ^ _mix(tag & _MASK64)))


def derive_seed(seed: int, *tags: int) -> int:
    """Pure function from (seed, tags...) to a 64-bit subseed."""
    z = seed & _MASK64
    for t in tags:
        z = _mix((z + _GAMMA) & _MASK64) ^ _mix(t & _MASK64)
    return z & _MASK64
