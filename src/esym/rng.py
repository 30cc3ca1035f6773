"""Deterministic pseudo-randomness for reproducible experiments.

Every randomized routine in this package draws from SplitMix64, a small
fixed-increment mixing generator with a 64-bit state.  The algorithm is
pinned here so that a (seed, parameters) pair identifies one experiment
forever, independent of Python version or platform.  State update:

    state <- state + 0x9E3779B97F4A7C15  (mod 2^64)

followed by two xor-shift-multiply mixing rounds on a copy of the state.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; same seed, same stream, anywhere."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via modular reduction.

        The modulo bias is negligible for the small n used here and keeps
        the draw count per call fixed, which matters for reproducibility.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n
