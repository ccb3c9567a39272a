"""The benchmark's own seeded generator.

Query and battery inputs come from this file, never from the program's
generators, so that merging or changing those cannot change the work the
benchmark measures.  The algorithm is splitmix64 with rejection sampling; its
first outputs for seed 0 are pinned in tests/test_helpers.py.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


class Rng:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi) for any width, without modulo bias."""
        width = hi - lo
        if width <= 0:
            raise ValueError(f"empty range [{lo}, {hi})")
        bits = width.bit_length()
        while True:
            v = 0
            for _ in range((bits + 63) // 64):
                v = (v << 64) | self.next64()
            v >>= (-bits) % 64
            if v < width:
                return lo + v
