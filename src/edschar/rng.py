"""The pinned splitmix64 generator behind every seeded computation."""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
# per-prime stream decorrelation multiplier (odd 64-bit constant)
STREAM_MULT = 0xD1B54A32D192ED03


class SplitMix64:
    """splitmix64: the pinned PRNG behind every seeded driver.

    state <- state + 0x9E3779B97F4A7C15 (mod 2^64); output mixes the state
    with xor-shift-multiply rounds 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB.
    randrange uses rejection sampling, so streams are unbiased and the
    sequence of draws for a given seed is fully determined by this file.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, a: int, b: int | None = None) -> int:
        """Uniform integer in [0, a) or [a, b), rejection-sampled."""
        lo, hi = (0, a) if b is None else (a, b)
        width = hi - lo
        if width <= 0:
            raise ValueError(f"empty range [{lo}, {hi})")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % width
        while True:
            v = self.next64()
            if v < limit:
                return lo + v % width

    def choice(self, seq):
        return seq[self.randrange(0, len(seq))]


def stream(seed: int, p: int) -> SplitMix64:
    """The per-prime random stream used by scans and sweeps."""
    return SplitMix64(seed ^ (p * STREAM_MULT & _MASK64))
