"""The logistic sigmoid and a portable seeded RNG.

Everything here is 64-bit float; the RNG is integer arithmetic only, so the
same seed produces the same stream on every platform and Python build.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def sigmoid(z, out=None):
    """Logistic function 1 / (1 + exp(-z)); a float for a scalar z, else an array.

    Never passes a positive argument to exp(), so sigmoid(-500) returns a
    tiny positive number instead of underflowing to 0 through
    1 / (1 + exp(500)). An array takes no masks: exp(-|z|) is exp(-z) where
    z >= 0 and exp(z) elsewhere, so each entry takes the scalar branch's
    operations. out, if given, receives the array result.
    """
    if isinstance(z, float):  # numpy float64 scalars included
        if z >= 0:
            return float(1.0 / (1.0 + np.exp(-z)))
        ex = np.exp(z)
        return float(ex / (1.0 + ex))
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return sigmoid(float(z))
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


class Rng:
    """SplitMix64 pseudo-random generator (Steele/Lea/Vigna constants).

    State is a single 64-bit counter advanced by the golden-gamma constant;
    each output is the counter passed through two xor-shift-multiply mixing
    steps. Implemented with plain Python integers for bit-reproducibility.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit output; advances the state."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform draw in [lo, hi). Requires lo < hi and a finite hi - lo."""
        span = hi - lo
        if not (lo < hi and math.isfinite(span)):
            raise ValueError(f"uniform: requires lo < hi and a finite hi - lo, "
                             f"got lo={lo}, hi={hi}")
        u = (self.next_u64() >> 11) * 2.0 ** -53  # 53-bit mantissa in [0, 1)
        x = lo + span * u
        # guard the rare rounding of lo + (hi-lo)*u up to hi
        return x if x < hi else math.nextafter(hi, lo)

    def uniform_array(self, shape, lo: float, hi: float) -> np.ndarray:
        """Array of uniform draws, filled in row-major order."""
        n = int(np.prod(shape))
        flat = np.array([self.uniform(lo, hi) for _ in range(n)])
        return flat.reshape(shape)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"randint: requires lo <= hi, got lo={lo}, hi={hi}")
        return lo + self.next_u64() % (hi - lo + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]
