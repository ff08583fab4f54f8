"""The logistic sigmoid and a portable seeded RNG.

Everything here is 64-bit float; the RNG is integer arithmetic only, so the
same seed produces the same stream on every platform and Python build.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def sigmoid(z, out=None, work=None):
    """Logistic function 1 / (1 + exp(-z)); a float for a scalar z, else an array.

    Never passes a positive argument to exp(), so sigmoid(-500) returns a
    tiny positive number instead of underflowing to 0 through
    1 / (1 + exp(500)). An array takes no masks: it is exp(min(z, 0)) /
    (1 + exp(-|z|)), whose numerator is exp(0) = 1 where z >= 0 and exp(z)
    elsewhere, so each entry takes the scalar branch's operations. out, if
    given, receives the array result and may be z itself; work, if given, is
    a float64 buffer of z's shape that holds exp(-|z|), so that a call with
    both allocates nothing.
    """
    if isinstance(z, float):  # numpy float64 scalars included
        # Python floats around np.exp: the same IEEE operations, without
        # numpy-scalar arithmetic
        if z >= 0:
            return 1.0 / (1.0 + float(np.exp(-z)))
        ex = float(np.exp(z))
        return ex / (1.0 + ex)
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return sigmoid(float(z))
    e = np.copysign(z, -1.0, out=work)  # -|z|, read before out overwrites z
    np.exp(e, out=e)
    num = np.minimum(z, 0.0, out=out)
    np.exp(num, out=num)
    e += 1.0
    return np.divide(num, e, out=num)


class Rng:
    """SplitMix64 pseudo-random generator (Steele/Lea/Vigna constants).

    State is a single 64-bit counter advanced by the golden-gamma constant;
    each output is the counter passed through two xor-shift-multiply mixing
    steps. Implemented with integer arithmetic only, for bit-reproducibility:
    plain Python integers for one draw, and numpy uint64 arrays, whose
    arithmetic wraps modulo 2^64 as the masks do, for the n draws of a bulk
    call (after Steele, Lea & Flood 2014, "Fast splittable pseudorandom number
    generators": the k-th output is a fixed function of state + k * gamma).
    A bulk call gives the values and leaves the state that n single draws do.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit output; advances the state."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _next_u64_array(self, n: int) -> np.ndarray:
        """The next n raw outputs, as next_u64() would return them, in a uint64 array."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform draw in [lo, hi). Requires lo < hi and a finite hi - lo."""
        span = _checked_span(lo, hi)
        u = (self.next_u64() >> 11) * 2.0 ** -53  # 53-bit mantissa in [0, 1)
        x = lo + span * u
        # guard the rare rounding of lo + (hi-lo)*u up to hi
        return x if x < hi else math.nextafter(hi, lo)

    def uniform_array(self, shape, lo: float, hi: float) -> np.ndarray:
        """Array of uniform draws, filled in row-major order: the values and
        final state of as many uniform(lo, hi) calls, taken in one bulk draw."""
        n = int(np.prod(shape))
        if n <= 0:  # no draw, so no check of lo and hi
            return np.empty(0).reshape(shape)
        span = _checked_span(lo, hi)
        u = (self._next_u64_array(n) >> np.uint64(11)).astype(float)
        u *= 2.0 ** -53  # exact: a power of two
        x = lo + span * u
        return np.where(x < hi, x, math.nextafter(hi, lo)).reshape(shape)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"randint: requires lo <= hi, got lo={lo}, hi={hi}")
        return lo + self.next_u64() % (hi - lo + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle. Its n - 1 draws are taken in bulk;
        the swaps then run in the usual order, from the last item down."""
        n = len(items)
        if n < 2:
            return
        picks = (self._next_u64_array(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]


def _checked_span(lo, hi):
    """hi - lo, checked as uniform() requires."""
    span = hi - lo
    if not (lo < hi and math.isfinite(span)):
        raise ValueError(f"uniform: requires lo < hi and a finite hi - lo, "
                         f"got lo={lo}, hi={hi}")
    return span
