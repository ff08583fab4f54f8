"""The logistic sigmoid, the hot path's constant operands and a portable seeded RNG.

Everything here is 64-bit float; the RNG is integer arithmetic only, so the
same seed produces the same stream on every platform and Python build.

The 0-d operand rule. A ufunc call of the per-example SGD step whose other
operand is a constant takes ZERO, ONE or MINUS_ONE, read-only 0-d float64
arrays: numpy converts a Python float operand on every call, which a 0-d
array skips. The bits cannot change, as numpy takes a Python float operand
of a float64 array as the float64 of the same value. For the same reason the
kernel keeps dL/dlogit and the learning rate in 0-d arrays.

The positional-out rule. A ufunc call of the per-example SGD step passes its
output after its inputs, not as out=, which numpy parses on every call.
np.minimum and np.maximum keep out=: numpy 2.4 deprecates a positional third
argument to them, and its warning check costs more than out= saves.
README's "Where the time goes" gives the measured costs of both rules.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array."""
    arr = np.array(value, dtype=np.float64)
    arr.flags.writeable = False
    return arr


# the 0-d operands of the module docstring's rule; read-only, as every
# caller in the process shares them
ZERO, ONE, MINUS_ONE = _constant(0.0), _constant(1.0), _constant(-1.0)


def sigmoid(z, out=None):
    """Logistic function 1 / (1 + exp(-z)); a float for a scalar z, else an
    array, written into out if given (out may be z).

    Never passes a positive argument to exp(), so sigmoid(-500) is a tiny
    positive number, not 0 through 1 / (1 + exp(500)). An array is
    sigmoid_core's exp(min(z, 0)) / (1 + exp(-|z|)), whose numerator is
    exp(0) = 1 where z >= 0 and exp(z) elsewhere: each entry takes the
    scalar branch's operations.
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
    work = np.empty((2,) + z.shape)
    return sigmoid_core(z, out, work, work[0], work[1])


def sigmoid_core(z, out, work, low, neg):
    """The array sigmoid exp(min(z, 0)) / (1 + exp(-|z|)) of the float64
    array z, into out (which may be z, or None for a new array).

    work is a float64 buffer of shape (2,) + z.shape and low and neg are
    work[0] and work[1]: both exp arguments are written there, then one exp
    takes them together. numpy's exp gives an entry the same bits wherever it
    sits in an array and whatever the array's length, so this is the two-exp
    form bit for bit. z is read before out is written. The training kernel
    calls it with buffers it builds once; sigmoid() is the checked entry.
    """
    np.minimum(z, ZERO, out=low)  # out= (the positional-out rule's exception)
    np.copysign(z, MINUS_ONE, neg)  # -|z|
    np.exp(work, work)
    np.add(neg, ONE, neg)
    return np.divide(low, neg, out)


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
    randint_of and uniform_of map raw outputs, one or an array, to draws.
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

    def next_u64_array(self, n: int) -> np.ndarray:
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
        _checked_span(lo, hi)
        return uniform_of(self.next_u64(), lo, hi)

    def uniform_array(self, shape, lo: float, hi: float) -> np.ndarray:
        """Array of uniform draws, filled in row-major order: the values and
        final state of as many uniform(lo, hi) calls, taken in one bulk draw."""
        n = int(np.prod(shape))
        if n <= 0:  # no draw, so no check of lo and hi
            return np.empty(0).reshape(shape)
        _checked_span(lo, hi)
        return uniform_of(self.next_u64_array(n), lo, hi).reshape(shape)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"randint: requires lo <= hi, got lo={lo}, hi={hi}")
        return randint_of(self.next_u64(), lo, hi)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle. Its n - 1 draws are taken in bulk;
        the swaps then run in the usual order, from the last item down."""
        n = len(items)
        if n < 2:
            return
        picks = (self.next_u64_array(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]


def randint_of(u, lo: int, hi: int):
    """The integer in [lo, hi] that the raw output u maps to, lo + u mod
    (hi - lo + 1): an int for an int u, and for a uint64 array u a uint64
    array, for which lo >= 0 and hi - lo + 1 must fit in a uint64."""
    return lo + u % (hi - lo + 1)


def uniform_of(u, lo: float, hi: float):
    """The draw in [lo, hi) that the raw output u maps to: lo + (hi - lo) * v,
    v being u's top 53 bits as a fraction in [0, 1), with a rounding up to hi
    taken back to the float below hi. A float for an int u, a float64 array
    for a uint64 array, whose uint64 to float64 conversion is exact below
    2^53. Requires what uniform() checks."""
    x = lo + (hi - lo) * ((u >> 11) * 2.0 ** -53)
    if isinstance(x, float):
        return x if x < hi else math.nextafter(hi, lo)
    return np.where(x < hi, x, math.nextafter(hi, lo))


def _checked_span(lo, hi) -> None:
    """Raise unless lo < hi and hi - lo is finite, as uniform() requires."""
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"uniform: requires lo < hi and a finite hi - lo, "
                         f"got lo={lo}, hi={hi}")
