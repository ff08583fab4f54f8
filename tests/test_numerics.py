import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vrboost.numerics import MINUS_ONE, ONE, ZERO, Rng, sigmoid, sigmoid_core

# first outputs of the splitmix64 reference routine for seed 1234567,
# cross-checked against an independent transcription of the published
# constants
SPLITMIX_SEED_1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-12)


def test_sigmoid_saturation_is_stable():
    low = sigmoid(-500.0)
    assert 0.0 < low <= 1e-200
    assert sigmoid(500.0) == 1.0
    assert math.isfinite(sigmoid(500.0))


def test_sigmoid_symmetry():
    for x in np.linspace(-30, 30, 121):
        assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_monotone_and_vectorized():
    xs = np.linspace(-6, 6, 200)
    ys = sigmoid(xs)
    assert ys.shape == xs.shape
    assert np.all(np.diff(ys) > 0)


def test_rng_matches_reference_stream():
    rng = Rng(1234567)
    assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX_SEED_1234567


def test_rng_same_seed_same_stream():
    a, b = Rng(2024), Rng(2024)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]


def test_rng_uniform_range_contract():
    rng = Rng(5)
    first = rng.uniform(0.0, 1.0)
    second = rng.uniform(0.0, 1.0)
    assert first != second
    assert 0.0 <= first < 1.0 and 0.0 <= second < 1.0
    for _ in range(100):
        v = rng.uniform(5.0, 5.0001)
        assert 5.0 <= v < 5.0001


def test_rng_uniform_rejects_bad_range():
    rng = Rng(1)
    with pytest.raises(ValueError):
        rng.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        rng.uniform(2.0, 1.0)
    # hi - lo overflows or is infinite: every draw would be the same value
    for lo, hi in ((-1e308, 1e308), (0.0, math.inf)):
        with pytest.raises(ValueError):
            rng.uniform(lo, hi)


def test_rng_bit_identical_across_processes():
    snippet = ("from vrboost.numerics import Rng; "
               "r = Rng(31337); print([r.next_u64() for _ in range(8)])")
    runs = [subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    rng = Rng(31337)
    assert runs[0].strip() == str([rng.next_u64() for _ in range(8)])


def test_rng_shuffle_is_permutation():
    rng = Rng(7)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50))
    again = list(range(50))
    Rng(7).shuffle(again)
    assert again == items


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# adjacent floats round lo + (hi - lo) * u up to hi for about half of all u
RANGES = st.one_of(
    st.lists(FINITE, min_size=2, max_size=2, unique=True).map(sorted),
    FINITE.filter(lambda lo: lo < sys.float_info.max).map(
        lambda lo: [lo, math.nextafter(lo, math.inf)]))


@settings(max_examples=60)
@given(seed=st.integers(-2 ** 70, 2 ** 70), bounds=RANGES,
       low=st.integers(-2 ** 70, 2 ** 70), span=st.integers(0, 2 ** 70),
       n=st.integers(0, 40))
def test_rng_stream_properties(seed, bounds, low, span, n):
    lo, hi = bounds

    def stream(rng):
        items = list(range(n))
        uniforms = [rng.uniform(lo, hi) for _ in range(5)] + rng.uniform_array(
            (3,), lo, hi).tolist()
        ints = [rng.randint(low, low + span) for _ in range(5)]
        rng.shuffle(items)
        return uniforms, ints, items, rng.next_u64()

    uniforms, ints, items, last = stream(Rng(seed))
    assert stream(Rng(seed)) == (uniforms, ints, items, last)  # one seed, one stream
    assert all(lo <= u < hi for u in uniforms)
    assert all(low <= k <= low + span for k in ints)
    assert sorted(items) == list(range(n))


def test_rng_randint_bounds_and_coverage():
    rng = Rng(3)
    seen = {rng.randint(2, 5) for _ in range(200)}
    assert seen == {2, 3, 4, 5}
    with pytest.raises(ValueError):
        rng.randint(5, 2)


# --- the exact bulk paths against plain-Python references ----------------------

MASK64 = (1 << 64) - 1


def _splitmix64(state, n):
    """(the next n outputs, the final state) of SplitMix64 from state, one
    draw at a time in Python integers."""
    outputs = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        outputs.append(z ^ (z >> 31))
    return outputs, state


def _reference_uniforms(seed, n, lo, hi):
    """(values, final state, how many values the nextafter guard took)."""
    outputs, state = _splitmix64(seed & MASK64, n)
    values, guarded = [], 0
    for r in outputs:
        x = lo + (hi - lo) * ((r >> 11) * 2.0 ** -53)
        guarded += not x < hi
        values.append(x if x < hi else math.nextafter(hi, lo))
    return values, state, guarded


SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.integers(2 ** 64 - 2 ** 12, 2 ** 64 + 2 ** 12),  # wraps at once
                  st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=40)
@given(seed=SEEDS, bounds=RANGES.filter(lambda b: math.isfinite(b[1] - b[0])),
       n=st.integers(0, 300))
def test_uniform_array_is_the_scalar_splitmix_stream(seed, bounds, n):
    lo, hi = bounds
    rng = Rng(seed)
    got = rng.uniform_array((n,), lo, hi)
    values, state, _ = _reference_uniforms(seed, n, lo, hi)
    assert got.tobytes() == np.array(values, dtype=float).tobytes()
    assert rng._state == state


def test_uniform_array_takes_the_guard_where_rounding_reaches_hi():
    lo = 1.0
    hi = math.nextafter(lo, 2.0)  # lo + (hi - lo) * u rounds to hi for u >= 1/2
    rng = Rng(2 ** 64 - 1)
    got = rng.uniform_array((2, 16), lo, hi)
    values, state, guarded = _reference_uniforms(2 ** 64 - 1, 32, lo, hi)
    assert guarded > 0
    assert got.shape == (2, 16) and got.reshape(-1).tolist() == values
    assert rng._state == state and np.all(got == lo)


def test_uniform_array_checks_its_range_only_when_it_draws():
    rng = Rng(9)
    assert rng.uniform_array((0, 3), 1.0, 1.0).shape == (0, 3)
    assert rng._state == 9
    for lo, hi in ((1.0, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="uniform: requires lo < hi"):
            rng.uniform_array((3,), lo, hi)
    assert rng._state == 9


@settings(max_examples=40)
@given(seed=SEEDS, n=st.integers(0, 300))
def test_shuffle_is_the_scalar_fisher_yates(seed, n):
    rng = Rng(seed)
    items = list(range(n))
    rng.shuffle(items)
    want, state = list(range(n)), seed & MASK64
    for i in range(n - 1, 0, -1):
        (r,), state = _splitmix64(state, 1)
        j = r % (i + 1)
        want[i], want[j] = want[j], want[i]
    assert items == want and rng._state == state


def _formula_sigmoid(z):
    """The array sigmoid as first written: where(z >= 0, 1, e) / (1 + e), e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         709.0, -709.0, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308, math.inf, -math.inf)


@settings(max_examples=60)
@given(z=arrays(np.float64, st.integers(1, 300),
                elements=st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGES))))
def test_sigmoid_array_is_bit_equal_to_the_formula(z):
    want = _formula_sigmoid(z).tobytes()
    assert sigmoid(z).tobytes() == want
    out = np.empty_like(z)
    assert sigmoid(z, out) is out and out.tobytes() == want
    aliased = z.copy()
    assert sigmoid(aliased, aliased) is aliased and aliased.tobytes() == want


def test_sigmoid_array_of_nan_is_nan():
    assert np.isnan(sigmoid(np.array([math.nan, -math.nan]))).all()


@settings(max_examples=60)
@given(z=arrays(np.float64, st.integers(1, 300),
                elements=st.one_of(st.floats(), st.sampled_from(EDGES))),
       aliased=st.booleans())
def test_sigmoid_core_is_bit_equal_to_the_formula(z, aliased):
    # the training kernel's entry: one exp over both halves of work, NaN kept
    nan = np.isnan(z)
    want = _formula_sigmoid(z)
    work = np.empty((2,) + z.shape)
    x = z.copy()
    out = x if aliased else np.empty_like(z)
    assert sigmoid_core(x, out, work, work[0], work[1]) is out
    assert np.isnan(out[nan]).all()
    assert out[~nan].tobytes() == want[~nan].tobytes()


def test_the_operand_constants_are_read_only_0d_float64():
    for constant, value in ((ZERO, 0.0), (ONE, 1.0), (MINUS_ONE, -1.0)):
        assert constant.shape == () and constant.dtype == np.float64
        assert float(constant).hex() == value.hex()  # ZERO is +0.0
        assert not constant.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            constant[()] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(constant, 1.0, out=constant)
        assert float(constant).hex() == value.hex()


@settings(max_examples=60)
@given(z=st.floats(allow_nan=False))
def test_sigmoid_scalar_is_bit_equal_to_the_array_entry(z):
    for x in (z, *EDGES):  # the generator takes one array in place of a scalar per record
        scalar = sigmoid(x)
        assert type(scalar) is float
        assert scalar.hex() == float(sigmoid(np.array([x]))[0]).hex()
