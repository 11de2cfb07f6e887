"""The column-wise '%.17g' formatter and CSV rows behind the trajectory CSV.

Every test compares the formatter's bytes with CPython's ``'%.17g' % v``,
value by value, or the rows' bytes with the csv module's.
"""

import csv
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbundle.csvformat import csv_rows, decimal17, format_17g


def formatted(x, lead=b""):
    """The formatter's text of each value of ``x``: the kept bytes of the
    lead (bytes 0-1) and of the number (from byte 2 on), one pair each."""
    x = np.asarray(x, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text, keep = format_17g(x, lead)
    assert text.shape == keep.shape and text.shape[:-1] == x.shape
    return [(t[:2][k[:2]].tobytes(), t[2:][k[2:]].tobytes())
            for t, k in zip(text.reshape(-1, text.shape[-1]), keep.reshape(-1, keep.shape[-1]))]


def assert_matches_cpython(x, lead=b""):
    x = np.asarray(x, dtype=np.float64).ravel()
    got = formatted(x, lead)
    bad = [(v, g) for v, g in zip(x.tolist(), got) if g != (lead, b"%.17g" % v)]
    assert not bad, f"{len(bad)} of {x.size} differ, e.g. {bad[:3]}"


def ulps_around(c: float, count: int) -> np.ndarray:
    """The ``count`` doubles on each side of ``c``, and ``c``."""
    below = [c]
    above = [c]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return np.array(below[:0:-1] + above)


POWERS = [float(f"1e{k}") for k in range(-8, 19)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_double_matches_cpython(values):
    """NaN, infinities, subnormals, -0.0 and every magnitude, in one stack."""
    assert_matches_cpython(values)
    assert_matches_cpython(values, b",")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-6, 1e17, exclude_max=True), st.booleans()),
                min_size=1, max_size=40))
def test_the_fast_range_matches_cpython(pairs):
    assert_matches_cpython([-v if negative else v for v, negative in pairs])


@pytest.mark.parametrize("c", POWERS, ids=lambda c: f"{c:g}")
def test_powers_of_ten_and_3000_ulps_around_them(c):
    grid = ulps_around(c, 3000)
    assert_matches_cpython(np.concatenate([grid, -grid]))


def test_dyadic_half_integers():
    """Values whose scaled 18-digit decimal ends in exactly 5: the
    round-half-even ties, for every exponent of the fast range; and the
    half-integers of a plain grid."""
    ties = []
    for k in range(1, 23):  # a = m / 2**(k+1) with m odd: a * 10**k = m * 5**k / 2
        low, high = -(-2 * 10**16 // 5**k), 2 * 10**17 // 5**k
        m = np.arange(low | 1, min(low + 400, high, 2**53), 2)
        ties.append(np.ldexp(m.astype(np.float64), -(k + 1)))
        for v in ties[-1][[0, -1]].tolist():
            scaled = Fraction(v) * 10**k
            assert scaled % 1 == Fraction(1, 2) and 10**16 <= scaled < 10**17
    ties = np.concatenate(ties)
    assert_matches_cpython(ties)
    assert_matches_cpython(np.arange(-20001, 20001) / 2.0)


def test_integers_near_1e16_and_1e17():
    near_1e16 = 1e16 + np.arange(-3000.0, 3000.0)
    below_1e17 = 1e17 - 16.0 * np.arange(0, 3000)  # the doubles below 1e17
    assert_matches_cpython(np.concatenate([near_1e16, below_1e17, -near_1e16]))


def test_scaled_products_within_16_of_1e16_and_1e17():
    """For every decimal exponent e of the fast range, the doubles whose
    |v| * 10**(16-e) lies within 16 of 1e16 (v near 10**e) or of 1e17 (v
    near 10**(e+1)): there the exponent guess and its fix are decided."""
    values = []
    for e in range(-6, 17):
        for target, power in ((10**16, e), (10**17, e)):
            c = float(f"1e{power + (target == 10**17)}")
            grid = ulps_around(c, 40)
            scale = Fraction(10) ** (16 - e)
            near = [v for v in grid.tolist() if abs(Fraction(v) * scale - target) <= 16]
            assert near
            values += near
    assert_matches_cpython(values)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_a_guessed_exponent_off_by_one_is_fixed(shift):
    """The exponent fix works both ways from any guess within one."""
    a = np.concatenate([ulps_around(c, 300) for c in POWERS[2:-2]])
    a = np.concatenate([a, np.random.default_rng(5).uniform(-6, 17, 20000)])
    a = a[(a > 1e-6) & (a < 1e17)]
    exact = [b"%.16e" % v for v in a.tolist()]
    digits = np.array([int(s[:1] + s[2:18]) for s in exact])
    exponent = np.array([int(s[19:]) for s in exact])
    d, e = decimal17(a, np.clip(exponent + shift, -6, 16))
    np.testing.assert_array_equal(e, exponent)
    np.testing.assert_array_equal(d, digits)


def test_no_double_in_the_fast_range_rounds_up_to_a_power_of_ten():
    """The formatter needs no carry: below every power of ten 10**k in
    (1e-6, 1e17], the largest double stays more than half a unit of the
    17th digit below it, so its 17-digit decimal never reaches 10**17."""
    for k in range(-5, 18):
        power = Fraction(10) ** k
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        assert Fraction(below) * Fraction(10) ** (17 - k) < 10**17 - Fraction(1, 2)


def test_zeros_signs_and_the_slow_values():
    values = [0.0, -0.0, 1e-6, -1e-6, 1e17, -1e17, 5e-324, -5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, math.nan, -math.nan, math.inf, -math.inf,
              9.999999999999999e-7, 1.0000000000000002e-6, 99999999999999984.0]
    assert_matches_cpython(values)
    assert formatted([-0.0, 0.0]) == [(b"", b"-0"), (b"", b"0")]


def test_shape_lead_and_spare_bytes():
    x = np.arange(12.0).reshape(3, 4) / 7.0
    text, keep = format_17g(x, b"\r\n", 9)
    assert text.shape == keep.shape == (3, 4, 64) and not keep[..., 52:].any()
    assert text[1, 2][keep[1, 2]].tobytes() == b"\r\n" + b"%.17g" % x[1, 2]


@st.composite
def csv_tables(draw):
    """Columns of one to five rows: numbers first, then numbers, empty
    cells and strings that need quoting or not, in any order."""
    n = draw(st.integers(1, 5))
    numbers = st.lists(st.floats(), min_size=n, max_size=n).map(np.array)
    strings = st.lists(st.text(st.sampled_from('ab ,"\r\n'), max_size=4), min_size=n, max_size=n)
    return [draw(numbers), *draw(st.lists(st.one_of(numbers, strings, st.none()), max_size=6))]


@settings(max_examples=300, deadline=None)
@given(csv_tables())
def test_csv_rows_match_the_csv_module(columns):
    """Every number, NaN, infinity and magnitude outside (1e-6, 1e17) in
    any column, the first among them."""
    out = io.StringIO(newline="")
    cells = [[""] * len(columns[0]) if c is None else c if isinstance(c, list)
             else [b"%.17g" % v for v in c.tolist()] for c in columns]
    csv.writer(out).writerows(
        [[x.decode() if isinstance(x, bytes) else x for x in row] for row in zip(*cells)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csv_rows(columns).tobytes() == out.getvalue().encode()


def test_csv_rows_need_numbers_first():
    with pytest.raises(ValueError):
        csv_rows([["a"], np.zeros(1)])
