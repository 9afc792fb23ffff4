import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichain import SpecialFnTable, bessel_i, bessel_j
from fermichain.special import _column, bessel_band_sum

# reference values computed with mpmath at 30 significant digits
_J_REF = {
    (0, 0.5): 0.938469807240812904,
    (1, 2.0): 0.576724807756873387,
    (2, 7.9): -0.138873389164885623,
    (5, 8.1): 0.163221510227914989,
    (10, 3.0): 1.29283516457158838e-5,
    (25, 30.0): 0.0842927406430317292,
    (60, 45.0): 2.03287581932728253e-5,
    (60, 100.0): 0.00106315630422770308,
    (0, 100.0): 0.0199858503042231224,
    (7, 11.5): -0.084624465349975154,
    (3, -6.2): -0.054283277122166305,
    (40, 12.0): 6.74488214846900612e-18,
}
_I_REF = {
    (0, 2.0): 2.27958530233606727,
    (1, 0.5): 0.257894305390896316,
    (3, 4.2): 4.21195220660107582,
    (6, 10.0): 449.302251356231638,
    (2, 25.0): 5321931396.07601421,
    (0, 30.0): 781672297823.97749,
}


def test_bessel_j_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    for n in (1, 2, 17, 60):
        assert bessel_j(n, 0.0) == 0.0


def test_bessel_j1_against_power_series():
    # 30-term alternating series sum_k (-1)^k (x/2)^(2k+1) / (k! (k+1)!)
    x = 2.0
    acc = 0.0
    for k in range(30):
        acc += (-1.0) ** k * (x / 2.0) ** (2 * k + 1) / (
            math.factorial(k) * math.factorial(k + 1))
    assert bessel_j(1, x) == pytest.approx(acc, abs=1e-14)
    assert acc == pytest.approx(0.576724807756873387, abs=1e-15)


def test_bessel_j_reference_sweep():
    for (n, x), ref in _J_REF.items():
        assert bessel_j(n, x) == pytest.approx(ref, abs=1e-12), (n, x)


def test_bessel_j_negative_argument_parity():
    for n in (0, 1, 4, 9):
        assert bessel_j(n, -7.3) == pytest.approx(
            (-1.0) ** n * bessel_j(n, 7.3), rel=1e-13)


def test_bessel_j_range_guard():
    with pytest.raises(ValueError, match=re.escape("order n must be an integer in [0, 20000]")):
        bessel_j(20001, 1.0)
    with pytest.raises(ValueError, match=re.escape("x must lie in [-10000, 10000], the validated "
                                                   "J_n range")):
        bessel_j(0, 1.0001e4)
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError, match=re.escape("y must lie in [-700, 700], the validated "
                                                   "I_n range")):
        bessel_i(0, 700.5)


def test_bessel_i_at_zero():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0


def test_bessel_i0_against_monotone_series():
    # all-positive series sum_k (y/2)^(2k) / (k!)^2, tail below 1e-16
    y = 2.0
    acc = sum((y / 2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(25))
    assert bessel_i(0, y) == pytest.approx(acc, rel=1e-15)
    assert acc == pytest.approx(2.2795853023360673, rel=1e-12)


def test_bessel_i_reference_sweep():
    for (n, y), ref in _I_REF.items():
        assert bessel_i(n, y) == pytest.approx(ref, rel=1e-12), (n, y)


def test_table_matches_direct_evaluation():
    for x in (12.0, -6.2):
        tab = SpecialFnTable(40, x_bessel_j=x)
        for n in (0, 1, 7, 23, 40):
            assert tab.j(n) == pytest.approx(bessel_j(n, x), abs=1e-12), (n, x)


def test_table_small_argument_by_recurrence():
    tab = SpecialFnTable(10, x_bessel_j=2.0)
    assert tab.j(1) == pytest.approx(0.576724807756873387, abs=1e-14)


def test_table_unbuilt_column_rejected():
    tab = SpecialFnTable(10, x_bessel_j=2.0)
    for n in (-1, 11):
        with pytest.raises(ValueError, match=re.escape("order n must lie in the table's "
                                                        "[0, max_order]")):
            tab.j(n)


def test_table_matches_high_precision_oracle():
    # relative error at every order whose value is a normal double well
    # clear of underflow.  mpmath, not scipy: scipy.special.jv is itself
    # off by ~1.3e-13 relative where |J_n| ~ 1e-280.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    worst = 0.0
    for x in np.logspace(-8.0, math.log10(8.0), 40):
        tab = SpecialFnTable(60, x_bessel_j=float(x))
        for n in range(61):
            ref = float(mpmath.besselj(n, mpmath.mpf(float(x))))
            if abs(ref) > 1e-290:
                worst = max(worst, abs(tab.j(n) - ref) / abs(ref))
    assert worst <= 1e-13


@pytest.mark.parametrize("x", [1e-300, 1e-100, 1e-9])
def test_table_tiny_argument_is_the_leading_term(x):
    # the downward recurrence's 2m/x overflows to NaN at x <= 1e-100
    tab = SpecialFnTable(60, x_bessel_j=x)
    for n in range(61):
        assert math.isfinite(tab.j(n))
        assert tab.j(n) == (0.5 * x) ** n / math.factorial(n), n


def test_j_column_matches_mpmath_over_the_whole_range():
    # |x| <= 1e4 with as few orders as bessel_j asks for and as many as a
    # band sum does; mpmath, not scipy: scipy.special.jv is itself off by
    # up to 9e-14 at x = 1e4
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 25
    worst = 0.0
    for x in (8.5, 99.0, 730.0, -4e3, 1e4):
        top = SpecialFnTable.band_orders(x) - 1
        for max_order in (2, top):
            tab = SpecialFnTable(max_order, x)
            # mpmath takes seconds per order at x = 1e4 inside the band
            middle = {max_order // 2, max(0, max_order - 40)} if abs(x) < 1e4 else set()
            for n in sorted({0, 1, 2, max_order} | middle):
                ref = float(mpmath.besselj(n, x, maxprec=100_000))
                worst = max(worst, abs(tab.j(n) - ref))
    assert worst <= 1e-15


def test_band_orders_leave_only_negligible_orders():
    # past band_orders(x), |J_n(x)| < 2^-60
    for x in (0.0, 0.3, 5.0, 64.0, 1e3, 1e4):
        n = SpecialFnTable.band_orders(x)
        tab = SpecialFnTable(n + 40, x)
        assert max(abs(tab.j(m)) for m in range(n, n + 41)) < 2.0 ** -60, x


def test_i_column_matches_mpmath_over_the_whole_range():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 25
    worst = 0.0
    for y in (1e-9, 0.3, 7.0, 60.0, 250.0, 699.0, 700.0, -700.0):
        for n in (0, 1, 5, 40, 120, 300):
            ref = float(mpmath.besseli(n, y))
            if abs(ref) > 1e-290:
                worst = max(worst, abs(bessel_i(n, y) - ref) / abs(ref))
    assert worst <= 5e-15


def test_band_sum_is_jacobi_anger():
    # a_0 = 1, a_j = 0 otherwise: (1/pi) int cos(z - z cos 2k) dk = cos(z) J_0(z)
    for z in (0.0, 2.5, -40.0, 1e3):
        value, tail = bessel_band_sum(z, [1.0] + [0.0] * (SpecialFnTable.band_orders(z) - 1))
        assert value == pytest.approx(math.cos(z) * bessel_j(0, z), abs=1e-15)
        assert tail == 0.0
    # a single order j: cos(z) or sin(z) times 2 (-1)^(j//2) J_j(z)
    z = 7.5
    for j in range(1, 6):
        coeffs = [0.0] * 12
        coeffs[j] = 1.0
        trig = math.sin(z) if j % 2 else math.cos(z)
        want = 2.0 * (-1.0) ** (j // 2) * trig * bessel_j(j, z)
        assert bessel_band_sum(z, coeffs)[0] == pytest.approx(want, abs=1e-15)


def _hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values).tolist()]


# arguments that reach every branch of a column: 0, the leading term
# ((x/2)^2 below 2^-53), the recurrence that rescales (J to about 5e-7, I
# further) and the plain one, up to the J argument reach; either sign
_X = st.one_of(st.just(0.0), st.floats(1e-300, 2e-8), st.floats(2.2e-8, 5e-7),
               st.floats(5e-7, 1e3), st.floats(1e3, 1e4)).flatmap(
                   lambda x: st.sampled_from([x, -x]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(_X, min_size=1, max_size=6), spare=st.lists(st.integers(0, 40), min_size=7,
                                                                max_size=7))
def test_a_table_over_an_array_gives_each_column_its_one_argument_bits(xs, spare):
    xs = xs + xs[:1]  # a repeated argument
    orders = [SpecialFnTable.band_orders(x) + extra for x, extra in zip(xs, spare)]
    table = SpecialFnTable(np.array(orders) - 1, np.array(xs))
    for row, x, n in zip(table._j, xs, orders):
        assert _hexes(row[:n]) == _hexes(SpecialFnTable(n - 1, x)._j)
        assert not row[n:].any()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(_X, min_size=1, max_size=6), seed=st.integers(0, 2 ** 32 - 1))
def test_a_band_sum_over_an_array_gives_each_point_its_one_point_bits(xs, seed):
    xs = xs + xs[:1]
    orders = [SpecialFnTable.band_orders(x) for x in xs]
    coeffs = np.random.default_rng(seed).standard_normal(max(orders))
    values, tails = bessel_band_sum(np.array(xs), coeffs, orders)
    for x, n, value, tail in zip(xs, orders, values, tails):
        assert _hexes([value, tail]) == _hexes(bessel_band_sum(x, coeffs[:n]))


def _one_column_loop(max_order: int, x: float, modified: bool) -> list:
    """The scalar downward recurrence the array one replaced, kept as the
    reference: orders 0..max_order of J (I when modified) at x."""
    xa, sign = abs(x), 1.0 if modified else -1.0
    half = 0.5 * xa
    if half * half < 2.0 ** -53:
        lead = min(max_order + 1, 171)
        col = [half ** m / math.factorial(m) for m in range(lead)] + [0.0] * (max_order + 1 - lead)
    else:
        start = int(max(max_order, xa + 10.0 * xa ** (1.0 / 3.0)) + 60)
        start += start % 2
        fp, fc, norm, out = 0.0, 1e-300, 0.0, np.zeros(max_order + 1)
        for m in range(start, 0, -1):
            fm = (2.0 * m / xa) * fc + sign * fp
            fp, fc = fc, fm
            if abs(fc) > 1e250:
                fc, fp, norm = fc * 1e-250, fp * 1e-250, norm * 1e-250
                out *= 1e-250
            if m - 1 <= max_order:
                out[m - 1] = fc
            if modified or (m - 1) % 2 == 0:
                norm += 2.0 * fc if m - 1 else fc
        col = ((out / norm) * math.exp(xa) if modified else out / norm).tolist()
    return [-v if x < 0.0 and n % 2 else v for n, v in enumerate(col)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(modified=st.booleans(), xs=st.lists(_X, min_size=1, max_size=6),
       orders=st.lists(st.integers(0, 400), min_size=7, max_size=7))
def test_every_row_of_a_column_array_is_the_one_argument_loop_bit_for_bit(modified, xs, orders):
    if modified:  # the I argument reach
        xs = [min(max(x, -700.0), 700.0) for x in xs]
    xs, orders = xs + xs[:1], orders[:len(xs) + 1]
    rows = _column(orders, xs, modified)
    for row, x, n in zip(rows, xs, orders):
        want = _hexes(_one_column_loop(n, x, modified))
        assert _hexes(_column([n], [x], modified)[0]) == want
        assert _hexes(row[:n + 1]) == want
        assert not row[n + 1:].any()
