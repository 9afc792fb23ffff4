import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichain import closedforms, special
from fermichain import (
    RegimeWarning,
    ReservoirParams,
    SpecialFnTable,
    bessel_i,
    bessel_j,
    counters,
    ebar,
    ebar_boltzmann_closed,
    ebar_fd_sommerfeld,
    equilibrium_sommerfeld_onsager,
    nbar,
    nbar_boltzmann_closed,
    nbar_fd_sommerfeld,
    omega,
    omega_defining_integral,
)
from fermichain.closedforms import SeriesResult, _bracket_derivative_e, _bracket_derivative_n
from fermichain.transport import STATS_BOLTZMANN

_DAMPED_ENTRY_POINTS = {
    "nbar_fd_sommerfeld": (nbar_fd_sommerfeld, ReservoirParams(0.1, 0.5)),
    "ebar_fd_sommerfeld": (ebar_fd_sommerfeld, ReservoirParams(0.1, 0.5)),
    "nbar_boltzmann_closed": (nbar_boltzmann_closed, ReservoirParams(0.5, -3.0)),
    "ebar_boltzmann_closed": (ebar_boltzmann_closed, ReservoirParams(0.5, -3.0)),
}


@pytest.mark.parametrize("name", sorted(_DAMPED_ENTRY_POINTS))
@pytest.mark.parametrize("t, lam, match", [
    (math.nan, 0.1, "time must be a number >= 0, got nan"),
    (1.0, math.nan, "dephasing"),
    (1.0, -0.1, "dephasing"),
])
def test_closed_forms_reject_bad_time_or_dephasing(name, t, lam, match):
    # validated by the same layout as the quadrature; NaN t used to give
    # the damped limit
    fn, res = _DAMPED_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match=match):
        fn(t, res, lam, 1.0)


def test_omega_at_origin():
    assert omega(0, 0.0, 0.0).value == pytest.approx(1.0, abs=1e-14)


def test_omega_reduces_to_bessel_i():
    for nu in (0, 1):
        for y in (0.5, 2.0, 5.0):
            got = omega(nu, 0.0, y)
            assert got.value == pytest.approx(bessel_i(nu, y), abs=1e-10)
            assert got.converged


def test_omega_y0_product_form():
    for x in (1.0, 4.0, 10.0):
        assert omega(0, x, 0.0).value == pytest.approx(
            math.cos(0.5 * x) * bessel_j(0, 0.5 * x), abs=1e-10)


def test_omega_odd_order_vanishes_at_y0():
    # integrand odd about z = pi/2 for nu = 1, y = 0
    assert abs(omega(1, 3.0, 0.0).value) < 1e-12


def test_omega_frozen_reference_values():
    # 30-digit quadrature of the defining integral
    assert omega(0, 3.0, 1.5).value == pytest.approx(0.435139747711584576, abs=1e-12)
    assert omega(1, 5.0, 2.0).value == pytest.approx(0.676375204515787951, abs=1e-12)


def test_omega_quadrature_fallback_region():
    # |x| beyond the window of the retired double series, whose quadrature
    # fallback gave these values
    assert omega(0, 15.0, 3.0).value == pytest.approx(1.08279435381381146, abs=1e-10)
    assert omega(1, 25.0, 0.5).value == pytest.approx(0.0411156671711922582, abs=1e-10)


def test_omega_matches_defining_integral_on_grid():
    # the 1e-10 floor is meaningful for O(1) values; at y = 20 the value is
    # ~4e7 so both evaluations carry a few-ulp spread on top of their own
    # error estimates
    for nu in (0, 1):
        for x in (0.0, 2.0, 7.0, 12.0, 20.0):
            for y in (0.0, 1.0, 6.0, 20.0):
                s = omega(nu, x, y)
                q = omega_defining_integral(nu, x, y)
                tol = max(1e-10, s.trunc_error_est + q.trunc_error_est,
                          16 * np.finfo(float).eps * abs(q.value))
                assert abs(s.value - q.value) <= tol, (nu, x, y)


def test_omega_converged_means_within_tolerance():
    s = omega(0, 4.0, 3.0)
    assert s.converged
    assert s.trunc_error_est <= 1e-12
    assert s.terms_used > 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(nu=st.sampled_from([0, 1, 2]), x=st.floats(-60.0, 60.0), y=st.floats(0.0, 60.0))
def test_omega_matches_its_defining_integral(nu, x, y):
    # the band sum against direct quadrature, on the scale max(1, e^y) of
    # both evaluations' own error targets
    s = omega(nu, x, y)
    q = omega_defining_integral(nu, x, y)
    assert s.converged
    assert abs(s.value - q.value) <= 1e-12 * max(1.0, math.exp(y))


@pytest.mark.parametrize("x", [2e4, -2e4])
@pytest.mark.parametrize("y", [1.0, 10.0, 700.0])
def test_defining_integral_covers_the_whole_omega_range(x, y):
    # ceil(|x|) = 20,000 starting panels double twice inside the quadrature's
    # budget; the direct integral used to stop at |x| <= 16383
    for nu in (0, 1):
        s = omega(nu, x, y)
        q = omega_defining_integral(nu, x, y)
        assert abs(q.value - s.value) <= 1e-12 * max(1.0, abs(s.value)), (nu, x, y)


@pytest.mark.parametrize("nu, x, y", [(0, 0.0, 700.0), (0, 5.0, 700.0), (1, 40.0, 500.0),
                                      (1, -120.0, 30.0)])
def test_omega_covers_its_whole_range(nu, x, y):
    # the retired double series handled |x| <= 10 and y <= 30 only
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    ref = mpmath.quad(lambda k: mpmath.cos(k) ** nu * mpmath.exp(y * mpmath.cos(k))
                      * mpmath.cos(x * mpmath.sin(k) ** 2),
                      mpmath.linspace(0, mpmath.pi, 2 + int(abs(x)) // 4)) / mpmath.pi
    s = omega(nu, x, y)
    assert s.converged
    assert abs(s.value - float(ref)) <= 1e-13 * max(1.0, math.exp(y))


def test_omega_at_the_edge_of_the_j_range():
    # omega_0(x, 0) = cos(x/2) J_0(x/2); the old quadrature fallback stopped
    # near |x| = 16k
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for x in (2e4, -1.5e4):
        ref = mpmath.cos(x / 2) * mpmath.besselj(0, x / 2)
        assert omega(0, x, 0.0).value == pytest.approx(float(ref), abs=1e-15)


def test_omega_rejects_x_beyond_the_j_range():
    with pytest.raises(ValueError, match=r"^x must lie in \[-20000, 20000\], twice the "
                                         r"validated J_n range, got 20001\.0$"):
        omega(0, 2.0001e4, 1.0)


def test_boltzmann_closed_t0_and_damped_limit():
    res = ReservoirParams(temperature=0.1, mu=-3.0)
    assert nbar_boltzmann_closed(0.0, res, 0.35, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert ebar_boltzmann_closed(0.0, res, 0.35, 1.0) == pytest.approx(0.0, abs=1e-14)
    beta = res.beta
    limit = -math.exp(beta * res.mu) * bessel_i(0, 2.0 * beta)
    assert nbar_boltzmann_closed(math.inf, res, 0.35, 1.0) == pytest.approx(limit, rel=1e-12)


def test_boltzmann_closed_equals_quadrature():
    # exact identity between the omega form and the band integral
    res = ReservoirParams(temperature=0.1, mu=-3.0)
    for t in (0.5, 2.0, 8.0):
        n_closed = nbar_boltzmann_closed(t, res, 0.35, 1.0)
        n_quad = nbar(t, res, 0.35, 1.0, stats=STATS_BOLTZMANN)
        assert n_closed == pytest.approx(n_quad, abs=1e-8)
        e_closed = ebar_boltzmann_closed(t, res, 0.35, 1.0)
        e_quad = ebar(t, res, 0.35, 1.0, stats=STATS_BOLTZMANN)
        assert e_closed == pytest.approx(e_quad, abs=1e-8)


def test_boltzmann_ebar_high_temperature_form():
    # beta -> 0 at mu = 0: value reduces to -2 e^{beta mu} E omega_1(2gt, 2beta),
    # which collapses toward 0 with the odd-order omega
    res = ReservoirParams(temperature=1e6, mu=0.0)
    lam, g, t = 0.35, 1.0, 1.5
    with pytest.warns(RegimeWarning, match="outside the dilute regime"):  # mu = 0 is not dilute
        got = ebar_boltzmann_closed(t, res, lam, g)
    beta = res.beta
    z = np.linspace(0.0, math.pi, 200_001)
    om1 = np.trapezoid(np.cos(z) * np.exp(2.0 * beta * np.cos(z))
                       * np.cos(2.0 * g * t * np.sin(z) ** 2), z) / math.pi
    want = -2.0 * (math.exp(-lam * t) * om1 - bessel_i(1, 2.0 * beta))
    assert got == pytest.approx(want, abs=1e-12)
    assert abs(got) < 1e-5  # O(beta) overall


def test_boltzmann_prefactor_overflow_guard():
    res = ReservoirParams(temperature=0.001, mu=1.0)
    # exp(mu/T) = exp(1000) used to raise a raw OverflowError
    with pytest.raises(ValueError, match=re.escape("temperature 0.001, whose (max(mu, 0) + 2)/T, "
                                                   "must be <= 700") + ".*got 3000\\.0"):
        nbar_boltzmann_closed(1.0, res, 0.35, 1.0)


@pytest.mark.parametrize("fn", [nbar_boltzmann_closed, ebar_boltzmann_closed])
def test_boltzmann_closed_form_below_t_0p02_matches_quadrature(fn):
    # T = 0.015 took 2/T = 133 out of the old I_n range and raised; the wider
    # I column covers it
    res = ReservoirParams(0.015, -3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(1.0, res, 0.1, 1.0)
        n_quad, e_quad = counters(1.0, res, 0.1, 1.0, stats=STATS_BOLTZMANN)
    want = n_quad if fn is nbar_boltzmann_closed else e_quad
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("fn, nu, scale", [(nbar_boltzmann_closed, 0, 1.0),
                                          (ebar_boltzmann_closed, 1, -2.0)])
def test_boltzmann_closed_forms_keep_their_absolute_bound_at_small_t(fn, nu, scale):
    # at t = 1e-6 the two terms, about 8e-9, cancel to about 4e-23: the error
    # is within 1e-12 |scale| exp(beta mu) max(1, I_nu(2 beta)), as the
    # docstrings say, not within any fraction of the value
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    temp, mu, t, g = 0.0625, -3.0, 1e-6, 1.0
    beta = 1 / mpmath.mpf(temp)
    y, x = 2 * beta, 2 * g * mpmath.mpf(t)

    def integrand(k):  # cos(x sin^2 k) - 1 without the cancellation
        return (mpmath.cos(k) ** nu * mpmath.exp(y * mpmath.cos(k))
                * -2 * mpmath.sin(x * mpmath.sin(k) ** 2 / 2) ** 2)

    exact = float(scale * mpmath.exp(beta * mu)
                  * mpmath.quad(integrand, [0, mpmath.pi / 2, mpmath.pi]) / mpmath.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(t, ReservoirParams(temp, mu), 0.0, g)
    bound = 1e-12 * abs(scale) * float(mpmath.exp(beta * mu) * max(1, mpmath.besseli(nu, y)))
    assert abs(got - exact) <= bound, (got, exact, bound)


def test_sommerfeld_zero_at_t0():
    res = ReservoirParams(temperature=0.1, mu=0.7)
    assert nbar_fd_sommerfeld(0.0, res, 0.35, 1.0).value == pytest.approx(0.0, abs=1e-12)
    assert ebar_fd_sommerfeld(0.0, res, 0.35, 1.0).value == pytest.approx(0.0, abs=1e-12)


def test_sommerfeld_tracks_quadrature():
    res = ReservoirParams(temperature=0.1, mu=0.0)
    n_series = nbar_fd_sommerfeld(2.0, res, 0.35, 1.0).value
    n_quad = nbar(2.0, res, 0.35, 1.0)
    assert n_series == pytest.approx(n_quad, rel=1e-2)
    e_series = ebar_fd_sommerfeld(2.0, res, 0.35, 1.0).value
    e_quad = ebar(2.0, res, 0.35, 1.0)
    assert e_series == pytest.approx(e_quad, rel=1e-2)


def test_sommerfeld_error_grows_with_temperature():
    def rel_gap(temp, mu, t=2.0):
        res = ReservoirParams(temperature=temp, mu=mu)
        q = nbar(t, res, 0.35, 1.0)
        s = nbar_fd_sommerfeld(t, res, 0.35, 1.0).value
        return abs(s - q) / max(abs(q), 1e-30)

    for mu in (-1.5, 1.5):
        assert rel_gap(0.25, mu) > rel_gap(0.1, mu)


def test_sommerfeld_exact_for_particle_counter_at_band_center():
    # at mu = 0 the particle counter's T-dependence cancels identically
    # (odd integrand), so series and quadrature agree to machine precision
    for temp in (0.4, 0.1):
        res = ReservoirParams(temperature=temp, mu=0.0)
        q = nbar(2.0, res, 0.35, 1.0)
        s = nbar_fd_sommerfeld(2.0, res, 0.35, 1.0).value
        assert abs(s - q) / abs(q) < 1e-12


def test_sommerfeld_converges_as_t_drops():
    def gaps(fn_series, fn_quad, mu):
        out = []
        for temp in (0.4, 0.2, 0.1, 0.05):
            res = ReservoirParams(temperature=temp, mu=mu)
            q = fn_quad(2.0, res, 0.35, 1.0)
            s = fn_series(2.0, res, 0.35, 1.0).value
            out.append(abs(s - q) / abs(q))
        return out

    for seq in (gaps(ebar_fd_sommerfeld, ebar, 0.0),
                gaps(nbar_fd_sommerfeld, nbar, 0.6)):
        assert all(a > b for a, b in zip(seq, seq[1:])), seq


def test_sommerfeld_damped_limit_matches_quadrature():
    # lam t >> 1 leaves the t-independent part plus the T^2 correction
    res = ReservoirParams(temperature=0.1, mu=0.7)
    e_series = ebar_fd_sommerfeld(math.inf, res, 0.5, 1.0).value
    e_quad = ebar(math.inf, res, 0.5, 1.0)
    assert e_series == pytest.approx(e_quad, rel=2e-3)
    n_series = nbar_fd_sommerfeld(math.inf, res, 0.5, 1.0).value
    n_quad = nbar(math.inf, res, 0.5, 1.0)
    assert n_series == pytest.approx(n_quad, rel=2e-3)


@pytest.mark.parametrize("fn", [nbar_fd_sommerfeld, ebar_fd_sommerfeld])
def test_sommerfeld_over_a_time_array_at_overflowing_lam_t_is_the_damped_limit(fn):
    # lam t overflows to inf: a time array used to warn "overflow encountered
    # in multiply" where one scalar time gave the damped limit
    res = ReservoirParams(temperature=0.1, mu=0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(np.array([1.0, 2.0]), res, 1e308, 1.0)
    damped = fn(math.inf, res, 0.5, 1.0)
    assert got.value.tolist() == [damped.value] * 2
    assert got.trunc_error_est.tolist() == [0.0, 0.0] and got.converged


def test_sommerfeld_domain_guard():
    res = ReservoirParams(temperature=0.1, mu=2.0)
    with pytest.raises(ValueError):
        nbar_fd_sommerfeld(1.0, res, 0.35, 1.0)
    with pytest.raises(ValueError):
        ebar_fd_sommerfeld(1.0, ReservoirParams(0.1, -2.5), 0.35, 1.0)


@pytest.mark.parametrize("temp, mu", [(1.3e154, 0.0), (0.64, 0.0), (0.5, 1.5)])
def test_sommerfeld_rejects_an_expansion_parameter_of_one_or_more(temp, mu):
    # (pi T)^2/(4 - mu^2) >= 1 is outside the low-T regime; T = 1.3e154
    # used to give inf/nan coefficients without complaint
    res = ReservoirParams(temperature=temp, mu=mu)
    for call in (lambda: nbar_fd_sommerfeld(1.0, res, 0.35, 1.0),
                 lambda: ebar_fd_sommerfeld(1.0, res, 0.35, 1.0),
                 lambda: equilibrium_sommerfeld_onsager(res)):
        with pytest.raises(ValueError, match=re.escape("(pi T)^2/(4 - mu^2) < 1")):
            call()


def test_sommerfeld_at_tiny_g_t_is_finite():
    # g t = 1e-200 builds its Bessel table from the x -> 0 leading term
    for fn in (nbar_fd_sommerfeld, ebar_fd_sommerfeld):
        assert math.isfinite(fn(1e-200, ReservoirParams(0.1, 0.3), 0.35, 1.0).value)


def test_sommerfeld_series_bookkeeping():
    s = nbar_fd_sommerfeld(3.0, ReservoirParams(0.1, 0.4), 0.35, 1.0)
    assert s.converged
    assert s.terms_used >= 1
    assert s.trunc_error_est >= 0.0


def test_series_batches_compare_field_by_field_and_do_not_hash():
    # the generated __eq__ compared field tuples, which numpy's array truth
    # value made ambiguous, and hash raised a raw unhashable TypeError
    t, res = np.array([1.0, 2.0]), ReservoirParams(0.1, 0.3)
    batch = nbar_fd_sommerfeld(t, res, 0.1, 1.0)
    assert batch == nbar_fd_sommerfeld(t, res, 0.1, 1.0)
    assert batch != ebar_fd_sommerfeld(t, res, 0.1, 1.0)
    assert batch != nbar_fd_sommerfeld(np.array([1.0, 2.5]), res, 0.1, 1.0)
    with pytest.raises(TypeError, match="batched SeriesResult"):
        hash(batch)
    # one time keeps the value equality and hash of a dataclass
    one = nbar_fd_sommerfeld(1.0, res, 0.1, 1.0)
    assert one == nbar_fd_sommerfeld(1.0, res, 0.1, 1.0) != nbar_fd_sommerfeld(2.0, res, 0.1, 1.0)
    assert hash(one) == hash((one.value, one.trunc_error_est, one.terms_used, one.converged))
    assert {one: 1}[nbar_fd_sommerfeld(1.0, res, 0.1, 1.0)] == 1


def test_series_fields_that_do_not_broadcast_are_rejected_by_name():
    with pytest.raises(ValueError, match=re.escape(
            "SeriesResult fields must broadcast together, got {'value': (2,), "
            "'trunc_error_est': (3,), 'terms_used': (), 'converged': ()}")):
        SeriesResult(np.zeros(2), np.zeros(3), 20, True)


# (t, mu, T) -> float.hex of value and trunc_error_est, terms_used and
# converged of nbar_fd_sommerfeld and ebar_fd_sommerfeld, then float.hex of
# nbar_boltzmann_closed and ebar_boltzmann_closed at mu - 3; lam = 0.35, g = 1.
# Frozen values: any rewrite of the band sum or the closed-form body must
# reproduce them bit for bit.  Re-pinned when both closed forms moved to the
# one Jacobi-Anger band sum.  Against the term-by-term series the Sommerfeld
# values moved by at most 1.3e-15 relative (7e-17 absolute), except at
# (9.5, 0.7, 0.3), pinned at n_max = 3, where that series was unconverged
# (6e-4 relative), and at (33, -1.4999, 0.1), where it ran out of terms
# (9e-14 relative).  The Boltzmann values moved by at most 1.2e-14 relative
# (2e-27 absolute), and at t = 0 they are now the exact 0 rather than
# round-off around it.
_PINNED = {
    (0.0, 0.0, 0.1): (
        ("0x0.0p+0", "0x0.0p+0", 10, True), ("0x0.0p+0", "0x0.0p+0", 10, True),
        ("0x0.0p+0", "-0x0.0p+0")),
    (0.37, -1.5, 0.1): (
        ("-0x1.f0f6c78c572e2p-6", "0x1.c5df9b50f4d25p-90", 18, True),
        ("0x1.bdc485c3ec9afp-5", "0x1.507d7e6811f65p-89", 18, True),
        ("-0x1.59985b8e967fep-43", "0x1.506921d705738p-42")),
    (2.0, 1.4999, 0.05): (
        ("-0x1.caeb8ccbbe627p-1", "0x1.f3409a6cb5046p-92", 27, True),
        ("0x1.11b8fa158e7eep-2", "0x1.76e086771e2bep-91", 27, True),
        ("-0x1.62eeb9e413b4fp+9", "0x1.5e3d20004f0c6p+10")),
    (9.5, 0.7, 0.3): (
        ("-0x1.3c4d568c0d751p-1", "0x1.f5d04c85266aap-89", 44, True),
        ("0x1.1f299ffa60632p-1", "0x1.5c6659ed442bcp-89", 44, True),
        ("-0x1.d5f7462b60676p-5", "0x1.b0ab2576ef078p-4")),
    (33.0, -1.4999, 0.1): (
        ("-0x1.d04011e2c6191p-3", "0x1.4dcd92c01acdap-99", 81, True),
        ("0x1.a5f6aa0005545p-2", "0x1.f3f0251d3254ep-99", 81, True),
        ("-0x1.5f4fa7604a828p-40", "0x1.56699f4fb25c9p-39")),
    (math.inf, 1.5, 0.1): (
        ("-0x1.8bf31bc119e8dp-1", "0x0.0p+0", 10, True),
        ("0x1.a5ed260f249aep-2", "0x0.0p+0", 10, True),
        ("-0x1.aa62f4fe053eep+3", "0x1.9f961e0c8b230p+4")),
}


@pytest.mark.parametrize("point", sorted(_PINNED))
def test_series_and_closed_forms_are_pinned(point):
    t, mu, temp = point
    n_pin, e_pin, boltzmann_pin = _PINNED[point]
    res = ReservoirParams(temp, mu)
    for fn, pin in ((nbar_fd_sommerfeld, n_pin), (ebar_fd_sommerfeld, e_pin)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = fn(t, res, 0.35, 1.0)
        assert (r.value.hex(), r.trunc_error_est.hex(), r.terms_used,
                r.converged) == pin, fn.__name__
    dilute = ReservoirParams(temp, mu - 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # three points are not dilute
        assert (nbar_boltzmann_closed(t, dilute, 0.35, 1.0).hex(),
                ebar_boltzmann_closed(t, dilute, 0.35, 1.0).hex()) == boltzmann_pin


@pytest.mark.parametrize("point", sorted(_PINNED))
def test_a_repeated_time_reproduces_the_pinned_boltzmann_bits_in_both_entries(point):
    t, mu, temp = point
    dilute = ReservoirParams(temp, mu - 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # three points are not dilute
        pair = [fn(np.array([t, t]), dilute, 0.35, 1.0).tolist()
                for fn in (nbar_boltzmann_closed, ebar_boltzmann_closed)]
    assert [(n.hex(), e.hex()) for n, e in zip(*pair)] == [_PINNED[point][2]] * 2


# |g t| that reach every branch of the J column: 0, the leading term ((g t/2)^2
# below 2^-53, under about 2.1e-8), the recurrence that rescales (to about
# 5e-7) and the plain one, up to the J argument reach
_GT = st.one_of(st.just(0.0), st.floats(1e-300, 2e-8), st.floats(2.2e-8, 5e-7),
                st.floats(5e-7, 1e3), st.floats(1e3, 9999.0))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(gts=st.lists(_GT, min_size=1, max_size=5), g=st.sampled_from([1.0, -1.0, 0.35, -2.5]),
       lam=st.sampled_from([0.0, 0.35]), mu=st.floats(-1.5, 1.5), temp=st.floats(0.01, 0.3))
def test_a_time_array_gives_each_time_the_bits_of_its_scalar_call(gts, g, lam, mu, temp):
    times = [gt / abs(g) for gt in gts] + ([math.inf] if lam > 0.0 else [])
    times.append(times[0])  # a repeated time
    res = ReservoirParams(temp, mu)
    for fn in (nbar_fd_sommerfeld, ebar_fd_sommerfeld):
        batch = fn(np.array(times), res, lam, g)
        solo = [fn(t, res, lam, g) for t in times]
        assert [v.hex() for v in batch.value.tolist()] == [r.value.hex() for r in solo]
        assert ([v.hex() for v in batch.trunc_error_est.tolist()]
                == [r.trunc_error_est.hex() for r in solo])
        assert batch.terms_used == sum(r.terms_used for r in solo)
        assert batch.converged == all(r.converged for r in solo)


# x of omega: each branch of the J column, as _GT, either sign, and -0.0
_X = st.one_of(st.just(-0.0), _GT.map(lambda gt: 2.0 * gt), _GT.map(lambda gt: -2.0 * gt))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(_X, min_size=1, max_size=5), nu=st.sampled_from([0, 1, 2]),
       y=st.floats(0.0, 60.0))
def test_omega_over_an_x_array_gives_each_x_the_bits_of_its_scalar_call(xs, nu, y):
    xs = xs + [xs[0], 0.0]  # a repeated x, and 0.0 beside any -0.0
    batch = omega(nu, np.array(xs)[:, None], y)
    solo = [omega(nu, x, y) for x in xs]
    assert batch.value.shape == batch.trunc_error_est.shape == (len(xs), 1)
    assert [v.hex() for v in batch.value.ravel().tolist()] == [r.value.hex() for r in solo]
    assert ([v.hex() for v in batch.trunc_error_est.ravel().tolist()]
            == [r.trunc_error_est.hex() for r in solo])
    assert batch.terms_used == sum(r.terms_used for r in solo)
    assert batch.converged == all(r.converged for r in solo)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small=st.lists(st.floats(0.0, 1e-6), max_size=3), gts=st.lists(_GT, max_size=3),
       g=st.sampled_from([1.0, -1.0, 0.35, -2.5]), lam=st.sampled_from([0.0, 0.35]),
       temp=st.floats(0.05, 2.0), mu=st.floats(-6.0, 1.0))
def test_a_boltzmann_form_over_a_time_array_gives_each_time_its_scalar_bits(
        small, gts, g, lam, temp, mu):
    # t = 0, the small-t cancellation regime, g t up to the J argument reach,
    # t = inf where lam > 0, and a repeated time
    times = [0.0] + small + [gt / abs(g) for gt in gts] + ([math.inf] if lam > 0.0 else [])
    times.append(times[-1])
    res = ReservoirParams(temp, mu)
    for fn in (nbar_boltzmann_closed, ebar_boltzmann_closed):
        with warnings.catch_warnings(record=True) as batch_warnings:
            warnings.simplefilter("always")
            batch = fn(np.array(times), res, lam, g)
        with warnings.catch_warnings(record=True) as solo_warnings:
            warnings.simplefilter("always")
            solo = [fn(t, res, lam, g) for t in times]
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in solo]
        # outside the dilute regime a call warns once, however many times it takes
        assert {w.category for w in solo_warnings} <= {RegimeWarning}
        assert len(batch_warnings) <= 1
        assert len(solo_warnings) == len(times) * len(batch_warnings)


def test_a_boltzmann_form_over_no_times_builds_no_column(monkeypatch):
    built, column = [], special._column

    def counted(*args):
        built.append(args)
        return column(*args)

    for module in (special, closedforms):  # closedforms holds its own binding
        monkeypatch.setattr(module, "_column", counted)
    for fn in (nbar_boltzmann_closed, ebar_boltzmann_closed):
        out = fn(np.array([]), ReservoirParams(0.1, -3.0), 0.35, 1.0)
        assert isinstance(out, np.ndarray) and out.shape == (0,)
    assert built == []


@pytest.mark.parametrize("fn", [nbar_boltzmann_closed, ebar_boltzmann_closed])
def test_a_nan_entry_of_a_time_array_is_named(fn):
    with pytest.raises(ValueError, match="time must be a number >= 0"):
        fn(np.array([1.0, math.nan]), ReservoirParams(0.1, -3.0), 0.35, 1.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mus=st.lists(st.floats(-1.95, 1.95), min_size=1, max_size=8), temp=st.floats(1e-3, 0.3))
def test_a_mu_batch_gives_each_mu_the_bits_of_its_scalar_equilibrium_block(mus, temp):
    mus = [mu for mu in mus if math.pi * temp < math.sqrt(4.0 - mu * mu)] or [0.0]
    batch = equilibrium_sommerfeld_onsager(ReservoirParams(temp, np.array(mus)))
    assert batch.temperature == temp
    for i, mu in enumerate(mus):
        solo = equilibrium_sommerfeld_onsager(ReservoirParams(temp, mu))
        assert [col[i].hex() for col in batch.columns] == [v.hex() for v in solo.columns]
    # a batch over temperature is not one block: its temperature is named
    with pytest.raises(ValueError, match="temperature must be one scalar"):
        equilibrium_sommerfeld_onsager(ReservoirParams(np.array([temp, temp]), 0.0))


# one entry of a Sommerfeld evaluation: (g t, T, mu, lam), t = inf only where lam > 0
_ENTRY = st.tuples(st.one_of(_GT, st.just(math.inf)), st.floats(0.01, 0.3),
                   st.floats(-1.5, 1.5), st.sampled_from([0.0, 0.35]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(entries=st.lists(_ENTRY, min_size=1, max_size=8),
       g=st.sampled_from([1.0, -1.0, 0.35, -2.5]))
def test_one_n_and_e_evaluation_gives_each_entry_the_bits_of_its_scalar_calls(entries, g):
    entries = [(gt / abs(g) if gt < math.inf or lam > 0.0 else 0.0, temp, mu, lam)
               for gt, temp, mu, lam in entries]
    entries.append(entries[0])  # a repeated entry
    t, temp, mu, lam = (np.array(v) for v in zip(*entries))
    forms = closedforms._sommerfeld(t, ReservoirParams(temp, mu), lam, g, closedforms._FORMS)
    for fn, batch in zip((nbar_fd_sommerfeld, ebar_fd_sommerfeld), forms):
        solo = [fn(ti, ReservoirParams(temp_i, mu_i), lam_i, g)
                for ti, temp_i, mu_i, lam_i in entries]
        assert [v.hex() for v in batch.value.tolist()] == [r.value.hex() for r in solo]
        assert ([v.hex() for v in batch.trunc_error_est.tolist()]
                == [r.trunc_error_est.hex() for r in solo])
        assert batch.terms_used == sum(r.terms_used for r in solo)
        assert batch.converged == all(r.converged for r in solo)
    points = [(ti, ReservoirParams(temp_i, mu_i), lam_i) for ti, temp_i, mu_i, lam_i in entries]
    assert closedforms._fd_counters(points, g).T.tolist() == [f.value.tolist() for f in forms]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(gts=st.lists(_GT, min_size=1, max_size=6), seed=st.integers(0, 2 ** 32 - 1))
def test_a_band_sum_with_a_row_per_z_gives_each_row_its_one_point_bits(gts, seed):
    zs = gts + gts[:1]  # a repeated z, with its own coefficients
    orders = [SpecialFnTable.band_orders(z) for z in zs]
    coeffs = np.random.default_rng(seed).standard_normal((2, len(zs), max(orders)))
    values, tails = special.bessel_band_sum(np.array(zs), coeffs, orders)
    assert values.shape == tails.shape == (2, len(zs))
    for form in range(2):
        for i, (z, n) in enumerate(zip(zs, orders)):
            solo = special.bessel_band_sum(z, coeffs[form, i, :n])
            assert [values[form, i].hex(), tails[form, i].hex()] == [v.hex() for v in solo]


def sommerfeld_oracle(t, res, dephasing, g, energy, n_max):
    """The term-by-term Sommerfeld series that the band sum replaced.

    S = cos(gt) J_0(gt) h + sum_n (-1)^n term_n with hand-paired terms in
    cos(gt) J_2n(gt) and sin(gt) J_2n-1(gt), h = th (N) or sin(th) (E), summed
    until two successive |terms| fall below 1e-13 or n_max runs out; returns
    the counter's value and whether the stopping rule was met.  The T^2
    bracket is the library's own: only the Bessel series is independent.
    """
    damping = math.exp(-dephasing * t)
    gt = g * t
    theta = math.acos(-0.5 * res.mu)
    h = math.sin(theta) if energy else theta
    table = SpecialFnTable(2 * n_max, gt)
    c, s = math.cos(gt), math.sin(gt)

    def term(n):
        cj, sj = c * table.j(2 * n), s * table.j(2 * n - 1)
        if not energy:
            return (cj * math.sin(4 * n * theta) / (2 * n)
                    - sj * math.sin((4 * n - 2) * theta) / (2 * n - 1))
        upper = math.sin((4 * n + 1) * theta) / (4 * n + 1)
        middle = math.sin((4 * n - 1) * theta) / (4 * n - 1)
        lower = math.sin((4 * n - 3) * theta) / (4 * n - 3)
        return cj * (upper + middle) - sj * (middle + lower)

    series = c * table.j(0) * h
    last = math.inf
    converged = False
    for n in range(1, n_max + 1):
        signed = (-1.0 if n % 2 else 1.0) * term(n)
        series += signed
        if abs(signed) < 1e-13 and last < 1e-13:
            converged = True
            break
        last = abs(signed)
    pref = -2.0 if energy else 1.0
    bracket = (_bracket_derivative_e if energy else _bracket_derivative_n)(
        res.mu, t, damping, g)
    value = (pref * damping * series - pref * h
             + (math.pi ** 2 * res.temperature ** 2 / 6.0) * bracket) / math.pi
    return value, converged


def test_band_sum_matches_the_term_by_term_series_on_the_c8_grid():
    # c8's grid: the onsteste2 comparison at T = 0.1 and 0.25, seven mu
    worst = 0.0
    for temp in (0.1, 0.25):
        for mu in np.linspace(-1.5, 1.5, 7):
            res = ReservoirParams(temp, float(mu))
            for t in np.linspace(0.0, 10.0, 11):
                for energy, fn in ((False, nbar_fd_sommerfeld), (True, ebar_fd_sommerfeld)):
                    want, converged = sommerfeld_oracle(float(t), res, 0.35, 1.0, energy, 25)
                    assert converged
                    worst = max(worst, abs(fn(float(t), res, 0.35, 1.0).value - want))
    assert worst <= 1e-15


@pytest.mark.parametrize("gt", [40.0, 60.0])
def test_sommerfeld_converges_at_large_g_t(gt):
    # from g t = 40 the old series ran out of its n_max = 25 terms, returned
    # converged=False and warned; the band sum's length follows g t
    res = ReservoirParams(0.1, 0.5)
    for energy, fn in ((False, nbar_fd_sommerfeld), (True, ebar_fd_sommerfeld)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = fn(gt, res, 0.0, 1.0)
        want, converged = sommerfeld_oracle(gt, res, 0.0, 1.0, energy, 60)
        assert converged and series.converged
        assert series.trunc_error_est <= 1e-12
        assert series.value == pytest.approx(want, abs=1e-14)


def test_sommerfeld_rejects_g_t_beyond_the_j_range():
    with pytest.raises(ValueError, match=r"g t must lie in \[-10000, 10000\]"):
        nbar_fd_sommerfeld(1.0001e4, ReservoirParams(0.1, 0.5), 0.0, 1.0)
    # the old series raised from g t = 100; the range now reaches 1e4
    assert ebar_fd_sommerfeld(1e4, ReservoirParams(0.1, 0.5), 0.0, 1.0).converged


def test_equilibrium_block_reciprocity_and_parity():
    res = ReservoirParams(temperature=0.1, mu=0.9)
    blk = equilibrium_sommerfeld_onsager(res)
    assert blk.j_n_t == pytest.approx(blk.j_q_mu, rel=1e-13)
    mirror = equilibrium_sommerfeld_onsager(ReservoirParams(0.1, -0.9))
    assert blk.j_n_mu == pytest.approx(mirror.j_n_mu, rel=1e-13)
    assert blk.j_q_t == pytest.approx(mirror.j_q_t, rel=1e-13)
    assert blk.j_n_t == pytest.approx(-mirror.j_n_t, rel=1e-13)


def test_equilibrium_block_tracks_damped_quadrature():
    from fermichain import onsager
    res = ReservoirParams(temperature=0.1, mu=0.3)
    closed = equilibrium_sommerfeld_onsager(res)
    quad = onsager(math.inf, res, 0.5, 1.0)
    assert closed.j_n_mu == pytest.approx(quad.j_n_mu, rel=5e-3)
    # j_q_t leads at order T^3, so its truncation error is T^2 relative (~2%)
    assert closed.j_q_t == pytest.approx(quad.j_q_t, rel=5e-2)


def test_boltzmann_closed_forms_outside_the_dilute_regime_warn():
    for fn in (nbar_boltzmann_closed, ebar_boltzmann_closed):
        with pytest.warns(RegimeWarning, match="dilute regime: mu = 0 is not below"):
            fn(2.0, ReservoirParams(0.5, 0.0), 0.35, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(2.0, ReservoirParams(0.1, -3.0), 0.35, 1.0)  # c7's reservoir
