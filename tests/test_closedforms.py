import math
import re
import warnings

import numpy as np
import pytest

from fermichain import (
    RegimeWarning,
    ReservoirParams,
    SeriesConvergenceError,
    bessel_i,
    bessel_j,
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
from fermichain import closedforms
from fermichain.transport import STATS_BOLTZMANN

_DAMPED_ENTRY_POINTS = {
    "nbar_fd_sommerfeld": (nbar_fd_sommerfeld, ReservoirParams(0.1, 0.5)),
    "ebar_fd_sommerfeld": (ebar_fd_sommerfeld, ReservoirParams(0.1, 0.5)),
    "nbar_boltzmann_closed": (nbar_boltzmann_closed, ReservoirParams(0.5, -3.0)),
    "ebar_boltzmann_closed": (ebar_boltzmann_closed, ReservoirParams(0.5, -3.0)),
}


@pytest.mark.parametrize("name", sorted(_DAMPED_ENTRY_POINTS))
@pytest.mark.parametrize("t, lam, match", [
    (math.nan, 0.1, "time must not be NaN"),
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
    # |x| beyond the series window switches to the defining integral
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


def test_omega_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(closedforms, "_OMEGA_MAX_TERMS", 3)
    with pytest.raises(SeriesConvergenceError, match="more than 3 terms"):
        omega(0, 9.5, 25.0)


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
    with pytest.raises(ValueError, match=r"mu/T must stay <= 690 .*got 1000\.0"):
        nbar_boltzmann_closed(1.0, res, 0.35, 1.0)


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


# (t, mu, T, n_max) -> float.hex of value and trunc_error_est, terms_used and
# converged of nbar_fd_sommerfeld and ebar_fd_sommerfeld, then float.hex of
# nbar_boltzmann_closed and ebar_boltzmann_closed at mu - 3; lam = 0.35, g = 1.
# Frozen values: any rewrite of the shared series loop or the closed-form body
# must reproduce them bit for bit.
_PINNED = {
    (0.0, 0.0, 0.1, 25): (
        ("0x0.0p+0", "0x0.0p+0", 3, True), ("0x0.0p+0", "0x0.0p+0", 3, True),
        ("0x1.da1bcdb020f64p-68", "-0x1.a56e0c2ac7f75p-67")),
    (0.37, -1.5, 0.1, 25): (
        ("-0x1.f0f6c78c572e2p-6", "0x1.6c40076cd36b5p-62", 7, True),
        ("0x1.bdc485c3ec9b9p-5", "0x1.97ec2d18e6912p-62", 7, True),
        ("-0x1.59985b8e967bap-43", "0x1.506921d70570dp-42")),
    (2.0, 1.4999, 0.05, 25): (
        ("-0x1.caeb8ccbbe627p-1", "0x1.a7273b1162a09p-57", 10, True),
        ("0x1.11b8fa158e7edp-2", "0x1.4b8f829a7d534p-56", 10, True),
        ("-0x1.62eeb9e413b4cp+9", "0x1.5e3d20004f0c2p+10")),
    (9.5, 0.7, 0.3, 3): (
        ("-0x1.3c8021824abfcp-1", "0x1.512f10e59af6ep-13", 4, False),
        ("0x1.1f0a13fcd42cfp-1", "0x1.fa40f7ebcf638p-14", 4, False),
        ("-0x1.d5f7462b60677p-5", "0x1.b0ab2576ef078p-4")),
    (33.0, -1.4999, 0.1, 25): (
        # out of terms, but both estimates meet the 1e-12 target
        ("-0x1.d04011e2c648cp-3", "0x1.3eeafc6eb5a20p-43", 26, True),
        ("0x1.a5f6aa0005781p-2", "0x1.df107bf8755ffp-43", 26, True),
        ("-0x1.5f4fa7604a826p-40", "0x1.56699f4fb25ccp-39")),
    (math.inf, 1.5, 0.1, 25): (
        ("-0x1.8bf31bc119e8dp-1", "0x0.0p+0", 0, True),
        ("0x1.a5ed260f249aep-2", "0x0.0p+0", 0, True),
        ("-0x1.aa62f4fe053ebp+3", "0x1.9f961e0c8b234p+4")),
}


@pytest.mark.parametrize("point", sorted(_PINNED))
def test_series_and_closed_forms_are_pinned(point):
    t, mu, temp, n_max = point
    n_pin, e_pin, boltzmann_pin = _PINNED[point]
    res = ReservoirParams(temp, mu)
    for fn, pin in ((nbar_fd_sommerfeld, n_pin), (ebar_fd_sommerfeld, e_pin)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = fn(t, res, 0.35, 1.0, n_max)
        assert (r.value.hex(), r.trunc_error_est.hex(), r.terms_used,
                r.converged) == pin, fn.__name__
        # a RegimeWarning exactly when the series reports itself unconverged
        warned = [w for w in caught if issubclass(w.category, RegimeWarning)]
        assert len(warned) == (not r.converged), fn.__name__
    dilute = ReservoirParams(temp, mu - 3.0)
    assert (nbar_boltzmann_closed(t, dilute, 0.35, 1.0).hex(),
            ebar_boltzmann_closed(t, dilute, 0.35, 1.0).hex()) == boltzmann_pin


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


def test_unconverged_sommerfeld_series_warns_with_g_t_and_estimate():
    # from g t = 40 the series used to return converged=False without a word
    res = ReservoirParams(0.1, 0.5)
    for fn in (nbar_fd_sommerfeld, ebar_fd_sommerfeld):
        with pytest.warns(RegimeWarning, match="unconverged at g t = 40: truncation "
                                               "estimate") as caught:
            series = fn(40.0, res, 0.0, 1.0)
        assert not series.converged
        assert "estimate %.3g after" % series.trunc_error_est in str(caught[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fn(10.0, res, 0.0, 1.0).converged  # the figures keep g t <= 10


def test_boltzmann_closed_forms_outside_the_dilute_regime_warn():
    for fn in (nbar_boltzmann_closed, ebar_boltzmann_closed):
        with pytest.warns(RegimeWarning, match="dilute regime: mu = 0 is not below"):
            fn(2.0, ReservoirParams(0.5, 0.0), 0.35, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(2.0, ReservoirParams(0.1, -3.0), 0.35, 1.0)  # c7's reservoir
