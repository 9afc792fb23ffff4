"""Closed-form evaluations of the band-averaged transfer counters.

The workhorse is the two-parameter integral family

    omega_nu(x, y) = (1/pi) int_0^pi cos(z)^nu exp(y cos z) cos(x sin(z)^2) dz

which collapses the Boltzmann-statistics band integrals exactly:

    nbar_B(t) = exp(beta mu) [exp(-lam t) omega_0(2 g t, 2 beta) - I_0(2 beta)]
    ebar_B(t) = -2 exp(beta mu) [exp(-lam t) omega_1(2 g t, 2 beta) - I_1(2 beta)]

omega is evaluated by the double series

    (1/pi) sum_n (-1)^n x^(2n)/(2n)! sum_m y^(2m+i)/(2m+i)!
                 * B(2n + 1/2, (nu + 2m + 1 + i)/2),     i = nu mod 2

(alternating in n, all-positive in m) with a direct-quadrature fallback once
|x| or y leaves the series-stable window.  Useful identities, verified in the
test suite: omega_nu(0, y) = I_nu(y) for nu in {0, 1}, and
omega_0(x, 0) = cos(x/2) J_0(x/2).

For Fermi-Dirac statistics at low temperature the same integrals admit a
Sommerfeld expansion.  Writing th = arccos(-mu/2) and expanding the
oscillation cos(2 g t sin(k)^2) = cos(g t - g t cos 2k) over harmonics
(argument g t, not 2 g t), the partial-band integrals int_0^th cos(j k) dk =
sin(j th)/j give

  nbar_FD = (1/pi) { exp(-lam t) S_N - th
                     + (pi^2 T^2 / 6) d/de[(exp(-lam t) cos(g_e t) - 1)
                                           / sqrt(4 - e^2)]_{e=mu} }
  S_N = cos(gt) J_0(gt) th + sum_{n>=1} (-1)^n [ cos(gt) J_2n(gt) sin(4n th)/(2n)
        - sin(gt) J_{2n-1}(gt) sin((4n-2) th)/(2n-1) ]

  ebar_FD = (1/pi) { -2 exp(-lam t) S_E + 2 sin(th)
                     + (pi^2 T^2 / 6) d/de[e (exp(-lam t) cos(g_e t) - 1)
                                           / sqrt(4 - e^2)]_{e=mu} }
  S_E = cos(gt) J_0(gt) sin(th) + sum_{n>=1} (-1)^n [ cos(gt) J_2n(gt)
        (sin((4n+1)th)/(4n+1) + sin((4n-1)th)/(4n-1))
        - sin(gt) J_{2n-1}(gt) (sin((4n-1)th)/(4n-1) + sin((4n-3)th)/(4n-3)) ]

with g_e = 2 g (1 - e^2/4), so the bracket derivatives are taken with the
full e-dependence and evaluated at e = mu.  Both expansions vanish
identically at t = 0 and reduce at t = inf (lam > 0) to the damped limits,
whose mu/T derivatives are also provided here in closed form for
equilibrium comparisons.  Every Sommerfeld form rejects by name a mu
outside (-2, 2) and an expansion parameter (pi T)^2/(4 - mu^2) of 1 or more,
and warns with ``RegimeWarning`` when its series stops short of the 1e-12
target; the Boltzmann forms warn so outside the dilute regime, and reject
by name a temperature below 0.02, where 2/T leaves the validated I_n range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .lattice import (ReservoirParams, RegimeWarning, _require, _warn_unless_dilute,
                      relaxation_envelope)
from .special import _J_MAX_ARG, SpecialFnTable, beta_fn, bessel_i
from .transport import OnsagerBlock, QuadratureSpec, integrate_interval

import numpy as np

_X_SERIES_MAX = 10.0  # alternating-sum cancellation stays under ~1e-11 here
_Y_SERIES_MAX = 30.0
_SERIES_TOL = 1e-12  # target error of the omega and Sommerfeld series
_OMEGA_MAX_TERMS = 200
_Y_MAX = 700.0  # exp(y) in the omega integrand stays finite
_Y_DOMAIN = "lie in [0, %g] (no analytic continuation; exp(y) stays finite)" % _Y_MAX
_I_ARG_DOMAIN = "keep 2/T <= %g, the validated I_n range" % _J_MAX_ARG


class SeriesConvergenceError(RuntimeError):
    """Series did not meet tolerance within the term budget."""


@dataclass(frozen=True)
class SeriesResult:
    """A truncated-series value with its own error bookkeeping."""

    value: float
    trunc_error_est: float
    terms_used: int
    converged: bool


def _check_omega_args(nu: int, x: float, y: float):
    _require("nu", nu, isinstance(nu, (int, np.integer)) and nu >= 0,
             "be a non-negative integer")
    _require("x", x, math.isfinite(x), "be finite")
    _require("y", y, 0.0 <= y <= _Y_MAX, _Y_DOMAIN)


def omega_defining_integral(nu: int, x: float, y: float) -> SeriesResult:
    """Direct quadrature of the omega integrand (fallback and cross-check)."""
    _check_omega_args(nu, x, y)
    quad = QuadratureSpec(abs_tol=_SERIES_TOL * 0.1 * max(1.0, math.exp(y)),
                          rel_tol=1e-13, max_panels=1 << 14, base_panels=8)

    def f(z):
        return (np.cos(z) ** nu * np.exp(y * np.cos(z)) * np.cos(x * np.sin(z) ** 2),)

    (val,), (err,) = integrate_interval(f, 0.0, math.pi, quad,
                                        min_panels=max(8, int(math.ceil(abs(x)))))
    return SeriesResult(value=float(val) / math.pi, trunc_error_est=err / math.pi,
                        terms_used=0, converged=True)


def omega(nu: int, x: float, y: float) -> SeriesResult:
    """omega_nu(x, y) by series inside the stable window, quadrature outside.

    The outer series alternates in n; convergence is declared once two
    successive terms fall below 1e-13, a tenth of the 1e-12 target, and the
    reported truncation error is the standard alternating-tail bound (the
    first omitted term).  nu is a non-negative integer, x finite and
    0 <= y <= 700.
    """
    x = abs(float(x))
    if x > _X_SERIES_MAX or y > _Y_SERIES_MAX:
        return omega_defining_integral(nu, x, y)
    _check_omega_args(nu, x, y)

    i = nu % 2
    x2 = x * x
    y2 = y * y
    x_pow = 1.0  # x^(2n)/(2n)!
    total = 0.0
    peak = 0.0
    term_abs_prev = math.inf
    for n in range(_OMEGA_MAX_TERMS):
        if n:
            x_pow *= x2 / ((2 * n - 1) * (2 * n))
        # inner all-positive sum over m
        y_term = y ** i / math.factorial(i)
        inner = 0.0
        m = 0
        while True:
            if m:
                y_term *= y2 / ((2 * m + i - 1) * (2 * m + i))
            contrib = y_term * beta_fn(2 * n + 0.5, 0.5 * (nu + 2 * m + 1 + i))
            inner += contrib
            m += 1
            if contrib < 1e-18 * inner or m > 400:
                break
        term = x_pow * inner / math.pi
        total += -term if n % 2 else term
        peak = max(peak, term)
        if term < _SERIES_TOL / 10.0 and term_abs_prev < _SERIES_TOL / 10.0:
            # cancellation among the signed terms limits accuracy to
            # roughly eps * (largest term); fold that into the estimate
            est = term + 2.3e-16 * peak * (n + 1)
            return SeriesResult(value=total, trunc_error_est=est,
                                terms_used=n + 1, converged=True)
        term_abs_prev = term
    raise SeriesConvergenceError("omega series needs more than %d terms"
                                 % _OMEGA_MAX_TERMS)


def _boltzmann_closed(nu: int, scale: float, t: float, res: ReservoirParams,
                      dephasing: float, g: float) -> float:
    """scale exp(beta mu) [exp(-lam t) omega_nu(2 g t, 2 beta) - I_nu(2 beta)]."""
    damping, phase = relaxation_envelope(t, dephasing, g)
    beta_mu = res.beta * res.mu
    _require("mu/T", beta_mu, beta_mu <= 690.0, "stay <= 690 so that exp(mu/T) is finite: "
             "the state is far outside the dilute regime")
    y = 2.0 * res.beta
    _require("temperature", res.temperature, y <= _J_MAX_ARG, _I_ARG_DOMAIN)
    _warn_unless_dilute(res)
    osc = float(damping) * omega(nu, phase, y).value if damping > 0.0 else 0.0
    return scale * math.exp(beta_mu) * (osc - bessel_i(nu, y))


def nbar_boltzmann_closed(t: float, res: ReservoirParams, dephasing: float,
                          g: float) -> float:
    """Exact Boltzmann-statistics particle counter (no truncation error)."""
    return _boltzmann_closed(0, 1.0, t, res, dephasing, g)


def ebar_boltzmann_closed(t: float, res: ReservoirParams, dephasing: float,
                          g: float) -> float:
    """Exact Boltzmann-statistics energy counter."""
    return _boltzmann_closed(1, -2.0, t, res, dephasing, g)


# ---------------------------------------------------------------------------
# Sommerfeld expansion for Fermi-Dirac statistics
# ---------------------------------------------------------------------------

_SOMMERFELD_N_CAP = 30  # keeps Bessel orders within the validated range
_N_MAX_DOMAIN = "be an integer in [1, %d]" % _SOMMERFELD_N_CAP


def _check_sommerfeld_args(res: ReservoirParams):
    _require("mu", res.mu, abs(res.mu) < 2.0,
             "lie strictly inside the band (-2, 2) for the Sommerfeld form")
    # the expansion parameter against 1 without forming T^2, which can overflow
    _require("temperature", res.temperature,
             math.pi * res.temperature < math.sqrt(4.0 - res.mu * res.mu),
             "satisfy (pi T)^2/(4 - mu^2) < 1 for the Sommerfeld form")


def _bracket_derivative_n(mu: float, t: float, damping: float, g: float) -> float:
    """d/de [(damping cos(g_e t) - 1)/sqrt(4 - e^2)] at e = mu."""
    root = 4.0 - mu * mu
    if damping > 0.0:
        g_e_t = 2.0 * g * (1.0 - 0.25 * mu * mu) * t
        osc = damping * math.cos(g_e_t)
        d_osc = damping * t * g * mu * math.sin(g_e_t)
    else:
        osc = 0.0
        d_osc = 0.0
    return d_osc / math.sqrt(root) + mu * (osc - 1.0) * root ** -1.5


def _bracket_derivative_e(mu: float, t: float, damping: float, g: float) -> float:
    """d/de [e (damping cos(g_e t) - 1)/sqrt(4 - e^2)] at e = mu."""
    root = 4.0 - mu * mu
    if damping > 0.0:
        osc = damping * math.cos(2.0 * g * (1.0 - 0.25 * mu * mu) * t)
    else:
        osc = 0.0
    return (osc - 1.0) / math.sqrt(root) + mu * _bracket_derivative_n(mu, t, damping, g)


def _n_term(theta: float, n: int, cj: float, sj: float) -> float:
    return (cj * math.sin(4 * n * theta) / (2 * n)
            - sj * math.sin((4 * n - 2) * theta) / (2 * n - 1))


def _e_term(theta: float, n: int, cj: float, sj: float) -> float:
    upper = math.sin((4 * n + 1) * theta) / (4 * n + 1)
    middle = math.sin((4 * n - 1) * theta) / (4 * n - 1)
    lower = math.sin((4 * n - 3) * theta) / (4 * n - 3)
    return cj * (upper + middle) - sj * (middle + lower)


def _sommerfeld(t: float, res: ReservoirParams, dephasing: float, g: float,
                n_max: int, head, term, bracket, pref: float) -> SeriesResult:
    """(1/pi) {pref (exp(-lam t) S - h) + (pi^2 T^2 / 6) bracket}, h = head(theta).

    S = cos(gt) J_0(gt) h + sum_n (-1)^n term(theta, n, cos(gt) J_2n(gt),
    sin(gt) J_{2n-1}(gt)), so S(t = 0) = h and the counter vanishes there.
    The sum stops once two successive |terms| fall below a tenth of the
    1e-12 target; the last term summed is the truncation estimate.  A sum
    that runs out of terms still counts as converged when that estimate is
    within the target.
    """
    _check_sommerfeld_args(res)
    _require("n_max", n_max,
             isinstance(n_max, (int, np.integer)) and 1 <= n_max <= _SOMMERFELD_N_CAP,
             _N_MAX_DOMAIN)
    damping = float(relaxation_envelope(t, dephasing, g)[0])
    theta = math.acos(-0.5 * res.mu)
    h = head(theta)
    series = tail = 0.0
    terms_used = 0
    converged = True
    if damping > 0.0:
        gt = g * t
        table = SpecialFnTable(max_order=2 * n_max, x_bessel_j=gt)
        c, s = math.cos(gt), math.sin(gt)

        def terms():
            yield c * table.j(0) * h
            for n in range(1, n_max + 1):
                sign = -1.0 if n % 2 else 1.0
                yield sign * term(theta, n, c * table.j(2 * n), s * table.j(2 * n - 1))

        small = _SERIES_TOL / 10.0
        last = math.inf
        converged = False
        for signed in terms():
            series += signed
            terms_used += 1
            tail = abs(signed)
            if tail < small and last < small:
                converged = True
                break
            last = tail
    value = (pref * damping * series - pref * h
             + (math.pi ** 2 * res.temperature ** 2 / 6.0)
             * bracket(res.mu, t, damping, g)) / math.pi
    est = abs(pref) * damping * tail / math.pi
    # out of terms, but the estimate already meets the target: converged
    converged = converged or est <= _SERIES_TOL
    if not converged:
        warnings.warn("Sommerfeld series unconverged at g t = %g: truncation estimate %.3g "
                      "after %d terms, against a %g target" % (g * t, est, terms_used,
                                                               _SERIES_TOL),
                      RegimeWarning, stacklevel=3)
    return SeriesResult(value=value, trunc_error_est=est, terms_used=terms_used,
                        converged=converged)


def nbar_fd_sommerfeld(t: float, res: ReservoirParams, dephasing: float, g: float,
                       n_max: int = 25) -> SeriesResult:
    """Low-temperature particle counter for Fermi-Dirac statistics.

    Truncated Bessel series plus the T^2 band-edge-aware correction; exact 0
    at t = 0, damped limit at t = inf (dephasing > 0).  mu must be inside
    the band; accuracy degrades as T or |mu| grow toward the band edge.
    """
    return _sommerfeld(t, res, dephasing, g, n_max, lambda theta: theta,
                       _n_term, _bracket_derivative_n, 1.0)


def ebar_fd_sommerfeld(t: float, res: ReservoirParams, dephasing: float, g: float,
                       n_max: int = 25) -> SeriesResult:
    """Low-temperature energy counter for Fermi-Dirac statistics."""
    return _sommerfeld(t, res, dephasing, g, n_max, math.sin,
                       _e_term, _bracket_derivative_e, -2.0)


def equilibrium_sommerfeld_onsager(res: ReservoirParams) -> OnsagerBlock:
    """Onsager block of the damped limit from the closed-form derivatives.

    Differentiates the t = inf Sommerfeld counters analytically (kernel
    convention: the explicit mu weight in the heat counter is not
    differentiated), for comparison against the quadrature coefficients.
    """
    _check_sommerfeld_args(res)
    mu = res.mu
    temp = res.temperature
    root = 4.0 - mu * mu
    r12 = root ** -0.5
    r32 = root ** -1.5
    r52 = root ** -2.5
    c2 = math.pi ** 2 * temp ** 2 / 6.0
    dnbar_dmu = -(r12 + c2 * (r32 + 3.0 * mu * mu * r52)) / math.pi
    dnbar_dt = -(math.pi * temp / 3.0) * mu * r32
    debar_dmu = (-mu * r12 - c2 * (3.0 * mu * r32 + 3.0 * mu ** 3 * r52)) / math.pi
    debar_dt = -(math.pi * temp / 3.0) * (r12 + mu * mu * r32)
    return OnsagerBlock.from_derivatives(
        (dnbar_dmu, dnbar_dt, debar_dmu - mu * dnbar_dmu, debar_dt - mu * dnbar_dt),
        temp)
