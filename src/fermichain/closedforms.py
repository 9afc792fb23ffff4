"""Closed-form evaluations of the band-averaged transfer counters.

Both closed forms are one Jacobi-Anger Bessel sum (DLMF 10.12) with
analytic coefficients.  The oscillation of a band average is
cos(2 z sin(k)^2) = cos(z - z cos 2k) with z = g t, and

    (1/pi) int_0^pi K(k) cos(z - z cos 2k) dk = B(z, a),
    B(z, a) = cos z (J_0(z) a_0 + 2 sum_{m>=1} (-1)^m J_2m(z) a_2m)
              + sin z 2 sum_{m>=0} (-1)^m J_2m+1(z) a_2m+1,
    a_j = (1/pi) int_0^pi K(k) cos(2 j k) dk,

which ``special.bessel_band_sum`` evaluates.  Its length follows z (orders
past ``SpecialFnTable.band_orders(z)``, about z + 12 z^(1/3), have
|J_n(z)| < 2^-60) and the tail of the coefficients.

For Boltzmann statistics the two-parameter family

    omega_nu(x, y) = (1/pi) int_0^pi cos(k)^nu exp(y cos k) cos(x sin(k)^2) dk

collapses the band integrals exactly:

    nbar_B(t) = exp(beta mu) [exp(-lam t) omega_0(2 g t, 2 beta) - I_0(2 beta)]
    ebar_B(t) = -2 exp(beta mu) [exp(-lam t) omega_1(2 g t, 2 beta) - I_1(2 beta)]

and omega_nu(x, y) = B(x/2, a) with a_j = I_2j(y) for nu = 0 and
a_j = (I_2j-1(y) + I_2j+1(y))/2 for nu = 1 (each further power of cos k
averages neighbouring orders once more).  Past order 9 sqrt(y) + 10,
I_n(y) < 2^-60 I_0(y), which bounds the coefficient tail.  Useful identities,
verified in the test suite: omega_nu(0, y) = I_nu(y) for nu in {0, 1}, and
omega_0(x, 0) = cos(x/2) J_0(x/2).  ``omega_defining_integral`` is the
direct quadrature, kept as an independent cross-check.

For Fermi-Dirac statistics at low temperature the same integrals admit a
Sommerfeld expansion.  With th = arccos(-mu/2) the T = 0 occupation is the
step up to th, whose coefficients are partial-band integrals
int_0^th cos(j k) dk = sin(j th)/j:

  nbar_FD = (1/pi) { exp(-lam t) B(gt, a^N) - th
                     + (pi^2 T^2 / 6) d/de[(exp(-lam t) cos(g_e t) - 1)
                                           / sqrt(4 - e^2)]_{e=mu} }
  a^N_0 = th,  a^N_j = sin(2 j th)/(2 j)

  ebar_FD = (1/pi) { -2 exp(-lam t) B(gt, a^E) + 2 sin(th)
                     + (pi^2 T^2 / 6) d/de[e (exp(-lam t) cos(g_e t) - 1)
                                           / sqrt(4 - e^2)]_{e=mu} }
  a^E_j = (sin((2j+1) th)/(2j+1) + sin((2j-1) th)/(2j-1))/2,  a^E_0 = sin(th)

with g_e = 2 g (1 - e^2/4), so the bracket derivatives are taken with the
full e-dependence and evaluated at e = mu.  Both expansions vanish
identically at t = 0 and reduce at t = inf (lam > 0) to the damped limits,
whose mu/T derivatives are also provided here in closed form for
equilibrium comparisons.  Each reach named below is a row of
``lattice._REACH``.  Every Sommerfeld form rejects by name a mu outside the
band and an expansion parameter (pi T)^2/(4 - mu^2) of 1 or more.  Every
closed form rejects a g t outside the J argument reach; the Boltzmann forms
warn with ``RegimeWarning`` outside the dilute regime, and reject by name a
temperature whose (max(mu, 0) + 2)/T leaves the Boltzmann reach.  Only the
Sommerfeld counters' t and the equilibrium block's mu may be arrays; any
other array, a reservoir batch's fields included, is rejected by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import (ReservoirParams, _Fieldwise, _check_reach, _plain, _require,
                      _require_scalars, _warn_unless_dilute, relaxation_envelope)
from .special import SpecialFnTable, _column, bessel_band_sum, bessel_i
from .transport import OnsagerBlock, integrate_interval

import numpy as np

_SERIES_TOL = 1e-12  # target error of the omega and Sommerfeld sums


@dataclass(frozen=True, eq=False)
class SeriesResult(_Fieldwise):
    """A truncated-series value with its own error bookkeeping; over an array
    of times, values and estimates like t, terms summed, converged if all are.
    Such a batch compares field by field and is not hashable."""

    value: float
    trunc_error_est: float
    terms_used: int
    converged: bool


def _check_omega_args(nu: int, x: float, y: float):
    _require_scalars(("nu", nu), ("x", x), ("y", y))
    _check_reach("omega nu", "nu", nu)
    _check_reach("J argument", "x/2", 0.5 * x)  # omega_nu(x, y) = B(x/2, a)
    _check_reach("omega y", "y", y)


def omega_defining_integral(nu: int, x: float, y: float) -> SeriesResult:
    """Direct quadrature of the omega integrand (the independent cross-check).

    It starts at max(8, ceil(|x|)) panels to resolve the oscillation and
    covers all of ``omega``'s range.
    """
    _check_omega_args(nu, x, y)

    def f(z):
        cos = np.cos(z)
        return (cos ** nu * np.exp(y * cos) * np.cos(x * np.sin(z) ** 2),)

    (val,), (err,) = integrate_interval(f, 0.0, math.pi, 1e-13,
                                     max(8, math.ceil(abs(x))))
    return SeriesResult(value=float(val) / math.pi, trunc_error_est=err / math.pi,
                        terms_used=0, converged=True)


def omega(nu: int, x: float, y: float) -> SeriesResult:
    """omega_nu(x, y) as the band sum B(x/2, a) with modified-Bessel coefficients.

    The sum stops at the first of ``SpecialFnTable.band_orders(x/2)`` and the
    coefficient tail; the magnitude of its last two terms is the truncation
    estimate, and the sum counts as converged when that is within 1e-12 of
    max(1, a_0), a_0 = I_nu(y) being the scale of the value.  nu, x/2 and
    y lie in the omega nu, J argument and omega y reaches; each is one scalar.
    """
    _check_omega_args(nu, x, y)
    z = 0.5 * float(x)
    # a_j needs I_n up to n = 2 j + nu, and I_n < 2^-60 I_0 past 9 sqrt(y) + 10
    orders = min(SpecialFnTable.band_orders(z), int(4.5 * math.sqrt(y) + 0.5 * nu) + 6)
    coeffs = _column([2 * orders + nu], [float(y)], True)[0]  # in range: y and nu are checked
    for _ in range(nu):  # cos(k) c(k): c'_m = (c_|m-1| + c_m+1)/2
        coeffs = 0.5 * (np.concatenate((coeffs[1:2], coeffs[:-2])) + coeffs[1:])
    coeffs = coeffs[0:2 * orders:2]
    value, tail = bessel_band_sum(z, coeffs)
    return SeriesResult(value=value, trunc_error_est=tail, terms_used=orders,
                        converged=tail <= _SERIES_TOL * max(1.0, float(coeffs[0])))


def _closed_envelope(t, dephasing: float, g: float) -> tuple:
    """(exp(-lam t), g t) of a closed form, like t; a damped-out envelope has g t = 0."""
    damping, phase = relaxation_envelope(t, dephasing, g)
    gt = 0.5 * phase
    _check_reach("J argument", "g t", gt)
    return damping, gt


def _boltzmann_closed(nu: int, scale: float, t: float, res: ReservoirParams,
                      dephasing: float, g: float) -> float:
    """scale exp(beta mu) [exp(-lam t) omega_nu(2 g t, 2 beta) - I_nu(2 beta)]."""
    _require_scalars(("time", t), ("dephasing rate", dephasing), ("coupling g", g),
                     *vars(res).items())
    damping, gt = _closed_envelope(t, dephasing, g)
    # |omega_nu| <= I_0(y) <= e^y, so the value is at most exp((mu + 2)/T)
    _check_reach("Boltzmann", "temperature %r, whose (max(mu, 0) + 2)/T," % res.temperature,
                 (max(res.mu, 0.0) + 2.0) * res.beta)
    y = 2.0 * res.beta
    _warn_unless_dilute(res)
    osc = float(damping) * omega(nu, 2.0 * gt, y).value
    return scale * math.exp(res.beta * res.mu) * (osc - bessel_i(nu, y))


def nbar_boltzmann_closed(t: float, res: ReservoirParams, dephasing: float,
                          g: float) -> float:
    """Boltzmann-statistics particle counter exp(beta mu) [d omega_0 - I_0(2 beta)].

    Its error is absolute, at most 1e-12 exp(beta mu) max(1, I_0(2 beta)),
    not relative: at T = 0.0625, mu = -3, lam = 0, g = 1, t = 1e-6 the two
    terms, 8.0e-9 each, cancel to -4.4536e-23 (exactly -4.3815e-23).
    """
    return _boltzmann_closed(0, 1.0, t, res, dephasing, g)


def ebar_boltzmann_closed(t: float, res: ReservoirParams, dephasing: float,
                          g: float) -> float:
    """Boltzmann energy counter -2 exp(beta mu) [d omega_1 - I_1(2 beta)]; its
    error is absolute, at most 2e-12 exp(beta mu) max(1, I_1(2 beta))."""
    return _boltzmann_closed(1, -2.0, t, res, dephasing, g)


# ---------------------------------------------------------------------------
# Sommerfeld expansion for Fermi-Dirac statistics
# ---------------------------------------------------------------------------


def _check_sommerfeld_args(res: ReservoirParams):
    """Name the first field of res, a batch's entries included, outside the
    Sommerfeld form's reach."""
    _check_reach("Sommerfeld mu", "mu", res.mu)
    # the expansion parameter against 1 without forming T^2, which can overflow
    _require("temperature", res.temperature,
             bool(np.all(math.pi * res.temperature < np.sqrt(4.0 - res.mu * res.mu))),
             "satisfy (pi T)^2/(4 - mu^2) < 1 for the Sommerfeld form")


def _scalar_pow(base, exponent: float):
    """base ** exponent by Python's float pow, entry by entry: numpy's vector
    power may round an entry otherwise, and each entry keeps its scalar bits."""
    return _plain(np.asarray(np.power(np.asarray(base, dtype=object), exponent), dtype=float))


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


def _n_coeffs(theta: float, orders: int) -> np.ndarray:
    """a^N_j = sin(2 j th)/(2 j), a^N_0 = th: the step function's band coefficients."""
    even = 2.0 * np.arange(orders)
    coeffs = np.sin(even * theta) / np.maximum(even, 1.0)
    coeffs[0] = theta
    return coeffs


def _e_coeffs(theta: float, orders: int) -> np.ndarray:
    """a^E_j = (sin((2j+1) th)/(2j+1) + sin((2j-1) th)/(2j-1))/2, a^E_0 = sin(th)."""
    odd = 2.0 * np.arange(orders) + 1.0
    return 0.5 * (np.sin(odd * theta) / odd + np.sin((odd - 2.0) * theta) / (odd - 2.0))


def _sommerfeld(t, res: ReservoirParams, dephasing: float, g: float,
                coeffs_of, bracket, pref: float) -> SeriesResult:
    """(1/pi) {pref (exp(-lam t) B(gt, a) - a_0) + (pi^2 T^2 / 6) bracket}.

    a = coeffs_of(theta, orders) for orders = ``SpecialFnTable.band_orders(gt)``;
    B(0, a) = a_0, so the counter vanishes at t = 0.  The truncation estimate
    is the magnitude of the last two terms summed, scaled like the value.
    Over an array of times a is formed once, at the most orders, and each
    time sums its own leading orders of it from one J table.
    """
    _require_scalars(("dephasing rate", dephasing), ("coupling g", g), *vars(res).items())
    _check_sommerfeld_args(res)
    damping, gt = (np.ravel(v) for v in _closed_envelope(t, dephasing, g))
    orders = [SpecialFnTable.band_orders(z) for z in gt.tolist()]
    coeffs = coeffs_of(math.acos(-0.5 * res.mu), max(orders, default=1))
    series, tail = bessel_band_sum(gt, coeffs, orders)
    times = np.ravel(t).tolist()
    brackets = np.array([bracket(res.mu, ti, di, g) for ti, di in zip(times, damping.tolist())])
    value = (pref * damping * series - pref * coeffs[0]
             + (math.pi ** 2 * res.temperature ** 2 / 6.0) * brackets) / math.pi
    est = abs(pref) * damping * tail / math.pi
    converged = bool(np.all(est <= _SERIES_TOL))
    if np.ndim(t) == 0:
        return SeriesResult(float(value[0]), float(est[0]), orders[0], converged)
    return SeriesResult(value.reshape(np.shape(t)), est.reshape(np.shape(t)), sum(orders),
                        converged)


def nbar_fd_sommerfeld(t, res: ReservoirParams, dephasing: float,
                       g: float) -> SeriesResult:
    """Low-temperature particle counter for Fermi-Dirac statistics.

    The T = 0 band sum plus the T^2 band-edge-aware correction; exact 0 at
    t = 0, damped limit at t = inf (dephasing > 0).  mu must be inside the
    band; accuracy degrades as T or |mu| grow toward the band edge.  An
    array t gives each time the bits of its scalar call (see ``SeriesResult``).
    """
    return _sommerfeld(t, res, dephasing, g, _n_coeffs, _bracket_derivative_n, 1.0)


def ebar_fd_sommerfeld(t, res: ReservoirParams, dephasing: float,
                       g: float) -> SeriesResult:
    """Low-temperature energy counter for Fermi-Dirac statistics; t as in
    ``nbar_fd_sommerfeld``."""
    return _sommerfeld(t, res, dephasing, g, _e_coeffs, _bracket_derivative_e, -2.0)


def equilibrium_sommerfeld_onsager(res: ReservoirParams) -> OnsagerBlock:
    """Onsager block of the damped limit from the closed-form derivatives.

    Differentiates the t = inf Sommerfeld counters analytically (kernel
    convention: the explicit mu weight in the heat counter is not
    differentiated), for comparison against the quadrature coefficients.
    A reservoir batched over mu at one temperature gives a batched block,
    each entry equal to its scalar call bit for bit.
    """
    _check_sommerfeld_args(res)
    mu = res.mu
    temp = res.temperature
    root = 4.0 - mu * mu
    r12, r32, r52 = (_scalar_pow(root, p) for p in (-0.5, -1.5, -2.5))
    c2 = math.pi ** 2 * temp ** 2 / 6.0
    dnbar_dmu = -(r12 + c2 * (r32 + 3.0 * mu * mu * r52)) / math.pi
    dnbar_dt = -(math.pi * temp / 3.0) * mu * r32
    debar_dmu = (-mu * r12 - c2 * (3.0 * mu * r32 + 3.0 * _scalar_pow(mu, 3) * r52)) / math.pi
    debar_dt = -(math.pi * temp / 3.0) * (r12 + mu * mu * r32)
    return OnsagerBlock.from_derivatives(
        (dnbar_dmu, dnbar_dt, debar_dmu - mu * dnbar_dmu, debar_dt - mu * dnbar_dt),
        temp)
