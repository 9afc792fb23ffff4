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
equilibrium comparisons.  Past its declared arguments each form checks its
regime: the Sommerfeld forms need mu inside the band and (pi T)^2/(4 - mu^2)
below 1, every closed form a g t inside the J argument reach, and the
Boltzmann forms a (max(mu, 0) + 2)/T inside the Boltzmann reach; they warn
with ``RegimeWarning`` outside the dilute regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import (_ONE_COUPLING, _ONE_RATE, _ONE_RESERVOIR, _TIME, ReservoirParams,
                      _batch, _check_reach, _Fieldwise, _plain, _require, _scalar, _scalar_pow,
                      _takes, _warn_unless_dilute, relaxation_envelope)
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


@_takes(nu=_scalar("omega nu"), x=_scalar("omega x"), y=_scalar("omega y"))
def omega_defining_integral(nu: int, x: float, y: float) -> SeriesResult:
    """Direct quadrature of the omega integrand (the independent cross-check).

    It starts at max(8, ceil(|x|)) panels to resolve the oscillation and
    covers all of ``omega``'s range.
    """
    def f(z):
        cos = np.cos(z)
        return (cos ** nu * np.exp(y * cos) * np.cos(x * np.sin(z) ** 2),)

    (val,), (err,) = integrate_interval(f, 0.0, math.pi, 1e-13,
                                     max(8, math.ceil(abs(x))))
    return SeriesResult(value=float(val) / math.pi, trunc_error_est=err / math.pi,
                        terms_used=0, converged=True)


def _omega_sum(nu: int, z: float, y: float, most: int, columns: dict) -> tuple:
    """(value, tail, orders, converged) of omega_nu(2 z, y), at most ``most``
    orders; columns holds the coefficients by order count, built once each."""
    orders = min(SpecialFnTable.band_orders(z), most)
    coeffs = columns.get(orders)
    if coeffs is None:
        coeffs = _column([2 * orders + nu], [y], True)[0]  # in range: y and nu are checked
        for _ in range(nu):  # cos(k) c(k): c'_m = (c_|m-1| + c_m+1)/2
            coeffs = 0.5 * (np.concatenate((coeffs[1:2], coeffs[:-2])) + coeffs[1:])
        coeffs = columns[orders] = coeffs[0:2 * orders:2]
    value, tail = bessel_band_sum(z, coeffs)
    return value, tail, orders, tail <= _SERIES_TOL * max(1.0, float(coeffs[0]))


@_takes(nu=_scalar("omega nu"), x=_batch("omega x"), y=_scalar("omega y"))
def omega(nu: int, x, y: float) -> SeriesResult:
    """omega_nu(x, y) as the band sum B(x/2, a) with modified-Bessel coefficients.

    The sum stops at the first of ``SpecialFnTable.band_orders(x/2)`` and the
    coefficient tail; the magnitude of its last two terms is the truncation
    estimate, and the sum counts as converged when that is within 1e-12 of
    max(1, a_0), a_0 = I_nu(y) being the scale of the value.  Over an array
    of x (see ``SeriesResult``) each distinct order count's coefficient column
    is built once, and each distinct x's sum, with the bits of its scalar call.
    """
    plain = isinstance(x, (int, float))  # a plain number needs no array round trip
    half = 0.5 * x if plain else 0.5 * np.asarray(x)
    y = float(y)
    # a_j needs I_n up to n = 2 j + nu, and I_n < 2^-60 I_0 past 9 sqrt(y) + 10
    most, columns = int(4.5 * math.sqrt(y) + 0.5 * nu) + 6, {}
    if plain:
        return SeriesResult(*_omega_sum(nu, float(half), y, most, columns))
    zs = half.ravel().tolist()
    sums = {z: _omega_sum(nu, z, y, most, columns) for z in dict.fromkeys(zs)}
    rows = [sums[z] for z in zs]
    value, tail = (_plain(np.reshape([row[i] for row in rows], half.shape)) for i in (0, 1))
    return SeriesResult(value=value, trunc_error_est=tail, terms_used=sum(row[2] for row in rows),
                        converged=all(row[3] for row in rows))


def _closed_envelope(t, dephasing: float, g: float) -> tuple:
    """(exp(-lam t), g t) of a closed form, like t; a damped-out envelope has g t = 0."""
    damping, phase = relaxation_envelope(t, dephasing, g)
    gt = 0.5 * phase
    _check_reach("J argument", "g t", gt)
    return damping, gt


def _boltzmann_closed(nu: int, scale: float, t, res: ReservoirParams,
                      dephasing: float, g: float):
    """scale exp(beta mu) [exp(-lam t) omega_nu(2 g t, 2 beta) - I_nu(2 beta)], like t."""
    damping, gt = _closed_envelope(t, dephasing, g)
    # |omega_nu| <= I_0(y) <= e^y, so the value is at most exp((mu + 2)/T)
    _check_reach("Boltzmann", "temperature %r, whose (max(mu, 0) + 2)/T," % res.temperature,
                 (max(res.mu, 0.0) + 2.0) * res.beta)
    y = 2.0 * res.beta
    _warn_unless_dilute(res)
    osc = damping * omega(nu, 2.0 * gt, y).value
    ground = bessel_i(nu, y) if np.size(osc) else 0.0  # an empty t builds no column
    return _plain(scale * math.exp(res.beta * res.mu) * (osc - ground))


# t, one time or an array of them, at one reservoir, rate and g
_CLOSED = {"t": _TIME, "res": _ONE_RESERVOIR, "dephasing": _ONE_RATE, "g": _ONE_COUPLING}


@_takes(**_CLOSED)
def nbar_boltzmann_closed(t, res: ReservoirParams, dephasing: float, g: float):
    """Boltzmann-statistics particle counter exp(beta mu) [d omega_0 - I_0(2 beta)].

    The result is shaped like t, each entry with the bits of its scalar
    call.  Its error is absolute, at most
    1e-12 exp(beta mu) max(1, I_0(2 beta)) at every entry, not relative: at
    T = 0.0625, mu = -3, lam = 0, g = 1, t = 1e-6 the two terms, 8.0e-9
    each, cancel to -4.4536e-23 (exactly -4.3815e-23).
    """
    return _boltzmann_closed(0, 1.0, t, res, dephasing, g)


@_takes(**_CLOSED)
def ebar_boltzmann_closed(t, res: ReservoirParams, dephasing: float, g: float):
    """Boltzmann energy counter -2 exp(beta mu) [d omega_1 - I_1(2 beta)]; t as
    in ``nbar_boltzmann_closed``.  Its error is absolute, at most
    2e-12 exp(beta mu) max(1, I_1(2 beta)) at every entry."""
    return _boltzmann_closed(1, -2.0, t, res, dephasing, g)


# ---------------------------------------------------------------------------
# Sommerfeld expansion for Fermi-Dirac statistics
# ---------------------------------------------------------------------------


def _check_sommerfeld_args(res: ReservoirParams):
    """Name the first field of res (a batch's entries too) outside the Sommerfeld reach."""
    _check_reach("Sommerfeld mu", "mu", res.mu)
    # the expansion parameter against 1 without forming T^2, which can overflow
    _require("temperature", res.temperature,
             bool(np.all(math.pi * res.temperature < np.sqrt(4.0 - res.mu * res.mu))),
             "satisfy (pi T)^2/(4 - mu^2) < 1 for the Sommerfeld form")


def _bracket_derivative_n(mu: float, t: float, damping: float, g: float) -> float:
    """d/de [(damping cos(g_e t) - 1)/sqrt(4 - e^2)] at e = mu."""
    root, osc, d_osc = 4.0 - mu * mu, 0.0, 0.0
    if damping > 0.0:  # a damped-out entry's t may be inf
        g_e_t = 2.0 * g * (1.0 - 0.25 * mu * mu) * t
        osc = damping * math.cos(g_e_t)
        d_osc = damping * t * g * mu * math.sin(g_e_t)
    return d_osc / math.sqrt(root) + mu * (osc - 1.0) * root ** -1.5


def _bracket_derivative_e(mu: float, t: float, damping: float, g: float) -> float:
    """d/de [e (damping cos(g_e t) - 1)/sqrt(4 - e^2)] at e = mu."""
    root, osc = 4.0 - mu * mu, 0.0
    if damping > 0.0:
        osc = damping * math.cos(2.0 * g * (1.0 - 0.25 * mu * mu) * t)
    return (osc - 1.0) / math.sqrt(root) + mu * _bracket_derivative_n(mu, t, damping, g)


def _n_coeffs(theta: np.ndarray, orders: int) -> np.ndarray:
    """a^N_j = sin(2 j th)/(2 j), a^N_0 = th: the step function's band coefficients."""
    even = 2.0 * np.arange(orders)
    return np.where(even > 0.0, np.sin(even * theta) / np.maximum(even, 1.0), theta)


def _e_coeffs(theta: np.ndarray, orders: int) -> np.ndarray:
    """a^E_j = (sin((2j+1) th)/(2j+1) + sin((2j-1) th)/(2j-1))/2, a^E_0 = sin(th)."""
    odd = 2.0 * np.arange(orders) + 1.0
    return 0.5 * (np.sin(odd * theta) / odd + np.sin((odd - 2.0) * theta) / (odd - 2.0))


# (coefficients, bracket derivative, prefactor) of the N and E counters
_FORMS = ((_n_coeffs, _bracket_derivative_n, 1.0), (_e_coeffs, _bracket_derivative_e, -2.0))


def _sommerfeld(t, res: ReservoirParams, dephasing, g: float, forms) -> list:
    """Per (coeffs_of, bracket, pref) of forms, the SeriesResult over t of
    (1/pi) {pref (exp(-lam t) B(gt, a) - a_0) + (pi^2 T^2 / 6) bracket}.

    res and dephasing, checked by the caller, are scalars or give each entry
    of t its own.  a = coeffs_of(theta, orders) has one row per entry, at the
    most orders = ``SpecialFnTable.band_orders(gt)``; B(0, a) = a_0, so the
    counter vanishes at t = 0.  The truncation estimate is the magnitude of
    the last two terms summed, scaled like the value.  Every entry of every
    form sums from one J table, with the bits of its scalar call.
    """
    damping, gt = (np.ravel(v) for v in _closed_envelope(t, dephasing, g))
    temps, mus = (np.broadcast_to(v, damping.shape).tolist() for v in (res.temperature, res.mu))
    entries = list(zip(temps, mus, np.ravel(t).tolist(), damping.tolist()))
    orders = [SpecialFnTable.band_orders(z) for z in gt.tolist()]
    distinct, rows = np.unique(mus, return_inverse=True)  # each mu's coefficients once
    theta = np.array([math.acos(-0.5 * mu) for mu in distinct.tolist()])[:, None]
    coeffs = np.array([of(theta, max(orders, default=1))[rows] for of, _, _ in forms])
    series, tail = bessel_band_sum(gt, coeffs, orders)
    out, shape = [], np.shape(t)
    for (_, bracket, pref), a, sums, tails in zip(forms, coeffs, series, tail):
        t2_terms = [math.pi ** 2 * temp ** 2 / 6.0 * bracket(*e, g) for temp, *e in entries]
        value = (pref * damping * sums - pref * a[:, 0] + t2_terms) / math.pi
        est = abs(pref) * damping * tails / math.pi
        out.append(SeriesResult(_plain(value.reshape(shape)), _plain(est.reshape(shape)),
                                sum(orders), bool(np.all(est <= _SERIES_TOL))))
    return out


def _fd_counters(points, g: float) -> np.ndarray:
    """N and E at every (t, res, dephasing) point, shaped (points, 2), from one
    evaluation; each distinct reservoir is checked first, by its own fields."""
    for res in {(r.temperature, r.mu): r for _, r, _ in points}.values():
        _check_sommerfeld_args(res)
    t, temp, mu, lam = map(np.array, zip(*[(t, r.temperature, r.mu, lam) for t, r, lam in points]))
    forms = _sommerfeld(t, ReservoirParams(temp, mu), lam, g, _FORMS)
    return np.column_stack([r.value for r in forms])


def _one_form(t, res: ReservoirParams, dephasing: float, g: float, form) -> SeriesResult:
    _check_sommerfeld_args(res)
    return _sommerfeld(t, res, dephasing, g, (form,))[0]


@_takes(**_CLOSED)
def nbar_fd_sommerfeld(t, res: ReservoirParams, dephasing: float,
                       g: float) -> SeriesResult:
    """Low-temperature particle counter for Fermi-Dirac statistics.

    The T = 0 band sum plus the T^2 band-edge-aware correction; exact 0 at
    t = 0, damped limit at t = inf (dephasing > 0).  mu must be inside the
    band; accuracy degrades as T or |mu| grow toward the band edge.  An
    array t gives each time the bits of its scalar call (see ``SeriesResult``).
    """
    return _one_form(t, res, dephasing, g, _FORMS[0])


@_takes(**_CLOSED)
def ebar_fd_sommerfeld(t, res: ReservoirParams, dephasing: float,
                       g: float) -> SeriesResult:
    """Low-temperature energy counter for Fermi-Dirac statistics; t as in
    ``nbar_fd_sommerfeld``."""
    return _one_form(t, res, dephasing, g, _FORMS[1])


@_takes(res=_batch(ReservoirParams))
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
