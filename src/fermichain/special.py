"""Special functions needed by the closed-form expressions.

Everything here is implemented in-repo against documented accuracy
contracts so the analytic results do not silently depend on an external
library:

    beta_fn(a, b)        Euler beta through log-gamma; relative error < 1e-13
                         for a, b in (0, 50], growing to about 3e-11 at the
                         largest argument taken, 1e4.
    bessel_j(n, x)       integer-order J_n; absolute error < 1e-12 for
                         |x| <= 100, 0 <= n <= 60 (validated range); a view
                         onto the last order of SpecialFnTable(n, x).
    bessel_i(n, y)       modified I_n; relative error < 1e-12 for |y| <= 100,
                         0 <= n <= 60.
    SpecialFnTable       J_0..J_n at one argument, from one pass; the one
                         J_n evaluation path.

J_n uses a downward (Miller) recurrence normalized by
J_0 + 2 J_2 + 2 J_4 + ... = 1, and its x -> 0 limit (x/2)^n/n! once
(x/2)^2 < 2^-53, where the dropped terms fall below half an ulp; I_n uses
the all-positive ascending series, which has no cancellation.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import _require

_J_MAX_ORDER = 60
_J_MAX_ARG = 100.0
_ORDER_DOMAIN = "be an integer in [0, %d]" % _J_MAX_ORDER
_ARG_DOMAIN = "lie in the validated range [-%g, %g]" % (_J_MAX_ARG, _J_MAX_ARG)
# (x/2)^2 below this leaves J_n(x) = (x/2)^n/n! to within half an ulp
_J_LEADING_TERM_MAX = 2.0 ** -53
# past this log-gamma differences lose the beta function's relative accuracy
_BETA_ARG_MAX = 1e4
_BETA_DOMAIN = "lie in (0, %g]" % _BETA_ARG_MAX


def _check_bessel_args(order_name: str, order: int, arg_name: str, arg: float):
    """The validated range of every Bessel evaluation: 0 <= n <= 60, |x| <= 100."""
    ok = isinstance(order, (int, np.integer)) and 0 <= order <= _J_MAX_ORDER
    _require(order_name, order, ok, _ORDER_DOMAIN)
    _require(arg_name, arg, abs(arg) <= _J_MAX_ARG, _ARG_DOMAIN)


def beta_fn(a: float, b: float) -> float:
    """Euler beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b in (0, 1e4]."""
    if not (0.0 < a <= _BETA_ARG_MAX and 0.0 < b <= _BETA_ARG_MAX):  # per series term
        _require("a", a, 0.0 < a <= _BETA_ARG_MAX, _BETA_DOMAIN)
        _require("b", b, False, _BETA_DOMAIN)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _bessel_j_all_positive(x: float, n_max: int) -> np.ndarray:
    """J_0..J_n_max at x > 0 by downward recurrence with sum normalization."""
    start = int(max(n_max, math.ceil(x)) + 60)
    if start % 2:
        start += 1
    fp = 0.0  # J_{m+1} surrogate
    fc = 1e-300  # J_m surrogate
    out = np.zeros(n_max + 1)
    norm = 0.0
    for m in range(start, 0, -1):
        fm = (2.0 * m / x) * fc - fp
        fp, fc = fc, fm
        if abs(fc) > 1e250:
            fc *= 1e-250
            fp *= 1e-250
            out *= 1e-250
            norm *= 1e-250
        idx = m - 1
        if idx <= n_max:
            out[idx] = fc
        if idx % 2 == 0:
            norm += 2.0 * fc if idx else fc
    return out / norm


def bessel_j(n: int, x: float) -> float:
    """Bessel function J_n(x) for integer n in [0, 60], |x| <= 100.

    A view onto the last order of ``SpecialFnTable(n, x)``.
    """
    _check_bessel_args("order n", n, "x", x)
    return SpecialFnTable(n, x).j(n)


def bessel_i(n: int, y: float) -> float:
    """Modified Bessel function I_n(y) for integer n in [0, 60], |y| <= 100."""
    _check_bessel_args("order n", n, "y", y)
    sign = -1.0 if (y < 0.0 and n % 2) else 1.0
    y = abs(float(y))
    half = 0.5 * y
    term = half ** n / math.factorial(n)
    total = term
    for k in range(1, 400):
        term *= (half * half) / (k * (n + k))
        total += term
        if term < 1e-17 * total:
            break
    return sign * total


class SpecialFnTable:
    """Cached orders J_0..J_max_order of the Bessel function at one argument.

    Build once per (argument, max order) and read repeatedly; the column
    comes from a single downward-recurrence pass (or the leading term
    (x/2)^n/n! as x -> 0, x = 0 included), so filling the table costs no
    more than the highest order requested.
    """

    def __init__(self, max_order: int, x_bessel_j: float):
        _check_bessel_args("max_order", max_order, "x_bessel_j", x_bessel_j)
        self.max_order = int(max_order)
        xa = abs(float(x_bessel_j))
        half = 0.5 * xa
        if half * half < _J_LEADING_TERM_MAX:
            # the recurrence's 2m/x overflows here (NaN at x <= 1e-100)
            col = np.array([half ** m / math.factorial(m) for m in range(max_order + 1)])
        else:
            col = _bessel_j_all_positive(xa, max_order)
        if x_bessel_j < 0.0:
            col = col * np.where(np.arange(max_order + 1) % 2, -1.0, 1.0)
        self._j = col

    def j(self, n: int) -> float:
        if not 0 <= n <= self.max_order:  # per series term
            _require("order n", n, False, "lie in the table's [0, max_order]")
        return float(self._j[n])
