"""Special functions needed by the closed-form expressions.

Everything here is implemented in-repo against documented accuracy
contracts, over the reaches of ``lattice._REACH``, so the analytic results
do not silently depend on an external library:

    bessel_j(n, x)       integer-order J_n; absolute error < 1e-15 against
                         mpmath; the last order of SpecialFnTable(n, x).
    bessel_i(n, y)       modified I_n; relative error < 5e-15 wherever
                         I_n(y) is a normal double; a view onto one I column.
    SpecialFnTable       J_0..J_n at one argument, from one pass; the one
                         J_n evaluation path.
    bessel_band_sum      the Jacobi-Anger sum B(z, a) that both closed forms
                         reduce to (see its docstring).

Both columns come from one downward (Miller) recurrence,
f_{m-1} = (2m/x) f_m -+ f_{m+1}, started past max(n, x + 10 x^(1/3)) + 60
(the transition region of J_n(x) is about x^(1/3) orders wide) and
normalized by J_0 + 2 J_2 + 2 J_4 + ... = 1 or I_0 + 2 I_1 + 2 I_2 + ... =
e^y.  Below (x/2)^2 < 2^-53 the dropped terms fall below half an ulp and a
column is its leading term (x/2)^n/n!.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import _check_reach, _require

# (x/2)^2 below this leaves J_n(x) and I_n(x) = (x/2)^n/n! to within half an ulp
_LEADING_TERM_MAX = 2.0 ** -53
# 170! is the largest factorial below the float range; beyond it the leading
# term (x/2)^n/n! underflows to 0 wherever it is used
_LEADING_TERM_ORDERS = 171


def _miller(x: float, max_order: int, modified: bool) -> np.ndarray:
    """J_0..J_max_order (I_0.. when modified) at x > 0, by downward recurrence."""
    start = int(max(max_order, x + 10.0 * x ** (1.0 / 3.0)) + 60)
    if start % 2:
        start += 1
    sign = 1.0 if modified else -1.0
    fp = 0.0  # f_{m+1} surrogate
    fc = 1e-300  # f_m surrogate
    out = np.zeros(max_order + 1)
    norm = 0.0
    for m in range(start, 0, -1):
        fm = (2.0 * m / x) * fc + sign * fp
        fp, fc = fc, fm
        if abs(fc) > 1e250:
            fc *= 1e-250
            fp *= 1e-250
            out *= 1e-250
            norm *= 1e-250
        idx = m - 1
        if idx <= max_order:
            out[idx] = fc
        if modified or idx % 2 == 0:
            norm += 2.0 * fc if idx else fc
    if modified:
        # out * (e^x / norm) overflows from x of about 400
        return (out / norm) * math.exp(x)
    return out / norm


def _column(max_order: int, x: float, modified: bool) -> np.ndarray:
    """Orders 0..max_order of J (I when modified) at x; the caller checks both."""
    xa = abs(float(x))
    half = 0.5 * xa
    if half * half < _LEADING_TERM_MAX:
        # the recurrence's 2m/x overflows here (NaN at x <= 1e-100)
        col = np.zeros(max_order + 1)
        lead = min(max_order + 1, _LEADING_TERM_ORDERS)
        col[:lead] = [half ** m / math.factorial(m) for m in range(lead)]
    else:
        col = _miller(xa, max_order, modified)
    if x < 0.0:
        col[1::2] *= -1.0
    return col


def bessel_j(n: int, x: float) -> float:
    """Bessel function J_n(x) over the Bessel order and J argument reaches.

    A view onto the last order of ``SpecialFnTable(n, x)``.
    """
    _check_reach("Bessel order", "order n", n)
    _check_reach("J argument", "x", x)
    return SpecialFnTable(n, x).j(n)


def bessel_i(n: int, y: float) -> float:
    """Modified Bessel function I_n(y) over the Bessel order and I argument reaches."""
    _check_reach("Bessel order", "order n", n)
    _check_reach("I argument", "y", y)
    return float(_column(int(n), y, True)[n])


class SpecialFnTable:
    """Cached orders J_0..J_max_order of the Bessel function at one argument.

    Build once per (argument, max order) and read repeatedly; the column
    comes from a single downward-recurrence pass (or the leading term
    (x/2)^n/n! as x -> 0, x = 0 included), so filling the table costs no
    more than the highest order requested.
    """

    def __init__(self, max_order: int, x_bessel_j: float):
        _check_reach("Bessel order", "max_order", max_order)
        _check_reach("J argument", "x_bessel_j", x_bessel_j)
        self.max_order = int(max_order)
        self._j = _column(self.max_order, x_bessel_j, False)

    @staticmethod
    def band_orders(x: float) -> int:
        """How many orders J_0.. at x a sum needs: |J_n(x)| < 2^-60 from there on.

        x + 12 x^(1/3) + 10 bounds the last such order over the J argument
        reach (checked against scipy's J_n); past it J_n falls faster than
        geometrically.
        """
        xa = abs(x)
        return int(xa + 12.0 * xa ** (1.0 / 3.0)) + 10

    def j(self, n: int) -> float:
        if not 0 <= n <= self.max_order:  # per series term
            _require("order n", n, False, "lie in the table's [0, max_order]")
        return float(self._j[n])


def bessel_band_sum(z: float, coeffs) -> tuple:
    """(B(z, a), tail) of the Jacobi-Anger band sum over the given coefficients.

    With a_j = (1/pi) int_0^pi K(k) cos(2 j k) dk, Jacobi-Anger (DLMF 10.12)
    turns (1/pi) int_0^pi K(k) cos(z - z cos 2k) dk into

        B(z, a) = cos z (J_0(z) a_0 + 2 sum_{m>=1} (-1)^m J_2m(z) a_2m)
                  + sin z 2 sum_{m>=0} (-1)^m J_2m+1(z) a_2m+1,

    the time-dependent part of every band average at z = g t.  The sum runs
    over all len(coeffs) orders, which the caller sizes by
    ``SpecialFnTable.band_orders(z)`` and by the tail of its coefficients;
    tail, the magnitude of the last two terms summed, is its truncation
    estimate.  z lies in the J argument reach.
    """
    a = np.asarray(coeffs, dtype=float)
    n = np.arange(len(a))
    # (-1)^(n//2), doubled for every order but 0
    weight = np.where(n % 4 < 2, 2.0, -2.0)
    weight[0] = 1.0
    terms = SpecialFnTable(len(a) - 1, z)._j * weight * a
    value = math.cos(z) * math.fsum(terms[0::2]) + math.sin(z) * math.fsum(terms[1::2])
    return value, float(np.sum(np.abs(terms[-2:])))
