"""Special functions needed by the closed-form expressions.

Everything here is implemented in-repo against documented accuracy
contracts, over the reaches of ``lattice._REACH``, so the analytic results
do not silently depend on an external library:

    bessel_j(n, x)       integer-order J_n; absolute error < 1e-15 against
                         mpmath; the last order of SpecialFnTable(n, x).
    bessel_i(n, y)       modified I_n; relative error < 5e-15 wherever
                         I_n(y) is a normal double; a view onto one I column.
    SpecialFnTable       J_0..J_n at one argument or at each of a 1-D array
                         of them, one pass each; the one J_n evaluation path.
    bessel_band_sum      the Jacobi-Anger sum B(z, a) that both closed forms
                         reduce to, at one z or at each of an array of them,
                         from one J table per call.

Every column comes from one downward (Miller) recurrence,
f_{m-1} = (2m/x) f_m -+ f_{m+1}, started past max(n, x + 10 x^(1/3)) + 60
(the transition region of J_n(x) is about x^(1/3) orders wide) and
normalized by J_0 + 2 J_2 + 2 J_4 + ... = 1 or I_0 + 2 I_1 + 2 I_2 + ... =
e^y.  Below (x/2)^2 < 2^-53 the dropped terms fall below half an ulp and a
column is its leading term (x/2)^n/n!.  Each row of an array runs its own
recurrence on plain floats, rescaled by 1e-250 whenever |f| passes 1e250:
165 of the 167 columns of one benchmark pass have one argument (onsteste2's
41 g t and c8's 11 are the others), and looping over rows costs about what
one array recurrence did (1.3x at 41 arguments, 0.4x at 11).
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import _batch, _check_arg, _joint_shape, _require, _scalar, _takes

# (x/2)^2 below this leaves J_n(x) and I_n(x) = (x/2)^n/n! to within half an ulp
_LEADING_TERM_MAX = 2.0 ** -53
# 170! is the largest factorial below the float range; beyond it the leading
# term (x/2)^n/n! underflows to 0 wherever it is used
_LEADING_TERM_ORDERS = 171
# the order and J argument as the exports declare them and the table methods check them
_ORDER, _X = _scalar("Bessel order", "order n"), _scalar("J argument", "x")


def _column(max_order: list, x: list, modified: bool) -> np.ndarray:
    """Row i: orders 0..max_order[i] of J (I when modified) at x[i], 0 past
    them, each row its own recurrence.  The caller checks both."""
    col = np.zeros((len(x), max(max_order, default=0) + 1))
    for row, n, xi in zip(col, max_order, x):
        xa = abs(xi)
        half = 0.5 * xa
        # the leading term, where the recurrence's 2m/x overflows (NaN at x <= 1e-100)
        if half * half < _LEADING_TERM_MAX:
            top = min(n + 1, _LEADING_TERM_ORDERS)
            row[:top] = [half ** m / math.factorial(m) for m in range(top)]
        else:
            # past max(n, x + 10 x^(1/3)) + 60, rounded up to even; after step m
            # fp, fc are f_m, f_{m-1}, and kept holds orders <= n, highest first
            start = -2 * (-int(max(n, xa + 10.0 * xa ** (1.0 / 3.0)) + 60) // 2)
            fp, fc, norm, kept, orders = 0.0, 1e-300, 0.0, [], n + 1
            for m in range(start, 0, -1):
                fp, fc = fc, (2.0 * m / xa * fc + fp) if modified else (2.0 * m / xa * fc - fp)
                if not -1e250 <= fc <= 1e250:
                    fp, fc, norm = fp * 1e-250, fc * 1e-250, norm * 1e-250
                    kept = [f * 1e-250 for f in kept]
                if m <= orders:
                    kept.append(fc)
                if modified or m % 2:  # order m - 1 even
                    norm += 2.0 * fc if m > 1 else fc
            row[:orders] = kept[::-1]
            row /= norm
            if modified:  # row * (e^x / norm) overflows from x of about 400
                row *= math.exp(xa)
        if xi < 0.0:
            row[1::2] *= -1.0
    return col


@_takes(n=_ORDER, x=_X)
def bessel_j(n: int, x: float) -> float:
    """Bessel function J_n(x) over the Bessel order and J argument reaches.

    A view onto the last order of ``SpecialFnTable(n, x)``.
    """
    return SpecialFnTable(n, x).j(n)


@_takes(n=_ORDER, y=_scalar("I argument"))
def bessel_i(n: int, y: float) -> float:
    """Modified Bessel function I_n(y) over the Bessel order and I argument reaches."""
    return float(_column([int(n)], [float(y)], True)[0, n])


class SpecialFnTable:
    """Cached orders J_0..J_max_order of the Bessel function at one argument.

    Build once per (argument, max order) and read repeatedly; the column
    comes from a single downward-recurrence pass (or the leading term
    (x/2)^n/n! as x -> 0, x = 0 included), so filling the table costs no
    more than the highest order requested.  A 1-D array of x_bessel_j, with
    max_order one int or one per entry, gives one row per entry, each from
    its own pass, so with the bits of its one-argument table.
    """

    @_takes(max_order=_batch("Bessel order"), x_bessel_j=_batch("J argument"))
    def __init__(self, max_order, x_bessel_j):
        # np.shape of a plain number costs more than the rest of the check
        shape = () if isinstance(x_bessel_j, (int, float)) else np.shape(x_bessel_j)
        per_x = () if isinstance(max_order, (int, np.integer)) else np.shape(max_order)
        _require("x_bessel_j and max_order", (shape, per_x),
                 per_x in ((), shape) and len(shape) < 2,
                 "be one scalar or a 1-D array and one int or one per entry, not of shapes")
        if shape:
            self.max_order, self._j = max_order, _column(
                np.broadcast_to(max_order, shape).tolist(), np.asarray(x_bessel_j, float).tolist(),
                False)
        else:
            self.max_order = int(max_order)
            self._j = _column([self.max_order], [float(x_bessel_j)], False)[0]

    @staticmethod
    def band_orders(x: float) -> int:
        """How many orders J_0.. at x a sum needs: |J_n(x)| < 2^-60 from there on.

        x + 12 x^(1/3) + 10 bounds the last such order over the J argument
        reach (checked against scipy's J_n); past it J_n falls faster than
        geometrically.  Run once per z of a sum, so x is checked without ``_takes``.
        """
        _check_arg(_X, "x", x)
        xa = abs(x)
        return int(xa + 12.0 * xa ** (1.0 / 3.0)) + 10

    def j(self, n: int):
        """J_n at the table's argument, or at each of its arguments; n is an
        integer in the table's [0, max_order], or the Bessel order row names it."""
        if n.__class__ is not int and not isinstance(n, np.integer):
            _check_arg(_ORDER, "n", n)
        least = (self.max_order if self._j.ndim == 1
                 else int(np.min(self.max_order, initial=self._j.shape[1] - 1)))
        if not 0 <= n <= least:  # per series term
            _require("order n", n, False, "lie in the table's [0, max_order]")
        return float(self._j[n]) if self._j.ndim == 1 else self._j[:, n]


def bessel_band_sum(z, coeffs, orders=None) -> tuple:
    """(B(z, a), tail) of the Jacobi-Anger band sum over the given coefficients.

    With a_j = (1/pi) int_0^pi K(k) cos(2 j k) dk, Jacobi-Anger (DLMF 10.12)
    turns (1/pi) int_0^pi K(k) cos(z - z cos 2k) dk into

        B(z, a) = cos z (J_0(z) a_0 + 2 sum_{m>=1} (-1)^m J_2m(z) a_2m)
                  + sin z 2 sum_{m>=0} (-1)^m J_2m+1(z) a_2m+1,

    the time-dependent part of every band average at z = g t.  The sum runs
    over the first ``orders`` coefficients (all of them by default), which
    the caller sizes by ``SpecialFnTable.band_orders(z)`` and by the tail of
    its coefficients; tail, the magnitude of the last two terms summed, is
    its truncation estimate.  z lies in the J argument reach; an array of z
    takes one order count per entry.  coeffs is one set for every z, or one
    per z and per entry of leading axes: (..., z's shape, orders).  One J
    table over the distinct (z, order count) pairs serves every set, and each
    sum has the bits of its one-point call.
    """
    a = np.asarray(coeffs, dtype=float)
    scalar = isinstance(z, (int, float)) or np.ndim(z) == 0
    zs = [z] if scalar else np.ravel(np.asarray(z, dtype=float)).tolist()
    shape = a.shape[:-1] if scalar else _joint_shape(("coeffs", a[..., 0]), ("z", z))
    counts = [a.shape[-1]] * len(zs) if orders is None else list(orders)
    n = np.arange(max(counts, default=1))
    # (-1)^(n//2), doubled for every order but 0
    weight = np.where(n % 4 < 2, 2.0, -2.0)
    weight[0] = 1.0
    if scalar:  # the scalar table: its checks cost less than an array's
        j = SpecialFnTable(counts[0] - 1, z)._j
    else:  # one table row per distinct (z, order count)
        pairs = {}
        rows = [pairs.setdefault(pair, len(pairs)) for pair in zip(zs, counts)]
        table = SpecialFnTable(np.array([c for _, c in pairs], int) - 1,
                               np.array([x for x, _ in pairs], float))
        j = table._j[rows].reshape(np.shape(z) + (len(n),))
    value, tail, trig = [], [], [(math.cos(zi), math.sin(zi), c) for zi, c in zip(zs, counts)]
    for k, row in enumerate((j * weight * a[..., :len(n)]).reshape(-1, len(n)).tolist()):
        cos, sin, count = trig[k % len(trig)]
        row = row[:count]
        value.append(cos * math.fsum(row[0::2]) + sin * math.fsum(row[1::2]))
        tail.append(sum(map(abs, row[-2:])))
    if not shape:
        return value[0], tail[0]
    return np.array(value).reshape(shape), np.array(tail).reshape(shape)
