"""The band integrand keeps every bit of its plain expression form.

``transport``'s integrand forms eps, the occupation, the kernel rows and
D(k, t) in place.  The oracle here is the same integrand written as plain
numpy expressions: ``np.stack`` kernels, D(k, t) = damping cos(g sin(k)^2
2t) - 1 at every node (never the flat shortcut) and the two-branch
Fermi-Dirac form.  It runs through the same ``integrate_interval``, so any
difference is a difference of the integrand, and the two must agree to the
last bit.  A group the quadrature has frozen is not read again, and its
kernels are not formed.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermichain import (OnsagerBlock, QuadratureError, ReservoirParams, boltzmann_validity,
                        counters, counters_and_onsager, integrate_interval, onsager,
                        occupation_boltzmann, occupation_fd, transport)
from fermichain.lattice import relaxation_envelope


def _two_branch_fd(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))


def _counter_rows(eps, occ, res, stats):
    return np.stack([occ, eps * occ])


def _onsager_rows(eps, occ, res, stats):
    temp = res.temperature
    dn_dmu = occ * (1.0 - occ) / temp if stats == "fd" else occ / temp
    w = eps - res.mu
    dn_dt = w * dn_dmu / temp
    return np.stack([dn_dmu, dn_dt, w * dn_dmu, w * dn_dt])


def _expression_band_average(groups, t, res, lam, g, stats):
    """(1/pi) int_0^pi rows(eps_k) D(k, t) dk per group, in plain expressions."""
    damping, phase = relaxation_envelope(float(t), float(lam), 1.0)

    def f(k):
        eps = -2.0 * np.cos(k)
        if stats == "fd":
            occ = _two_branch_fd((eps - res.mu) / res.temperature)
        else:
            occ = occupation_boltzmann(eps, res)
        relax = damping * np.cos(g * np.sin(k) ** 2 * phase) - 1.0
        return tuple([rows(eps, occ, res, stats) * relax for rows in groups])

    vals, _ = integrate_interval(f, 0.0, math.pi, transport.DEFAULT_TOL,
                                 transport._osc_panels(g, phase))
    return [[float(v) for v in val / math.pi] for val in vals]


def _hexes(values):
    return [float(v).hex() for v in values]


def _block_hexes(block):
    return _hexes([block.j_n_mu, block.j_n_t, block.j_q_mu, block.j_q_t])


def _or_error(fn):
    try:
        return fn()
    except QuadratureError:
        return "QuadratureError"


def test_two_branch_fd_bits_at_the_edges():
    x = np.array([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 36.7, -36.7, 745.0, -745.0,
                  800.0, -800.0, math.inf, -math.inf])
    res = ReservoirParams(1.0, 0.0)
    assert _hexes(occupation_fd(x, res)) == _hexes(_two_branch_fd(x))
    assert [occupation_fd(v, res).hex() for v in x] == _hexes(_two_branch_fd(x))


_KINDS = ("zero", "small", "mid", "flat", "inf")


def _time(kind, u, lam):
    # small: the t^2 regime; flat: exp(-lam t) <= exp(-37.5) < 2**-54, so D = -1
    if kind == "flat":
        return 37.5 / lam * (1.0 + 0.5 * u)
    return {"zero": 0.0, "small": 10.0 ** (-4.0 + 3.0 * u), "mid": 0.5 + 29.5 * u,
            "inf": math.inf}[kind]


@settings(max_examples=60, deadline=None)
@given(log_temp=st.floats(-3.0, 0.0), mu=st.floats(-2.5, 2.5),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 1.0)), g=st.floats(0.2, 1.5),
       kind=st.sampled_from(_KINDS), u=st.floats(0.0, 1.0),
       stats=st.sampled_from(["fd", "boltzmann"]))
def test_band_outputs_equal_the_expression_form_bit_for_bit(log_temp, mu, lam, g, kind, u,
                                                             stats):
    assume(lam > 0.0 or kind not in ("flat", "inf"))
    temp = 10.0 ** log_temp
    if stats == "boltzmann":  # dilute: below the one-digit bound by at least 0.01
        mu = boltzmann_validity(1, ReservoirParams(temp)).mu_bound - 0.01 - abs(mu)
    res = ReservoirParams(temp, mu)
    t = _time(kind, u, lam)

    got = _or_error(lambda: _hexes(counters(t, res, lam, g, stats=stats)))
    want = _or_error(lambda: _hexes(
        _expression_band_average([_counter_rows], t, res, lam, g, stats)[0]))
    assert got == want

    got = _or_error(lambda: _block_hexes(onsager(t, res, lam, g, stats=stats)))
    want = _or_error(lambda: _block_hexes(OnsagerBlock.from_derivatives(
        _expression_band_average([_onsager_rows], t, res, lam, g, stats)[0], temp)))
    assert got == want

    def shared():
        n, e, block = counters_and_onsager(t, res, lam, g, stats=stats)
        return _hexes([n, e]) + _block_hexes(block)

    def expression_shared():
        n_e, coeffs = _expression_band_average([_counter_rows, _onsager_rows], t, res,
                                               lam, g, stats)
        return _hexes(n_e) + _block_hexes(OnsagerBlock.from_derivatives(coeffs, temp))

    assert _or_error(shared) == _or_error(expression_shared)


class _CountedReads:
    """A group sequence that records each index read into ``level``."""

    def __init__(self, groups, level):
        self.groups, self.level = groups, level

    def __len__(self):
        return len(self.groups)

    def __getitem__(self, i):
        self.level.append(i)
        return self.groups[i]


def test_a_frozen_group_is_neither_read_nor_formed(monkeypatch):
    # at T = 0.02, mu = 1, t = 2.5 the counters converge at the second level
    # and the block at the third
    reads, formed = [], []
    inner_integrate = transport.integrate_interval
    inner_kernels = transport._counter_kernels

    def watched(f, *args):
        def counted(k):
            reads.append([])
            return _CountedReads(f(k), reads[-1])
        return inner_integrate(counted, *args)

    def counter_kernels(*args):
        formed.append(len(reads))
        return inner_kernels(*args)

    monkeypatch.setattr(transport, "integrate_interval", watched)
    monkeypatch.setattr(transport, "_counter_kernels", counter_kernels)
    res = ReservoirParams(0.02, 1.0)
    n, e, block = counters_and_onsager(2.5, res, 0.05, 1.0)
    assert reads == [[0, 1], [0, 1], [1]]
    assert formed == [1, 2]  # not at the third level
    monkeypatch.undo()
    assert _hexes([n, e]) == _hexes(counters(2.5, res, 0.05, 1.0))
    assert _block_hexes(block) == _block_hexes(onsager(2.5, res, 0.05, 1.0))

