"""The band integrand keeps every bit of its plain expression form.

``transport``'s integrand forms eps, the occupation, the kernel rows and
D(k, t) in place.  The oracle here is the same integrand written as plain
numpy expressions: ``np.stack`` kernels, D(k, t) = damping cos(g sin(k)^2
2t) - 1 at every node (never the flat shortcut) and the two-branch
Fermi-Dirac form.  It runs through the same ``integrate_interval``, so any
difference is a difference of the integrand, and the two must agree to the
last bit.  A group the quadrature has frozen is not read again, and its
kernels are not formed.  Every point of a scan over t or mu equals its solo
calls bit for bit, while the points of one reservoir at one panel count
share its occupation and kernel rows.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermichain import (OnsagerBlock, QuadratureError, ReservoirParams, boltzmann_validity,
                        counters, integrate_interval, onsager, occupation_boltzmann,
                        occupation_fd, transport)
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


def _both():
    # read when called, so a patched kernel is the one scanned
    return transport._counter_kernels, transport._onsager_kernels


def _both_hexes(t, res, lam, g, stats="fd"):
    """The counters and the block of a one-point scan of both groups, as hex."""
    (n_e,), (coeffs,) = transport._scan(_both(), ((t, res),), lam, g, transport.DEFAULT_TOL,
                                        stats)
    return [_hexes(n_e), _block_hexes(OnsagerBlock.from_derivatives(coeffs, res.temperature))]


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

    def expression_shared():
        n_e, coeffs = _expression_band_average([_counter_rows, _onsager_rows], t, res,
                                               lam, g, stats)
        return [_hexes(n_e), _block_hexes(OnsagerBlock.from_derivatives(coeffs, temp))]

    assert (_or_error(lambda: _both_hexes(t, res, lam, g, stats))
            == _or_error(expression_shared))


class _CountedReads:
    """A group sequence that records each index read into ``level``."""

    def __init__(self, groups, level):
        self.groups, self.level = groups, level

    def __len__(self):
        return len(self.groups)

    def __getitem__(self, i):
        self.level.append(i)
        return self.groups[i]


def _watch(monkeypatch):
    """Per integrand call, the indexes read; and for each named array the
    integrand forms, the integrand call it was formed in."""
    reads, formed = [], {"occupation": [], "counters": [], "D": []}
    inner_integrate = transport.integrate_interval

    def watched(f, *args):
        def counted(k):
            reads.append([])
            return _CountedReads(f(k), reads[-1])
        return inner_integrate(counted, *args)

    monkeypatch.setattr(transport, "integrate_interval", watched)
    for key, name in (("occupation", "_occupation"), ("counters", "_counter_kernels"),
                      ("D", "_relaxation_factor")):
        def formed_by(*args, inner=getattr(transport, name), key=key):
            formed[key].append(len(reads))
            return inner(*args)
        monkeypatch.setattr(transport, name, formed_by)
    return reads, formed


def test_a_frozen_group_is_neither_read_nor_formed(monkeypatch):
    # at T = 0.02, mu = 1 the counters converge at the second level and the
    # block at the third, at t = 2.5 and at t = 2.0 alike; both start at 32
    # panels, t = 30 at 120 (every level is one block)
    reads, formed = _watch(monkeypatch)
    res = ReservoirParams(0.02, 1.0)
    times = (2.5, 2.0, 30.0)
    scan = transport._scan(_both(), [(t, res) for t in times], 0.05, 1.0,
                           transport.DEFAULT_TOL, "fd")
    # the least pending panel count first: 32, 64, 120, 128, 240
    assert reads == [[0, 1, 2, 3], [0, 1, 2, 3], [4, 5], [1, 3], [4, 5]]
    # the one reservoir's occupation and counter kernels once per block,
    # shared by the points at it, and not at 128 panels, where only the
    # Onsager blocks are read; D(k, t) once per point read
    assert formed == {"occupation": [1, 2, 3, 4, 5], "counters": [1, 2, 3, 5],
                      "D": [1, 1, 2, 2, 3, 4, 4, 5]}
    monkeypatch.undo()
    for t, n_e, coeffs in zip(times, *scan):
        n_e_solo, block_solo = _both_hexes(t, res, 0.05, 1.0)
        assert _hexes(n_e) == n_e_solo == _hexes(counters(t, res, 0.05, 1.0))
        block = OnsagerBlock.from_derivatives(coeffs, res.temperature)
        assert _block_hexes(block) == block_solo == _block_hexes(onsager(t, res, 0.05, 1.0))


def test_a_point_reads_the_levels_of_its_solo_call(monkeypatch):
    # k points of one reservoir at one panel count share its occupation and
    # kernels, yet each (point, group) is read at exactly the levels of its
    # own solo call: none is read once frozen
    res = ReservoirParams(0.01, 1.0)
    times = (0.0, 0.7, 1.5, 1.5, 6.0, 25.0, math.inf)
    reads, _ = _watch(monkeypatch)
    transport._scan(_both(), [(t, res) for t in times], 0.05, 0.8, transport.DEFAULT_TOL,
                    "fd")
    scanned = [sum(row.count(i) for row in reads) for i in range(2 * len(times))]
    solo = []
    for t in times:
        del reads[:]
        _both_hexes(t, res, 0.05, 0.8)
        solo += [sum(row.count(i) for row in reads) for i in range(2)]
    assert scanned == solo
    assert len(set(solo)) > 1  # the groups freeze at different levels


def test_a_scan_forms_every_envelope_in_one_call(monkeypatch):
    # the envelope and, from its phase, the first level of every point come
    # from one call over the scan's times, not one call per point
    calls = []
    inner = transport.relaxation_envelope
    monkeypatch.setattr(transport, "relaxation_envelope",
                        lambda *args: calls.append(args) or inner(*args))
    times = (0.0, 0.7, 2.0, 25.0, math.inf)
    transport._scan(_both(), [(t, ReservoirParams(0.1, 0.3)) for t in times], 0.05, 0.8,
                    transport.DEFAULT_TOL, "fd")
    assert len(calls) == 1 and calls[0][0].tolist() == list(times)


def _scan_hexes(groups, points, lam, g, stats):
    """Per point, one list of hexes per group: its counters, or its entry of
    the scan's batched block (every point is at one temperature)."""
    names, kernels = zip(*groups)
    temp = points[0][1].temperature

    def scan():
        per_group = []
        for name, values in zip(names, transport._scan(kernels, points, lam, g,
                                                       transport.DEFAULT_TOL, stats)):
            if name == "onsager":  # read back through the batched block
                values = zip(*OnsagerBlock.from_derivatives(values.T, temp).columns)
            per_group.append([_hexes(entry) for entry in values])
        return [list(point) for point in zip(*per_group)]

    return _or_error(scan)


def _solo_hexes(t, res, lam, g, stats):
    """Per point: counters, onsager and a one-point scan of both groups, as hex."""
    return (_or_error(lambda: [_hexes(counters(t, res, lam, g, stats=stats))]),
            _or_error(lambda: [_block_hexes(onsager(t, res, lam, g, stats=stats))]),
            _or_error(lambda: _both_hexes(t, res, lam, g, stats)))


_GROUPS = (("counters", transport._counter_kernels), ("onsager", transport._onsager_kernels))


@settings(max_examples=40, deadline=None)
@given(log_temp=st.floats(-3.0, 0.0), mus=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=3),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 1.0)), g=st.floats(0.2, 1.5),
       times=st.lists(st.tuples(st.sampled_from(_KINDS), st.floats(0.0, 1.0)), min_size=1,
                      max_size=4),
       along=st.sampled_from(["t", "mu"]), stats=st.sampled_from(["fd", "boltzmann"]))
def test_every_scan_point_equals_its_solo_calls_bit_for_bit(log_temp, mus, lam, g, times,
                                                           along, stats):
    # a t-scan at the first mu, or a mu-scan at the first time; points that
    # share a first level (t = 0, small t, or one time across mu) and points
    # that do not, flat and oscillating D(k, t) and t = inf
    assume(lam > 0.0 or all(kind not in ("flat", "inf") for kind, _ in times))
    temp = 10.0 ** log_temp
    if stats == "boltzmann":  # dilute: below the one-digit bound by at least 0.01
        bound = boltzmann_validity(1, ReservoirParams(temp)).mu_bound - 0.01
        mus = [bound - abs(mu) for mu in mus]
    ts = [_time(kind, u, lam) for kind, u in times]
    if along == "t":
        points = [(t, ReservoirParams(temp, mus[0])) for t in ts]
    else:
        points = [(ts[0], ReservoirParams(temp, mu)) for mu in mus]
    solo = [_solo_hexes(t, res, lam, g, stats) for t, res in points]
    for which, groups in enumerate(([_GROUPS[0]], [_GROUPS[1]], _GROUPS)):
        want = [calls[which] for calls in solo]
        got = _scan_hexes(groups, points, lam, g, stats)
        if "QuadratureError" in want:  # a scan fails when one of its points does
            assert got == "QuadratureError"
        else:
            assert got == want
