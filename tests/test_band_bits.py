"""The band integrand keeps every bit of its plain expression form.

``transport``'s integrand forms eps, the occupation, the kernel rows and
D(k, t) in place.  The oracle here is the same integrand written as plain
numpy expressions: ``np.stack`` kernels, D(k, t) = damping cos(g sin(k)^2
2t) - 1 at every node (never the flat shortcut) and the two-branch
Fermi-Dirac form.  It runs through the same ``integrate_interval``, so any
difference is a difference of the integrand, and the two must agree to the
last bit.  A group the quadrature has frozen is not read again, and its
kernels are not formed.  Every point of a scan over t or mu, or over the
times of several panels, equals its solo calls bit for bit, while the
points of one reservoir at one panel count share its occupation and kernel
rows, and the points at one time share its cosine.
"""

import math
from itertools import groupby

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
    (n_e,), (coeffs,) = transport._scan(_both(), ((t, res, lam),), g, transport.DEFAULT_TOL,
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
    scan = transport._scan(_both(), [(t, res, 0.05) for t in times], 1.0,
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
    transport._scan(_both(), [(t, res, 0.05) for t in times], 0.8, transport.DEFAULT_TOL,
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
    transport._scan(_both(), [(t, ReservoirParams(0.1, 0.3), 0.05) for t in times], 0.8,
                    transport.DEFAULT_TOL, "fd")
    assert len(calls) == 1 and calls[0][0].tolist() == list(times)


@pytest.mark.parametrize("panels", [
    # onsevo2's kind: one reservoir, lam = 0.05 and 0 (one phase, two dampings)
    [(ReservoirParams(0.1, 0.0), 0.05), (ReservoirParams(0.1, 0.0), 0.0)],
    # onsevo1's kind: mu = 0, 1 and 1.9 at one lam (one damping and phase)
    [(ReservoirParams(0.02, mu), 0.05) for mu in (0.0, 1.0, 1.9)],
], ids=["lam", "mu"])
def test_a_time_shared_by_panels_forms_its_cosine_once_per_block(monkeypatch, panels):
    # points are panel-major, as a scenario scans them; t = 2 twice per panel
    times = (0.0, 0.7, 2.0, 2.0, 25.0)
    points = [(t, res, lam) for res, lam in panels for t in times]
    reads, formed = _watch(monkeypatch)
    cosines = []
    inner = transport._band_cosine

    def cosine(sin2, g, phase):
        cosines.append((len(reads), phase))
        return inner(sin2, g, phase)

    monkeypatch.setattr(transport, "_band_cosine", cosine)
    scan = transport._scan(_both(), points, 1.0, transport.DEFAULT_TOL, "fd")
    # each block forms the cosine of every phase its points read, once
    assert len(cosines) == len(set(cosines))
    assert sorted(cosines) == sorted({(block, 2.0 * points[i // 2][0])
                                      for block, row in enumerate(reads, 1) for i in row})
    # two equal reservoirs are one: its occupation is formed once per block
    if len(set(res for res, _ in panels)) == 1:
        assert formed["occupation"] == list(range(1, len(reads) + 1))
    monkeypatch.undo()
    for (t, res, lam), n_e, coeffs in zip(points, *scan):
        assert [_hexes(n_e), _block_hexes(OnsagerBlock.from_derivatives(
            coeffs, res.temperature))] == _both_hexes(t, res, lam, 1.0)


def test_a_phase_no_other_point_shares_is_formed_in_place(monkeypatch):
    # one panel of distinct times keeps no array past its point
    in_place = []
    inner = transport._relaxation_factor
    monkeypatch.setattr(transport, "_relaxation_factor",
                        lambda cos, damping, out: in_place.append(out is cos)
                        or inner(cos, damping, out))
    transport._scan(_both(), [(t, ReservoirParams(0.1, 0.3), 0.05) for t in (0.0, 0.7, 2.0)],
                    1.0, transport.DEFAULT_TOL, "fd")
    assert in_place and all(in_place)


def _scan_hexes(groups, points, g, stats):
    """Per point, one list of hexes per group: its counters, or its entry of
    a batched block, one block per run of points at one temperature."""
    names, kernels = zip(*groups)

    def scan():
        per_group = []
        for name, values in zip(names, transport._scan(kernels, points, g,
                                                       transport.DEFAULT_TOL, stats)):
            if name == "onsager":  # read back through the batched blocks
                entries, start = [], 0
                for temp, run in groupby(res.temperature for _, res, _ in points):
                    end = start + len(list(run))
                    entries += zip(*OnsagerBlock.from_derivatives(values[start:end].T,
                                                                  temp).columns)
                    start = end
                values = entries
            per_group.append([_hexes(entry) for entry in values])
        return [list(point) for point in zip(*per_group)]

    return _or_error(scan)


def _solo_hexes(t, res, lam, g, stats):
    """Per point: counters, onsager and a one-point scan of both groups, as hex."""
    return (_or_error(lambda: [_hexes(counters(t, res, lam, g, stats=stats))]),
            _or_error(lambda: [_block_hexes(onsager(t, res, lam, g, stats=stats))]),
            _or_error(lambda: _both_hexes(t, res, lam, g, stats)))


_GROUPS = (("counters", transport._counter_kernels), ("onsager", transport._onsager_kernels))


def _dilute(temp, mu, stats):
    # a Boltzmann mu below the one-digit bound by at least 0.01
    if stats == "boltzmann":
        return boltzmann_validity(1, ReservoirParams(temp)).mu_bound - 0.01 - abs(mu)
    return mu


@settings(max_examples=60, deadline=None)
@given(log_temp=st.floats(-3.0, 0.0), mus=st.lists(st.floats(-2.5, 2.5), min_size=1, max_size=3),
       lam=st.one_of(st.just(0.0), st.floats(0.1, 1.0)), g=st.floats(0.2, 1.5),
       times=st.lists(st.tuples(st.sampled_from(_KINDS), st.floats(0.0, 1.0)), min_size=1,
                      max_size=4),
       along=st.sampled_from(["t", "mu", "panels"]),
       key=st.sampled_from(["temperature", "mu", "dephasing"]),
       others=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
       stats=st.sampled_from(["fd", "boltzmann"]))
def test_every_scan_point_equals_its_solo_calls_bit_for_bit(log_temp, mus, lam, g, times,
                                                           along, key, others, stats):
    # a t-scan at the first mu, a mu-scan at the first time, or the t-scans
    # of 2-3 panels that differ in T, mu or lam over one list of times, as a
    # scenario's panels are scanned; points that share a first level (t = 0,
    # small t, or one time across mu or panels) and points that do not,
    # flat and oscillating D(k, t) and t = inf
    assume(lam > 0.0 or all(kind not in ("flat", "inf") for kind, _ in times))
    temp = 10.0 ** log_temp
    ts = [_time(kind, u, lam) for kind, u in times]
    if along == "t":
        points = [(t, ReservoirParams(temp, _dilute(temp, mus[0], stats)), lam) for t in ts]
    elif along == "mu":
        points = [(ts[0], ReservoirParams(temp, _dilute(temp, mu, stats)), lam) for mu in mus]
    else:
        # a repeated time, an oscillating one, and a flat one wherever the
        # first panel is damped
        ts += [ts[0], _time("mid", others[0], lam)] + (
            [_time("flat", others[0], lam)] if lam > 0.0 else [])
        temps, panel_mus, lams = [temp], [mus[0]], [lam]
        for u in others:
            {"temperature": temps, "mu": panel_mus, "dephasing": lams}[key].append(
                {"temperature": 10.0 ** (-3.0 + 3.0 * u), "mu": -2.5 + 5.0 * u,
                 "dephasing": 0.0 if u < 0.3 else 0.1 + 0.9 * u}[key])
        assume(min(lams) > 0.0 or math.inf not in ts)
        n = len(others) + 1
        panels = [(ReservoirParams(temps[i % len(temps)],
                                   _dilute(temps[i % len(temps)],
                                           panel_mus[i % len(panel_mus)], stats)),
                   lams[i % len(lams)]) for i in range(n)]
        points = [(t, res, panel_lam) for res, panel_lam in panels for t in ts]
    solo = [_solo_hexes(t, res, point_lam, g, stats) for t, res, point_lam in points]
    for which, groups in enumerate(([_GROUPS[0]], [_GROUPS[1]], _GROUPS)):
        want = [calls[which] for calls in solo]
        got = _scan_hexes(groups, points, g, stats)
        if "QuadratureError" in want:  # a scan fails when one of its points does
            assert got == "QuadratureError"
        else:
            assert got == want
