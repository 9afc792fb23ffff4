import contextlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermichain import (
    ConfigError,
    EquilibriumUndefinedError,
    OnsagerBlock,
    QuadratureError,
    RegimeWarning,
    ReservoirParams,
    boltzmann_validity,
    counters,
    ebar,
    fluxes,
    integrate_interval,
    nbar,
    occupation_fd,
    onsager,
    parse_config,
    qbar,
)
from fermichain import transport
from fermichain.lattice import _REACH
from fermichain.transport import _BASE_PANELS, _MAX_PANELS, _W16, _X16, DEFAULT_TOL

RES = ReservoirParams(temperature=0.1, mu=0.0)


def counters_and_onsager(t, res, dephasing, g, tol=DEFAULT_TOL, stats="fd"):
    """(nbar, ebar, OnsagerBlock) at one time from one one-point scan of the
    two kernel groups, the counters' and the block's, as the custom panel
    forms them."""
    (n_e,), (coeffs,) = transport._scan((transport._counter_kernels,
                                         transport._onsager_kernels),
                                        ((t, res, dephasing),), g, tol, stats)
    n, e = n_e.tolist()
    return n, e, OnsagerBlock.from_derivatives(coeffs.tolist(), res.temperature)


def _trapezoid_counter(t, res, lam, g, weight=lambda eps: 1.0, nodes=100_001):
    # independent fixed-grid oracle for the band-averaged counters
    k = np.linspace(0.0, math.pi, nodes)
    eps = -2.0 * np.cos(k)
    gk = g * np.sin(k) ** 2
    occ = occupation_fd(eps, res)
    relax = np.exp(-lam * t) * np.cos(2.0 * gk * t) - 1.0
    return np.trapezoid(occ * weight(eps) * relax, k) / math.pi


def _band(f, tol=DEFAULT_TOL, min_panels=_BASE_PANELS):
    # one kernel group: the plain integrand's value and error estimate, from
    # integrate_interval's default first level
    (val,), (err,) = integrate_interval(lambda k: (f(k),), 0.0, math.pi, tol, min_panels)
    return val, err


def test_integrate_band_constant():
    val, err = _band(lambda k: np.ones_like(k))
    assert val == pytest.approx(math.pi, rel=1e-14)
    assert err >= 0.0


def test_integrate_band_antisymmetric():
    val, _ = _band(np.cos)
    assert abs(val) < 1e-14


def test_integrate_band_oscillatory_vs_dense_reference():
    t = 50.0
    f = lambda k: np.cos(2.0 * t * np.sin(k) ** 2)
    k = np.linspace(0.0, math.pi, 1_000_001)
    ref = np.trapezoid(f(k), k)
    val, _ = _band(f, min_panels=int(math.ceil(4 * t)))
    assert val == pytest.approx(ref, abs=1e-10)


def test_integrate_interval_vector_valued():
    f = lambda x: (np.stack([np.ones_like(x), x, x ** 2]),)
    (val,), _ = integrate_interval(f, 0.0, 1.0)
    np.testing.assert_allclose(val, [1.0, 0.5, 1.0 / 3.0], rtol=1e-12)


def _levels(f):
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    return counted, calls


def test_integrate_interval_groups_converge_on_their_own():
    smooth = lambda k: np.stack([np.ones_like(k), np.sin(k)])
    wavy = lambda k: np.cos(400.0 * np.sin(k) ** 2)[None, :]
    solo_smooth, smooth_levels = _levels(smooth)
    solo_wavy, wavy_levels = _levels(wavy)
    v_smooth, e_smooth = _band(solo_smooth)
    v_wavy, e_wavy = _band(solo_wavy)
    # the groups stop at different levels, so the smooth one must be frozen
    assert len(smooth_levels) < len(wavy_levels)
    both, both_levels = _levels(lambda k: (smooth(k), wavy(k)))
    (g_smooth, g_wavy), (ge_smooth, ge_wavy) = integrate_interval(both, 0.0, math.pi)
    assert both_levels == wavy_levels
    np.testing.assert_array_equal(g_smooth, v_smooth)
    np.testing.assert_array_equal(g_wavy, v_wavy)
    assert (ge_smooth, ge_wavy) == (e_smooth, e_wavy)


def test_each_group_doubles_from_its_own_first_level():
    wavy = lambda k: np.cos(40.0 * np.sin(k) ** 2)[None, :]
    smooth = lambda k: np.stack([np.ones_like(k), np.sin(k)])
    (v_wavy,), (e_wavy,) = integrate_interval(lambda k: (wavy(k),), 0.0, math.pi,
                                              DEFAULT_TOL, 160)
    (v_smooth,), (e_smooth,) = integrate_interval(lambda k: (smooth(k),), 0.0, math.pi,
                                                  DEFAULT_TOL, 40)
    both, levels = _levels(lambda k: (wavy(k), smooth(k)))
    values, errs = integrate_interval(both, 0.0, math.pi, DEFAULT_TOL, [160, 40])
    assert [_hexes(v) for v in values] == [_hexes(v_wavy), _hexes(v_smooth)]
    assert _hexes(errs) == _hexes([e_wavy, e_smooth])
    # the least pending panel count first: 40, 80, then 160 and up
    assert levels[:3] == [40 * _X16.size, 80 * _X16.size, 160 * _X16.size]
    with pytest.raises(ValueError, match=r"^min_panels must hold one count, or one per "
                                         r"kernel group \(2\), got \[32, 64, 16\]$"):
        integrate_interval(both, 0.0, math.pi, DEFAULT_TOL, [32, 64, 16])
    with pytest.raises(ValueError, match="min_panels must hold one count"):
        integrate_interval(both, 0.0, math.pi, DEFAULT_TOL, [])


def test_integrate_interval_unconverged_group_fails_the_call(monkeypatch):
    monkeypatch.setattr(transport, "_MAX_PANELS", 64)
    hard = lambda x: np.sin(37.0 * x) ** 2 / (1e-3 + x)
    with pytest.raises(QuadratureError) as solo:
        integrate_interval(lambda x: (hard(x),), 0.0, 1.0, tol=1e-15)
    with pytest.raises(QuadratureError) as both:
        integrate_interval(lambda x: (np.ones_like(x), hard(x)), 0.0, 1.0, tol=1e-15)
    assert both.value.achieved_error == solo.value.achieved_error > 0.0


@pytest.mark.parametrize("excess", [64, 1000])
def test_integrate_interval_without_room_to_refine_fails_before_evaluating(excess):
    # a first level above half the budget cannot double within it
    calls = []
    min_panels = _MAX_PANELS // 2 + excess
    with pytest.raises(QuadratureError,
                       match=r"^min_panels must be <= 65536, or the first level leaves no room "
                             r"to refine within the 131072-panel budget, got %d$" % min_panels):
        integrate_interval(lambda x: calls.append(x.size) or (np.ones_like(x),), 0.0,
                           1.0, min_panels=min_panels)
    assert calls == []


def test_a_band_call_beyond_its_reach_names_g_t_before_evaluating(monkeypatch):
    monkeypatch.setattr(transport, "integrate_interval", lambda *a: pytest.fail("evaluated"))
    with pytest.raises(QuadratureError, match=r"^\|g\| t must be <= 16384 .*, got 20000\.0$"):
        onsager(2e4, ReservoirParams(0.1, 0.5), 0.0, 1.0)
    with pytest.raises(QuadratureError, match=r"\|g\| t must be <= 16384"):
        nbar(1.0, ReservoirParams(0.1, 0.5), 0.0, -2e4)
    # the edge: 4 g t panels fill half the budget, and their double all of it
    assert transport._osc_panels(1.0, 2.0 * 16384.0) == _MAX_PANELS // 2
    with pytest.raises(QuadratureError, match=r"\|g\| t must be <= 16384"):
        transport._osc_panels(1.0, 2.0 * math.nextafter(16384.0, math.inf))


def test_a_start_whose_double_overruns_the_budget_fails_before_evaluating():
    calls = []
    f = lambda x: calls.append(x.size) or (np.ones_like(x),)
    with pytest.raises(QuadratureError, match="no room to refine within the 131072-panel"):
        integrate_interval(f, 0.0, 1.0, min_panels=_MAX_PANELS // 2 + 1)
    assert calls == []
    # the largest start that fits builds its double, and nothing above it
    integrate_interval(f, 0.0, 1.0, min_panels=_MAX_PANELS // 2)
    assert sum(calls) == (_MAX_PANELS // 2 + _MAX_PANELS) * _X16.size


def _block_sizes(levels):
    # the node counts f sees for these levels, one call per block of panels
    block = transport._BLOCK_PANELS
    return [min(block, p - start) * _X16.size for p in levels for start in range(0, p, block)]


def test_no_level_above_the_budget_is_ever_built():
    # a step kernel converges only as fast as the panel width shrinks, so it
    # walks every level from 32 panels up to the budget and then fails
    counted, calls = _levels(lambda x: (np.sign(np.sin(1000.0 * x)),))
    with pytest.raises(QuadratureError, match="no convergence within the 131072-panel"):
        integrate_interval(counted, 0.0, 1.0)
    assert calls == _block_sizes([_BASE_PANELS << j for j in range(13)])
    assert _BASE_PANELS << 12 == _MAX_PANELS


def test_large_g_t_names_the_panel_budget():
    # g t = 1e6 needs ~4e6 starting panels against the budget of 131,072;
    # this used to evaluate a full 1,048,576-node level before failing, then
    # named min_panels, which the caller never passed
    with pytest.raises(QuadratureError, match=r"^\|g\| t must be <= 16384 .*131072-panel "
                                              r"budget, got 1000000\.0$"):
        nbar(1.0, ReservoirParams(0.1, 0.0), 0.05, 1e6)


@pytest.mark.parametrize("min_panels, error", [
    (float("nan"), ValueError),
    (math.inf, ValueError),
    (10 ** 400, QuadratureError),  # beyond the float range
])
def test_integrate_interval_rejects_bad_min_panels_by_name(min_panels, error):
    # these used to raise bare OverflowError or ValueError from int()/%.3g
    with pytest.raises(error) as exc:
        integrate_interval(lambda x: (np.ones_like(x),), 0.0, 1.0,
                           min_panels=min_panels)
    message = str(exc.value)
    assert len(message) < 200
    assert "min_panels" in message


def test_no_room_message_stays_short_for_huge_panel_counts():
    # g t = 1e300 asks for ~4e300 starting panels; printed as exact
    # integers they made a 703-character message
    with pytest.raises(QuadratureError) as exc:
        nbar(10.0, ReservoirParams(0.1, 0.0), 0.0, 1e300)
    message = str(exc.value)
    assert len(message) < 200
    assert "131072-panel budget" in message


@pytest.mark.parametrize("t, g", [(1e308, 1.0), (1e10, 1e300)])
def test_overflowing_phase_is_rejected_on_the_band_path(t, g):
    # 1e308 overflows 2 t inside the envelope helper; g = 1e300 overflows
    # the panel count g (2 t) formed outside it.  Both used to raise a raw
    # OverflowError from the panel count.
    res = ReservoirParams(0.1, 0.0)
    for fn in (counters, onsager, counters_and_onsager):
        with pytest.raises(ValueError, match="phase 2 g t must be finite"):
            fn(t, res, 0.0, g)
    n_inf, _ = counters(math.inf, res, 0.1, g)
    assert n_inf == nbar(math.inf, res, 0.1, 1.0)


def test_integrate_interval_reports_achieved_error(monkeypatch):
    monkeypatch.setattr(transport, "_MAX_PANELS", 64)
    with pytest.raises(QuadratureError) as exc:
        integrate_interval(lambda x: (np.sin(37.0 * x) ** 2 / (1e-3 + x),), 0.0, 1.0,
                           tol=1e-15)
    assert exc.value.achieved_error > 0.0


def test_quadrature_doubling_within_error_estimate():
    f = lambda k: np.cos(11.0 * np.sin(k) ** 2)
    v1, e1 = _band(f)
    v2, _ = _band(f, min_panels=2 * _BASE_PANELS)
    assert abs(v2 - v1) <= max(e1, 1e-14)


def _one_array_integrate(f, a, b, tol, min_panels):
    # reference: every level as one array, one f call per level
    panels = max(_BASE_PANELS, int(min_panels))
    prev, done = {}, {}
    while True:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        groups = f((mid[:, None] + half * _X16[None, :]).reshape(-1))
        for i, vals in enumerate(groups):
            if i in done:
                continue
            vals = np.asarray(vals)
            vals = vals.reshape(vals.shape[:-1] + (panels, _W16.size))
            total = np.add.reduce((vals * _W16).sum(axis=-1) * half, axis=-1)
            if i in prev:
                err = np.max(np.abs(total - prev[i]))
                if err <= tol * max(1.0, float(np.max(np.abs(total)))):
                    done[i] = (total, float(err))
            prev[i] = total
        if len(done) == len(groups):
            return tuple(zip(*(done[i] for i in range(len(done)))))
        assert 2 * panels <= _MAX_PANELS
        panels *= 2


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_blocked_levels_equal_one_array_levels_bit_for_bit():
    block = transport._BLOCK_PANELS
    first = 3 * block + 5  # three full blocks and a short one, then seven blocks
    f = lambda k: (np.stack([np.cos(40.0 * np.sin(k) ** 2), np.exp(np.sin(k))]),
                   np.cos(k) ** 2)
    counted, calls = _levels(f)
    values, errs = integrate_interval(counted, 0.0, math.pi, DEFAULT_TOL, first)
    ref_values, ref_errs = _one_array_integrate(f, 0.0, math.pi, DEFAULT_TOL, first)
    assert [_hexes(v) for v in values] == [_hexes(v) for v in ref_values]
    assert _hexes(errs) == _hexes(ref_errs)
    nodes = block * _X16.size
    assert calls == [nodes] * 3 + [5 * _X16.size] + [nodes] * 6 + [10 * _X16.size]


def test_long_time_onsager_streams_its_levels_in_blocks(monkeypatch):
    # c9's t = 1e4 call: levels of 40,000 and 80,000 panels (1.28M nodes),
    # both inside the 131,072-panel budget
    sizes = []
    inner = transport.integrate_interval

    def watched(f, *args):
        return inner(lambda k: sizes.append(k.size) or f(k), *args)

    monkeypatch.setattr(transport, "integrate_interval", watched)
    tracemalloc.start()
    try:
        block = onsager(1e4, ReservoirParams(0.1, 0.5), 0.05, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _hexes([block.j_n_mu, block.j_n_t, block.j_q_mu, block.j_q_t]) == [
        "-0x1.0ecb0f5a4d6f7p-7", "-0x1.442ce5821aa55p-15", "-0x1.442ce5821aa51p-15",
        "-0x1.22876cdf8a492p-12"]
    assert sizes == _block_sizes([40_000, 80_000])  # exactly these two levels
    assert max(sizes) <= transport._BLOCK_PANELS * _X16.size
    assert peak < 24e6  # the one-array level peaked near 120 MB


@pytest.mark.parametrize("t, lam, flat, want", [
    # the damped limit: exp(-lam t) = 0
    (math.inf, 0.05, True, ["-0x1.295f0ee3dd8bap-1", "0x1.3a1a5565eb3c7p-1",
                            "-0x1.0ecb0f5a4d6f9p-7", "-0x1.442ce5821a95fp-15",
                            "-0x1.442ce5821a964p-15", "-0x1.22876cdf8a4c2p-12"]),
    # exp(-37.4) = 5.8e-17, just above 2**-54 = 5.55e-17: D(k, t) is formed
    (37.4, 1.0, False, ["-0x1.295f0ee3dd8bap-1", "0x1.3a1a5565eb3c9p-1",
                        "-0x1.0ecb0f5a4d6f7p-7", "-0x1.442ce5821aa08p-15",
                        "-0x1.442ce5821aa10p-15", "-0x1.22876cdf8a494p-12"]),
    # exp(-37.5) = 5.2e-17, just below: the kernels are negated
    (37.5, 1.0, True, ["-0x1.295f0ee3dd8bap-1", "0x1.3a1a5565eb3c9p-1",
                       "-0x1.0ecb0f5a4d6f7p-7", "-0x1.442ce5821aa08p-15",
                       "-0x1.442ce5821aa14p-15", "-0x1.22876cdf8a494p-12"]),
], ids=["t=inf", "above-2**-54", "below-2**-54"])
def test_flat_relaxation_factor_keeps_every_bit(monkeypatch, t, lam, flat, want):
    # Pinned from the form that always builds D(k, t) = damping cos(.) - 1;
    # at or below damping 2**-54 that is exactly -1.0, and the integrand
    # negates the kernels instead
    formed = []
    inner = transport._relaxation_factor

    def watched(*args):
        formed.append(True)
        return inner(*args)

    monkeypatch.setattr(transport, "_relaxation_factor", watched)
    n, e, blk = counters_and_onsager(t, ReservoirParams(0.1, 0.5), lam, 1.0)
    assert _hexes([n, e, blk.j_n_mu, blk.j_n_t, blk.j_q_mu, blk.j_q_t]) == want
    assert bool(formed) is not flat


def test_round_off_band_outputs_are_pinned():
    # Both values are pure round-off (0 by symmetry), so the benchmark's
    # reference check, which compares each CSV column within tol times that
    # column's own maximum, fails on any change of their bits.  Pinned here,
    # a band change that moves bits fails in seconds instead.
    # seed-0 sweep draw 218 at its sixth time: n == 1 at mu = 2.47, so E ~ 0
    _, e = counters(3.280649809283286, ReservoirParams(0.0016606945462125109,
                                                       2.472060508555624),
                    0.16218759258965046, 0.5504718641154456)
    assert e.hex() == "0x1.1d34a60108f73p-54"
    # the custom figure's J_NT at mu = 0, t = 2.5
    assert onsager(2.5, ReservoirParams(0.1, 0.0), 0.05, 1.0).j_n_t.hex() == (
        "0x1.a1371305e714dp-61")


def test_nbar_zero_at_t0():
    assert nbar(0.0, RES, 0.35, 1.0) == 0.0


def test_nbar_damped_limit_is_band_average():
    ref = -_band(lambda k: occupation_fd(-2.0 * np.cos(k), RES))[0] / math.pi
    assert nbar(math.inf, RES, 0.35, 1.0) == pytest.approx(ref, rel=1e-10)


def test_nbar_matches_dense_trapezoid():
    got = nbar(2.0, RES, 0.35, 1.0)
    assert got == pytest.approx(_trapezoid_counter(2.0, RES, 0.35, 1.0), abs=1e-8)


def test_nbar_equilibrium_without_noise_rejected():
    with pytest.raises(EquilibriumUndefinedError):
        nbar(math.inf, RES, 0.0, 1.0)


def test_band_entry_points_reject_a_time_array():
    # one band call takes one time; a grid is scanned by the scenario builders
    ts = np.array([0.0, 0.7, 2.0])
    for fn in (nbar, ebar, qbar, counters, onsager):
        with pytest.raises(ValueError, match=r"time must be one scalar.*\(3,\)"):
            fn(ts, RES, 0.35, 1.0)
        with pytest.raises(ValueError, match=r"dephasing rate must be one scalar"):
            fn(1.0, RES, np.array([0.1, 0.35]), 1.0)


def test_ebar_zero_at_t0_and_even_in_mu():
    assert ebar(0.0, RES, 0.35, 1.0) == 0.0
    # particle-hole symmetry makes the energy counter even in mu
    left = ebar(3.1, ReservoirParams(0.1, -0.7), 0.35, 1.0)
    right = ebar(3.1, ReservoirParams(0.1, 0.7), 0.35, 1.0)
    assert left == pytest.approx(right, rel=1e-9)


def test_ebar_matches_dense_trapezoid():
    res = ReservoirParams(temperature=0.1, mu=-1.0)
    got = ebar(2.0, res, 0.35, 1.0)
    ref = _trapezoid_counter(2.0, res, 0.35, 1.0, weight=lambda eps: eps)
    assert got == pytest.approx(ref, abs=1e-8)


def test_qbar_composition():
    res = ReservoirParams(temperature=0.3, mu=-0.7)
    assert qbar(0.0, res, 0.2, 1.0) == 0.0
    n = nbar(1.9, res, 0.2, 1.0)
    e = ebar(1.9, res, 0.2, 1.0)
    q = qbar(1.9, res, 0.2, 1.0)
    assert q + res.mu * n == pytest.approx(e, abs=1e-12)
    assert qbar(1.9, RES, 0.2, 1.0) == pytest.approx(ebar(1.9, RES, 0.2, 1.0), abs=1e-14)


def test_onsager_zero_at_t0():
    blk = onsager(0.0, RES, 0.35, 1.0)
    assert blk.j_n_mu == blk.j_n_t == blk.j_q_mu == blk.j_q_t == 0.0


def test_onsager_matches_finite_difference_of_nbar():
    res = ReservoirParams(temperature=0.1, mu=0.0)
    blk = onsager(3.0, res, 0.05, 1.0)
    h = 1e-6
    up = nbar(3.0, ReservoirParams(0.1, h), 0.05, 1.0)
    dn = nbar(3.0, ReservoirParams(0.1, -h), 0.05, 1.0)
    fd = (up - dn) / (2.0 * h)
    assert blk.j_n_mu == pytest.approx(0.5 * res.temperature * fd, rel=1e-6)


def test_onsager_reciprocity_exact():
    # the cross coefficients share one integrand up to the (eps - mu) weight
    for mu in (0.0, -0.8, 1.3):
        blk = onsager(2.5, ReservoirParams(0.1, mu), 0.35, 1.0)
        assert blk.j_n_t == pytest.approx(blk.j_q_mu, rel=1e-12, abs=1e-14)


def test_onsager_parity_spot():
    plus = onsager(math.inf, ReservoirParams(0.1, 1.1), 0.35, 1.0)
    minus = onsager(math.inf, ReservoirParams(0.1, -1.1), 0.35, 1.0)
    assert plus.j_n_mu == pytest.approx(minus.j_n_mu, abs=1e-8)
    assert plus.j_q_t == pytest.approx(minus.j_q_t, abs=1e-8)
    assert plus.j_n_t == pytest.approx(-minus.j_n_t, abs=1e-8)
    assert plus.j_q_mu == pytest.approx(-minus.j_q_mu, abs=1e-8)


def test_fluxes_zero_bias():
    blk = onsager(2.0, RES, 0.2, 1.0)
    out = fluxes(blk, 0.0, 0.0)
    assert out.j_particle == 0.0 and out.j_heat == 0.0


def test_fluxes_single_affinity():
    blk = onsager(2.0, RES, 0.2, 1.0)
    out = fluxes(blk, 0.01, 0.0)
    assert out.j_particle == pytest.approx(blk.j_n_mu * 0.01 / 0.1, rel=1e-14)
    assert out.j_heat == pytest.approx(blk.j_q_mu * 0.01 / 0.1, rel=1e-14)


def test_fluxes_match_perturbed_reservoir_difference():
    # first order in delta_mu: the flux equals the antisymmetrized counter
    # (1/pi) int (delta_n/2) (e^{-lam t} cos - 1) dk built from split reservoirs
    lam, g, t = 0.2, 1.0, 2.7
    base = ReservoirParams(temperature=0.1, mu=0.3)
    d_mu = 1e-6
    blk = onsager(t, base, lam, g)
    got = fluxes(blk, d_mu, 0.0).j_particle
    up = nbar(t, ReservoirParams(0.1, 0.3 + 0.5 * d_mu), lam, g)
    dn = nbar(t, ReservoirParams(0.1, 0.3 - 0.5 * d_mu), lam, g)
    assert got == pytest.approx(0.5 * (up - dn), rel=1e-5)


def test_fluxes_reject_underflowing_temperature():
    blk = OnsagerBlock(j_n_mu=0.0, j_n_t=0.0, j_q_mu=0.0, j_q_t=0.0,
                       temperature=1e-300)
    # T**2 is 0 in double precision; this used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="T\\*\\*2 underflows"):
        fluxes(blk, 0.0, 1e-3)


def _scanned_block(temp=0.1, mus=(-0.5, 0.0, 1.0, 1.9)):
    # the ons1 way: one mu-scan at t = inf, read as one batched block
    (coeffs,) = transport._scan((transport._onsager_kernels,),
                                [(math.inf, ReservoirParams(temp, mu), 0.05) for mu in mus],
                                1.0, DEFAULT_TOL, "fd")
    return OnsagerBlock.from_derivatives(coeffs.T, temp)


def test_batched_blocks_compare_field_by_field_and_refuse_hash():
    block = _scanned_block()
    assert block == _scanned_block()
    assert block != _scanned_block(mus=(-0.5, 0.0, 1.0, 1.8))
    assert block != _scanned_block(temp=0.2)
    with pytest.raises(TypeError, match="batched OnsagerBlock"):
        hash(block)
    one = OnsagerBlock(0.1, 0.02, 0.03, 0.2, 0.1)
    assert one == OnsagerBlock(0.1, 0.02, 0.03, 0.2, 0.1) and len({one, one}) == 1
    with pytest.raises(ValueError, match="j_q_t must be finite"):
        OnsagerBlock(*block.columns[:3], np.array([0.0, math.nan, 0.0, 0.0]), 0.1)


def test_block_fields_that_do_not_broadcast_are_rejected_by_name():
    # this built, then fluxes raised numpy's unnamed broadcast error
    with pytest.raises(ValueError, match=re.escape(
            "OnsagerBlock fields must broadcast together, got {'j_n_mu': (2,), "
            "'j_n_t': (3,), 'j_q_mu': (), 'j_q_t': (), 'temperature': ()}")):
        OnsagerBlock(np.zeros(2), np.zeros(3), 0.0, 0.0, 0.1)
    assert OnsagerBlock(np.zeros(3), np.zeros(3), 0.0, np.zeros((2, 1)), 0.1).j_q_mu == 0.0
    with pytest.raises(ValueError, match=re.escape(
            "ParticleHeatFlux fields must broadcast together, got {'j_particle': (2,), "
            "'j_heat': (3,)}")):
        transport.ParticleHeatFlux(np.zeros(2), np.zeros(3))


def test_fluxes_of_a_batched_block_are_its_entries_fluxes_bit_for_bit():
    block = _scanned_block()
    flux = fluxes(block, 0.003, -0.002)
    assert flux == fluxes(_scanned_block(), 0.003, -0.002)  # field by field
    assert flux != fluxes(block, 0.003, -0.001)
    for i, entry in enumerate(zip(*block.columns)):
        solo = fluxes(OnsagerBlock(*entry, temperature=0.1), 0.003, -0.002)
        assert _hexes([flux.j_particle[i], flux.j_heat[i]]) == _hexes(
            [solo.j_particle, solo.j_heat])


def test_one_point_band_calls_return_plain_floats():
    n, e = counters(2.0, RES, 0.05, 1.0)
    block = onsager(2.0, RES, 0.05, 1.0)
    assert all(type(v) is float for v in (n, e) + block.columns)
    assert all(type(fn(2.0, RES, 0.05, 1.0)) is float for fn in (nbar, ebar, qbar))


# the exports; transport._scan, which counters_and_onsager calls, takes
# points that an export's declaration or the config has checked
_TRANSPORT_ENTRY_POINTS = {"nbar": nbar, "ebar": ebar, "qbar": qbar,
                           "counters": counters, "onsager": onsager}


@pytest.mark.parametrize("name", sorted(_TRANSPORT_ENTRY_POINTS))
@pytest.mark.parametrize("t, lam, match", [
    (math.nan, 0.1, "time must be a number >= 0, got nan"),
    (np.array(math.nan), 0.1, "time must be a number >= 0, got nan"),  # a 0-d array is one time
    (1.0, math.nan, "dephasing"),
    (1.0, -0.1, "dephasing"),
    (1.0, math.inf, "dephasing"),
])
def test_transport_rejects_bad_time_or_dephasing(name, t, lam, match):
    # these used to return the damped limit as if t were infinite
    with pytest.raises(ValueError, match=match):
        _TRANSPORT_ENTRY_POINTS[name](t, RES, lam, 1.0)


@pytest.mark.parametrize("t, shown", [(math.nan, "nan"), (np.array(math.nan), "nan"),
                                      (-1, "-1"), ("2", "'2'"), (None, "None")])
def test_a_band_call_names_a_rejected_time_as_the_caller_gave_it(t, shown):
    # the declaration checks the caller's scalar before the scan forms an
    # array of times
    with pytest.raises(ValueError, match=r"^time must .*, got %s$" % re.escape(shown)):
        onsager(t, RES, 0.1, 1.0)


@pytest.mark.parametrize("name", ["counters", "onsager"])
@pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
def test_transport_rejects_non_finite_coupling(name, g):
    # g=nan failed with "cannot convert float NaN to integer", g=inf with a
    # raw OverflowError from the panel count
    with pytest.raises(ValueError, match="coupling g must be finite"):
        _TRANSPORT_ENTRY_POINTS[name](1.0, RES, 0.1, g)


@pytest.mark.parametrize("name", ["counters", "onsager"])
@pytest.mark.parametrize("res, finite", [
    (ReservoirParams(0.1, 1e308), ReservoirParams(0.1, 1e300)),
    (ReservoirParams(1e-308, 0.0), ReservoirParams(1e-300, 0.0)),
])
def test_band_kernel_past_the_float_range_is_the_exact_limit_silently(name, res, finite):
    # (eps - mu)/T overflows to +-inf at res: the band kernel used to warn
    # "overflow encountered in divide", where occupation_fd is silent.  Each
    # level reads exactly empty or full, as at the finite reservoir.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _TRANSPORT_ENTRY_POINTS[name](1.0, res, 0.1, 1.0)
    want = _TRANSPORT_ENTRY_POINTS[name](1.0, finite, 0.1, 1.0)
    if name == "onsager":  # the block carries its own temperature
        got, want = ([b.j_n_mu, b.j_n_t, b.j_q_mu, b.j_q_t] for b in (got, want))
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("name", ["counters", "onsager"])
@pytest.mark.parametrize("stats", ["FD", "Boltzmann", "", None, 1])
def test_transport_accepts_exactly_fd_and_boltzmann(name, stats):
    # "FD" used to pass by lower-casing, though a config rejects it, and
    # None raised AttributeError
    with pytest.raises(ValueError, match="stats must be 'fd' or 'boltzmann'"):
        _TRANSPORT_ENTRY_POINTS[name](1.0, RES, 0.1, 1.0, stats=stats)


_TIMES = st.one_of(st.floats(0.0, 30.0), st.just(math.inf))


@pytest.mark.filterwarnings("error::fermichain.RegimeWarning")
@settings(max_examples=40, deadline=None)
@given(temp=st.floats(0.05, 1.0), mu=st.floats(-2.5, 2.5), lam=st.floats(0.0, 0.5),
       g=st.floats(0.2, 2.0), t=_TIMES, stats=st.sampled_from(["fd", "boltzmann"]))
def test_counters_and_onsager_bit_equal_to_separate_calls(temp, mu, lam, g, t, stats):
    assume(not (math.isinf(t) and lam == 0.0))
    res = ReservoirParams(temp, mu)
    tol = 1e-9
    # a non-dilute Boltzmann draw warns on each call; any other warning fails
    non_dilute = stats == "boltzmann" and not boltzmann_validity(1, res).satisfied
    with (pytest.warns(RegimeWarning, match="outside the dilute regime") if non_dilute
          else contextlib.nullcontext()):
        try:
            n_solo, e_solo = counters(t, res, lam, g, tol, stats)
            solo = onsager(t, res, lam, g, tol, stats)
        except QuadratureError:
            # each group converges as its solo call would, so it fails with it
            with pytest.raises(QuadratureError):
                counters_and_onsager(t, res, lam, g, tol, stats)
            return
        n, e, blk = counters_and_onsager(t, res, lam, g, tol, stats)
    np.testing.assert_array_equal(n, n_solo)
    np.testing.assert_array_equal(e, e_solo)
    for name in ("j_n_mu", "j_n_t", "j_q_mu", "j_q_t"):
        np.testing.assert_array_equal(getattr(blk, name), getattr(solo, name))
    assert blk.temperature == solo.temperature == temp


@pytest.mark.parametrize("stats", ["fd", "boltzmann"])
@pytest.mark.parametrize("t", [0.0, 2.3, math.inf, np.array(9.0)])  # 0-d: one time
def test_counters_are_the_single_counter_path(stats, t):
    res = ReservoirParams(temperature=0.3, mu=-2.6 if stats == "boltzmann" else 0.4)
    n, e = counters(t, res, 0.2, 1.3, stats=stats)
    np.testing.assert_array_equal(n, nbar(t, res, 0.2, 1.3, stats=stats))
    np.testing.assert_array_equal(e, ebar(t, res, 0.2, 1.3, stats=stats))
    np.testing.assert_array_equal(qbar(t, res, 0.2, 1.3, stats=stats), e - res.mu * n)
    assert np.ndim(n) == np.ndim(t)


def test_quadrature_spec_validation():
    # the quadrature's one knob, tol, lies in [1e-15, 1): a NaN tolerance
    # used to burn the whole panel budget, and one below the floor spent
    # every panel and then failed
    calls = []
    f = lambda x: calls.append(x.size) or (np.ones_like(x),)
    for value in (math.nan, math.inf, -1.0, 0.0, 1e-16, 1e-300, 1.0):
        with pytest.raises(ValueError, match=r"^tol must be a number in \[1e-15, 1\)"):
            integrate_interval(f, 0.0, 1.0, value)
        with pytest.raises(ValueError, match=r"^tol must"):
            nbar(1.0, RES, 0.1, 1.0, value)
    assert calls == []


def test_quadrature_floor_is_the_config_floor():
    # one domain: parse_config's tol range is the quadrature's own
    TOL_FLOOR = _REACH["tol"].lo
    assert TOL_FLOOR == 1e-15
    cfg = parse_config({"scenario": "custom", "tol": TOL_FLOOR})
    assert cfg.tol == TOL_FLOOR
    integrate_interval(lambda x: (np.ones_like(x),), 0.0, 1.0, cfg.tol)
    assert parse_config({"scenario": "custom"}).tol == DEFAULT_TOL
    for value in (0.5 * TOL_FLOOR, 1.0):
        with pytest.raises(ConfigError, match=r"'tol' must be a number in \[1e-15, 1\)"):
            parse_config({"scenario": "custom", "tol": value})
        with pytest.raises(ValueError, match=r"^tol must be a number in \[1e-15, 1\)"):
            integrate_interval(lambda x: (np.ones_like(x),), 0.0, 1.0, value)


def test_boltzmann_band_outside_the_dilute_regime_warns():
    # nbar = -9.98e83 here used to come back without a warning
    res = ReservoirParams(0.01, 0.0)
    with pytest.warns(RegimeWarning, match="dilute regime: mu = 0 is not below"):
        counters(1.0, res, 0.05, 1.0, stats="boltzmann")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counters(1.0, res, 0.05, 1.0)  # Fermi-Dirac has no such regime
        counters(1.0, ReservoirParams(0.1, -3.0), 0.35, 1.0, stats="boltzmann")  # c7


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="ROADMAP item 2: at small t, D(k, t) = e^(-lam t) cos(2 g_k t) - 1 "
                          "cancels, and the level-to-level noise of the large Boltzmann kernel "
                          "exceeds tol")
def test_small_t_boltzmann_counters_reach_the_mpmath_values():
    # mpmath at 40 digits; the closed forms share the cancellation
    want = (-0.0307440265833991444, 0.0568004641886564538)
    tol = 1e-9
    with pytest.warns(RegimeWarning, match="outside the dilute regime"):
        got = counters(1e-6, ReservoirParams(0.0625, 0.0), 0.0, 1.0, tol, "boltzmann")
    scale = tol * max(1.0, *map(abs, want))
    assert max(abs(a - b) for a, b in zip(got, want)) <= scale


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="ROADMAP item 3: a flat point still takes the oscillating form's "
                          "first level and g t reach; a _BASE_PANELS first level mends this")
def test_a_flat_point_past_the_g_t_reach_gives_the_damped_limit():
    res, lam, g = ReservoirParams(0.1, 0.5), 0.06, 2.0
    assert math.exp(-lam * 1e4) <= 2.0 ** -54  # D(k, t) is exactly -1 at every node
    want = onsager(math.inf, res, lam, g).columns
    got = onsager(1e4, res, lam, g).columns  # g t = 20000, past the 16384 reach
    scale = DEFAULT_TOL * max(1.0, *map(abs, want))
    assert max(abs(a - b) for a, b in zip(got, want)) <= scale
