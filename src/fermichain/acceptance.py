"""Acceptance gate: ten numbered end-to-end checks with pinned tolerances.

Each criterion exercises one advertised capability against an independent
route to the same number (a brute-force integrator, adaptive quadrature,
a finite difference, or a frozen analytic value) and reports a single
pass/fail line.  Tolerances are fixed here on purpose; loosening them is
not a configuration option.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import closedforms, dynamics, entropy, fluctuation, lattice, special, transport
from .lattice import ModeSpec, ReservoirParams, _scalar, _takes
from .scenarios import _run_panels, _tag, parse_config, run_scenario, write_csv


def _c1():
    gap = lattice.band_gap_ev(10, 300.0)
    ok = abs(gap - 0.29) <= 0.01
    return ok, "ten-decade dilution gap %.4f eV vs 0.29 +- 0.01" % gap


def _c2():
    rng = np.random.default_rng(20260822)
    count = 10_000
    n_a0 = rng.uniform(0.0, 1.0, count)
    n_b0 = rng.uniform(0.0, 1.0, count)
    lam = rng.uniform(0.0, 1.0, count)
    g_k = rng.uniform(0.0, 2.0, count)
    t = rng.uniform(0.0, 10.0, count)
    # one batch of modes; each entry equals its scalar call bit for bit
    mode = ModeSpec(energy=0.0, coupling=g_k, dephasing=lam)
    total = dynamics.occ_a(mode, n_a0, n_b0, t) + dynamics.occ_b(mode, n_a0, n_b0, t)
    worst = float(np.max(np.abs(total - (n_a0 + n_b0))))
    return bool(worst < 1e-14), "max |occ_a + occ_b - const| = %.2e over %d samples" % (
        worst, count)


def _c3():
    tic = time.perf_counter()
    lam_grid = np.linspace(0.0, 1.0, 10)
    g_grid = np.linspace(0.0, 2.0, 10)
    t_grid = np.linspace(1.0, 10.0, 10)
    eps = lattice.dispersion(math.pi / 3.0)
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.5, -0.3)
    lam, g_k = (grid.reshape(-1, 1) for grid in np.meshgrid(lam_grid, g_grid, indexing="ij"))
    # one (100, 1) batch: the closed form puts t on its last axis, the stepper after it
    modes = ModeSpec(energy=eps, coupling=g_k, dephasing=lam)
    states = dynamics.lindblad_trajectory(modes, res_a, res_b, t_grid, dt_max=1e-3)[:, 0]
    ref = dynamics.density_matrix(modes, res_a, res_b, t_grid)
    worst = float(np.max(np.abs(states - ref)))
    elapsed = time.perf_counter() - tic
    ok = worst < 1e-8 and elapsed < 120.0
    return ok, "max entrywise gap %.2e over 10x10x10 grid in %.1fs" % (worst, elapsed)


def _c4():
    temps = (0.2, 0.5, 1.0, 2.0, 5.0)
    mus = (-1.0, -0.5, 0.0, 0.5, 1.0)
    energies = (-2.0, -1.0, 0.0, 1.0, 2.0)
    # the 25 reservoirs (T, mu) on the axis of A, and again on the axis of B
    temp, mu = (grid.reshape(25, 1, 1, 1, 1) for grid in np.meshgrid(temps, mus, indexing="ij"))
    res_a = ReservoirParams(temp, mu)
    res_b = ReservoirParams(temp.reshape(1, 25, 1, 1, 1), mu.reshape(1, 25, 1, 1, 1))
    # one batch of every reservoir pair, with axes (A, B, energy, noise, t)
    modes = ModeSpec(energy=np.array(energies)[:, None, None], coupling=1.0,
                     dephasing=np.array([0.0, 0.1, 0.5])[:, None])
    t = np.array([0.3, 3.0, 30.0])
    residuals = fluctuation.ft_log_ratio(modes, res_a, res_b, t).residual.reshape(625, 5, 3, 3)
    worst = float(np.max(np.abs(residuals)))
    identical = bool(np.all(residuals == residuals[..., :1, :1]))
    ok = worst < 1e-12 and identical
    return ok, "max |residual| %.2e over 5^5 states; identical at all 9 (noise, t): %s" % (
        worst, identical)


def _c5():
    prep = entropy.EquilibriumModePrep(n_eq=0.5, delta_n=0.1, coupling=1.0,
                                       dephasing=0.2)
    h = 1e-5
    fd = (entropy.joint_entropy(prep, 1.0 + h)
          - entropy.joint_entropy(prep, 1.0 - h)) / (2.0 * h)
    err_rate = abs(entropy.entropy_production(prep, 1.0) - fd)

    (total,), _ = transport.integrate_interval(
        lambda tt: (entropy.entropy_production(prep, tt),), 0.0, 200.0, 1e-13,
        min_panels=64)
    err_total = abs(float(total) - entropy.entropy_production_integral(prep))

    t_grid = np.linspace(0.0, 20.0, 2001)
    s_noisy = entropy.joint_entropy_exact(prep, t_grid)
    monotone = bool(np.all(np.diff(s_noisy) > -1e-12) and s_noisy[-1] > s_noisy[0])
    quiet = entropy.EquilibriumModePrep(n_eq=0.5, delta_n=0.1, coupling=1.0,
                                        dephasing=0.0)
    s_quiet = entropy.joint_entropy_exact(quiet, t_grid)
    constant = float(np.max(np.abs(s_quiet - s_quiet[0])))
    ok = err_rate < 1e-7 and err_total < 1e-10 and monotone and constant < 1e-10
    return ok, ("rate vs finite diff %.2e; lifetime total %.2e; "
                "monotone %s; no-noise drift %.2e" % (err_rate, err_total,
                                                      monotone, constant))


def _c6():
    worst = 0.0
    for y in np.linspace(0.0, 10.0, 11):
        y = float(y)
        for nu in (0, 1):
            val = closedforms.omega(nu, 0.0, y).value
            ref = special.bessel_i(nu, y)
            worst = max(worst, abs(val - ref) / max(1.0, abs(ref)))
    for x in np.linspace(0.0, 20.0, 21):
        x = float(x)
        val = closedforms.omega(0, x, 0.0).value
        ref = math.cos(0.5 * x) * special.bessel_j(0, 0.5 * x)
        worst = max(worst, abs(val - ref))
        direct = closedforms.omega_defining_integral(0, x, 0.0).value
        worst = max(worst, abs(val - direct))
    for x in (1.0, 4.0, 9.0, 12.0):
        for y in (0.5, 3.0, 10.0):
            val = closedforms.omega(1, x, y).value
            direct = closedforms.omega_defining_integral(1, x, y).value
            worst = max(worst, abs(val - direct) / max(1.0, abs(direct)))
    return worst < 1e-10, "max identity mismatch %.2e" % worst


def _c7():
    res = ReservoirParams(0.1, -3.0)
    lam, g = 0.35, 1.0
    times = np.array([0.5, 2.0, 8.0])
    closed = np.column_stack([closedforms.nbar_boltzmann_closed(times, res, lam, g),
                              closedforms.ebar_boltzmann_closed(times, res, lam, g)])
    # the three times' (N, E) in one quadrature, each with its one-point bits
    points = [(t, res, lam) for t in times.tolist()]
    (quad,) = transport._scan((transport._counter_kernels,), points, g, transport.DEFAULT_TOL,
                              transport.STATS_BOLTZMANN)
    worst = float(np.max(np.abs(closed - quad)))
    return worst < 1e-8, "max |closed - quadrature| = %.2e" % worst


def _c8():
    t_grid = [float(t) for t in np.linspace(0.0, 10.0, 11)]
    settings = [(0.1, mu) for mu in np.linspace(-1.5, 1.5, 7).tolist()] + [
        (0.25, -1.5), (0.25, 1.5)]
    # the onsteste2 figure's own quadrature-vs-series comparison, all nine
    # settings in one build: one scan, and one series evaluation on one J table
    runs = [(parse_config({"scenario": "onsteste2", "temperature": temp, "mu": mu,
                           "dephasing": 0.35, "g": 1.0, "t_grid": t_grid}),
             "T%s_mu%s" % (_tag(temp), _tag(mu))) for temp, mu in settings]
    devs = [r.max_rel_deviation for r in _run_panels(runs).reports]  # N, E per panel
    deviation = dict(zip(settings, map(max, devs[0::2], devs[1::2])))
    at_low_t = {mu: deviation[temp, mu] for temp, mu in settings[:7]}
    worst = max(at_low_t.values())
    grows = all(deviation[0.25, mu] > at_low_t[mu] for mu in (-1.5, 1.5))
    ok = worst < 0.05 and grows
    return ok, ("max deviation %.3f at T=0.1; worsens at T=0.25: %s" % (worst, grows))


def _c9():
    lam, g, temp = 0.05, 1.0, 0.1

    def block(mu, t=math.inf, lam_=lam):
        return transport.onsager(t, ReservoirParams(temp, mu), lam_, g)

    # the published ons1 panel at T = 0.1: the damped-limit block across the band
    cfg = parse_config({"scenario": "ons1", "temperature": temp, "dephasing": lam,
                        "g": g})
    (panel,) = run_scenario(cfg).panels
    grid = panel.columns[0]
    coeffs = np.column_stack(panel.columns[1:])
    # the grid is symmetric: row i and row -1-i sit at mu and -mu
    parity = float(np.max(np.abs(coeffs - coeffs[::-1] * [1.0, -1.0, -1.0, 1.0])))

    mag_nm = np.abs(coeffs[:, 0])
    half = len(grid) // 2
    neg_peak = float(grid[:half + 1][np.argmax(mag_nm[:half + 1])])
    pos_peak = float(grid[half:][np.argmax(mag_nm[half:])])
    slack = 0.1 + 1e-9  # grid values near +-1.9 are not exactly representable
    peaks_ok = abs(neg_peak + 2.0) <= slack and abs(pos_peak - 2.0) <= slack

    # every coefficient must have collapsed at the band edges relative to
    # its own peak magnitude over the scan
    edge = np.maximum(np.abs(coeffs[0]), np.abs(coeffs[-1]))
    suppression = float(np.max(edge / np.abs(coeffs).max(axis=0)))

    ref = block(0.5)
    slow = block(0.5, t=1e4, lam_=0.05)
    fast = block(0.5, t=1e3, lam_=0.5)
    lam_free = max(abs(slow.j_n_mu - fast.j_n_mu), abs(slow.j_n_t - fast.j_n_t),
                   abs(slow.j_q_mu - fast.j_q_mu), abs(slow.j_q_t - fast.j_q_t),
                   abs(slow.j_n_mu - ref.j_n_mu), abs(slow.j_q_t - ref.j_q_t))

    ok = (parity < 1e-8 and peaks_ok and suppression < 1e-6 and lam_free < 1e-6)
    return ok, ("parity %.2e; peaks at %+0.3f/%+0.3f; edge/peak ratio %.2e; "
                "noise dependence %.2e" % (parity, neg_peak, pos_peak,
                                           suppression, lam_free))


def _c10():
    deltas = np.array([0.1, 0.05, 0.025])
    residuals = []
    for dn in deltas:
        prep = entropy.EquilibriumModePrep(n_eq=0.1, delta_n=float(dn),
                                           coupling=1.0, dephasing=0.2)
        exact = entropy.entropy_a_exact(prep, 1.3)
        approx = entropy.entropy_coeffs(prep, 1.3).entropy_a
        residuals.append(abs(float(exact) - float(approx)))
    slope = float(np.polyfit(np.log(deltas), np.log(residuals), 1)[0])
    ok = abs(slope - 3.0) <= 0.3
    return ok, "log-log residual slope %.3f vs 3.0 +- 0.3" % slope


@dataclass(frozen=True)
class Criterion:
    cid: str
    title: str
    fn: object


CRITERIA = (
    Criterion("c1", "carrier gap scale for ten-decade dilution", _c1),
    Criterion("c2", "mode occupation sum is conserved", _c2),
    Criterion("c3", "closed-form state matches the step integrator", _c3),
    Criterion("c4", "exchange log-ratio equals the affinity combination", _c4),
    Criterion("c5", "entropy production bookkeeping is consistent", _c5),
    Criterion("c6", "band-average integral matches its series identities", _c6),
    Criterion("c7", "dilute-statistics counters match quadrature", _c7),
    Criterion("c8", "low-temperature series tracks quadrature", _c8),
    Criterion("c9", "coefficient block symmetry and damped limit", _c9),
    Criterion("c10", "entropy expansion error scales at third order", _c10),
)


@_takes(only=_scalar(("be None or one of " + ", ".join(c.cid for c in CRITERIA), lambda v:
                      v is None or isinstance(v, str) and v in [c.cid for c in CRITERIA])))
def run_acceptance(only: str = None, out_dir: str = None, echo=print) -> int:
    """Run the gate (or a single criterion); returns the number of failures."""
    selected = [c for c in CRITERIA if only in (None, c.cid)]
    rows = [("criterion", "title", "passed", "detail", "seconds")]
    failures = 0
    for crit in selected:
        tic = time.perf_counter()
        passed, detail = crit.fn()
        seconds = time.perf_counter() - tic
        failures += not passed
        rows.append((crit.cid, crit.title, "true" if passed else "false", detail,
                     "%.3f" % seconds))
        echo("%s %-4s %s (%s; %.1fs)" % ("PASS" if passed else "FAIL",
                                         crit.cid, crit.title, detail, seconds))
    echo("%d/%d criteria passed" % (len(selected) - failures, len(selected)))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "acceptance.csv"), rows)
    return failures
