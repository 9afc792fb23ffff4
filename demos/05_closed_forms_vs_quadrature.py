"""
Closed forms against brute-force quadrature
===========================================

The band averages admit closed forms in two regimes: exactly, for dilute
(exponential) statistics, through a two-argument generalization of the
Bessel functions; and approximately, at low temperature, through a
truncated expansion around the degenerate limit.  Both are checked here
against the adaptive integrator they replace, and so is the dilute Onsager
block, whose particle and cross coefficients are closed counters over 2.
"""

import math

import numpy as np

from fermichain import (ReservoirParams, STATS_BOLTZMANN,
                        bessel_i, bessel_j, boltzmann_validity, counters,
                        ebar_boltzmann_closed, ebar_fd_sommerfeld,
                        nbar_boltzmann_closed, nbar_fd_sommerfeld, omega, onsager)

tol = 1e-10  # quadrature tolerance, relative to max(1, |value|)

# --- the two-argument band integral and its special cases ----------------
print("omega(0, 0, y) recovers I_0:     %.12f vs %.12f"
      % (omega(0, 0.0, 2.5).value, bessel_i(0, 2.5)))
print("omega(0, x, 0) is cos*J_0:       %.12f vs %.12f"
      % (omega(0, 3.0, 0.0).value,
         math.cos(1.5) * bessel_j(0, 1.5)))
print("omega(1, x, 0) vanishes:         %.2e" % omega(1, 7.7, 0.0).value)

# --- dilute statistics: the closed counters are exact --------------------
res = ReservoirParams(temperature=0.4, mu=-5.0)
ok = boltzmann_validity(6, res)
print("\ndilute check: 6 agreeing digits need mu <= %.3f, have %.1f: %s"
      % (ok.mu_bound, res.mu, ok.satisfied))
lam, g = 0.1, 1.0
times = np.array([0.5, 2.0, 8.0])
# each closed counter takes the whole time array in one call
closed_ns = nbar_boltzmann_closed(times, res, lam, g)
closed_es = ebar_boltzmann_closed(times, res, lam, g)
for t, closed_n, closed_e in zip(times, closed_ns, closed_es):
    quad_n, quad_e = counters(t, res, lam, g, tol, STATS_BOLTZMANN)
    print("t=%4.1f   N gap %.1e   E gap %.1e"
          % (t, abs(closed_n - quad_n), abs(closed_e - quad_e)))

# dilute statistics have dn/dmu = n/T, so the Onsager block's particle and
# cross coefficients are the closed counters over 2: J_NM = N/2 and
# J_NT = J_QM = Q/2 with Q = E - mu N
print("\ndilute Onsager block from quadrature vs closed counters:")
for t, closed_n, closed_e in zip(times, closed_ns, closed_es):
    block = onsager(t, res, lam, g, tol, STATS_BOLTZMANN)
    closed_q = closed_e - res.mu * closed_n
    print("t=%4.1f   J_NM gap %.1e   J_NT gap %.1e   J_QM gap %.1e"
          % (t, abs(block.j_n_mu - 0.5 * closed_n), abs(block.j_n_t - 0.5 * closed_q),
             abs(block.j_q_mu - 0.5 * closed_q)))

# --- degenerate statistics: truncated series, controlled error -----------
print("\nlow-temperature series vs quadrature, mu = 0.6:")
print("    T     max |N gap|   max |E gap|")
for temp in (0.05, 0.1, 0.25):
    res_t = ReservoirParams(temperature=temp, mu=0.6)
    gaps_n = []
    gaps_e = []
    for t in np.linspace(0.0, 6.0, 13):
        quad_n, quad_e = counters(float(t), res_t, lam, g, tol)
        gaps_n.append(abs(nbar_fd_sommerfeld(float(t), res_t, lam, g).value - quad_n))
        gaps_e.append(abs(ebar_fd_sommerfeld(float(t), res_t, lam, g).value - quad_e))
    print("  %.2f    %.3e     %.3e" % (temp, max(gaps_n), max(gaps_e)))
print("the error shrinks with T^2: the truncation is doing the damage")

# at mu = 0 the particle counter needs no temperature correction at all
res0 = ReservoirParams(temperature=0.3, mu=0.0)
gap0 = abs(nbar_fd_sommerfeld(2.0, res0, lam, g).value
           - counters(2.0, res0, lam, g, tol)[0])
print("N series at mu=0, T=0.3: gap %.1e (exact by symmetry)" % gap0)
