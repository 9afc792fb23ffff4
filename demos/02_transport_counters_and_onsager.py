"""
Band-averaged transfer counters and the linear-response block
=============================================================

Averaging the per-mode transfer over the whole band gives particle,
energy, and heat counters; differentiating them against the reservoir
parameters gives the four linear-response coefficients.  The off-diagonal
pair must agree with each other, and every coefficient must die off once
the chemical potential leaves the band.
"""

import math

import numpy as np

from fermichain import ReservoirParams, counters, fluxes, onsager

res = ReservoirParams(temperature=0.1, mu=0.5)
lam, g = 0.05, 1.0
tol = 1e-9  # quadrature tolerance, relative to max(1, |value|)

# counters grow from zero and saturate once the dephasing kills the swaps;
# N and E come from one quadrature, and heat is Q = E - mu N
print("     t      N(t)        E(t)        Q(t)")
for t in (0.0, 2.0, 10.0, 50.0, math.inf):
    n, e = counters(t, res, lam, g, tol)
    print("%6s  %10.6f  %10.6f  %10.6f" % (t, n, e, e - res.mu * n))

# the fully damped block: reciprocity holds to quadrature accuracy
block = onsager(math.inf, res, lam, g, tol)
print("\ndamped-limit coefficients at mu = %.1f:" % res.mu)
print("  J_NM = %11.4e   J_NT = %11.4e" % (block.j_n_mu, block.j_n_t))
print("  J_QM = %11.4e   J_QT = %11.4e" % (block.j_q_mu, block.j_q_t))
print("  off-diagonal mismatch: %.2e" % abs(block.j_n_t - block.j_q_mu))

# scan the band: diagonal entries even in mu, off-diagonal odd,
# everything suppressed outside |mu| < 2
mus = np.linspace(-4.0, 4.0, 33)
rows = [onsager(math.inf, ReservoirParams(0.1, float(m)), lam, g, tol)
        for m in mus]
j_nm = np.array([b.j_n_mu for b in rows])
j_nt = np.array([b.j_n_t for b in rows])
print("\nparity across the band:")
print("  even check |J_NM(mu) - J_NM(-mu)|: %.2e"
      % np.max(np.abs(j_nm - j_nm[::-1])))
print("  odd  check |J_NT(mu) + J_NT(-mu)|: %.2e"
      % np.max(np.abs(j_nt + j_nt[::-1])))
print("  band edge vs peak: %.2e" % (np.abs(j_nm[0]) / np.max(np.abs(j_nm))))

# a small chemical bias drives both a particle and a heat flux
flux = fluxes(block, delta_mu=0.01, delta_t=0.0)
print("\nfluxes for delta_mu = 0.01: j_N = %.4e, j_Q = %.4e"
      % (flux.j_particle, flux.j_heat))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    j_qm = np.array([b.j_q_mu for b in rows])
    j_qt = np.array([b.j_q_t for b in rows])
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for series, label in ((j_nm, "J_NM"), (j_nt, "J_NT"),
                          (j_qm, "J_QM"), (j_qt, "J_QT")):
        ax.plot(mus, series, marker=".", label=label)
    ax.axvline(-2.0, color="gray", lw=0.5)
    ax.axvline(2.0, color="gray", lw=0.5)
    ax.set_xlabel("mu [alpha]")
    ax.set_ylabel("coefficient")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo02_onsager_band.png", dpi=120)
    print("wrote demo02_onsager_band.png")
except ImportError:
    pass
