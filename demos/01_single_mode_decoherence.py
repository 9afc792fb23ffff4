"""
One mode, two sites: coherent swaps losing their phase
======================================================

A single momentum mode couples site A to site B.  Without noise the
excitation swaps back and forth forever; with pure dephasing the swap
amplitude decays and both occupations settle at the average.
"""

import numpy as np

from fermichain import (ModeSpec, ReservoirParams, coherence_ab,
                        density_matrix_from_occupations, lindblad_trajectory,
                        occ_a, occ_b)

# the k = pi/2 mode has the strongest effective coupling, g_k = g sin(k)^2
mode = ModeSpec.from_momentum(np.pi / 2, g=1.0, dephasing=0.3)
n_a0, n_b0 = 0.9, 0.1

t = np.linspace(0.0, 12.0, 481)
na = occ_a(mode, n_a0, n_b0, t)
nb = occ_b(mode, n_a0, n_b0, t)
coh = coherence_ab(mode, n_a0, n_b0, t)

# the sum never moves; the difference carries the damped oscillation
print("occupation sum spread: %.2e" % np.ptp(na + nb))
print("first swap at 2 g_k t = pi:  n_A(%.4f) = %.4f" % (np.pi / 2,
      occ_a(mode, n_a0, n_b0, np.pi / (2 * mode.coupling))))
print("late-time split |n_A - n_B| at t = %.0f: %.2e" % (t[-1],
      abs(na[-1] - nb[-1])))

# purity of the full two-site mode state decays monotonically under noise;
# an array of times gives one state per time
rho = density_matrix_from_occupations(mode, n_a0, n_b0, t)
purity = np.einsum("tij,tji->t", rho, rho).real
print("purity: %.4f at t=0  ->  %.4f at t=%.0f" % (purity[0], purity[-1], t[-1]))
assert np.all(np.diff(purity) <= 1e-12)

# same numbers from a blunt fixed-step integrator of the generator; the
# stepper draws its initial occupations from the reservoirs, so pick
# chemical potentials whose equilibrium occupations at eps_k = 0 are 0.9/0.1
temp = 0.1
res_a = ReservoirParams(temperature=temp, mu=temp * np.log(n_a0 / (1 - n_a0)))
res_b = ReservoirParams(temperature=temp, mu=temp * np.log(n_b0 / (1 - n_b0)))
rho_stepped = lindblad_trajectory(mode, res_a, res_b, t_grid=[0.0, 3.0, 6.0],
                                  dt_max=1e-3)
rho_closed = density_matrix_from_occupations(mode, n_a0, n_b0, np.array([0.0, 3.0, 6.0]))
print("closed form vs stepper, max entry gap: %.2e"
      % np.max(np.abs(rho_stepped - rho_closed)))

# without noise nothing is ever lost; compare full swap periods
free = ModeSpec.from_momentum(np.pi / 2, g=1.0, dephasing=0.0)
na_free = occ_a(free, n_a0, n_b0, t)
period_pts = int(np.ceil(np.pi / (t[1] - t[0]))) + 1
print("noise-free swap amplitude at start/end: %.4f / %.4f"
      % (np.ptp(na_free[:period_pts]) / 2, np.ptp(na_free[-period_pts:]) / 2))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(7, 6), sharex=True)
    ax1.plot(t, na, label="n_A")
    ax1.plot(t, nb, label="n_B")
    ax1.plot(t, na_free, ":", color="gray", label="n_A, no noise")
    ax1.set_ylabel("occupation")
    ax1.legend()
    ax2.plot(t, np.abs(coh), label="|coherence|")
    ax2.plot(t, purity, label="purity")
    ax2.set_xlabel("t [1/alpha]")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("demo01_decoherence.png", dpi=120)
    print("wrote demo01_decoherence.png")
except ImportError:
    pass
