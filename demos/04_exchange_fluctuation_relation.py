"""
Exchange statistics obey a detailed fluctuation relation
========================================================

Count single-particle transfers between the two reservoirs through one
mode.  The odds of a forward transfer against a backward one are fixed
entirely by the reservoir affinities: the log-ratio equals
eps * (beta_B - beta_A) + (beta_A mu_A - beta_B mu_B), at every time,
for every noise strength.
"""

import numpy as np

from fermichain import (ModeSpec, ReservoirParams, affinities, exchange_prob,
                        ft_log_ratio, log_occupation_fd, log_vacancy_fd,
                        multi_mode_ft, occupation_fd, transition_weight)

mode = ModeSpec.from_momentum(2.0, g=1.0, dephasing=0.4)
hot = ReservoirParams(temperature=0.5, mu=0.3)
cold = ReservoirParams(temperature=0.2, mu=-0.1)

aff = affinities(hot, cold)
expected = mode.energy * aff.f_h + aff.f_m
print("mode energy %.4f, affinity combination %.6f" % (mode.energy, expected))

# the ratio is time independent even though both probabilities oscillate
print("\n   t     w(t)      P(a->b)     P(b->a)    ln ratio")
for t in (0.3, 1.0, 2.7, 8.0):
    w = transition_weight(mode, t)
    p_f = exchange_prob("a_to_b", mode, hot, cold, t)
    p_b = exchange_prob("b_to_a", mode, hot, cold, t)
    print("%5.1f  %.5f  %.5e  %.5e  %.6f"
          % (t, w, p_f, p_b, np.log(p_f / p_b)))

check = ft_log_ratio(mode, hot, cold, t=1.0)
print("\nft_log_ratio: lhs %.12f, rhs %.12f, residual %.2e"
      % (check.lhs, check.rhs, check.residual))

# strongly biased reservoirs: occupations saturate to 14+ digits, but the
# log-ratio is formed from the exponents directly and stays exact
deep_a = ReservoirParams(temperature=0.05, mu=2.0)
deep_b = ReservoirParams(temperature=0.05, mu=-2.0)
deep_mode = ModeSpec.from_momentum(1.2, g=1.0)
deep = ft_log_ratio(deep_mode, deep_a, deep_b, t=1.0)
print("deep saturation: lhs - rhs = %.2e with lhs = %.3f"
      % (deep.residual, deep.lhs))
# the logs it is built from: 1 - n rounds to 0 here, ln(1 - n) does not
n_deep = occupation_fd(deep_mode.energy, deep_a)
print("side A: 1 - n = %.1f, yet ln n = %.3e and ln(1 - n) = %.4f"
      % (1.0 - n_deep, log_occupation_fd(deep_mode.energy, deep_a),
         log_vacancy_fd(deep_mode.energy, deep_a)))

# several modes at once: the log-ratios just add per event.  One batch of
# three modes, and A's number change in each
modes = ModeSpec.from_momentum(np.array([0.8, 1.7, 2.4]))
delta_n_a = [-1, -1, 1]
joint = multi_mode_ft(modes, delta_n_a, hot, cold, t=2.0)
print("three-event joint ratio: lhs %.6f, residual %.2e"
      % (joint.lhs, joint.residual))

net = -sum(delta_n_a)
print("net particles A -> B in that history: %d" % net)
