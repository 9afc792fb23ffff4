"""Dephasing-noised bipartite tight-binding chain: dynamics and transport.

The chain splits into independent two-site momentum modes; each mode is a
4x4 open quantum system whose state is known in closed form.  On top of
that sit band-averaged transfer counters, Onsager-style linear-response
coefficients, entropy/mutual-information bookkeeping, an exchange
fluctuation theorem, and low-temperature/dilute closed forms, all
cross-checkable against brute-force integration at runtime.
"""

from .lattice import (BoltzmannRangeError, BoltzmannValidity, ModeSpec,
                      RegimeWarning, ReservoirParams, band_gap_ev, boltzmann_validity,
                      dispersion, log_occupation_fd, log_vacancy_fd,
                      occupation_boltzmann, occupation_fd)
from .dynamics import (IntegrationError, coherence_ab, density_matrix,
                       density_matrix_from_occupations, lindblad_trajectory,
                       occ_a, occ_b)
from .transport import (STATS_BOLTZMANN, STATS_FD, EquilibriumUndefinedError,
                        OnsagerBlock, ParticleHeatFlux, QuadratureError, counters,
                        ebar, fluxes, integrate_interval, nbar, onsager, qbar)
from .special import SpecialFnTable, bessel_i, bessel_j
from .closedforms import (SeriesResult,
                          ebar_boltzmann_closed, ebar_fd_sommerfeld,
                          equilibrium_sommerfeld_onsager, nbar_boltzmann_closed,
                          nbar_fd_sommerfeld, omega, omega_defining_integral)
from .entropy import (EquilibriumModePrep, ModeEntropyBreakdown, binary_entropy,
                      entropy_a_exact, entropy_coeffs, entropy_production,
                      entropy_production_integral, entropy_sum_rate, joint_entropy,
                      joint_entropy_exact, mutual_information, mutual_information_exact,
                      mutual_information_rate)
from .fluctuation import (Affinities, FtCheck, ZeroProbabilityError, affinities,
                          exchange_prob, ft_log_ratio, multi_mode_ft, transition_weight)
from .scenarios import (ComparisonReport, ConfigError, LinearResponseWarning,
                        Panel, ScenarioConfig, ScenarioResult, SCENARIOS,
                        parse_config, run_scenario, write_result)
from .acceptance import CRITERIA, run_acceptance

__version__ = "0.1.0"
