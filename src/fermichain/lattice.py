"""Lattice model, reservoirs, and single-particle statistics.

The chain is a 1D tight-binding lattice cut into two halves A and B that are
prepared in grand-canonical equilibrium at (T_A, mu_A) and (T_B, mu_B) before
being coupled.  After a sine transform each half contributes one fermionic
mode per momentum k in (0, pi) and only equal-k modes couple, so the whole
problem reduces to independent two-mode problems labelled by k with

    dispersion          eps_k = -2 cos(k)
    effective coupling  g_k   = g sin(k)^2

in natural units alpha = k_B = hbar = 1 (alpha is the intra-half hopping).
The bare inter-half coupling g stays a free input: the finite-lattice matrix
element between halves scales away with system size, and only the product
g_k * t enters any observable.

Occupation helpers are written to be overflow-safe: the Fermi-Dirac form never
exponentiates a large positive argument, and the Boltzmann form raises once
exp((mu - eps)/T) would exceed a configurable cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# CODATA Boltzmann constant in eV/K, used only when converting the validity
# gap of the Boltzmann approximation to laboratory units.
KB_EV_PER_K = 8.617333262e-05

_LN10 = math.log(10.0)


class BoltzmannRangeError(ValueError):
    """exp((mu - eps)/T) would overflow the configured cap."""


@dataclass(frozen=True)
class UnitSystem:
    """Internal unit convention: every scale is expressed through alpha.

    All three constants are fixed to 1; energies are in units of alpha,
    temperatures in alpha/k_B, times in hbar/alpha.  Only reporting helpers
    such as :func:`band_gap_ev` leave this system.
    """

    alpha: float = 1.0
    k_boltzmann: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.alpha == self.k_boltzmann == self.hbar == 1.0):
            raise ValueError("unit system is fixed to alpha = k_B = hbar = 1")


@dataclass(frozen=True)
class ReservoirParams:
    """Grand-canonical reservoir: temperature and chemical potential.

    temperature : float, > 0, in units of alpha/k_B
    mu : float, in units of alpha
    """

    temperature: float
    mu: float = 0.0

    def __post_init__(self):
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):
            raise ValueError(f"reservoir temperature must be positive, got {self.temperature}")
        if not math.isfinite(self.mu):
            raise ValueError(f"reservoir mu must be finite, got {self.mu}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


@dataclass(frozen=True)
class BipartitePreparation:
    """Symmetric split of a base reservoir into the two halves.

    Half A is prepared at (T + dT/2, mu + dmu/2), half B at (T - dT/2,
    mu - dmu/2).  The split is meant for linear response, so the relative
    biases are checked against ``linear_response_threshold`` (default 5%);
    exceeding it flags the preparation but does not reject it.  The dmu/mu
    ratio is skipped at mu = 0 where it is undefined.
    """

    base: ReservoirParams
    delta_t: float = 0.0
    delta_mu: float = 0.0
    linear_response_threshold: float = 0.05

    def __post_init__(self):
        if self.base.temperature - 0.5 * abs(self.delta_t) <= 0.0:
            raise ValueError("temperature split drives one reservoir to T <= 0")

    def reservoir_a(self) -> ReservoirParams:
        return ReservoirParams(self.base.temperature + 0.5 * self.delta_t,
                               self.base.mu + 0.5 * self.delta_mu)

    def reservoir_b(self) -> ReservoirParams:
        return ReservoirParams(self.base.temperature - 0.5 * self.delta_t,
                               self.base.mu - 0.5 * self.delta_mu)

    def linear_response_warnings(self) -> list[str]:
        """Names of biases that exceed the linear-response threshold."""
        out = []
        if abs(self.delta_t) / self.base.temperature > self.linear_response_threshold:
            out.append("delta_t")
        if self.base.mu != 0.0 and abs(self.delta_mu / self.base.mu) > self.linear_response_threshold:
            out.append("delta_mu")
        return out

    @property
    def within_linear_response(self) -> bool:
        return not self.linear_response_warnings()


def dispersion(k):
    """Band energy eps_k = -2 cos(k) for momentum k in [0, pi].

    Accepts scalars or arrays; momenta outside [0, pi] are rejected.
    """
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 0.0) or np.any(karr > math.pi):
        raise ValueError("momentum outside [0, pi]")
    out = -2.0 * np.cos(karr)
    return float(out) if np.isscalar(k) or karr.ndim == 0 else out


def effective_coupling(k, g: float):
    """Continuum inter-half coupling magnitude g_k = g sin(k)^2.

    Only cos(2 g_k t) and sin(2 g_k t)^2 of this value enter reported
    observables, so the overall sign convention is carried by the dynamics
    module, not here.
    """
    karr = np.asarray(k, dtype=float)
    if np.any(karr < 0.0) or np.any(karr > math.pi):
        raise ValueError("momentum outside [0, pi]")
    out = g * np.sin(karr) ** 2
    return float(out) if np.isscalar(k) or karr.ndim == 0 else out


@dataclass(frozen=True)
class ModeSpec:
    """One momentum mode of the reduced bipartite problem.

    momentum : float, k in [0, pi]
    energy : float, eps_k = -2 cos(k)
    coupling : float, g_k = g sin(k)^2
    dephasing : float, lambda >= 0
    bare_coupling : float, the free input g
    """

    momentum: float
    energy: float
    coupling: float
    dephasing: float = 0.0
    bare_coupling: float = field(default=1.0, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.momentum <= math.pi:
            raise ValueError("momentum outside [0, pi]")
        if not self.dephasing >= 0.0:
            raise ValueError("dephasing rate must be >= 0")

    @classmethod
    def from_momentum(cls, k: float, g: float = 1.0, dephasing: float = 0.0) -> "ModeSpec":
        return cls(momentum=float(k), energy=dispersion(k),
                   coupling=effective_coupling(k, g), dephasing=float(dephasing),
                   bare_coupling=float(g))


def occupation_fd(energy, reservoir: ReservoirParams):
    """Fermi-Dirac occupation 1/(exp((eps - mu)/T) + 1).

    Evaluated through exp(-|x|) only, so arbitrarily large |eps - mu|/T is
    safe on either side.  Accepts scalar or array energies.
    """
    x = (np.asarray(energy, dtype=float) - reservoir.mu) / reservoir.temperature
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def _log_sigmoid(x):
    # ln(1/(e^x + 1)) = -(max(x,0) + log1p(e^{-|x|})), stable on both tails
    return -(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))


def log_occupation_fd(energy, reservoir: ReservoirParams):
    """ln of the Fermi-Dirac occupation, computed without forming the occupation.

    Near full filling the occupation rounds to 1 and ``log(1 - n)`` computed
    from it loses most of its digits; this form keeps full precision on both
    tails.  Accepts scalar or array energies.
    """
    x = (np.asarray(energy, dtype=float) - reservoir.mu) / reservoir.temperature
    out = _log_sigmoid(x)
    return float(out) if out.ndim == 0 else out


def log_vacancy_fd(energy, reservoir: ReservoirParams):
    """ln(1 - n) for the Fermi-Dirac occupation n, stable on both tails.

    Uses the particle-hole mirror of :func:`log_occupation_fd` (the vacancy is
    the occupation with the sign of eps - mu flipped).
    """
    x = (reservoir.mu - np.asarray(energy, dtype=float)) / reservoir.temperature
    out = _log_sigmoid(x)
    return float(out) if out.ndim == 0 else out


def occupation_boltzmann(energy, reservoir: ReservoirParams, cap: float = 1e300):
    """Classical occupation exp(-(eps - mu)/T) with an overflow guard.

    Raises BoltzmannRangeError if any requested value would exceed ``cap``.
    """
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    x = (reservoir.mu - np.asarray(energy, dtype=float)) / reservoir.temperature
    if np.any(x > math.log(cap)):
        raise BoltzmannRangeError(
            "Boltzmann occupation exceeds cap %.3g; state is far outside the dilute regime" % cap)
    out = np.exp(x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BoltzmannValidity:
    """Validity report for the m-digit Boltzmann replacement of Fermi-Dirac."""

    mu_bound: float
    satisfied: bool
    e_gap: float  # in units of alpha


def boltzmann_validity(m: int, reservoir: ReservoirParams) -> BoltzmannValidity:
    """Check mu against the m-decimal-digit agreement bound.

    Replacing 1/(exp(beta(eps-mu)) + 1) by exp(-beta(eps-mu)) is accurate to
    about 10^-m once exp(beta(eps-mu)) > 10^m/... across the band; with the
    band bottom at eps = -2 this gives the sufficient condition

        mu < -(m T ln 10)/2 - 2.

    The associated crossover scale E_gap = m k_B T ln(10)/2 separates the
    dilute (classical) from the degenerate regime; :func:`band_gap_ev`
    reports it in laboratory units.
    """
    if m <= 0:
        raise ValueError("digit count m must be positive")
    mu_bound = -0.5 * m * reservoir.temperature * _LN10 - 2.0
    e_gap = 0.5 * m * reservoir.temperature * _LN10
    return BoltzmannValidity(mu_bound=mu_bound,
                             satisfied=reservoir.mu < mu_bound,
                             e_gap=e_gap)


def band_gap_ev(m: int, temperature_kelvin: float) -> float:
    """E_gap = m k_B T ln(10)/2 in eV for a physical temperature in kelvin."""
    if m <= 0 or temperature_kelvin <= 0.0:
        raise ValueError("m and temperature must be positive")
    return 0.5 * m * KB_EV_PER_K * temperature_kelvin * _LN10
