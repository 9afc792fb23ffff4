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

A mode is the triple (eps_k, g_k, lam) of :class:`ModeSpec`, which
:meth:`ModeSpec.from_momentum` forms from a k that :func:`dispersion`
validates.  The split (T +- dT/2, mu +- dmu/2) of a base reservoir is checked
per panel in ``scenarios``.

Dephasing enters only through the envelope exp(-lam t) times cos or sin of
2 g_k t; :func:`relaxation_envelope`, which every physics module calls, is
the one place that validates (t, lam) and forms it.

Occupation helpers are written to be overflow-safe: the Fermi-Dirac form never
exponentiates a large positive argument, and the Boltzmann form raises once
exp((mu - eps)/T) would exceed 1e300.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# CODATA Boltzmann constant in eV/K, used only when converting the validity
# gap of the Boltzmann approximation to laboratory units.
KB_EV_PER_K = 8.617333262e-05

_LN10 = math.log(10.0)

# exp(-lam t) below this is indistinguishable from the damped limit in
# double precision: it reads as 0, and the band quadrature then needs no
# oscillation-resolving panels.
_DAMPING_FLOOR = 1e-280

_PHASE_OVERFLOW = "phase 2 g t overflows: g t is too large to evaluate"

# the largest Boltzmann occupation occupation_boltzmann returns
_BOLTZMANN_CAP = 1e300

# the largest temperature whose square (the Onsager block's T**2) is finite
_TEMPERATURE_MAX = math.sqrt(sys.float_info.max)


class BoltzmannRangeError(ValueError):
    """exp((mu - eps)/T) would exceed the 1e300 cap."""


class EquilibriumUndefinedError(ValueError):
    """t = inf requested with lam = 0: the mode never stops oscillating."""


@dataclass(frozen=True)
class ReservoirParams:
    """Grand-canonical reservoir: temperature and chemical potential.

    temperature : float, > 0 with a finite square, in units of alpha/k_B
    mu : float, in units of alpha
    """

    temperature: float
    mu: float = 0.0

    def __post_init__(self):
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):
            raise ValueError(f"reservoir temperature must be positive, got {self.temperature}")
        if self.temperature > _TEMPERATURE_MAX:
            raise ValueError(f"reservoir temperature {self.temperature} is too large: "
                             "T**2 overflows")
        if not math.isfinite(self.mu):
            raise ValueError(f"reservoir mu must be finite, got {self.mu}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


def dispersion(k):
    """Band energy eps_k = -2 cos(k) for momentum k in [0, pi].

    Accepts scalars or arrays; NaN and momenta outside [0, pi] are rejected.
    """
    karr = np.asarray(k, dtype=float)
    if np.any(np.isnan(karr)):
        raise ValueError("momentum must not be NaN")
    if np.any(karr < 0.0) or np.any(karr > math.pi):
        raise ValueError("momentum outside [0, pi]")
    out = -2.0 * np.cos(karr)
    return float(out) if np.isscalar(k) or karr.ndim == 0 else out


@dataclass(frozen=True)
class ModeSpec:
    """One momentum mode of the reduced bipartite problem.

    energy : float, eps_k = -2 cos(k)
    coupling : float, g_k = g sin(k)^2
    dephasing : float, lambda >= 0
    """

    energy: float
    coupling: float
    dephasing: float = 0.0

    def __post_init__(self):
        if math.isnan(self.energy):
            raise ValueError("mode energy must not be NaN")
        if not math.isfinite(self.coupling):
            raise ValueError("mode coupling must be finite, got %r" % self.coupling)
        if not 0.0 <= self.dephasing < math.inf:
            raise ValueError("dephasing rate must be finite and >= 0, got %r" % self.dephasing)

    @classmethod
    def from_momentum(cls, k: float, g: float = 1.0, dephasing: float = 0.0) -> "ModeSpec":
        # dispersion validates k; only cos and sin of 2 g_k t reach an
        # observable, so the sign convention of g_k lives in dynamics
        return cls(energy=dispersion(k),
                   coupling=float(g * np.sin(k) ** 2), dephasing=float(dephasing))


def relaxation_envelope(t, dephasing, coupling: float):
    """Validated (envelope, phase) = (exp(-lam t), 2 g t) of one mode.

    t and lam may be scalars or broadcasting arrays.  Rejects NaN or negative
    t and NaN, negative or infinite lam; t = inf with lam = 0 has no limit and
    raises EquilibriumUndefinedError.  An envelope below ``_DAMPING_FLOOR`` is
    set to 0 and takes the phase with it, so t = inf with lam > 0 gives the
    damped limit rather than 0 * cos(inf); a finite g t whose phase overflows
    raises ValueError.  The envelope is a numpy float64 for scalar input.
    """
    if isinstance(t, float) and isinstance(dephasing, float):
        # plain-Python scalar path: the per-mode functions call it per sample
        if not t >= 0.0:
            raise ValueError("time must not be NaN" if t != t else "time must be >= 0")
        if not 0.0 <= dephasing < math.inf:
            raise ValueError("dephasing rate must be finite and >= 0, got %r" % dephasing)
        if t == math.inf and dephasing == 0.0:
            raise EquilibriumUndefinedError(
                "t = inf with lam = 0 has no limit; the mode oscillates forever")
        envelope = np.exp(-dephasing * t)
        if not envelope > _DAMPING_FLOOR:
            return np.float64(0.0), 0.0
        phase = 2.0 * float(coupling) * t  # float: no numpy overflow warning
        if not math.isfinite(phase):
            raise ValueError(_PHASE_OVERFLOW)
        return envelope, phase
    tarr = np.asarray(t, dtype=float)
    lam = np.asarray(dephasing, dtype=float)
    if tarr.ndim == 0 and lam.ndim == 0:
        return relaxation_envelope(float(tarr), float(lam), coupling)
    if np.any(np.isnan(tarr)):
        raise ValueError("time must not be NaN")
    if np.any(tarr < 0.0):
        raise ValueError("time must be >= 0")
    if not np.all((lam >= 0.0) & (lam < math.inf)):
        raise ValueError("dephasing rate must be finite and >= 0, got %r" % dephasing)
    if np.any(np.isinf(tarr) & (lam == 0.0)):
        raise EquilibriumUndefinedError(
            "t = inf with lam = 0 has no limit; the mode oscillates forever")
    envelope = np.exp(-lam * tarr)
    alive = envelope > _DAMPING_FLOOR
    t_alive = np.where(alive, tarr, 0.0)
    # the largest |phase| in plain floats: overflows without a numpy warning
    if not math.isfinite(2.0 * abs(float(coupling)) * float(t_alive.max(initial=0.0))):
        raise ValueError(_PHASE_OVERFLOW)
    return np.where(alive, envelope, 0.0), 2.0 * coupling * t_alive


def occupation_fd(energy, reservoir: ReservoirParams):
    """Fermi-Dirac occupation 1/(exp((eps - mu)/T) + 1).

    Evaluated through exp(-|x|) only, so arbitrarily large |eps - mu|/T is
    safe on either side.  Accepts scalar or array energies.
    """
    x = (np.asarray(energy, dtype=float) - reservoir.mu) / reservoir.temperature
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def _log_sigmoid(x: float) -> float:
    # ln(1/(e^x + 1)) = -(max(x,0) + log1p(e^{-|x|})), stable on both tails;
    # max returns its first argument for a NaN x, so NaN stays NaN
    return -(max(x, 0.0) + math.log1p(math.exp(-abs(x))))


def log_occupation_fd(energy: float, reservoir: ReservoirParams) -> float:
    """ln of the Fermi-Dirac occupation, computed without forming the occupation.

    Near full filling the occupation rounds to 1 and ``log(1 - n)`` computed
    from it loses most of its digits; this form keeps full precision on both
    tails.  Scalar energies only.
    """
    return _log_sigmoid((energy - reservoir.mu) / reservoir.temperature)


def log_vacancy_fd(energy: float, reservoir: ReservoirParams) -> float:
    """ln(1 - n) for the Fermi-Dirac occupation n, stable on both tails.

    Uses the particle-hole mirror of :func:`log_occupation_fd` (the vacancy is
    the occupation with the sign of eps - mu flipped).  Scalar energies only.
    """
    return _log_sigmoid((reservoir.mu - energy) / reservoir.temperature)


def occupation_boltzmann(energy, reservoir: ReservoirParams):
    """Classical occupation exp(-(eps - mu)/T) with an overflow guard.

    Raises BoltzmannRangeError if any requested value would exceed 1e300.
    """
    x = (reservoir.mu - np.asarray(energy, dtype=float)) / reservoir.temperature
    if np.any(x > math.log(_BOLTZMANN_CAP)):
        raise BoltzmannRangeError(
            "Boltzmann occupation exceeds cap %.3g; state is far outside the dilute regime"
            % _BOLTZMANN_CAP)
    out = np.exp(x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BoltzmannValidity:
    """Validity report for the m-digit Boltzmann replacement of Fermi-Dirac."""

    mu_bound: float
    satisfied: bool


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
    return BoltzmannValidity(mu_bound=mu_bound, satisfied=reservoir.mu < mu_bound)


def band_gap_ev(m: int, temperature_kelvin: float) -> float:
    """E_gap = m k_B T ln(10)/2 in eV for a physical temperature in kelvin."""
    if m <= 0 or temperature_kelvin <= 0.0:
        raise ValueError("m and temperature must be positive")
    return 0.5 * m * KB_EV_PER_K * temperature_kelvin * _LN10
