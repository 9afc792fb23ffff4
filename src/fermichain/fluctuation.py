"""Exchange statistics and the detailed fluctuation theorem for one mode.

With both reservoirs thermal, the probability that a particle has moved
from side A to side B by time t factorizes into thermal weights times a
shared transfer factor:

    P_ab(t) = n_A (1 - n_B) (1 - exp(-lam t) cos(2 g_k t))
    P_ba(t) = n_B (1 - n_A) (1 - exp(-lam t) cos(2 g_k t))

The shared factor is twice the per-particle transition weight
w(t) = (1 - exp(-lam t) cos(2 g_k t))/2, which lies in [0, 1] (the bare
factor reaches 2 at lam = 0, so it is a transfer measure rather than a
probability on its own).  It cancels in the ratio, leaving

    ln(P_ab / P_ba) = eps_k (beta_B - beta_A)
                      + (beta_A mu_A - beta_B mu_B)

independent of t, lam, and g: a detailed fluctuation theorem with the
thermal affinity F_H = beta_B - beta_A conjugate to the energy carried
and the chemical affinity F_M = beta_A mu_A - beta_B mu_B conjugate to
the particle number.  Independent modes contribute additively in the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .lattice import (ModeSpec, ReservoirParams, _log_fd_pair, _require, occupation_fd,
                      relaxation_envelope)


class ZeroProbabilityError(ValueError):
    """An exchange probability vanished, so its log-ratio is undefined."""


@dataclass(frozen=True)
class Affinities:
    """Thermodynamic forces between the two reservoirs."""

    f_h: float  # beta_B - beta_A, conjugate to transferred energy
    f_m: float  # beta_A mu_A - beta_B mu_B, conjugate to transferred number


def affinities(res_a: ReservoirParams, res_b: ReservoirParams) -> Affinities:
    return Affinities(f_h=res_b.beta - res_a.beta,
                      f_m=res_a.beta * res_a.mu - res_b.beta * res_b.mu)


def transition_weight(mode: ModeSpec, t) -> object:
    """Per-particle transfer weight w(t) in [0, 1]."""
    envelope, phase = relaxation_envelope(t, mode.dephasing, mode.coupling)
    out = 0.5 * (1.0 - envelope * np.cos(phase))
    return float(out) if np.ndim(out) == 0 else out


def exchange_prob(direction: str, mode: ModeSpec, res_a: ReservoirParams,
                  res_b: ReservoirParams, t) -> object:
    """Directed exchange measure; 'a_to_b' or 'b_to_a'."""
    n_a = occupation_fd(mode.energy, res_a)
    n_b = occupation_fd(mode.energy, res_b)
    _require("direction", direction, direction in ("a_to_b", "b_to_a"),
             "be 'a_to_b' or 'b_to_a'")
    thermal = n_a * (1.0 - n_b) if direction == "a_to_b" else n_b * (1.0 - n_a)
    return thermal * 2.0 * transition_weight(mode, t)


@dataclass(frozen=True)
class FtCheck:
    """Both sides of the detailed fluctuation theorem at one evaluation."""

    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs


def _log_thermal_ratio(energy: float, res_a: ReservoirParams,
                       res_b: ReservoirParams) -> float:
    # logs taken directly from (eps - mu)/T; forming the occupation first
    # and re-logging it would throw away digits wherever it rounds to 1.
    # Each reservoir's ln n and ln(1 - n) share one log1p; a log is never
    # NaN or positive, so -inf is its one non-finite value
    occ_a, vac_a = _log_fd_pair(energy, res_a)
    occ_b, vac_b = _log_fd_pair(energy, res_b)
    if -math.inf in (occ_a, vac_b, occ_b, vac_a):
        _require("mode energy", energy, False, "leave every occupation and vacancy above 0 "
                 "(a saturated one has an undefined log-ratio)", ZeroProbabilityError)
    return occ_a + vac_b - occ_b - vac_a


def ft_log_ratio(mode: ModeSpec, res_a: ReservoirParams, res_b: ReservoirParams,
                 t: float) -> FtCheck:
    """ln(P_ab/P_ba) against the affinity combination it should equal.

    The shared transfer factor is identical in numerator and denominator by
    construction and cancels exactly, so it is not evaluated; this keeps the
    ratio meaningful even at instants where the transfer weight vanishes.
    The forward event is A handing a particle to B.
    """
    # only the time check: the transfer factor cancels, but must exist at t
    relaxation_envelope(t, mode.dephasing, mode.coupling)
    fh_fm = affinities(res_a, res_b)
    return FtCheck(lhs=_log_thermal_ratio(mode.energy, res_a, res_b),
                   rhs=mode.energy * fh_fm.f_h + fh_fm.f_m)


@dataclass(frozen=True)
class ExchangeEvent:
    """One quantum moved through one mode; delta_n_a is A's number change."""

    mode: ModeSpec
    delta_n_a: int

    def __post_init__(self):
        _require("delta_n_a", self.delta_n_a, self.delta_n_a in (-1, 1), "be -1 or +1")


def multi_mode_ft(events: Iterable[ExchangeEvent], res_a: ReservoirParams,
                  res_b: ReservoirParams, t: float) -> FtCheck:
    """Joint log-ratio for independent modes: contributions add."""
    events = list(events)
    # only the time check: each mode's transfer factor must exist at t
    relaxation_envelope(t, [ev.mode.dephasing for ev in events], 0.0)
    fh_fm = affinities(res_a, res_b)
    lhs = 0.0
    rhs = 0.0
    for ev in events:
        direction = -float(ev.delta_n_a)  # +1 when A loses the particle
        lhs += direction * _log_thermal_ratio(ev.mode.energy, res_a, res_b)
        rhs += direction * (ev.mode.energy * fh_fm.f_h + fh_fm.f_m)
    return FtCheck(lhs=lhs, rhs=rhs)
