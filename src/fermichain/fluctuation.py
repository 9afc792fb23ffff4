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
the particle number.  Independent modes contribute additively in the log;
:func:`multi_mode_ft` takes them as one ModeSpec batch.  Each entry of a
batched call equals its scalar call bit for bit, so one call checks every
pair of two reservoir batches whose axes are kept apart ((n, 1) and (m,)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (_MODE, _ONE_RESERVOIR, _PAIR, _REAL_KINDS, _TIME, ModeSpec, ReservoirParams,
                      _batch, _Fieldwise, _log_fd_pair, _mode_envelope, _plain, _require,
                      _scalar, _takes, occupation_fd)


class ZeroProbabilityError(ValueError):
    """An exchange probability vanished, so its log-ratio is undefined."""


@dataclass(frozen=True, eq=False)
class Affinities(_Fieldwise):
    """Thermodynamic forces between the two reservoirs: floats, or arrays for
    a batch of reservoirs."""

    f_h: float  # beta_B - beta_A, conjugate to transferred energy
    f_m: float  # beta_A mu_A - beta_B mu_B, conjugate to transferred number


@_takes(**_PAIR)
def affinities(res_a: ReservoirParams, res_b: ReservoirParams) -> Affinities:
    return Affinities(f_h=res_b.beta - res_a.beta,
                      f_m=res_a.beta * res_a.mu - res_b.beta * res_b.mu)


@_takes(mode=_MODE, t=_TIME)
def transition_weight(mode: ModeSpec, t) -> object:
    """Per-particle transfer weight w(t) in [0, 1]."""
    envelope, phase = _mode_envelope(mode, t)
    return _plain(0.5 * (1.0 - envelope * np.cos(phase)))


@_takes(direction=_scalar(("be 'a_to_b' or 'b_to_a'",
                           lambda v: isinstance(v, str) and v in ("a_to_b", "b_to_a"))),
        mode=_MODE, **_PAIR, t=_TIME)
def exchange_prob(direction: str, mode: ModeSpec, res_a: ReservoirParams,
                  res_b: ReservoirParams, t) -> object:
    """Directed exchange measure; 'a_to_b' or 'b_to_a'."""
    n_a = occupation_fd.unchecked(mode.energy, res_a)
    n_b = occupation_fd.unchecked(mode.energy, res_b)
    thermal = n_a * (1.0 - n_b) if direction == "a_to_b" else n_b * (1.0 - n_a)
    return thermal * 2.0 * transition_weight.unchecked(mode, t)


@dataclass(frozen=True, eq=False)
class FtCheck(_Fieldwise):
    """Both sides of the detailed fluctuation theorem: floats, or arrays for a batch."""

    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs


@_takes(mode=_MODE, **_PAIR, t=_TIME)
def ft_log_ratio(mode: ModeSpec, res_a: ReservoirParams, res_b: ReservoirParams,
                 t) -> FtCheck:
    """ln(P_ab/P_ba) against the affinity combination it should equal.

    The shared transfer factor is identical in numerator and denominator by
    construction and cancels exactly, so it is not evaluated; this keeps the
    ratio meaningful even at instants where the transfer weight vanishes.
    The forward event is A handing a particle to B.
    """
    # the transfer factor cancels, but must exist at t; its envelope
    # carries the mode's and t's axes of the batch
    envelope, _ = _mode_envelope(mode, t)
    # logs taken directly from (eps - mu)/T; forming the occupation first
    # and re-logging it would throw away digits wherever it rounds to 1.
    # Each reservoir's ln n and ln(1 - n) share one log1p; a saturated
    # level makes a log -inf, and the ratio -inf or NaN
    occ_a, vac_a = _log_fd_pair(mode.energy, res_a)
    occ_b, vac_b = _log_fd_pair(mode.energy, res_b)
    with np.errstate(invalid="ignore"):
        log_ratio = occ_a + vac_b - occ_b - vac_a
    _require("mode energy", mode.energy, np.isfinite(log_ratio).all(), "leave every "
             "occupation and vacancy above 0 (a saturated one has an undefined log-ratio)",
             ZeroProbabilityError)
    fh_fm = affinities.unchecked(res_a, res_b)
    rhs = np.multiply(mode.energy, fh_fm.f_h) + fh_fm.f_m  # a list of energies reads as an array
    lhs, rhs, _ = np.broadcast_arrays(log_ratio, rhs, envelope)
    return FtCheck(_plain(lhs), _plain(rhs))


# A's number change in each mode
_EVENTS = ("be -1 or +1 for each mode",
           lambda d: np.asarray(d).dtype.kind in _REAL_KINDS and bool(np.isin(d, (-1, 1)).all()))


@_takes(mode=_MODE, delta_n_a=_batch(_EVENTS), res_a=_ONE_RESERVOIR, res_b=_ONE_RESERVOIR,
        t=_TIME)
def multi_mode_ft(mode: ModeSpec, delta_n_a, res_a: ReservoirParams,
                  res_b: ReservoirParams, t: float) -> FtCheck:
    """Joint log-ratio for independent modes at one reservoir pair:
    contributions add.  delta_n_a is A's number change in each mode, -1 or
    +1; it, the mode batch and t broadcast to one 1-D shape."""
    delta = np.asarray(delta_n_a)
    each = ft_log_ratio.unchecked(mode, res_a, res_b, t)
    shape = np.broadcast(each.lhs, delta).shape
    _require("mode, t and delta_n_a", shape, len(shape) == 1, "broadcast to one 1-D shape")
    # +1 when A loses the particle
    sign, lhs, rhs = np.broadcast_arrays(-delta.astype(float), each.lhs, each.rhs)
    return FtCheck(lhs=float(sign @ lhs), rhs=float(sign @ rhs))
