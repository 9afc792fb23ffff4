"""Entropies, mutual information, and entropy production for a single mode.

Both sites start thermal near a common occupation n with a small split:
n_a = n + dn/2, n_b = n - dn/2.  Writing E = exp(-lam t) for the coherence
envelope, the site occupations relax as n +- (dn/2) E cos(2 g t), and a
second-order expansion of the binary entropy H(p) around n gives

    S_A = s0 + s1 dn + s2 dn^2        S_B = s0 - s1 dn + s2 dn^2
    s0 = H(n)
    s1 = (E cos(2 g t)/2) ln((1 - n)/n)
    s2 = -E^2 cos(2 g t)^2 / (8 n (1 - n))

    I(A:B)  = E^2 sin(2 g t)^2 dn^2 / (4 n (1 - n))
    S_AB    = 2 s0 - dn^2 E^2 / (4 n (1 - n))
    Pi      = (lam/2) E^2 dn^2 / (n (1 - n))        (entropy production rate)

all through O(dn^2).  The joint entropy depends on the envelope only, not
the oscillation phase, so it is exactly constant at lam = 0 and strictly
increasing for lam > 0; the exact two-site spectrum

    {(1-n)^2 - dn^2/4,  n^2 - dn^2/4,
     n(1-n) + dn^2/4 + (dn/2) E,  n(1-n) + dn^2/4 - (dn/2) E}

makes that manifest and is used for the non-perturbative checks.  The rate
bookkeeping Pi = d(S_A + S_B)/dt - dI/dt holds term by term at this order,
and integrating Pi over all time gives dn^2 / (4 n (1 - n)) whenever
lam > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .lattice import (_ONE_COUPLING, _ONE_RATE, _TIME, _batch, _check_reach, _Fieldwise,
                      _plain, _scalar, _takes, relaxation_envelope)


def _xlogx(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log(p[mask])
    return out


@_takes(p=_batch("probability", "occupation p"))
def binary_entropy(p):
    """H(p) = -p ln p - (1-p) ln(1-p), with 0 ln 0 = 0.  Scalar or array."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    return _plain(-_xlogx(p) - _xlogx(1.0 - p))


@dataclass(frozen=True, eq=False)
class EquilibriumModePrep(_Fieldwise):
    """Near-equilibrium preparation of one mode: common occupation plus split."""

    n_eq: float
    delta_n: float
    coupling: float
    dephasing: float = 0.0
    # one mode: its functions take no batch
    _contract = {"n_eq": _scalar("n_eq"), "delta_n": _scalar("finite"),
                 "coupling": _ONE_COUPLING, "dephasing": _ONE_RATE}

    def __post_init__(self):
        super().__post_init__()
        _check_reach("n_eq", "occupations n_eq +- delta_n/2 at delta_n %r" % self.delta_n,
                     (self.occupation_a, self.occupation_b))

    @property
    def occupation_a(self) -> float:
        return self.n_eq + 0.5 * self.delta_n

    @property
    def occupation_b(self) -> float:
        return self.n_eq - 0.5 * self.delta_n


# one preparation, and t, one time or an array of them
_PREP_T = {"prep": _scalar(EquilibriumModePrep), "t": _TIME}


@dataclass(frozen=True)
class ModeEntropyBreakdown:
    """Expansion coefficients of the one-site entropies in the split dn."""

    s0: object
    s1: object
    s2: object
    delta_n: float

    @property
    def entropy_a(self):
        return self.s0 + self.s1 * self.delta_n + self.s2 * self.delta_n ** 2

    @property
    def entropy_b(self):
        return self.s0 - self.s1 * self.delta_n + self.s2 * self.delta_n ** 2


@_takes(**_PREP_T)
def entropy_coeffs(prep: EquilibriumModePrep, t) -> ModeEntropyBreakdown:
    """s0, s1, s2 at time t (scalar or array)."""
    env, phase = relaxation_envelope(t, prep.dephasing, prep.coupling)
    n = prep.n_eq
    s0 = binary_entropy(n)
    s1 = 0.5 * env * np.cos(phase) * (math.log(1.0 - n) - math.log(n))
    s2 = -(env * np.cos(phase)) ** 2 / (8.0 * n * (1.0 - n))
    s0 = s0 if np.ndim(s1) == 0 else np.full_like(s1, s0)
    return ModeEntropyBreakdown(s0=s0, s1=s1, s2=s2, delta_n=prep.delta_n)


@_takes(**_PREP_T)
def mutual_information(prep: EquilibriumModePrep, t):
    """I(A:B) through O(dn^2): the coherence carries the correlations."""
    env, phase = relaxation_envelope(t, prep.dephasing, prep.coupling)
    n = prep.n_eq
    return _plain((env * np.sin(phase)) ** 2 * prep.delta_n ** 2 / (4.0 * n * (1.0 - n)))


@_takes(**_PREP_T)
def joint_entropy(prep: EquilibriumModePrep, t):
    """S_AB through O(dn^2); depends on the envelope only."""
    env, _ = relaxation_envelope(t, prep.dephasing, prep.coupling)
    n = prep.n_eq
    s0 = binary_entropy(n)
    return _plain(2.0 * s0 - prep.delta_n ** 2 * env ** 2 / (4.0 * n * (1.0 - n)))


@_takes(**_PREP_T)
def entropy_production(prep: EquilibriumModePrep, t):
    """Irreversible entropy rate Pi(t) through O(dn^2); zero at lam = 0."""
    env, _ = relaxation_envelope(t, prep.dephasing, prep.coupling)
    n = prep.n_eq
    return _plain(0.5 * prep.dephasing * env ** 2 * prep.delta_n ** 2 / (n * (1.0 - n)))


@_takes(prep=_PREP_T["prep"])
def entropy_production_integral(prep: EquilibriumModePrep) -> float:
    """int_0^inf Pi dt: total produced entropy; zero when there is no noise."""
    if prep.dephasing == 0.0:
        return 0.0
    n = prep.n_eq
    return prep.delta_n ** 2 / (4.0 * n * (1.0 - n))


def _rate(prep: EquilibriumModePrep, t, lam_term):
    """delta_n^2 env^2 (lam_term(lam, phase) + g sin(2 phase)) / (2 n (1 - n)):
    the bracket and denominator halved, exactly, so that no lam overflows it
    and a damped-out entry (env = 0, phase = 0) reads the limit 0."""
    env, phase = relaxation_envelope(t, prep.dephasing, prep.coupling)
    n = prep.n_eq
    return _plain(prep.delta_n ** 2 * env ** 2
                  * (lam_term(prep.dephasing, phase) + prep.coupling * np.sin(2.0 * phase))
                  / (2.0 * n * (1.0 - n)))


@_takes(**_PREP_T)
def entropy_sum_rate(prep: EquilibriumModePrep, t):
    """d(S_A + S_B)/dt through O(dn^2)."""
    return _rate(prep, t, lambda lam, phase: lam * np.cos(phase) ** 2)


@_takes(**_PREP_T)
def mutual_information_rate(prep: EquilibriumModePrep, t):
    """dI/dt through O(dn^2)."""
    return _rate(prep, t, lambda lam, phase: -lam * np.sin(phase) ** 2)


# ---------------------------------------------------------------------------
# Non-perturbative counterparts (no expansion in dn), each from one envelope
# ---------------------------------------------------------------------------

def _joint_entropy(prep: EquilibriumModePrep, envelope):
    """-Tr rho ln rho from the closed-form eigenvalues of the 4x4 state: two
    constant corners and mid +- split, which holds the envelope only."""
    n, dn = prep.n_eq, prep.delta_n
    quarter = 0.25 * dn * dn
    mid, split = n * (1.0 - n) + quarter, 0.5 * abs(dn) * envelope
    evals = np.stack(np.broadcast_arrays((1.0 - n) ** 2 - quarter, n * n - quarter,
                                         mid + split, mid - split))
    return _plain(-_xlogx(evals).sum(axis=0))


def _occupations(prep: EquilibriumModePrep, t):
    """(envelope, <a+a>, <b+b>) of the prepared mode at t, from one envelope."""
    envelope, phase = relaxation_envelope(t, prep.dephasing, prep.coupling)
    return (envelope,) + dynamics._site_occupations(prep.occupation_a, prep.occupation_b,
                                                    envelope, phase)


@_takes(**_PREP_T)
def joint_entropy_exact(prep: EquilibriumModePrep, t):
    """-Tr rho ln rho of the two-site state, from the closed-form spectrum."""
    return _joint_entropy(prep, relaxation_envelope(t, prep.dephasing, prep.coupling)[0])


@_takes(**_PREP_T)
def entropy_a_exact(prep: EquilibriumModePrep, t):
    """S_A = H(<a+a>) without any expansion in dn.  S_B is this at -delta_n,
    bit for bit: the sites' mean is the same sum, and their half difference
    changes sign exactly."""
    return binary_entropy(_occupations(prep, t)[1])


@_takes(**_PREP_T)
def mutual_information_exact(prep: EquilibriumModePrep, t):
    """S_A + S_B - S_AB without any expansion in dn."""
    envelope, occ_a, occ_b = _occupations(prep, t)
    return binary_entropy(occ_a) + binary_entropy(occ_b) - _joint_entropy(prep, envelope)
