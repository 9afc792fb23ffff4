"""Band-averaged particle/energy transfer and Onsager response.

Summing the per-mode solution over momenta and taking the long-chain limit
turns every observable into a band integral (1/pi) * int_0^pi dk of the
reservoir occupation against the relaxation factor

    D(k, t) = exp(-lam t) cos(2 g_k t) - 1,      g_k = g sin(k)^2.

The per-site transfer counters are

    nbar(t) = (1/pi) int_0^pi nbar(eps_k) D(k, t) dk          (particles)
    ebar(t) = (1/pi) int_0^pi eps_k nbar(eps_k) D(k, t) dk    (energy)
    qbar(t) = ebar(t) - mu * nbar(t)                          (heat)

and the linear-response coefficients are obtained by differentiating under
the integral sign with the exact kernel derivatives (never finite
differences):

    d nbar_FD / d mu = n(1-n)/T             d nbar_B / d mu = n/T
    d nbar_FD / d T  = (eps-mu) n(1-n)/T^2  d nbar_B / d T  = (eps-mu) n/T^2

The heat coefficients use the (eps - mu) weighted kernel, i.e. the chemical
potential is held as a fixed weight while the occupation is differentiated.
Requesting t = inf with lam > 0 returns the damped limit (the oscillating
term is gone); with lam = 0 there is no stationary state and the request is
rejected with EquilibriumUndefinedError.  Once exp(-lam t) <= 2**-54, D(k, t)
rounds to exactly -1 at every node, so the integrand skips the cosine and
negates the kernels: the same bits at a fraction of the cost (the damped
limit and c9's t = 1e4 call at lam = 0.05).  The panel counts stay those of
the oscillating form: a flat point still takes its first level and its g t
reach, so one past that reach raises QuadratureError though D is flat there.

Every band integral goes through one path, ``_scan``, which evaluates a
list of (t, reservoir, dephasing) points in one quadrature and returns one
array per kernel group, shaped (points, kernels); one ``relaxation_envelope``
call forms every point's envelope, and from its phase the point's first
level.  ``counters`` and ``onsager`` are one-point scans that return plain
floats; a scenario builder makes one scan over the points of all its
panels, each panel's t or mu grid, and reads each panel's columns back, an
``OnsagerBlock`` holding one entry per point.  The kernels of a quantity
are the rows of one array, one group: [n, eps n] for ``counters``, which
``nbar``, ``ebar`` and ``qbar`` call as any caller does, and the four
derivative kernels for ``onsager``.  A block's Boltzmann occupation is an
``occupation_boltzmann`` call; the Fermi-Dirac one is that export's kernel.
Every (point, group) pair runs its own doubling schedule from its point's
first level and is frozen at the level where it converged, so each equals
its one-point, one-group call bit for bit.  The
integrand, ``_Scan``, forms each array it shares between points once per
block of nodes, with the IEEE operations of the plain expressions in their
order, so every bit is theirs.  Quadrature is a composite
Gauss-Legendre panel rule with deterministic fixed-order reduction; the
panel count is doubled until two successive levels agree to
the one tolerance ``tol``, and never starts below max(32, ~4 g t) panels so
the oscillation is resolved.  No level above the ``_MAX_PANELS`` budget is
built, which gives |g| t a reach; past it a band call raises
QuadratureError, naming g t, before any evaluation.  That reach, ``tol``'s
and ``min_panels``' are rows of ``lattice._REACH``.  A level is evaluated in
blocks of at most ``_BLOCK_PANELS`` panels, one integrand call per block, so
memory stays bounded at large g t; the blocks only split the evaluation, and
results do not depend on the block size.  Identical inputs give
bit-identical results.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .lattice import (EquilibriumUndefinedError, QuadratureError,  # noqa: F401 (re-export)
                      _ONE_COUPLING, _ONE_RATE, _ONE_RESERVOIR, _ONE_TIME, ReservoirParams,
                      _MAX_PANELS, _batch, _check_reach, _fd_of, _Fieldwise, _reduced_energy,
                      _reject_phase, _require, _scalar, _takes, _warn_unless_dilute,
                      occupation_boltzmann, relaxation_envelope)

STATS_FD = "fd"
STATS_BOLTZMANN = "boltzmann"
# (domain, ok): the one check of a statistics name, the config key's included
_STATS = ("be 'fd' or 'boltzmann'",
          lambda v: isinstance(v, str) and v in (STATS_FD, STATS_BOLTZMANN))

DEFAULT_TOL = 1e-10  # the quadrature's one knob
_BASE_PANELS = 32  # the band path's least first level, integrate_interval's default


# 16-point Gauss-Legendre nodes and weights on [-1, 1], one panel's rule
_X16, _W16 = np.polynomial.legendre.leggauss(16)

# panels per call of the integrand (4,096 nodes): bounds a level's memory.
# A scan keeps a reservoir's kernel rows beside each read's product with
# D(k, t), and from 512 panels up a block's arrays outgrow what the allocator
# keeps mapped between blocks, so each block faults in fresh pages: over 96
# seed-0 sweep draws, 1,024-panel blocks took 124k page faults and 1.05 s,
# 256-panel blocks 4.4k and 0.92 s; 128 slowed c9's large levels by a fifth
_BLOCK_PANELS = 256

# at or below this envelope (half the float spacing just below 1) D(k, t) =
# exp(-lam t) cos(2 g_k t) - 1 rounds to exactly -1.0: the integrand negates
# the kernels instead
_FLAT_DAMPING = 2.0 ** -54


@_takes(tol=_scalar("tol"))
def integrate_interval(f, a: float, b: float, tol: float = DEFAULT_TOL,
                       min_panels=_BASE_PANELS):
    """Adaptive composite Gauss-Legendre integral of f over [a, b].

    Parameters
    ----------
    f : callable taking a 1-D node array and returning a sequence of kernel
        groups, each an array with the node axis LAST; leading axes are
        integrated component-wise.  The groups are read by index, in
        increasing order, and a group is read only at its own levels and
        while it has not converged, so a sequence that forms a group when it
        is read does no work for a frozen one.  An array read is never
        written to.  f runs once per block of at most ``_BLOCK_PANELS``
        panels, in panel order, so a level never holds more than one block
        of integrand values.  The per-panel sums of a level are reduced in
        one fixed order after its last block, so results do not depend on
        the block size.  Each group runs its own doubling schedule from its
        first level, and all of its components must converge.  The least
        pending panel count is evaluated next, once for every group that is
        at it, so a group's total equals a solo call on that group bit for
        bit; the call ends when every group has converged.
    tol : a group converges once two successive levels differ by at most
        tol * max(1, max|total|) in every component.
    min_panels : the first panel count, one count for every group or a
        sequence of one count per group (e.g. to resolve a known
        oscillation); NaN or inf raise ValueError, and a count below 1 means
        one panel.  A first level whose double exceeds the ``_MAX_PANELS``
        budget (the "first level" reach) raises QuadratureError before any
        evaluation.

    Returns
    -------
    (values, err_estimates), two tuples with one entry per group.  A group's
    error estimate is its largest component-wise change in the final
    doubling; doubling the panels once more changes the result by less than
    this.
    """
    # the panel midpoints are halved sums of neighbouring edges
    _require("interval [a, b]", (a, b), a < b and math.isfinite(2.0 * max(abs(a), abs(b))),
             "have a < b and 2 max(|a|, |b|) finite")
    firsts = [min_panels] if np.ndim(min_panels) == 0 else list(min_panels)
    _require("min_panels", firsts, bool(firsts), "hold one count, or one per kernel group")
    for count in firsts:
        _require("min_panels", count, not isinstance(count, float) or math.isfinite(count),
                 "be a finite count")
        _check_reach("first level", "min_panels", int(count))
    firsts = [max(1, int(count)) for count in firsts]
    pending = None  # group index -> panel count of its next level, once f has run
    prev = {}  # group index -> its total at its previous level
    done = {}  # group index -> (total, err) once converged
    panels = min(firsts)
    while True:
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        offsets = half * _X16
        sums = {}  # index of a group at this level -> its per-panel sums
        for start in range(0, panels, _BLOCK_PANELS):
            block = mid[start:start + _BLOCK_PANELS]
            groups = f((block[:, None] + offsets).reshape(-1))
            if pending is None:
                _require("min_panels", firsts, len(firsts) in (1, len(groups)),
                         "hold one count, or one per kernel group (%d)" % len(groups))
                pending = dict(enumerate(firsts * len(groups) if len(firsts) == 1
                                         else firsts))
            for i in [i for i, at in pending.items() if at == panels]:
                vals = np.asarray(groups[i])
                weighted = vals.reshape(vals.shape[:-1] + (block.size, _W16.size)) * _W16
                if i not in sums:
                    sums[i] = np.empty(weighted.shape[:-2] + (panels,), weighted.dtype)
                # this block's panels, summed in place: no per-block temporary
                out = sums[i][..., start:start + block.size]
                np.multiply(weighted.sum(axis=-1, out=out), half, out=out)
            # release this block's values before f builds the next one: held
            # across that call, they keep the allocator from reusing their
            # pages, and every block faults in fresh ones
            groups = vals = weighted = None
        failing = []  # (err, wanted) of each group this level did not converge
        for i, per_panel in sums.items():
            # across panels in index order, whatever the blocks: fixed
            # association keeps the sum bit-reproducible
            total = np.add.reduce(per_panel, axis=-1)
            if i in prev:
                err = np.max(np.abs(total - prev[i]))
                wanted = tol * max(1.0, float(np.max(np.abs(total))))
                if err <= wanted:
                    done[i] = (total, float(err))
                    del pending[i]
                    continue
                failing.append((err, wanted))
            prev[i] = total
            pending[i] = 2 * panels
        if not pending:
            values, errs = zip(*(done[i] for i in range(len(done))))
            return values, errs
        if failing and 2 * panels > _MAX_PANELS:  # a failed level with no room to double
            err, wanted = max(failing, key=lambda pair: pair[0] / pair[1])
            raise QuadratureError(
                "no convergence within the %d-panel budget (achieved %.3g, wanted %.3g)"
                % (_MAX_PANELS, err, wanted), achieved_error=float(err))
        panels = min(pending.values())


def _occupation(stats: str, eps, res: ReservoirParams):
    if stats == STATS_FD:
        # occupation_fd's kernel: band nodes need no NaN test per node
        return _fd_of(_reduced_energy(eps, res))
    return occupation_boltzmann(eps, res)


def _band_cosine(sin2, g: float, phase: float):
    """cos(g sin(k)^2 * phase) from sin2 = sin(k)^2, in one new array, where
    ``phase`` is the unit-coupling phase 2 t."""
    cos = np.multiply(sin2, g)
    np.multiply(cos, phase, out=cos)
    return np.cos(cos, out=cos)


def _relaxation_factor(cos, damping: float, out=None):
    """D(k, t) = damping * cos - 1 from ``_band_cosine``'s array, in ``out``
    (the cosine's own array, when no other point reads it) or a new one."""
    relax = np.multiply(cos, damping, out=out)
    return np.subtract(relax, 1.0, out=relax)


class _Scan:
    """The kernel groups of every scan point at one block of nodes k, read by
    index point * len(kernel_groups) + group.  eps is formed once per block
    and sin(k)^2 at most once; the occupation and a group's kernel rows once
    per run of consecutive points at one reservoir, held only while that run
    is read; D(k, t) once per point, or once per block for a (damping, phase)
    that several points share, and its cosine once per block for a phase that
    points of several dampings share.  A (point, group) pair is formed, as the
    rows times D(k, t) or negated where D is flat, only when it is read, so
    one that ``integrate_interval`` has frozen or not yet reached costs
    nothing."""

    def __init__(self, k, kernel_groups, points, shared, g: float, stats: str):
        eps = np.cos(k)
        self.eps = np.multiply(eps, -2.0, out=eps)
        self.k, self.kernel_groups, self.points, self.g, self.stats = (
            k, kernel_groups, points, g, stats)
        self.shared_phases, self.shared_pairs = shared
        self.cosines, self.factors = {}, {}  # this block's shared arrays
        self.sin2 = self.res = self.point = None

    def __len__(self):
        return len(self.points) * len(self.kernel_groups)

    def __getitem__(self, i):
        point, j = divmod(i, len(self.kernel_groups))
        res, damping, phase = self.points[point]
        if res is not self.res:  # the last run's arrays are let go
            self.res, self.rows = res, [None] * len(self.kernel_groups)
            self.occ = _occupation(self.stats, self.eps, res)
        if self.rows[j] is None:
            self.rows[j] = self.kernel_groups[j](self.eps, self.occ, res, self.stats)
        if damping <= _FLAT_DAMPING:
            return np.negative(self.rows[j])
        if point != self.point:
            self.point = point
            self.relax = self._factor(damping, phase)
        return np.multiply(self.rows[j], self.relax)

    def _factor(self, damping: float, phase: float):
        relax = self.factors.get((damping, phase))
        if relax is not None:
            return relax
        cos = self.cosines.get(phase)
        if cos is None:
            if self.sin2 is None:
                self.sin2 = np.square(np.sin(self.k))
            cos = _band_cosine(self.sin2, self.g, phase)
            if phase in self.shared_phases:
                self.cosines[phase] = cos
        # a cosine no other point reads becomes D(k, t) in place
        relax = _relaxation_factor(cos, damping, None if phase in self.cosines else cos)
        if (damping, phase) in self.shared_pairs:
            self.factors[damping, phase] = relax
        return relax


def _osc_panels(g: float, phase):
    # ~4 g t panels per phase while the oscillating term still contributes,
    # and never fewer than _BASE_PANELS; past the budget's reach, the largest
    # g t is named before any evaluation (a plain float: no overflow warning)
    top = 2.0 * abs(g) * float(np.asarray(phase).max(initial=0.0))
    if not math.isfinite(top):
        _reject_phase()
    _check_reach("band g t", "|g| t", 0.25 * top)
    return np.maximum(_BASE_PANELS, np.ceil(2.0 * abs(g) * phase)).astype(int)


def _scan(kernel_groups, points, g: float, tol: float, stats: str):
    """(1/pi) int_0^pi kernel(eps_k) D(k, t) dk for every kernel of every group
    at every (t, res, dephasing) point of ``points``, from one quadrature.

    Each of ``kernel_groups`` maps ``(eps, occ, res, stats)`` to a new array of
    its kernels shaped (n_kernels, n_k), which is shared by a run of
    consecutive points at equal reservoirs (equal by value).  The arguments
    come checked (by a declaration or the config); every point's reach is
    checked before any evaluation, and Boltzmann statistics warn once per
    non-dilute reservoir.  Each (point, group) pair converges on its own from
    its point's first level, so it equals a one-point scan bit for bit.
    Returns one array per group, shaped (points, n_kernels).
    """
    distinct = {}  # equal reservoirs become one object: a run of them shares its arrays
    reservoirs = [distinct.setdefault(res, res) for _, res, _ in points]
    if stats == STATS_BOLTZMANN:
        for res in distinct:
            _warn_unless_dilute(res)
    damping, phase = relaxation_envelope(np.array([t for t, _, _ in points]),
                                         np.array([lam for _, _, lam in points]), 1.0)
    firsts = np.repeat(_osc_panels(g, phase), len(kernel_groups)).tolist()
    envelopes = list(zip(reservoirs, damping.tolist(), phase.tolist()))
    # the (damping, phase) pairs of several live points, and the phases of
    # several dampings: only these outlast the point that forms them
    pairs = Counter((d, p) for _, d, p in envelopes if d > _FLAT_DAMPING)
    shared = ({p for p, n in Counter(p for _, p in pairs).items() if n > 1},
              {pair for pair, n in pairs.items() if n > 1})
    # the public name, which a tracer can wrap
    vals, _ = integrate_interval(lambda k: _Scan(k, kernel_groups, envelopes, shared, g, stats),
                                 0.0, math.pi, tol, firsts)
    n = len(kernel_groups)
    return tuple(np.array(vals[j::n]) / math.pi for j in range(n))


def _counter_kernels(eps, occ, res, stats):
    rows = np.empty((2, eps.size))
    rows[0] = occ
    np.multiply(eps, occ, out=rows[1])
    return rows


# one time, one reservoir, one rate and g: the band functions' arguments
_BAND = {"t": _ONE_TIME, "res": _ONE_RESERVOIR, "dephasing": _ONE_RATE, "g": _ONE_COUPLING,
         "tol": _scalar("tol"), "stats": _scalar(_STATS)}


@_takes(**_BAND)
def counters(t: float, res: ReservoirParams, dephasing: float, g: float,
             tol: float = DEFAULT_TOL, stats: str = STATS_FD):
    """Particle and energy counters (nbar, ebar) from one quadrature.

    t is one time; t = inf with dephasing > 0 gives the damped limits, e.g.
    nbar = -(1/pi) int nbar(eps_k) dk.
    """
    (n_e,) = _scan((_counter_kernels,), ((t, res, dephasing),), g, tol, stats)
    return tuple(n_e[0].tolist())


@_takes(**_BAND)
def nbar(t: float, res: ReservoirParams, dephasing: float, g: float,
         tol: float = DEFAULT_TOL, stats: str = STATS_FD):
    """Per-site particle transfer counter at one time t."""
    return counters(t, res, dephasing, g, tol, stats)[0]


@_takes(**_BAND)
def ebar(t: float, res: ReservoirParams, dephasing: float, g: float,
         tol: float = DEFAULT_TOL, stats: str = STATS_FD):
    """Per-site energy transfer counter at one time t."""
    return counters(t, res, dephasing, g, tol, stats)[1]


@_takes(**_BAND)
def qbar(t: float, res: ReservoirParams, dephasing: float, g: float,
         tol: float = DEFAULT_TOL, stats: str = STATS_FD):
    """Heat counter qbar = ebar - mu * nbar at one time t (exact composition)."""
    n, e = counters(t, res, dephasing, g, tol, stats)
    return e - res.mu * n


@dataclass(frozen=True, eq=False)
class OnsagerBlock(_Fieldwise):
    """The four linear-response coefficients at one time and temperature.

    j_n_mu = (T/2) d nbar/d mu        j_n_t = (T^2/2) d nbar/d T
    j_q_mu = (T/2) d qbar/d mu        j_q_t = (T^2/2) d qbar/d T

    For Fermi-Dirac kernels j_n_t == j_q_mu identically (reciprocity); this
    falls out of the (eps - mu) weighting rather than being imposed.  The
    block carries the reservoir temperature T it was evaluated at, which
    ``fluxes`` needs to form the thermodynamic forces.  Array coefficients
    make a batched block, one entry per point of a scan at one temperature.
    """

    j_n_mu: float
    j_n_t: float
    j_q_mu: float
    j_q_t: float
    temperature: float
    # a batch is at one temperature
    _contract = {**dict.fromkeys(("j_n_mu", "j_n_t", "j_q_mu", "j_q_t"), _batch("finite")),
                 "temperature": _scalar("temperature")}

    @property
    def columns(self) -> tuple:
        return self.j_n_mu, self.j_n_t, self.j_q_mu, self.j_q_t

    @classmethod
    def from_derivatives(cls, derivatives, temp: float) -> OnsagerBlock:
        """The block at T from (dnbar/dmu, dnbar/dT, dqbar/dmu, dqbar/dT)."""
        dnbar_dmu, dnbar_dt, dqbar_dmu, dqbar_dt = derivatives
        return cls(j_n_mu=0.5 * temp * dnbar_dmu,
                   j_n_t=0.5 * temp ** 2 * dnbar_dt,
                   j_q_mu=0.5 * temp * dqbar_dmu,
                   j_q_t=0.5 * temp ** 2 * dqbar_dt,
                   temperature=temp)


def _onsager_kernels(eps, occ, res: ReservoirParams, stats):
    """The four exact derivative kernels of the Onsager block at res."""
    temp = res.temperature
    rows = np.empty((4, eps.size))
    dn_dmu, dn_dt, w_dn_dmu, w_dn_dt = rows
    if stats == STATS_FD:  # n(1 - n) over T; Boltzmann's is n over T
        occ = np.multiply(occ, np.subtract(1.0, occ, out=dn_dmu), out=dn_dmu)
    np.divide(occ, temp, out=dn_dmu)
    w = np.subtract(eps, res.mu, out=w_dn_dt)  # eps - mu, until the last row
    np.multiply(w, dn_dmu, out=w_dn_dmu)
    np.divide(w_dn_dmu, temp, out=dn_dt)
    np.multiply(w, dn_dt, out=w_dn_dt)
    return rows


@_takes(**_BAND)
def onsager(t: float, res: ReservoirParams, dephasing: float, g: float,
            tol: float = DEFAULT_TOL, stats: str = STATS_FD) -> OnsagerBlock:
    """Onsager coefficients at one time t from exact kernel derivatives.

    All four integrands share nodes and are converged together, so the block
    is internally consistent at the quadrature tolerance.
    """
    (coeffs,) = _scan((_onsager_kernels,), ((t, res, dephasing),), g, tol, stats)
    return OnsagerBlock.from_derivatives(coeffs[0].tolist(), res.temperature)


@dataclass(frozen=True, eq=False)
class ParticleHeatFlux(_Fieldwise):
    j_particle: float
    j_heat: float


@_takes(block=_batch(OnsagerBlock), delta_mu=_scalar("finite"), delta_t=_scalar("finite"))
def fluxes(block: OnsagerBlock, delta_mu: float, delta_t: float) -> ParticleHeatFlux:
    """Assemble linear-response fluxes from a coefficient block.

    The forces are delta_mu/T and delta_t/T^2 at the block's temperature, as
    are its coefficients; a batched block gives one flux per entry.
    """
    temp = block.temperature
    temp_sq = temp ** 2
    _require("block temperature", temp, temp_sq > 0.0,
             "not be so small that T**2 underflows to 0")
    f_mu = delta_mu / temp
    f_t = delta_t / temp_sq
    _require("delta_mu", delta_mu, math.isfinite(f_mu), "give a finite force delta_mu/T")
    _require("delta_t", delta_t, math.isfinite(f_t), "give a finite force delta_t/T**2")
    return ParticleHeatFlux(j_particle=block.j_n_mu * f_mu + block.j_n_t * f_t,
                            j_heat=block.j_q_mu * f_mu + block.j_q_t * f_t)
