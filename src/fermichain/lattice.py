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
the one place that validates (t, lam, g) and forms it, in one body for
scalars and arrays alike (a band scan forms all its envelopes in one call).

``_require`` words every rejection "<name> must <domain>, got <value>", as a
ValueError or a named subclass; every bounded quantity has one ``_REACH``
row (limits, wording, error class) that ``_check_reach`` applies everywhere,
the config included.  An approximation used outside its regime warns with
:class:`RegimeWarning`; its one cause is Boltzmann statistics outside the
dilute regime, since the closed forms' Bessel sums converge over their reach.

Occupation helpers are written to be overflow-safe: the Fermi-Dirac form never
exponentiates a large positive argument, and the Boltzmann form raises once
exp((mu - eps)/T) would exceed 1e300.  An energy of +-inf is a level that is
exactly empty or full; a NaN energy is rejected.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple
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

# the Boltzmann forms warn unless they match Fermi-Dirac to this many digits
_DILUTE_DIGITS = 1


class BoltzmannRangeError(ValueError):
    """exp((mu - eps)/T) would exceed the 1e300 cap."""


class EquilibriumUndefinedError(ValueError):
    """t = inf requested with lam = 0: the mode never stops oscillating."""


class RegimeWarning(UserWarning):
    """An approximation was evaluated outside the regime where it holds."""


class QuadratureError(RuntimeError):
    """Panel budget exhausted, or too small to start (achieved_error inf)."""

    def __init__(self, message: str, achieved_error: float = math.inf):
        super().__init__(message)
        self.achieved_error = achieved_error


def _require(name: str, value, ok: bool, domain: str, error=ValueError):
    """Raise ``error("<name> must <domain>, got <value!r>")`` unless ok.

    The caller evaluates ok itself, so a plain-float check costs one
    comparison.  An integer beyond the float range is shown to 3 digits.
    """
    if not ok:
        if isinstance(value, (np.generic, np.ndarray)) and value.ndim == 0:
            value = value.item()
        shown = repr(value)
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            import decimal  # only here: the float formats overflow on it
            shown = format(decimal.Decimal(value), ".3g")
        raise error("%s must %s, got %s" % (name, domain, shown))


def _require_scalars(*named):
    """Raise ValueError naming the first (name, value) whose value is an array."""
    for name, value in named:
        if not isinstance(value, (float, int)) and np.ndim(value):
            _require(name, np.shape(value), False, "be one scalar, not an array of shape")


# the band quadrature's panel budget: no level above it is ever built
_MAX_PANELS = 1 << 17
_I_REACH = 700.0  # |y| of I_n(y): e^y stays finite
_Reach = namedtuple("_Reach", "lo hi first last domain error")
_REAL_KINDS = frozenset("biuf")  # numpy dtype kinds of a real number: bool, int, float


def _reach(lo, hi, ends: str, words: str, error=ValueError) -> _Reach:
    """lo..hi, each end closed or open as ``ends`` ("[]", "(]", "[)" or "()")
    says, worded by ``words`` with %(interval)s, %(hi)g and %(budget)d; first
    and last are the least and the greatest value inside."""
    interval = "%s%g, %g%s" % (ends[0], lo, hi, ends[1])
    return _Reach(lo, hi, lo if ends[0] == "[" else math.nextafter(lo, math.inf),
                  hi if ends[1] == "]" else math.nextafter(hi, -math.inf),
                  words % {"interval": interval, "hi": hi, "budget": _MAX_PANELS}, error)


# quantity -> its one reach, which every check of it, the config's included,
# reads through _check_reach
_REACH = {
    "temperature": _reach(0.0, math.sqrt(sys.float_info.max), "(]",
                          "lie in %(interval)s so that T**2 is finite"),
    # a 16-point panel rule cannot get below about 1e-17, and under ~1e-15
    # the doubling test chases round-off
    "tol": _reach(1e-15, 1.0, "[)", "be a number in %(interval)s"),
    "finite": _reach(-math.inf, math.inf, "()", "be finite"),
    "positive": _reach(0.0, math.inf, "()", "be finite and > 0"),
    "dephasing rate": _reach(0.0, math.inf, "[)", "be finite and >= 0"),
    "n_eq": _reach(0.0, 1.0, "()", "lie in %(interval)s"),
    "occupation": _reach(0.0, 1.0, "[]", "lie in %(interval)s"),
    "momentum": _reach(0.0, math.pi, "[]", "lie in [0, pi]"),
    "Bessel order": _reach(0, 20_000, "[]", "be an integer in %(interval)s"),
    "J argument": _reach(-1e4, 1e4, "[]", "lie in %(interval)s, the validated J_n range"),
    "I argument": _reach(-_I_REACH, _I_REACH, "[]",
                         "lie in %(interval)s, the validated I_n range"),
    # keeps omega's I column, 2 orders + nu, inside the Bessel order reach
    "omega nu": _reach(0, 1000, "[]", "be an integer in %(interval)s"),
    "omega y": _reach(0.0, _I_REACH, "[]",
                      "lie in %(interval)s (the 4.5 sqrt(y) coefficient count is "
                      "calibrated for y >= 0; exp(y) stays finite)"),
    # (max(mu, 0) + 2)/T: a Boltzmann closed form is at most exp((mu + 2)/T)
    "Boltzmann": _reach(0.0, _I_REACH, "[]",
                        "be <= %(hi)g so that exp(mu/T) I_nu(2/T) and 2/T stay finite"),
    # ln of the largest occupation occupation_boltzmann returns, 1e300
    "Boltzmann occupation": _reach(-math.inf, math.log(1e300), "[]",
                                   "stay <= ln(1e300), the occupation's cap",
                                   BoltzmannRangeError),
    "Sommerfeld mu": _reach(-2.0, 2.0, "()", "lie strictly inside the band %(interval)s "
                                             "for the Sommerfeld form"),
    # |g| t: the band path's ~4 g t first panels, whose double fits the budget
    "band g t": _reach(0.0, _MAX_PANELS / 8, "[]",
                       "be <= %(hi)g while the mode oscillates, so that its ~4 g t panels "
                       "leave room to refine within the %(budget)d-panel budget",
                       QuadratureError),
    "first level": _reach(-math.inf, _MAX_PANELS // 2, "[]",
                          "be <= %(hi)g, or the first level leaves no room to refine "
                          "within the %(budget)d-panel budget", QuadratureError),
}


def _check_reach(row: str, name: str, value, error=None, ok: bool = True):
    """Raise the ``_REACH`` row's error, naming ``name``, unless ok and every
    entry of value is a number (not a str) in the row's reach (two float
    comparisons for a plain number).  ok is the caller's own test of the
    value's type, and error replaces the row's class (a config raises ConfigError)."""
    reach = _REACH[row]
    if ok and isinstance(reach.last, int):  # a row with integer limits takes integers
        ok = isinstance(value, (int, np.integer)) or (
            isinstance(value, np.ndarray) and value.dtype.kind in "iu")
    if ok:
        if isinstance(value, (float, int)):
            ok = reach.first <= value <= reach.last
        else:
            arr = np.asarray(value)
            ok = arr.dtype.kind in _REAL_KINDS and bool(
                np.all((reach.first <= arr) & (arr <= reach.last)))
    _require(name, value, ok, reach.domain, error or reach.error)


def _plain(out):
    """A scalar result as a Python float (or complex), an array as it is."""
    return np.asarray(out).item() if np.ndim(out) == 0 else out


class _Fieldwise:
    """Field-by-field equality, array fields included, for a frozen dataclass
    declared with eq=False; a batch (any field an array) is not hashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def __hash__(self):
        if any(map(np.ndim, vars(self).values())):
            raise TypeError("a batched %s (one with array fields) is unhashable"
                            % type(self).__name__)
        return hash(tuple(vars(self).values()))

    def _require_broadcast(self):
        """Raise ValueError listing the fields' shapes unless they broadcast."""
        if not all(isinstance(v, (float, int)) for v in vars(self).values()):
            shapes = {name: np.shape(v) for name, v in vars(self).items()}
            try:
                np.broadcast_shapes(*shapes.values())
            except ValueError:
                _require("%s fields" % type(self).__name__, shapes, False, "broadcast together")


@dataclass(frozen=True)
class ReservoirParams:
    """Grand-canonical reservoir: temperature and chemical potential.

    temperature : float, > 0 with a finite square, in units of alpha/k_B
    mu : float, in units of alpha
    """

    temperature: float
    mu: float = 0.0

    def __post_init__(self):
        _require_scalars(*vars(self).items())
        _check_reach("temperature", "temperature", self.temperature)
        _check_reach("finite", "mu", self.mu)

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


def dispersion(k):
    """Band energy eps_k = -2 cos(k) for momentum k in [0, pi].

    Accepts scalars or arrays; NaN and momenta outside [0, pi] are rejected.
    """
    _check_reach("momentum", "momentum k", k)
    return _plain(-2.0 * np.cos(np.asarray(k, dtype=float)))


@dataclass(frozen=True, eq=False)
class ModeSpec(_Fieldwise):
    """One momentum mode of the reduced bipartite problem.

    energy : float, eps_k = -2 cos(k)
    coupling : float, g_k = g sin(k)^2
    dephasing : float, lambda >= 0

    Any field may also be an array, if the three broadcast together: a batch
    of modes for the closed forms in ``dynamics`` and ``fluctuation``.  Modes
    compare field by field, batches included; a batch is not hashable.
    """

    energy: float
    coupling: float
    dephasing: float = 0.0

    def __post_init__(self):
        energy = np.asarray(self.energy)
        _require("mode energy", self.energy, energy.dtype.kind in _REAL_KINDS,
                 "be a real number in the float range")
        _require("mode energy", self.energy, not np.isnan(energy).any(), "not be NaN")
        _check_reach("dephasing rate", "dephasing rate", self.dephasing)
        _check_reach("finite", "coupling g", self.coupling)
        self._require_broadcast()

    @classmethod
    def from_momentum(cls, k: float, g: float = 1.0, dephasing: float = 0.0) -> "ModeSpec":
        # dispersion validates k; only cos and sin of 2 g_k t reach an
        # observable, so the sign convention of g_k lives in dynamics
        return cls(energy=dispersion(k),
                   coupling=float(g * np.sin(k) ** 2), dephasing=float(dephasing))


def _check_envelope_args(t, dephasing, coupling):
    """Name the first argument that relaxation_envelope cannot take."""
    tarr = np.asarray(t)
    _require("time", t, tarr.dtype.kind in _REAL_KINDS, "be a real number in the float range")
    _require("time", t, not np.isnan(tarr).any(), "not be NaN")
    _require("time", t, not (tarr < 0.0).any(), "be >= 0")
    _check_reach("dephasing rate", "dephasing rate", dephasing)
    _check_reach("finite", "coupling g", coupling)
    _require("time", t, not (np.isinf(tarr) & (np.asarray(dephasing) == 0.0)).any(),
             "be finite at dephasing rate 0, where the mode oscillates forever",
             EquilibriumUndefinedError)


def _reject_phase(coupling):
    """Name why the phase 2 g t of a live mode is not finite."""
    _check_reach("finite", "coupling g", coupling)
    _require("phase 2 g t", math.inf, False, "be finite: coupling g times time t overflows")


def relaxation_envelope(t, dephasing, coupling):
    """Validated (envelope, phase) = (exp(-lam t), 2 g t) of one mode.

    t, lam and g may be scalars or broadcasting arrays.  Rejects a t, lam
    or g that is not a real number, NaN or negative t, NaN, negative or
    infinite lam and a non-finite g; t = inf with lam = 0 has no limit and
    raises EquilibriumUndefinedError.  An envelope below ``_DAMPING_FLOOR``
    is set to 0 and takes the phase with it, so t = inf with lam > 0 gives
    the damped limit rather than 0 * cos(inf); a finite g t whose phase
    overflows raises ValueError.  Scalar input gives numpy float64 scalars.
    """
    args = np.asarray(t), np.asarray(dephasing), np.asarray(coupling)
    if not {a.dtype.kind for a in args} <= _REAL_KINDS:
        _check_envelope_args(t, dephasing, coupling)
    tarr, lam, g = (np.asarray(a, dtype=float)[()] for a in args)  # 0-d: numpy scalars
    # an invalid input's inf or NaN only fails the test below; a damped-out
    # entry's phase, inf or 0 * inf, is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-lam * tarr)
        alive = envelope > _DAMPING_FLOOR
        phase = np.where(alive, 2.0 * g * tarr, 0.0)[()]
    # one combined test (envelope <= 1 fails at inf t with lam 0); the named
    # checks run once it fails, or an empty argument leaves nothing to test
    if not (phase.size and ((lam >= 0.0) & (lam < math.inf) & (abs(g) < math.inf) & (tarr >= 0.0)
                            & (envelope <= 1.0) & (abs(phase) < math.inf)).all()):
        _check_envelope_args(t, dephasing, coupling)
        if not np.isfinite(phase).all():
            _reject_phase(coupling)
    return envelope * alive, phase


def _reduced_energy(energy, reservoir: ReservoirParams):
    # x = (eps - mu)/T: past the float range +-inf, the exact limit of any
    # occupation, and NaN only for a NaN energy, which is rejected
    energies = np.asarray(energy)
    _require("energy", energy, energies.dtype.kind in _REAL_KINDS,
             "be a real number in the float range")
    with np.errstate(over="ignore"):
        x = (energies.astype(float, copy=False) - reservoir.mu) / reservoir.temperature
    _require("energy", energy, not np.isnan(x).any(), "not be NaN")
    return x


def _fd_of(x):
    """1/(exp(x) + 1) of the reduced energies x, exponentiating no positive
    argument: exp(-max(x, 0)) is e = exp(-|x|) where x >= 0 and exactly 1
    below, so one quotient gives e/(1 + e) or 1/(1 + e), each branch's bits.
    Overwrites the float array x."""
    occ = np.maximum(x, 0.0)
    np.exp(np.negative(occ, out=occ), out=occ)
    e = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    return np.divide(occ, np.add(e, 1.0, out=e), out=occ)


def occupation_fd(energy, reservoir: ReservoirParams):
    """Fermi-Dirac occupation 1/(exp((eps - mu)/T) + 1).

    Evaluated through exponentials of non-positive arguments only, so
    arbitrarily large |eps - mu|/T is safe on either side.  Accepts scalar
    or array energies.
    """
    x = _reduced_energy(energy, reservoir)
    return _plain(_fd_of(np.atleast_1d(x)).reshape(np.shape(x)))


def _log_fd_pair(energy, reservoir: ReservoirParams):
    """(ln n, ln(1 - n)) of the Fermi-Dirac occupation from one log1p.

    With x = (eps - mu)/T, ln n = -(max(x, 0) + log1p(e^{-|x|})) and the
    vacancy is its particle-hole mirror at -x, so both share the log1p term;
    stable on both tails.  Scalar or array energies; numpy values either way.
    """
    x = _reduced_energy(energy, reservoir)
    tail = np.log1p(np.exp(-np.abs(x)))
    return -(np.maximum(x, 0.0) + tail), -(np.maximum(-x, 0.0) + tail)


def log_occupation_fd(energy, reservoir: ReservoirParams):
    """ln of the Fermi-Dirac occupation, computed without forming the occupation.

    Near full filling the occupation rounds to 1 and ``log(1 - n)`` computed
    from it loses most of its digits; this form keeps full precision on both
    tails.  Accepts scalar or array energies.
    """
    return _plain(_log_fd_pair(energy, reservoir)[0])


def log_vacancy_fd(energy, reservoir: ReservoirParams):
    """ln(1 - n) for the Fermi-Dirac occupation n, stable on both tails.

    Uses the particle-hole mirror of :func:`log_occupation_fd` (the vacancy is
    the occupation with the sign of eps - mu flipped).  Accepts scalar or
    array energies.
    """
    return _plain(_log_fd_pair(energy, reservoir)[1])


def occupation_boltzmann(energy, reservoir: ReservoirParams):
    """Classical occupation exp(-(eps - mu)/T) with an overflow guard.

    Raises BoltzmannRangeError if any requested value would exceed 1e300.
    """
    x = _reduced_energy(energy, reservoir)
    if np.size(x):  # an empty array has no least energy to check
        _check_reach("Boltzmann occupation", "(mu - energy)/T", -float(np.min(x)))
    return _plain(np.exp(-x))


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
    _check_reach("positive", "digit count m", m)
    mu_bound = -0.5 * m * reservoir.temperature * _LN10 - 2.0
    return BoltzmannValidity(mu_bound=mu_bound, satisfied=reservoir.mu < mu_bound)


def band_gap_ev(m: int, temperature_kelvin: float) -> float:
    """E_gap = m k_B T ln(10)/2 in eV for a physical temperature in kelvin."""
    _check_reach("positive", "digit count m", m)
    _check_reach("positive", "temperature_kelvin", temperature_kelvin)
    return 0.5 * m * KB_EV_PER_K * temperature_kelvin * _LN10


def _warn_unless_dilute(reservoir: ReservoirParams):
    """RegimeWarning when the Boltzmann forms miss Fermi-Dirac by a digit."""
    validity = boltzmann_validity(_DILUTE_DIGITS, reservoir)
    if not validity.satisfied:
        warnings.warn("Boltzmann statistics outside the dilute regime: mu = %g is not below "
                      "%.4g at T = %g" % (reservoir.mu, validity.mu_bound,
                                          reservoir.temperature), RegimeWarning, stacklevel=4)
