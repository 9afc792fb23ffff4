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

A mode is the triple (eps_k, g_k, lam) of :class:`ModeSpec`.  A mode or a
reservoir whose fields are arrays that broadcast together is a batch
(``_Fieldwise``).  Dephasing enters only through the envelope exp(-lam t)
times cos or sin of 2 g_k t, which :func:`relaxation_envelope` forms.

Every export declares its arguments once, with ``_takes`` (a record: its
``_contract``; the scenario config: its field table): each ``_Arg`` names a
``_REACH`` row, a record class or a choice, and whether the argument is one
scalar or joins the call's broadcast shape.  One wrapper checks them and
calls the body; it is the export's only entry, so library code calls an
export as any caller does.  ``_require`` words every rejection "<name> must
<domain>, got <value>", as a ValueError or a named subclass; every bounded
quantity has one ``_REACH`` row (limits, wording, error class).
An approximation used outside its regime warns with :class:`RegimeWarning`
(Boltzmann statistics outside the dilute regime), naming as its source the
first calling frame outside the package (``_warn``).

Occupation helpers are written to be overflow-safe: the Fermi-Dirac form never
exponentiates a large positive argument, and the Boltzmann form raises once
exp((mu - eps)/T) would exceed 1e300.  An energy of +-inf is a level that is
exactly empty or full; a NaN energy is rejected.
"""

from __future__ import annotations

import functools
import math
import operator
import os
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

# a warning's source is the first frame whose file is not under this directory
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


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


def _require(name: str, value, ok: bool, domain: str, error=None):
    """Raise ``error("<name> must <domain>, got <value>")``, a ValueError by
    default, unless ok (the caller's own test); the value in ``_bounded`` form."""
    if not ok:
        if isinstance(value, (np.generic, np.ndarray)) and value.ndim == 0:
            value = value.item()
        raise (error or ValueError)("%s must %s, got %r" % (name, domain, _bounded(value)))


class _Shown(str):
    __repr__ = str.__str__  # text that repr shows as it is


def _bounded(value, depth: int = 3):
    """value for repr: a list or tuple past 6 entries cut to its first and last
    3, as numpy cuts an array, 3 levels deep; an int past the float range 3 digits."""
    if type(value) in (list, tuple):
        cut = value if len(value) <= 6 else [*value[:3], _Shown("..."), *value[-3:]]
        return type(value)(_bounded(v, depth - 1) for v in cut) if depth else _Shown("...")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        import decimal  # only here: the float formats overflow on it
        return _Shown(format(decimal.Decimal(value), ".3g"))
    return value


def _require_scalar(name: str, value, error=None):
    """Raise ValueError (or error), naming value with its shape, if it is an
    array or a list, a ragged one included."""
    if not isinstance(value, (float, int)) and (isinstance(value, (list, tuple))
                                                or np.ndim(value)):
        _require(name, np.asarray(value, dtype=object).shape, False,
                 "be one scalar, not an array of shape", error)


def _joint_shape(*named, what=None):
    """The shape the (name, value) pairs broadcast to, from one C-level test
    (none for plain numbers), or a ValueError saying what (the names) must
    broadcast, with each shape."""
    for _, value in named:
        if not isinstance(value, (float, int)):
            break
    else:
        return ()
    try:
        return np.broadcast(*(value for _, value in named)).shape
    except ValueError:
        shapes = {name: np.shape(value) for name, value in named}
        _require(what or ", ".join(shapes), shapes, False, "broadcast together")


# the band quadrature's panel budget: no level above it is ever built
_MAX_PANELS = 1 << 17
_I_REACH = 700.0  # |y| of I_n(y): e^y stays finite
_Reach = namedtuple("_Reach", "lo hi first last domain error")
_REAL_KINDS = frozenset("iuf")  # numpy dtype kinds of a real number: int, float (no bool)


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
    # t = inf: the damped limit, where lam > 0
    "time": _reach(0.0, math.inf, "[]", "be a number >= 0"),
    # an energy of +-inf is a level that is exactly empty or full
    "energy": _reach(-math.inf, math.inf, "[]", "be a number, not NaN"),
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
    # binary_entropy's p, with room for a computed occupation's round-off
    "probability": _reach(-1e-12, 1.0 + 1e-12, "[]", "lie in [0, 1]"),
    "momentum": _reach(0.0, math.pi, "[]", "lie in [0, pi]"),
    "Bessel order": _reach(0, 20_000, "[]", "be an integer in %(interval)s"),
    "J argument": _reach(-1e4, 1e4, "[]", "lie in %(interval)s, the validated J_n range"),
    # omega_nu(x, y) = B(x/2, a): x/2 in the J argument reach
    "omega x": _reach(-2e4, 2e4, "[]", "lie in %(interval)s, twice the validated J_n range"),
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


def _check_reach(row: str, name: str, value, error=None):
    """Raise the ``_REACH`` row's error (or error: a config raises
    ConfigError), naming ``name``, unless every entry of value is a number in
    the row's reach.  A plain float costs two comparisons; a plain int is no
    bool and lies inside the float range, which every row names as its domain
    for an int beyond it; a row with integer limits takes integers only."""
    reach = _REACH[row]
    integer = isinstance(reach.last, int)
    domain = reach.domain
    if isinstance(value, float):
        ok = reach.first <= value <= reach.last and not integer
    elif isinstance(value, int):
        ok = value.__class__ is not bool and reach.first <= value <= reach.last
        if abs(value) > sys.float_info.max:
            ok, domain = False, "be a number in the float range"
    else:
        arr = np.asarray(value)  # a NaN entry makes min and max NaN
        ok = arr.dtype.kind in ("iu" if integer else _REAL_KINDS) and (
            not arr.size or (reach.first <= arr.min() and arr.max() <= reach.last))
    if not ok:
        _require(name, value, False, domain, error or reach.error)


# a declared argument or record field: its rule (a _REACH row, a record class,
# a (domain, ok) choice, or None), its name in errors (a record's: its
# fields' prefix), and whether it batches
_Arg = namedtuple("_Arg", "rule spoken batch", defaults=(None, True))
_batch = _Arg
_scalar = functools.partial(_Arg, batch=False)


def _spoken(declared: dict) -> dict:
    """The declaration, each argument spoken by its own name unless given one."""
    return {name: arg if arg.spoken is not None else arg._replace(
        spoken=name + " " if isinstance(arg.rule, type) else name)
        for name, arg in declared.items()}


def _check_arg(arg: _Arg, param: str, value, error=None):
    """Raise the named error of the declared rule unless value keeps it; error
    replaces the class of every raise (a config raises ConfigError)."""
    rule = arg.rule
    if rule.__class__ is str:
        if not (arg.batch or isinstance(value, (float, int))):
            _require_scalar(arg.spoken, value, error)
        _check_reach(rule, arg.spoken, value, error)
    elif isinstance(rule, type):
        if not isinstance(value, rule):
            _require(param, value, False, "be %s %s" % (
                "an" if rule.__name__[0] in "AEIOU" else "a", rule.__name__), error)
        for field in () if arg.batch else getattr(rule, "_batch_fields", ()):
            _require_scalar(arg.spoken + field, getattr(value, field), error)
    elif rule is not None:
        _require(arg.spoken, value, rule[1](value), rule[0], error)


def _takes(**declared):
    """Declare an export's arguments, ``_Arg``s by parameter name: a call checks
    each, bound at its precomputed position, then the batch ones' joint shape,
    and runs the body.  The checked function is the export's one entry."""
    def wrap(body):
        # the parameters from the code object: inspect.signature costs ~20 us
        names = body.__code__.co_varnames[:body.__code__.co_argcount]
        defaults = dict(zip(names[::-1], (body.__defaults__ or ())[::-1]))
        missing = object()  # the default of a parameter without one
        contract = _spoken(declared)
        slots = [(names.index(name), name, defaults.get(name, missing), arg)
                 for name, arg in contract.items()]
        joint = sum(arg.batch for arg in contract.values()) > 1  # else nothing can clash

        @functools.wraps(body)
        def checked(*args, **kwargs):
            named, given = [], len(args)
            for i, name, default, arg in slots:
                value = args[i] if i < given else kwargs.get(name, default)
                if value is missing:  # the body raises its TypeError
                    break
                _check_arg(arg, name, value)
                if joint and arg.batch:
                    named += (value._fields(arg.spoken) if isinstance(arg.rule, type)
                              else ((arg.spoken, value),))
            if named:
                _joint_shape(*named)
            return body(*args, **kwargs)

        checked._contract = contract
        return checked
    return wrap


def _plain(out):
    """A scalar result as a Python float (or complex), an array as it is."""
    return np.asarray(out).item() if np.ndim(out) == 0 else out


def _scalar_pow(base, exponent: float):
    """base ** exponent by Python's float pow, entry by entry: numpy's vector
    power may round an entry otherwise, and each entry keeps its scalar bits."""
    return _plain(np.asarray(np.power(np.asarray(base, dtype=object), exponent), dtype=float))


class _Fieldwise:
    """A frozen dataclass (eq=False) whose ``_contract`` declares its fields, by
    default each only joining the shape: construction checks them.  Arrays in
    ``_batch_fields`` make a batch, which compares field by field and is not
    hashable; plain fields compare and hash as one tuple, as a dataclass's."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields in dataclass order: a base's first, then the class's own
        names = list(dict.fromkeys(name for base in reversed(cls.__mro__)
                                   for name in vars(base).get("__annotations__", ())))
        cls._values = operator.attrgetter(*names)
        cls._contract = _spoken(getattr(cls, "_contract", None)
                                or dict.fromkeys(names, _batch(None)))
        cls._batch_fields = tuple(name for name, arg in cls._contract.items() if arg.batch)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._values(self), self._values(other)
        try:
            hash((mine, theirs))  # raises on an array field
        except TypeError:
            return all(map(np.array_equal, mine, theirs))
        return mine == theirs

    def __hash__(self):
        try:
            return hash(self._values(self))
        except TypeError:  # an array field
            raise TypeError("a batched %s (one with array fields) is unhashable"
                            % type(self).__name__) from None

    def __post_init__(self):
        for name, arg in self._contract.items():
            _check_arg(arg, name, getattr(self, name))
        for value in self._values(self):
            if not isinstance(value, (float, int)):
                _joint_shape(*self._fields(), what="%s fields" % type(self).__name__)
                break

    def _fields(self, prefix: str = "") -> tuple:
        """(prefix + name, value) of each field, for ``_joint_shape``."""
        return tuple((prefix + name, value) for name, value in vars(self).items())


@dataclass(frozen=True, eq=False)
class ReservoirParams(_Fieldwise):
    """Grand-canonical reservoir: temperature and chemical potential.

    temperature : float, in units of alpha/k_B
    mu : float, in units of alpha

    Array fields make a batch of reservoirs for the occupation functions and
    ``fluctuation``, each entry equal to its scalar reservoir's call bit for
    bit; an export that takes one reservoir declares it scalar.
    """

    temperature: float
    mu: float = 0.0
    _contract = {"temperature": _batch("temperature"), "mu": _batch("finite")}

    @property
    def beta(self) -> float:
        return _plain(np.divide(1.0, self.temperature))  # a list field reads as an array


@_takes(k=_batch("momentum", "momentum k"))
def dispersion(k):
    """Band energy eps_k = -2 cos(k) for momentum k in [0, pi]."""
    return _plain(-2.0 * np.cos(np.asarray(k, dtype=float)))


@dataclass(frozen=True, eq=False)
class ModeSpec(_Fieldwise):
    """One momentum mode of the reduced bipartite problem.

    energy : float, eps_k = -2 cos(k)
    coupling : float, g_k = g sin(k)^2
    dephasing : float, lambda >= 0

    Array fields make a batch of modes for the closed forms in ``dynamics``
    and ``fluctuation``.
    """

    energy: float
    coupling: float
    dephasing: float = 0.0
    _contract = {"energy": _batch("energy", "mode energy"),
                 "coupling": _batch("finite", "coupling g"),
                 "dephasing": _batch("dephasing rate", "dephasing rate")}

    @classmethod
    @_takes(k=_batch("momentum", "momentum k"), g=_batch("finite"), dephasing=_batch(None))
    def from_momentum(cls, k, g=1.0, dephasing=0.0) -> "ModeSpec":
        """The mode at momentum k; k, g and the dephasing rate may be arrays
        that broadcast, each entry with the bits of its scalar call."""
        # only cos and sin of 2 g_k t reach an observable, so the sign
        # convention of g_k lives in dynamics
        sin_k = np.sin(np.asarray(k, dtype=float))
        return cls(energy=dispersion(k),
                   coupling=_plain(np.multiply(g, _scalar_pow(sin_k, 2))),
                   dephasing=_plain(np.asarray(dephasing)))


# the declarations most exports share
_TIME = _batch("time", "time")
_ONE_TIME = _scalar("time", "time")
_ONE_RATE = _scalar("dephasing rate", "dephasing rate")
_ONE_COUPLING = _scalar("finite", "coupling g")
_ONE_RESERVOIR = _scalar(ReservoirParams, "")  # its fields are named bare
_MODE = _batch(ModeSpec)
_PAIR = dict.fromkeys(("res_a", "res_b"), _batch(ReservoirParams))  # or two batches


@_takes(t=_TIME, dephasing=ModeSpec._contract["dephasing"],
        coupling=ModeSpec._contract["coupling"])
def relaxation_envelope(t, dephasing, coupling):
    """(envelope, phase) = (exp(-lam t), 2 g t) of a mode (or batch): t, lam
    and g are declared by the rules of a mode's time and fields, and
    broadcast together.  An envelope below ``_DAMPING_FLOOR`` is set to 0 and
    takes the phase with it, so t = inf with lam > 0 gives the damped limit;
    t = inf with lam = 0 has none and raises EquilibriumUndefinedError, and a
    phase that overflows raises ValueError.  Scalars give numpy scalars.
    """
    tarr, lam, g = (np.asarray(a, dtype=float)[()] for a in (t, dephasing, coupling))
    # a damped-out entry's phase, inf or 0 * inf, is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-lam * tarr)
        alive = envelope > _DAMPING_FLOOR
        phase = np.where(alive, 2.0 * g * tarr, 0.0)[()]
    # the sum is finite unless t = inf at lam = 0 (a NaN envelope) or the
    # phase overflows
    if not np.isfinite(envelope + phase).all():
        _require("time", math.inf, not (np.isinf(tarr) & (lam == 0.0)).any(),
                 "be finite at dephasing rate 0, where the mode oscillates forever",
                 EquilibriumUndefinedError)
        _reject_phase()
    return envelope * alive, phase


def _reject_phase():
    _require("phase 2 g t", math.inf, False, "be finite: coupling g times time t overflows")


def _mode_envelope(mode: ModeSpec, t):
    """relaxation_envelope of a mode batch, spread over the coupling's axes,
    which the envelope lacks, and the energy's."""
    envelope, phase = relaxation_envelope(t, mode.dephasing, mode.coupling)
    if np.ndim(mode.energy) or np.shape(envelope) != np.shape(phase):
        envelope, phase, _ = np.broadcast_arrays(envelope, phase, mode.energy)
    return envelope, phase


def _reduced_energy(energy, reservoir: ReservoirParams):
    # x = (eps - mu)/T: past the float range +-inf, the exact limit of any
    # occupation (NaN only for a NaN energy, which is rejected)
    energies = np.asarray(energy).astype(float, copy=False)
    with np.errstate(over="ignore"):
        return (energies - reservoir.mu) / reservoir.temperature


def _fd_of(x):
    """1/(exp(x) + 1) of the reduced energies x, exponentiating no positive
    argument: exp(-max(x, 0)) is e = exp(-|x|) where x >= 0 and exactly 1
    below, so one quotient gives e/(1 + e) or 1/(1 + e), each branch's bits.
    Overwrites the float array x."""
    occ = np.maximum(x, 0.0)
    np.exp(np.negative(occ, out=occ), out=occ)
    e = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    return np.divide(occ, np.add(e, 1.0, out=e), out=occ)


# the energies and the reservoir (or batch) of an occupation
_OCCUPATION = {"energy": _batch("energy"), "reservoir": _batch(ReservoirParams, "")}


@_takes(**_OCCUPATION)
def occupation_fd(energy, reservoir: ReservoirParams):
    """Fermi-Dirac occupation 1/(exp((eps - mu)/T) + 1).

    Evaluated through exponentials of non-positive arguments only, so
    arbitrarily large |eps - mu|/T is safe on either side.
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


@_takes(**_OCCUPATION)
def log_occupation_fd(energy, reservoir: ReservoirParams):
    """ln of the Fermi-Dirac occupation, computed without forming the occupation.

    Near full filling the occupation rounds to 1 and ``log(1 - n)`` computed
    from it loses most of its digits; this form keeps full precision on both
    tails.
    """
    return _plain(_log_fd_pair(energy, reservoir)[0])


@_takes(**_OCCUPATION)
def log_vacancy_fd(energy, reservoir: ReservoirParams):
    """ln(1 - n) for the Fermi-Dirac occupation n, stable on both tails.

    Uses the particle-hole mirror of :func:`log_occupation_fd` (the vacancy is
    the occupation with the sign of eps - mu flipped).
    """
    return _plain(_log_fd_pair(energy, reservoir)[1])


@_takes(**_OCCUPATION)
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


@_takes(m=_batch("positive", "digit count m"), reservoir=_ONE_RESERVOIR)
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
    mu_bound = -0.5 * m * reservoir.temperature * _LN10 - 2.0
    return BoltzmannValidity(mu_bound=mu_bound, satisfied=reservoir.mu < mu_bound)


@_takes(m=_batch("positive", "digit count m"), temperature_kelvin=_batch("positive"))
def band_gap_ev(m: int, temperature_kelvin: float) -> float:
    """E_gap = m k_B T ln(10)/2 in eV for a physical temperature in kelvin."""
    return 0.5 * m * KB_EV_PER_K * temperature_kelvin * _LN10


def _warn(message: str, category: type):
    """warnings.warn with the first calling frame outside this package as its source."""
    frame, level = sys._getframe(1), 2  # stacklevel 2: the caller of _warn
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _warn_unless_dilute(reservoir: ReservoirParams):
    """RegimeWarning when the Boltzmann forms miss Fermi-Dirac by a digit."""
    validity = boltzmann_validity(_DILUTE_DIGITS, reservoir)
    if not validity.satisfied:
        _warn("Boltzmann statistics outside the dilute regime: mu = %g is not below %.4g at "
              "T = %g" % (reservoir.mu, validity.mu_bound, reservoir.temperature),
              RegimeWarning)
