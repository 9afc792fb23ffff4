"""Named figure scenarios, config parsing, and deterministic CSV output.

Every scenario is one row of ``SCENARIOS``, ``(build, panels, pins)``:

* ``pins`` are the scenario's own defaults, grids included.  One resolver
  applies them to every config key the user did not set, so the config that
  ``parse_config`` returns holds the values the run uses (``onsevo1`` runs
  at T = 0.005, not at the field default 0.1).  ``run_scenario`` resolves
  again, so a directly built or replaced ``ScenarioConfig`` runs with the
  same pins: there a field left at its field default takes the pin.
* ``panels`` is the config key the panels sweep with its default values, or
  None for one unnamed panel.  Setting that key gives one panel at its value.
* ``build(runs)`` takes the (cfg, name) of every panel at once and returns
  each panel's headers, columns and comparison reports, reading every value
  from its ``cfg``.  Each figure shape has one builder: the Onsager block on
  a mu or t axis, the t grid plus one column per ``entropy`` function the
  row names, and quadrature vs series with one report per quantity.

``ScenarioConfig`` checks every field on every build, so a parsed config
and a directly built one pass the same checks.  Its fields are declared in
``_FIELDS`` as the exports' arguments are: each key is one scalar ``_Arg``,
a ``lattice._REACH`` row shared with the library or a choice, checked by
``lattice._check_arg`` with ConfigError and named "config field '<key>'".
``run_scenario`` makes the panels and ``_run_panels`` builds them, first
checking every panel's reservoir split (T +- dT/2, mu +- dmu/2).  Each panel
is one CSV file with the independent variable in the first column and
unit-annotated headers, e.g. "J_QT[alpha^2]".  Energies are in units of the
hopping scale alpha, times in 1/alpha, entropies in k_B.  Output is written
RFC-4180 style with UTF-8 text, LF line endings, and a fixed
significant-digit format: the headers are quoted where they need it, and
each row is one %-format of its floats.  Every builder evaluates on the
calling thread; a band builder makes one scan over the t or mu grids of all
its panels, at the g, tol and stats they share, in which each point keeps
the bits of its solo call, so a panel's CSV is the one it writes when run
alone; every reduction has a fixed association, so output is
byte-reproducible.  The ``onsteste`` series are the Fermi-Dirac Sommerfeld
forms whatever the stats: a Boltzmann run compares them with a Boltzmann
quadrature, warns outside the dilute regime, and reports the gap.
The ``onsteste2`` series of every panel are one evaluation over the scan's
points, from one J table.  The ``threads`` config key is still
range-checked so that old configs parse, but it has no field and no effect.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Mapping

import numpy as np

from . import closedforms, entropy, transport
from .lattice import ReservoirParams, _check_arg, _check_reach, _require, _scalar, _takes, _warn


class ConfigError(ValueError):
    """A scenario config was malformed; the message names the offender."""


class LinearResponseWarning(UserWarning):
    """A reservoir split is large for the linear-response formulas."""


# relative split |dT|/T or |dmu/mu| above which a panel is flagged
_LINEAR_RESPONSE_THRESHOLD = 0.05


def _integer(lo: int, hi: int) -> tuple:
    return ("be an integer in [%d, %d]" % (lo, hi),
            lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi)


def _increasing(start: str, low: float) -> tuple:
    # the empty tuple is a field's default: the scenario's pins supply the grid
    return ("be a strictly increasing list of at least 2 finite numbers" + start,
            lambda v: (isinstance(v, tuple) and not v) or (
                isinstance(v, (list, tuple)) and len(v) >= 2
                and all(isinstance(x, (float, int)) and x.__class__ is not bool
                        and low <= x <= sys.float_info.max for x in v)
                and all(map(operator.lt, v, v[1:]))))


_STRING = ("be a string", lambda v: isinstance(v, str))

# config key -> its declaration: a lattice._REACH row it shares with the
# library, or a (domain, ok) choice, where ok takes the value as given
_FIELDS = {key: _scalar(rule, "config field '%s'" % key) for key, rule in {
    "scenario": _STRING, "out_dir": _STRING, "stats": transport._STATS,
    "temperature": "temperature", "mu": "finite", "dephasing": "dephasing rate", "g": "finite",
    "tol": "tol", "delta_t": "finite", "delta_mu": "finite", "n_eq": "n_eq", "delta_n": "finite",
    "threads": _integer(1, 256),  # checked, then dropped: no field
    "sig_digits": _integer(3, 17),
    "t_grid": _increasing(", from a time >= 0", 0.0),
    "mu_grid": _increasing("", -sys.float_info.max)}.items()}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    temperature: float = 0.1
    mu: float = 0.0
    dephasing: float = 0.05
    g: float = 1.0
    stats: str = transport.STATS_FD
    tol: float = transport.DEFAULT_TOL
    sig_digits: int = 12
    out_dir: str = "figures"
    delta_t: float = 0.0
    delta_mu: float = 0.0
    t_grid: tuple = ()
    mu_grid: tuple = ()
    n_eq: float = 0.5
    delta_n: float = 0.1
    explicit: frozenset = field(default_factory=frozenset, compare=False)
    _contract = {key: arg for key, arg in _FIELDS.items() if key != "threads"}

    def __post_init__(self):
        # the one check of every field; numbers are stored as floats and grids
        # as tuples of floats
        for key, arg in self._contract.items():
            value = getattr(self, key)
            _check_arg(arg, key, value, ConfigError)
            if isinstance(arg.rule, str):
                object.__setattr__(self, key, float(value))
            elif isinstance(value, (list, tuple)):
                object.__setattr__(self, key, tuple(map(float, value)))


def parse_config(data: Mapping) -> ScenarioConfig:
    """Check a config mapping's keys and resolve its scenario's pins.

    Unknown keys are rejected by name; ``ScenarioConfig`` checks the values.
    """
    if not isinstance(data, Mapping):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise ConfigError("unknown config key '%s'" % unknown[0])
    if "scenario" not in data:
        raise ConfigError("config needs a 'scenario' key")
    kwargs = dict(data)
    if "threads" in kwargs:
        _check_arg(_FIELDS["threads"], "threads", kwargs.pop("threads"), ConfigError)
    return _resolve(ScenarioConfig(explicit=frozenset(data) - {"scenario"}, **kwargs))


def _resolve(cfg: ScenarioConfig) -> ScenarioConfig:
    """cfg with its scenario's pins on every key the user did not set (not in
    ``explicit`` and at its field default); the set keys become ``explicit``."""
    try:
        pins = SCENARIOS[cfg.scenario][2]
    except KeyError:
        raise ConfigError("unknown scenario '%s'" % cfg.scenario) from None
    explicit = cfg.explicit | {f.name for f in fields(cfg) if f.default is not MISSING
                               and getattr(cfg, f.name) != f.default}
    return replace(cfg, explicit=explicit,
                   **{k: v for k, v in pins.items() if k not in explicit})


def read_config(path: str) -> dict:
    """The JSON object in a config file, not yet validated field by field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config file is not valid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _check_split(cfg: ScenarioConfig):
    """Reject a split that drives one half to T <= 0; warn on a large one.

    dmu/mu is skipped at mu = 0, where it is undefined.
    """
    if cfg.delta_t == 0.0 and cfg.delta_mu == 0.0:
        return
    _require("config field 'delta_t' at temperature %g" % cfg.temperature, cfg.delta_t,
             cfg.temperature - 0.5 * abs(cfg.delta_t) > 0.0,
             "not drive one reservoir to T <= 0", ConfigError)
    splits = [("delta_t", cfg.delta_t, "T", cfg.temperature)]
    if cfg.mu != 0.0:
        splits.append(("delta_mu", cfg.delta_mu, "mu", cfg.mu))
    for name, delta, symbol, value in splits:
        if abs(delta / value) > _LINEAR_RESPONSE_THRESHOLD:
            _warn("%s split exceeds %g of %s = %g; linear-response output may be inaccurate"
                  % (name, _LINEAR_RESPONSE_THRESHOLD, symbol, value), LinearResponseWarning)


# ---------------------------------------------------------------------------
# results and CSV writing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Panel:
    name: str
    headers: tuple
    columns: tuple

    def __post_init__(self):
        if len(self.headers) != len(self.columns):
            raise ValueError("headers and columns disagree")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError("ragged panel columns")


@dataclass(frozen=True)
class ComparisonReport:
    panel: str
    quantity: str
    max_rel_deviation: float
    threshold: float

    @property
    def within(self) -> bool:
        return self.max_rel_deviation <= self.threshold

    def line(self) -> str:
        if math.isinf(self.threshold):
            return ("%s/%s: max relative deviation %.3g (informational)"
                    % (self.panel, self.quantity, self.max_rel_deviation))
        return ("%s/%s: max relative deviation %.3g (threshold %.3g) %s"
                % (self.panel, self.quantity, self.max_rel_deviation,
                   self.threshold, "ok" if self.within else "EXCEEDED"))


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    panels: tuple
    reports: tuple = ()


def _tag(value: float) -> str:
    return ("%g" % value).replace("-", "m").replace(".", "p")


def _csv_field(text: str) -> str:
    # plain substring tests: every figure value passes through here
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(row) -> str:
    return ",".join(map(_csv_field, row)) + "\n"


def write_csv(path: str, rows):
    """Write rows of text fields as UTF-8 CSV with LF line ends.

    A field holding a comma, double quote, CR or LF is quoted RFC-4180
    style; the stdlib csv writer would leave a bare CR unquoted.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(map(_csv_line, rows)))


@_takes(result=_scalar(ScenarioResult), sig_digits=_FIELDS["sig_digits"])
def write_result(result: ScenarioResult, out_dir: str, sig_digits: int):
    """One CSV per panel, in ``write_csv``'s format; returns the paths written.
    Each row is one %-format of its floats: a %g field never needs quoting."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for panel in result.panels:
        stem = result.scenario if not panel.name else (
            "%s_%s" % (result.scenario, panel.name))
        path = os.path.join(out_dir, stem + ".csv")
        row = ",".join(["%%.%dg" % sig_digits] * len(panel.columns)) + "\n"
        values = zip(*(np.asarray(c, float).tolist() for c in panel.columns))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_line(panel.headers) + "".join(map(row.__mod__, values)))
        paths.append(path)
    return paths


def _max_norm_deviation(series, reference) -> float:
    """max |series - reference| over max |reference|, or absolute if that is 0."""
    gap = float(np.max(np.abs(np.subtract(series, reference, dtype=float))))
    scale = float(np.max(np.abs(reference)))
    return gap / scale if scale else gap


# ---------------------------------------------------------------------------
# scenario builders: build(runs) -> for each (cfg, name) panel of runs, its
# (headers, columns, reports)
# ---------------------------------------------------------------------------

_J_HEADERS = ("J_NM[1]", "J_NT[alpha]", "J_QM[alpha]", "J_QT[alpha^2]")
_ONSAGER = (transport._onsager_kernels,)


def _grid(cfg: ScenarioConfig, name: str) -> np.ndarray:
    values = getattr(cfg, name)
    if not values:
        raise ConfigError("%s scenario requires config field '%s'"
                          % (cfg.scenario, name))
    return np.asarray(values)


def _each(build):
    """The builder of every panel from ``build(cfg, name)``, one panel's."""
    return lambda runs: [build(cfg, name) for cfg, name in runs]


def _scanned(build, kernel_groups, points_of, *series):
    """The builder of every panel from ``build(cfg, name, scanned)``, one
    panel's, where ``scanned`` holds the panel's columns of one band quadrature
    per kernel group, then of one call per ``series(points, g)``, over the (t,
    res, dephasing) points that ``points_of(cfg)`` gives every panel, at the
    g, tol and stats they share (``_run_panels`` checks them)."""
    def build_all(runs):
        cfg = runs[0][0]
        panels = [points_of(c) for c, _ in runs]
        points = [p for points in panels for p in points]
        values = transport._scan(kernel_groups, points, cfg.g, cfg.tol, cfg.stats)
        values += tuple(fn(points, cfg.g) for fn in series)
        ends = itertools.accumulate(map(len, panels))
        return [build(c, name, [kernels[end - len(points):end].T for kernels in values])
                for (c, name), points, end in zip(runs, panels, ends)]
    return build_all


def _mu_points(cfg: ScenarioConfig) -> list:
    return [(math.inf, ReservoirParams(cfg.temperature, m), cfg.dephasing)
            for m in _grid(cfg, "mu_grid").tolist()]


def _time_points(cfg: ScenarioConfig) -> list:
    res = ReservoirParams(cfg.temperature, cfg.mu)
    return [(t, res, cfg.dephasing) for t in _grid(cfg, "t_grid").tolist()]


# a figure's independent variable: (header, config grid)
_MU_AXIS = ("mu[alpha]", "mu_grid")
_T_AXIS = ("t[1/alpha]", "t_grid")


def _onsager(axis):
    """Onsager coefficients on the ``axis`` grid: damped-limit across the band
    vs mu, or building up in time."""
    def build(cfg: ScenarioConfig, name: str, scanned):
        block = transport.OnsagerBlock.from_derivatives(scanned[0], cfg.temperature)
        return (axis[0],) + _J_HEADERS, (_grid(cfg, axis[1]),) + block.columns, ()
    return build


def _mode_prep(cfg: ScenarioConfig) -> entropy.EquilibriumModePrep:
    return entropy.EquilibriumModePrep(n_eq=cfg.n_eq, delta_n=cfg.delta_n,
                                       coupling=cfg.g, dephasing=cfg.dephasing)


def _entroevo(cfg: ScenarioConfig, name: str):
    """Site entropies and mutual information for a weak split."""
    prep, t_grid = _mode_prep(cfg), _grid(cfg, "t_grid")
    c = entropy.entropy_coeffs(prep, t_grid)
    mi = entropy.mutual_information(prep, t_grid)
    s_ab = entropy.joint_entropy(prep, t_grid)
    return (("t[1/alpha]", "S_A[k_B]", "S_B[k_B]", "I[k_B]",
             "S_sum_minus_I[k_B]", "S_AB[k_B]"),
            (t_grid, c.entropy_a, c.entropy_b, mi,
             c.entropy_a + c.entropy_b - mi, s_ab), ())


def _entropy_columns(*columns):
    """The t grid and, per (header, name), the ``entropy`` function of that
    name at (prep, t), looked up at call time so that a wrapper bound to the
    module attribute (the benchmark's tracer) sees the call."""
    def build(cfg: ScenarioConfig, name: str):
        prep, t_grid = _mode_prep(cfg), _grid(cfg, "t_grid")
        return (_T_AXIS[0],) + tuple(h for h, _ in columns), (t_grid,) + tuple(
            getattr(entropy, fn)(prep, t_grid) for _, fn in columns), ()
    return build


def _sommerfeld_mu_points(cfg: ScenarioConfig) -> list:
    _check_reach("Sommerfeld mu", "config field 'mu_grid'", cfg.mu_grid, ConfigError)
    return _mu_points(cfg)


def _quad_vs_series(cfg, name, axis, labels, quad, series, threshold):
    """The axis grid, then each quantity's quadrature and series columns, and
    one ComparisonReport per quantity."""
    headers, columns, reports = [axis[0]], [_grid(cfg, axis[1])], []
    for label, qc, sc in zip(labels, quad, series):
        base, unit = label.split("[")
        headers += ["%s_quad[%s" % (base, unit), "%s_series[%s" % (base, unit)]
        columns += [qc, sc]
        reports.append(ComparisonReport(panel=name, quantity=base, threshold=threshold,
                                        max_rel_deviation=_max_norm_deviation(sc, qc)))
    return tuple(headers), tuple(columns), tuple(reports)


def _onsteste1(cfg: ScenarioConfig, name: str, scanned):
    """Damped-limit coefficients: quadrature vs low-T closed form.

    The deviations are reported without a pass/fail threshold: the
    temperature-odd coefficients are carried entirely by the O(T^2) term
    of the closed form, so their truncation error is first order in
    (pi T)^2/(4 - mu^2) and visibly grows toward the band edges and with
    T.  Contrasting the two temperatures is the point of this figure.
    """
    block = transport.OnsagerBlock.from_derivatives(scanned[0], cfg.temperature)
    series = closedforms.equilibrium_sommerfeld_onsager(
        ReservoirParams(cfg.temperature, _grid(cfg, "mu_grid"))).columns
    return _quad_vs_series(cfg, name, _MU_AXIS, _J_HEADERS, block.columns, series, math.inf)


def _onsteste2(cfg: ScenarioConfig, name: str, scanned):
    """Counter evolution: truncated FD low-T series vs adaptive quadrature."""
    return _quad_vs_series(cfg, name, _T_AXIS, ("N[1]", "E[alpha]"), *scanned, 0.05)


def _custom(cfg: ScenarioConfig, name: str, scanned):
    """Counters, coefficients, and linear-response fluxes on a user grid."""
    t_grid = _grid(cfg, "t_grid")
    (n, e), coeffs = scanned
    block = transport.OnsagerBlock.from_derivatives(coeffs, cfg.temperature)
    flux = transport.fluxes(block, cfg.delta_mu, cfg.delta_t)
    headers = ("t[1/alpha]", "N[1]", "E[alpha]", "Q[alpha]") + _J_HEADERS + (
        "flux_N[1]", "flux_Q[alpha]")
    return headers, (t_grid, n, e, e - cfg.mu * n) + block.columns + (
        flux.j_particle, flux.j_heat), ()


def _linspace(a: float, b: float, n: int) -> tuple:
    # stored as a config stores a grid; np.asarray gives back the same floats
    return tuple(np.linspace(a, b, n).tolist())


_ENTROPY_T_GRID = _linspace(0.0, 20.0, 401)
_ENTROPY_PINS = {"n_eq": 0.5, "delta_n": 0.1, "t_grid": _ENTROPY_T_GRID}

# id -> (build, (panel key, its default values) or None, pins)
SCENARIOS = {
    "ons1": (_scanned(_onsager(_MU_AXIS), _ONSAGER, _mu_points), ("temperature", (0.1, 0.5)),
             {"mu_grid": _linspace(-4.0, 4.0, 161)}),
    "onsevo1": (_scanned(_onsager(_T_AXIS), _ONSAGER, _time_points), ("mu", (0.0, 1.0, 1.9)),
                {"temperature": 0.005, "dephasing": 0.05,
                 "t_grid": _linspace(0.0, 40.0, 81)}),
    "onsevo2": (_scanned(_onsager(_T_AXIS), _ONSAGER, _time_points), ("dephasing", (0.05, 0.0)),
                {"temperature": 0.1, "t_grid": _linspace(0.0, 60.0, 121)}),
    "entroevo": (_each(_entroevo), ("dephasing", (0.2, 0.0)),
                 {"n_eq": 0.1, "delta_n": 0.01, "t_grid": _ENTROPY_T_GRID}),
    "entroprod": (_each(_entropy_columns(("S_AB[k_B]", "joint_entropy"),
                                         ("S_AB_exact[k_B]", "joint_entropy_exact"),
                                         ("Pi[k_B*alpha]", "entropy_production"))),
                  ("dephasing", (0.2, 0.0)), _ENTROPY_PINS),
    "mutint": (_each(_entropy_columns(("I[k_B]", "mutual_information"),
                                      ("I_exact[k_B]", "mutual_information_exact"))),
               ("dephasing", (0.2, 0.0)), _ENTROPY_PINS),
    "onsteste1": (_scanned(_onsteste1, _ONSAGER, _sommerfeld_mu_points),
                  ("temperature", (0.1, 0.25)), {"mu_grid": _linspace(-1.5, 1.5, 61)}),
    "onsteste2": (_scanned(_onsteste2, (transport._counter_kernels,), _time_points,
                           closedforms._fd_counters),
                  ("mu", (0.0, 1.0)), {"temperature": 0.1, "dephasing": 0.35,
                                       "t_grid": _linspace(0.0, 10.0, 41)}),
    "custom": (_scanned(_custom, (transport._counter_kernels, transport._onsager_kernels),
                        _time_points), None, {}),
}

_PANEL_PREFIX = {"temperature": "T", "mu": "mu", "dephasing": "lam"}
# the config keys a build runs at, which all its panels share
_BUILD_KEYS = ("scenario", "g", "tol", "stats")


@_takes(cfg=_scalar(ScenarioConfig))
def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    cfg = _resolve(cfg)
    panels = SCENARIOS[cfg.scenario][1]
    if panels is None:
        return _run_panels([(cfg, "")])
    key, defaults = panels
    values = (getattr(cfg, key),) if key in cfg.explicit else defaults
    return _run_panels([(replace(cfg, **{key: v}), _PANEL_PREFIX[key] + _tag(v))
                        for v in values])


def _run_panels(runs) -> ScenarioResult:
    """One scenario build of the (cfg, name) panels of ``runs``: resolved
    configs that share each ``_BUILD_KEYS`` key, the first that differs named."""
    _require("scenario runs", runs, bool(runs), "hold at least one panel", ConfigError)
    cfg = runs[0][0]
    for key in _BUILD_KEYS:
        if any(getattr(c, key) != getattr(cfg, key) for c, _ in runs):
            raise ConfigError("the panels of one build differ in config field '%s'" % key)
    for panel_cfg, _ in runs:
        _check_split(panel_cfg)
    built = SCENARIOS[cfg.scenario][0](runs)
    panels = tuple(Panel(name, headers, columns)
                   for (_, name), (headers, columns, _) in zip(runs, built))
    return ScenarioResult(cfg.scenario, panels, tuple(r for *_, rs in built for r in rs))
