"""Every export keeps one input contract: a finite result or a named error.

The walk covers every name the package exports, as ``test_api_surface.py``
parses them.  Each callable export has one registered valid call in
``CALLS``; result records, which the package builds from checked inputs, are
exempt by name in ``RECORDS``, and exception classes and constants take no
input.  An export with neither fails the walk.

For each registered call a derandomized hypothesis run replaces one numeric
argument at a time with NaN, +-inf, 1e308, -1 or 0.  The call must then
either return a result whose numbers are all finite, or raise a ValueError
whose message names the argument it was given (the messages call ``t``
"time").  The package's budget errors, ``QuadratureError`` and
``IntegrationError``, are allowed too, and ``INFINITIES`` lists the exact
infinities a result may hold.  Every warning is an error here, so a numpy
RuntimeWarning on the way to a NaN fails the test.

Every row of ``lattice._REACH`` is probed through an export at its last
values inside (a finite result), its first values outside (the row's error,
naming the argument) and interior points, and README must quote its limits.
"""

import ast
import dataclasses
import inspect
import math
import numbers
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermichain as fc
from fermichain.lattice import _REACH
from test_api_surface import ROOT, _exported_names

RES = fc.ReservoirParams(0.1, 0.3)
DILUTE = fc.ReservoirParams(0.5, -3.0)  # inside the Boltzmann regime
MODE = fc.ModeSpec(-0.9, 0.8, 0.1)
PREP = fc.EquilibriumModePrep(0.4, 0.1, 0.8, 0.1)
BAND = (2.0, RES, 0.1, 1.0, 1e-8, fc.STATS_FD)
BLOCK = fc.OnsagerBlock(0.1, 0.02, 0.03, 0.2, 0.1)
RES_BATCH = fc.ReservoirParams(np.array([0.1, 0.2]), 0.3)


def _call(*args, **kwargs):
    return args, kwargs


# export -> one valid call, run with a temporary directory as the cwd
CALLS = {
    "ModeSpec": _call(-0.9, 0.8, 0.1),
    "ReservoirParams": _call(0.1, 0.3),
    "band_gap_ev": _call(10, 300.0),
    "boltzmann_validity": _call(1, RES),
    "dispersion": _call(1.0),
    "log_occupation_fd": _call(0.5, RES),
    "log_vacancy_fd": _call(0.5, RES),
    "occupation_boltzmann": _call(-1.0, DILUTE),
    "occupation_fd": _call(0.5, RES),
    "coherence_ab": _call(MODE, 0.7, 0.2, 1.5),
    "density_matrix": _call(MODE, RES, DILUTE, 1.5),
    "density_matrix_from_occupations": _call(MODE, 0.7, 0.2, 1.5),
    "lindblad_trajectory": _call(MODE, RES, DILUTE, [0.0, 0.1], 0.01),
    "occ_a": _call(MODE, 0.7, 0.2, 1.5),
    "occ_b": _call(MODE, 0.7, 0.2, 1.5),
    "OnsagerBlock": _call(0.1, 0.02, 0.03, 0.2, 0.1),
    "counters": _call(*BAND),
    "nbar": _call(*BAND),
    "ebar": _call(*BAND),
    "qbar": _call(*BAND),
    "onsager": _call(*BAND),
    "fluxes": _call(BLOCK, 0.01, 0.002),
    "integrate_interval": _call(lambda x: (np.sin(x),), 0.0, 1.0, 1e-8, 1),
    "SpecialFnTable": _call(3, 2.5),
    "bessel_i": _call(2, 2.5),
    "bessel_j": _call(2, 2.5),
    "nbar_boltzmann_closed": _call(2.0, DILUTE, 0.1, 1.0),
    "ebar_boltzmann_closed": _call(2.0, DILUTE, 0.1, 1.0),
    "nbar_fd_sommerfeld": _call(2.0, RES, 0.1, 1.0),
    "ebar_fd_sommerfeld": _call(2.0, RES, 0.1, 1.0),
    "equilibrium_sommerfeld_onsager": _call(RES),
    "omega": _call(0, 2.0, 3.0),
    "omega_defining_integral": _call(1, 2.0, 3.0),
    "EquilibriumModePrep": _call(0.4, 0.1, 0.8, 0.1),
    "binary_entropy": _call(0.3),
    "entropy_coeffs": _call(PREP, 1.5),
    "mutual_information": _call(PREP, 1.5),
    "joint_entropy": _call(PREP, 1.5),
    "entropy_production": _call(PREP, 1.5),
    "entropy_production_integral": _call(PREP),
    "entropy_sum_rate": _call(PREP, 1.5),
    "mutual_information_rate": _call(PREP, 1.5),
    "joint_spectrum": _call(PREP, 1.5),
    "joint_entropy_exact": _call(PREP, 1.5),
    "entropy_a_exact": _call(PREP, 1.5),
    "entropy_b_exact": _call(PREP, 1.5),
    "mutual_information_exact": _call(PREP, 1.5),
    "affinities": _call(RES, DILUTE),
    "exchange_prob": _call("a_to_b", MODE, RES, DILUTE, 1.5),
    "ft_log_ratio": _call(MODE, RES, DILUTE, 1.5),
    # a one-mode batch, so that delta_n_a = 1 is a number the walk replaces
    "multi_mode_ft": _call(fc.ModeSpec(-0.9, 0.8, np.array([0.1])), 1, RES, DILUTE, 1.5),
    "transition_weight": _call(MODE, 1.5),
    "ScenarioConfig": _call("custom", temperature=0.1, mu=0.0, dephasing=0.05, g=1.0,
                            tol=1e-10, sig_digits=12, delta_t=0.0, delta_mu=0.0,
                            n_eq=0.5, delta_n=0.1),
    "parse_config": _call({"scenario": "entroprod"}),
    "run_scenario": _call(fc.ScenarioConfig("entroprod")),
    "write_result": _call(fc.ScenarioResult("s", (fc.Panel("", ("x",), ((0.5,),)),)),
                          "out", 12),
    "run_acceptance": _call("c1", None, lambda line: None),
}

# result records: the package builds them from inputs it has already checked
RECORDS = {"Affinities", "BoltzmannValidity", "ComparisonReport", "FtCheck",
           "ModeEntropyBreakdown", "Panel", "ParticleHeatFlux", "ScenarioResult",
           "SeriesResult"}

# documented infinities: (export, argument, value) whose result may hold an
# infinity.  A level at energy +-inf is exactly empty or exactly full, so its
# log occupation (or log vacancy) is exactly -inf, and at energy 1e308 the
# log occupation -(eps - mu)/T = -1e309 rounds to -inf; a mode keeps its
# energy as given.  t = inf needs no entry: it gives the finite damped limit.
INFINITIES = {
    ("log_occupation_fd", "energy", math.inf),
    ("log_occupation_fd", "energy", 1e308),
    ("log_vacancy_fd", "energy", -math.inf),
    ("ModeSpec", "energy", math.inf),
    ("ModeSpec", "energy", -math.inf),
}

# the name a message uses for an argument, where it is not the argument's own
SPOKEN = {"t": "time"}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _numbers(value) -> list:
    """Every number in a result, through records, containers and arrays."""
    if _is_number(value) or isinstance(value, complex):
        return [complex(value).real, complex(value).imag]
    if isinstance(value, np.ndarray):
        return list(value.real.ravel()) + list(np.imag(value).ravel())
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in _numbers(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _numbers(v)]
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if hasattr(value, "__dict__") and not callable(value):
        return _numbers(vars(value))
    return []


def _outcome(fn, bound) -> str | None:
    """None when the call keeps the contract; otherwise what went wrong."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = fn(*bound.args, **bound.kwargs)
        except (fc.QuadratureError, fc.IntegrationError):
            return None
        except ValueError as exc:
            return "ValueError: %s" % exc
    bad = [x for x in _numbers(result) if not math.isfinite(x)]
    return "non-finite result %r" % (bad[:3],) if bad else None


def _names(message: str, arg: str) -> bool:
    return any(re.search(r"\b%s\b" % re.escape(word), message)
               for word in (arg, SPOKEN.get(arg, arg)))


def _bad_values(valid) -> list:
    return [math.nan, math.inf, -math.inf, 1e308, type(valid)(-1), type(valid)(0)]


def _bound(name):
    fn = getattr(fc, name)
    args, kwargs = CALLS[name]
    return fn, inspect.signature(fn).bind(*args, **kwargs)


def test_every_export_has_a_registered_call_or_is_a_record():
    names = _exported_names()
    takes_input = {n for n in names if callable(getattr(fc, n))
                   and not (inspect.isclass(getattr(fc, n))
                            and issubclass(getattr(fc, n), BaseException))}
    assert "occupation_fd" in takes_input  # the walk found the functions
    unregistered = sorted(takes_input - set(CALLS) - RECORDS)
    assert not unregistered, "export without a registered call: %s" % unregistered
    stale = sorted((set(CALLS) | RECORDS) - takes_input)
    assert not stale, "registered, but not an export that takes input: %s" % stale


@pytest.mark.parametrize("name", sorted(CALLS))
def test_export_keeps_the_input_contract(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fn, valid = _bound(name)
    assert _outcome(fn, valid) is None  # the registered call itself is valid
    numeric = [(arg, value) for arg, value in valid.arguments.items()
               if _is_number(value)]
    if not numeric:
        return
    cases = [(arg, bad) for arg, value in numeric for bad in _bad_values(value)]
    seen = set()

    @settings(max_examples=4 * len(cases), deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(cases))
    def one_argument_at_a_time(case):
        arg, bad = case
        seen.add((arg, repr(bad)))
        bound = inspect.signature(fn).bind(*valid.args, **valid.kwargs)
        bound.arguments[arg] = bad
        outcome = _outcome(fn, bound)
        if outcome is None or (name, arg, bad) in INFINITIES:
            return
        assert outcome.startswith("ValueError") and _names(outcome, arg), (
            "%s(%s=%r): %s" % (name, arg, bad, outcome))

    one_argument_at_a_time()
    assert len(seen) == len({(arg, repr(bad)) for arg, bad in cases})


# (argument the error must name, call): each of these used to return NaN or
# inf, or raise a misleading or raw error
PROBES = {
    "occupation_fd(nan)": ("energy", lambda: fc.occupation_fd(math.nan, RES)),
    "occupation_boltzmann(nan)": ("energy", lambda: fc.occupation_boltzmann(math.nan, RES)),
    "log_occupation_fd(nan)": ("energy", lambda: fc.log_occupation_fd(math.nan, RES)),
    "log_vacancy_fd(nan)": ("energy", lambda: fc.log_vacancy_fd(math.nan, RES)),
    "fluxes(delta_mu=nan)": ("delta_mu", lambda: fc.fluxes(BLOCK, math.nan, 0.0)),
    "fluxes(delta_t=inf)": ("delta_t", lambda: fc.fluxes(BLOCK, 0.0, math.inf)),
    "bessel_i(y=nan)": ("y", lambda: fc.bessel_i(0, math.nan)),
    "band_gap_ev(T=nan)": ("temperature_kelvin", lambda: fc.band_gap_ev(3, math.nan)),
    "band_gap_ev(T=inf)": ("temperature_kelvin", lambda: fc.band_gap_ev(3, math.inf)),
    "boltzmann_validity(m=nan)": ("m", lambda: fc.boltzmann_validity(math.nan, RES)),
    "OnsagerBlock(j_n_mu=nan)": ("j_n_mu", lambda: fc.OnsagerBlock(math.nan, 0, 0, 0, 0.1)),
    # fluxes took such a block and returned a number
    "OnsagerBlock(T=-1)": ("temperature", lambda: fc.OnsagerBlock(0.1, 0, 0, 0, -1.0)),
    # omega raised a series-budget error, a raw OverflowError or a RuntimeWarning
    "omega(x=nan)": ("x", lambda: fc.omega(0, math.nan, 1.0)),
    "omega(y=nan)": ("y", lambda: fc.omega(0, 1.0, math.nan)),
    "omega(x=inf)": ("x", lambda: fc.omega(0, math.inf, 1.0)),
    "omega(y=inf)": ("y", lambda: fc.omega(0, 1.0, math.inf)),
    # "cannot convert float NaN to integer"
    "bessel_j(x=nan)": ("x", lambda: fc.bessel_j(0, math.nan)),
    "SpecialFnTable(x=nan)": ("x_bessel_j", lambda: fc.SpecialFnTable(3, math.nan)),
    # "phase 2 g t overflows", as if g were finite
    "nbar_boltzmann_closed(g=nan)":
        ("coupling", lambda: fc.nbar_boltzmann_closed(2.0, DILUTE, 0.1, math.nan)),
    "nbar_fd_sommerfeld(g=nan)":
        ("coupling", lambda: fc.nbar_fd_sommerfeld(2.0, RES, 0.1, math.nan)),
    # -inf and inf with only a RegimeWarning: exp(mu/T) I_0(2/T) overflows
    "nbar_boltzmann_closed(T=0.02, mu=13)":
        ("temperature", lambda: fc.nbar_boltzmann_closed(1.0, fc.ReservoirParams(0.02, 13.0),
                                                         0.1, 1.0)),
    "ebar_boltzmann_closed(T=0.02, mu=13)":
        ("temperature", lambda: fc.ebar_boltzmann_closed(1.0, fc.ReservoirParams(0.02, 13.0),
                                                         0.1, 1.0)),
    # spent 65,536 panels, then reported "achieved nan"
    "integrate_interval(a=nan)":
        ("a", lambda: fc.integrate_interval(lambda x: (np.sin(x),), math.nan, 1.0)),
    # accepted until a panel ran
    "ScenarioConfig(temperature=nan)":
        ("temperature", lambda: fc.ScenarioConfig(scenario="custom", temperature=math.nan)),
    # a tolerance below the floor spent all 65,536 panels (about 0.2 s) before failing
    "nbar(tol=1e-300)": ("tol", lambda: fc.nbar(10.0, RES, 0.1, 1.0, 1e-300)),
    # numpy's "truth value of an array is ambiguous" before
    "nbar(tol=[1e-10, 1e-9])":
        ("tol", lambda: fc.nbar(1.0, RES, 0.1, 1.0, np.array([1e-10, 1e-9]))),
    # a reservoir batch is valid, but each consumer of one (T, mu) names the
    # batch's field: numpy's "ambiguous", or the scan's unhashable TypeError
    "counters(res=batch)": ("temperature", lambda: fc.counters(1.0, RES_BATCH, 0.1, 1.0)),
    "nbar_boltzmann_closed(res=batch)":
        ("mu", lambda: fc.nbar_boltzmann_closed(
            1.0, fc.ReservoirParams(0.5, np.array([-3.0, -2.5])), 0.1, 1.0)),
    "nbar_fd_sommerfeld(res=batch)":
        ("mu", lambda: fc.nbar_fd_sommerfeld(1.0, fc.ReservoirParams(0.1, np.array([0.1, 0.2])),
                                             0.1, 1.0)),
    "lindblad_trajectory(res=batch)":
        ("temperature", lambda: fc.lindblad_trajectory(MODE, RES, RES_BATCH, [1.5])),
    "boltzmann_validity(res=batch)": ("temperature", lambda: fc.boltzmann_validity(1, RES_BATCH)),
    # paired each reservoir of a (2,) batch with one of the two events, silently
    "multi_mode_ft(res=batch)":
        ("temperature", lambda: fc.multi_mode_ft(fc.ModeSpec(-0.9, 0.8, np.full(2, 0.1)),
                                                 [1, 1], RES_BATCH, RES, 1.5)),
    # fields that do not broadcast: the error lists each field's shape
    "ReservoirParams(temperature=[0.1, 0.2], mu=[0, 0.1, 0.2])":
        ("temperature", lambda: fc.ReservoirParams(np.array([0.1, 0.2]), np.zeros(3))),
    # the direct quadrature covers omega's range and stops where omega does
    "omega_defining_integral(x=20001)":
        ("x", lambda: fc.omega_defining_integral(0, 20001.0, 1.0)),
    # batches of modes: one bad entry of an array is named like a bad scalar
    "ModeSpec(energy=[0, nan])":
        ("energy", lambda: fc.ModeSpec(np.array([0.0, math.nan]), np.array([1.0, 1.0]), 0.1)),
    "ModeSpec(coupling=[1, nan])":
        ("coupling", lambda: fc.ModeSpec(0.0, np.array([1.0, math.nan]), 0.1)),
    "ModeSpec(dephasing=[0.1, -1])":
        ("dephasing", lambda: fc.ModeSpec(0.0, np.array([1.0, 2.0]), np.array([0.1, -1.0]))),
    "occ_a(n_a0=[0.2, nan])":
        ("n_a0", lambda: fc.occ_a(MODE, np.array([0.2, math.nan]), 0.3, 1.5)),
    "occ_b(n_b0=[0.2, 1.5])":
        ("n_b0", lambda: fc.occ_b(MODE, 0.7, np.array([0.2, 1.5]), 1.5)),
    "occ_a(t=[1, nan], batch)":
        ("t", lambda: fc.occ_a(fc.ModeSpec(0.0, np.array([1.0, 2.0]), np.array([0.1, 0.2])),
                               np.array([0.7, 0.6]), np.array([0.2, 0.1]),
                               np.array([1.0, math.nan]))),
    "density_matrix(t=[1, nan], batch)":
        ("t", lambda: fc.density_matrix(fc.ModeSpec(0.0, np.array([[1.0], [2.0]]), 0.1),
                                        RES, RES, np.array([1.0, math.nan]))),
    # the stepper takes one ModeSpec: vars() raised a raw TypeError on these
    "lindblad_trajectory(mode=None)":
        ("mode", lambda: fc.lindblad_trajectory(None, RES, RES, [1.5])),
    "lindblad_trajectory(mode=[(0, 1, 0.1)])":
        ("mode", lambda: fc.lindblad_trajectory([(0.0, 1.0, 0.1)], RES, RES, [1.5])),
    "lindblad_trajectory(empty batch)":
        ("mode", lambda: fc.lindblad_trajectory(fc.ModeSpec(0.0, np.empty(0)), RES, RES,
                                                [1.5])),
    # ExchangeEvent raised numpy's "ambiguous" or "inhomogeneous shape", or
    # took a tuple that then failed with AttributeError
    "multi_mode_ft(delta_n_a=[1, 0])":
        ("delta_n_a", lambda: fc.multi_mode_ft(fc.ModeSpec(np.zeros(2), 1.0), [1, 0], RES,
                                               DILUTE, 1.5)),
    "multi_mode_ft(mode=(0, 1, 0.1))":
        ("mode", lambda: fc.multi_mode_ft((0.0, 1.0, 0.1), [1], RES, DILUTE, 1.5)),
    "multi_mode_ft(mode (3,), delta_n_a (2,))":
        ("delta_n_a", lambda: fc.multi_mode_ft(fc.ModeSpec(np.zeros(3), 1.0), [1, -1], RES,
                                               DILUTE, 1.5)),
    # arguments that do not broadcast: numpy's "operands could not be
    # broadcast together" or "shape mismatch" before
    "density_matrix(res_a (2,), mode (3,))":
        ("temperature", lambda: fc.density_matrix(fc.ModeSpec(np.zeros(3), 1.0, 0.1),
                                                  fc.ReservoirParams(np.array([0.1, 0.2])),
                                                  RES, 1.0)),
    "occupation_fd(energy (3,), temperature (2,))":
        ("energy", lambda: fc.occupation_fd(np.zeros(3), fc.ReservoirParams(np.array([0.1, 0.2])))),
    "exchange_prob(mode (3,), t (2,))":
        ("t", lambda: fc.exchange_prob("a_to_b", fc.ModeSpec(np.zeros(3), 1.0, 0.1), RES,
                                       DILUTE, np.ones(2))),
    "ft_log_ratio(mode (3,), t (2,))":
        ("t", lambda: fc.ft_log_ratio(fc.ModeSpec(np.zeros(3), 1.0, 0.1), RES, DILUTE,
                                      np.ones(2))),
    # returned 2 values for a 3-mode batch: the energy enters no closed form
    "occ_a(mode (3,), n_a0 (2,))":
        ("n_a0", lambda: fc.occ_a(fc.ModeSpec(np.zeros(3), 1.0, 0.1), np.full(2, 0.3), 0.6,
                                  1.0)),
    # a raw TypeError: "only 0-dimensional arrays can be converted"
    "ModeSpec.from_momentum(k (2,), g (3,))":
        ("g", lambda: fc.ModeSpec.from_momentum(np.array([0.8, 1.7]), np.ones(3))),
    # returned 0.6931 for the string
    "binary_entropy(p='0.5')": ("p", lambda: fc.binary_entropy("0.5")),
    "coherence_ab(n_a0=[-1, 0.5])":
        ("n_a0", lambda: fc.coherence_ab(MODE, np.array([-1.0, 0.5]), 0.3, 1.5)),
    # one mode: joint_entropy and entropy_production returned one value where
    # mutual_information returned one per coupling
    "EquilibriumModePrep(coupling=[0.8, 1, 1.2])":
        ("coupling", lambda: fc.EquilibriumModePrep(0.4, 0.1, np.array([0.8, 1.0, 1.2]), 0.1)),
    "EquilibriumModePrep(n_eq=[0.4, 0.5])":
        ("n_eq", lambda: fc.EquilibriumModePrep(np.array([0.4, 0.5]), 0.1, 0.8, 0.1)),
    # a batched block is at one temperature: fluxes raised numpy's "ambiguous"
    "OnsagerBlock(temperature=[0.1, 0.2])":
        ("temperature", lambda: fc.OnsagerBlock(1.0, 1.0, 1.0, 1.0, np.array([0.1, 0.2]))),
    # arguments that stay one scalar: numpy's "only 0-dimensional arrays" TypeError
    "omega(y=[1, 2])": ("y", lambda: fc.omega(0, 1.0, np.array([1.0, 2.0]))),
    "omega(nu=[0, 1])": ("nu", lambda: fc.omega(np.array([0, 1]), 1.0, 1.0)),
    "nbar_boltzmann_closed(dephasing=[0.1, 0.2])":
        ("dephasing", lambda: fc.nbar_boltzmann_closed(2.0, DILUTE, np.array([0.1, 0.2]), 1.0)),
    "nbar_boltzmann_closed(g=[1, 2])":
        ("g", lambda: fc.nbar_boltzmann_closed(2.0, DILUTE, 0.1, np.array([1.0, 2.0]))),
    "ebar_boltzmann_closed(dephasing=[0.1, 0.2])":
        ("dephasing", lambda: fc.ebar_boltzmann_closed(2.0, DILUTE, np.array([0.1, 0.2]), 1.0)),
    "ebar_boltzmann_closed(g=[1, 2])":
        ("g", lambda: fc.ebar_boltzmann_closed(2.0, DILUTE, 0.1, np.array([1.0, 2.0]))),
    "ebar_boltzmann_closed(res=batch)":
        ("temperature", lambda: fc.ebar_boltzmann_closed(
            1.0, fc.ReservoirParams(np.array([0.5, 0.4]), -3.0), 0.1, 1.0)),
    "bessel_j(x=[1, 2])": ("x", lambda: fc.bessel_j(2, np.array([1.0, 2.0]))),
    "bessel_i(y=[1, 2])": ("y", lambda: fc.bessel_i(2, np.array([1.0, 2.0]))),
    "nbar_fd_sommerfeld(dephasing=[0.1, 0.2])":
        ("dephasing", lambda: fc.nbar_fd_sommerfeld(2.0, RES, np.array([0.1, 0.2]), 1.0)),
    "nbar_fd_sommerfeld(g=[1, 2])":
        ("g", lambda: fc.nbar_fd_sommerfeld(2.0, RES, 0.1, np.array([1.0, 2.0]))),
    "ebar_fd_sommerfeld(dephasing=[0.1, 0.2])":
        ("dephasing", lambda: fc.ebar_fd_sommerfeld(2.0, RES, np.array([0.1, 0.2]), 1.0)),
    "ebar_fd_sommerfeld(g=[1, 2])":
        ("g", lambda: fc.ebar_fd_sommerfeld(2.0, RES, 0.1, np.array([1.0, 2.0]))),
    # a number given as a string: stored as the str, or cast and accepted
    "ReservoirParams(temperature='0.1')":
        ("temperature", lambda: fc.ReservoirParams("0.1", 0.0)),
    "ModeSpec(coupling='1')": ("coupling", lambda: fc.ModeSpec(0.0, "1", 0.1)),
    "OnsagerBlock(j_n_mu='1')":
        ("j_n_mu", lambda: fc.OnsagerBlock("1", 1.0, 1.0, 1.0, 0.1)),
    "counters(t='2')": ("t", lambda: fc.counters("2", RES, 0.1, 1.0)),
    "occ_a(t='1.5')": ("t", lambda: fc.occ_a(MODE, 0.7, 0.2, "1.5")),
    "occupation_fd(energy='0.5')": ("energy", lambda: fc.occupation_fd("0.5", RES)),
    "log_occupation_fd(energy='0.5')": ("energy", lambda: fc.log_occupation_fd("0.5", RES)),
    # numpy's raw "ufunc 'isnan' not supported" TypeError
    "ModeSpec(energy='0')": ("energy", lambda: fc.ModeSpec("0", 1.0, 0.1)),
    # a raw TypeError from float()
    "counters(t=None)": ("t", lambda: fc.counters(None, RES, 0.1, 1.0)),
    "counters(dephasing=None)": ("dephasing", lambda: fc.counters(1.0, RES, None, 1.0)),
    "nbar_boltzmann_closed(g=None)":
        ("coupling", lambda: fc.nbar_boltzmann_closed(1.0, DILUTE, 0.1, None)),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_case_raises_a_value_error_naming_its_argument(probe):
    arg, call = PROBES[probe]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert _names(str(exc.value), arg), str(exc.value)


# every declared reach of lattice._REACH, probed at its edges through exports

def _ones(x):
    return (np.ones_like(x),)


def _edges(row, ends="lo hi", outside_too=()):
    """(inside, outside, interior) of a _REACH row: its last values inside at
    the given ends, their first neighbours outside, and a strategy that draws
    from the whole reach."""
    reach = _REACH[row]
    integer = isinstance(reach.last, int)
    inside, outside = [], list(outside_too)
    for end, value, away in (("lo", reach.first, -1), ("hi", reach.last, 1)):
        if end in ends:
            inside.append(value)
            outside.append(value + away if integer else math.nextafter(value, away * math.inf))
    lo, hi = max(reach.first, -sys.float_info.max), min(reach.last, sys.float_info.max)
    return inside, outside, st.integers(int(lo), int(hi)) if integer else st.floats(lo, hi)


def _coldest_boltzmann_temperature(mu):
    """The least T inside the Boltzmann reach at this mu < 0, where the
    checked (max(mu, 0) + 2)/T is 2 beta."""
    last = _REACH["Boltzmann"].last
    temp = 2.0 / last
    while (max(mu, 0.0) + 2.0) * (1.0 / temp) > last:
        temp = math.nextafter(temp, math.inf)
    while (max(mu, 0.0) + 2.0) * (1.0 / math.nextafter(temp, 0.0)) <= last:
        temp = math.nextafter(temp, 0.0)
    return temp


_COLD = _coldest_boltzmann_temperature(-3.0)  # -3 keeps it dilute: no RegimeWarning

# (reach row, argument its error must name, call of one input, edges): every
# row through at least one export.  An end no input can cross (an infinite
# one, or |g| t = 0) is left out; g t and x/2 reach the J argument row
# through the closed forms, and the Boltzmann row is probed in T
REACH_PROBES = [
    ("temperature", "temperature", lambda v: fc.occupation_fd(0.5, fc.ReservoirParams(v)),
     _edges("temperature")),
    ("tol", "tol", lambda v: fc.integrate_interval(_ones, 0.0, 1.0, v), _edges("tol")),
    ("finite", "mu", lambda v: fc.occupation_fd(0.5, fc.ReservoirParams(0.1, v)),
     _edges("finite")),
    ("positive", "temperature_kelvin", lambda v: fc.band_gap_ev(1, v), _edges("positive")),
    ("dephasing rate", "dephasing",
     lambda v: fc.transition_weight(fc.ModeSpec(0.0, 1.0, v), 2.0), _edges("dephasing rate")),
    ("n_eq", "n_eq", lambda v: fc.joint_entropy(fc.EquilibriumModePrep(v, 0.0, 1.0), 1.0),
     _edges("n_eq")),
    ("occupation", "n_a0", lambda v: fc.occ_a(MODE, v, 0.5, 1.5), _edges("occupation")),
    ("momentum", "k", lambda v: fc.ModeSpec.from_momentum(v, 1.0, 0.1), _edges("momentum")),
    ("Bessel order", "n", lambda v: fc.bessel_j(v, 1.0), _edges("Bessel order")),
    ("J argument", "x", lambda v: fc.bessel_j(0, v), _edges("J argument")),
    ("J argument", "t",  # g t = t at g = +-1
     lambda v: fc.nbar_fd_sommerfeld(abs(v), RES, 0.0, math.copysign(1.0, v)),
     _edges("J argument")),
    ("J argument", "x", lambda v: fc.omega(0, 2.0 * v, 1.0), _edges("J argument")),
    ("I argument", "y", lambda v: fc.bessel_i(0, v), _edges("I argument")),
    ("omega nu", "nu", lambda v: fc.omega(v, 1.0, 1.0), _edges("omega nu")),
    ("omega y", "y", lambda v: fc.omega(0, 1.0, v), _edges("omega y")),
    ("Boltzmann", "temperature",
     lambda v: fc.nbar_boltzmann_closed(1.0, fc.ReservoirParams(v, -3.0), 0.1, 1.0),
     ([_COLD], [math.nextafter(_COLD, 0.0)], st.floats(_COLD, 0.8))),
    ("Boltzmann occupation", "energy",
     lambda v: fc.occupation_boltzmann(-v, fc.ReservoirParams(1.0, 0.0)),
     _edges("Boltzmann occupation", "hi")),
    ("Sommerfeld mu", "mu",
     lambda v: fc.equilibrium_sommerfeld_onsager(fc.ReservoirParams(1e-9, v)),
     _edges("Sommerfeld mu")),
    ("band g t", "t", lambda v: fc.nbar(v, RES, 0.0, 1.0), _edges("band g t", "hi")),
    # 10**400 used to need its own formatting to stay out of float overflow
    ("first level", "min_panels", lambda v: fc.integrate_interval(_ones, 0.0, 1.0, 1e-8, v),
     _edges("first level", "hi", outside_too=[10 ** 400])),
]
_PROBE_IDS = ["%s-%d" % (probe[0].replace(" ", "_"), i) for i, probe in enumerate(REACH_PROBES)]


def _finite_call(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = [x for x in _numbers(call(value)) if not math.isfinite(x)]
    assert not bad, "%r: %r" % (value, bad[:3])


def test_every_reach_has_an_edge_probe():
    assert {probe[0] for probe in REACH_PROBES} == set(_REACH)


@pytest.mark.parametrize("probe", REACH_PROBES, ids=_PROBE_IDS)
def test_the_last_values_inside_a_reach_give_finite_numbers(probe):
    _, _, call, (inside, _, _) = probe
    assert inside
    for value in inside:
        _finite_call(call, value)


@pytest.mark.parametrize("probe", REACH_PROBES, ids=_PROBE_IDS)
def test_the_first_values_outside_a_reach_raise_its_error_by_name(probe):
    row, arg, call, (_, outside, _) = probe
    for value in outside:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(_REACH[row].error) as exc:
                call(value)
        assert _names(str(exc.value), arg) and len(str(exc.value)) < 300, str(exc.value)


@pytest.mark.parametrize("probe", REACH_PROBES, ids=_PROBE_IDS)
def test_interior_points_of_a_reach_give_finite_numbers(probe):
    _, _, call, (_, _, interior) = probe

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(interior)
    def inside(value):
        _finite_call(call, value)

    inside()


def test_readme_quotes_every_reach():
    # README's tables quote each row's limits as the messages word them
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = ["%s: %g" % (row, limit) for row, reach in _REACH.items()
               for limit in (reach.lo, reach.hi) if math.isfinite(limit)
               and not re.search(r"(?<![\w.])%s(?![\w.])" % re.escape("%g" % limit), readme)]
    assert not missing, "README does not show %s" % ", ".join(missing)


# every export that returns one number per input: a scalar call gives a
# plain Python float (complex for the coherence), each entry of a batch the same
SCALAR_RESULTS = {
    "dispersion": lambda: fc.dispersion(1.0),
    "occupation_fd": lambda: fc.occupation_fd(0.5, RES),
    "log_occupation_fd": lambda: fc.log_occupation_fd(0.5, RES),
    "log_vacancy_fd": lambda: fc.log_vacancy_fd(0.5, RES),
    "occupation_boltzmann": lambda: fc.occupation_boltzmann(-1.0, DILUTE),
    "occ_a": lambda: fc.occ_a(MODE, 0.7, 0.2, 1.5),
    "occ_b": lambda: fc.occ_b(MODE, 0.7, 0.2, 1.5),
    "coherence_ab": lambda: fc.coherence_ab(MODE, 0.7, 0.2, 1.5),
    "binary_entropy": lambda: fc.binary_entropy(0.3),
    "mutual_information": lambda: fc.mutual_information(PREP, 1.5),
    "joint_entropy": lambda: fc.joint_entropy(PREP, 1.5),
    "entropy_production": lambda: fc.entropy_production(PREP, 1.5),
    "entropy_sum_rate": lambda: fc.entropy_sum_rate(PREP, 1.5),
    "mutual_information_rate": lambda: fc.mutual_information_rate(PREP, 1.5),
    "joint_entropy_exact": lambda: fc.joint_entropy_exact(PREP, 1.5),
    "transition_weight": lambda: fc.transition_weight(MODE, 1.5),
    "ft_log_ratio.lhs": lambda: fc.ft_log_ratio(MODE, RES, DILUTE, 1.5).lhs,
    "ft_log_ratio.rhs": lambda: fc.ft_log_ratio(MODE, RES, DILUTE, 1.5).rhs,
    "nbar_boltzmann_closed": lambda: fc.nbar_boltzmann_closed(1.5, DILUTE, 0.1, 1.0),
    "ebar_boltzmann_closed": lambda: fc.ebar_boltzmann_closed(1.5, DILUTE, 0.1, 1.0),
}


@pytest.mark.parametrize("name", sorted(SCALAR_RESULTS))
def test_a_scalar_call_returns_a_plain_python_number(name):
    assert type(SCALAR_RESULTS[name]()) is (complex if name == "coherence_ab" else float)


# every export documented to broadcast, with the arguments whose shapes a draw
# picks: (arguments, call of their values, axes the result adds)
def _mode(v):
    return fc.ModeSpec(v["energy"], v["coupling"], v["dephasing"])


def _res(v, side=""):
    return fc.ReservoirParams(v["temperature" + side], v["mu" + side])


_MODE = ("energy", "coupling", "dephasing")
_PAIR = ("temperature", "mu", "temperature_b", "mu_b")
BROADCASTS = {
    "occupation_fd": (("energy", "temperature", "mu"),
                      lambda v: fc.occupation_fd(v["energy"], _res(v)), 0),
    "log_occupation_fd": (("energy", "temperature", "mu"),
                          lambda v: fc.log_occupation_fd(v["energy"], _res(v)), 0),
    "log_vacancy_fd": (("energy", "temperature", "mu"),
                       lambda v: fc.log_vacancy_fd(v["energy"], _res(v)), 0),
    "occupation_boltzmann": (("energy", "temperature", "mu"),
                             lambda v: fc.occupation_boltzmann(v["energy"], _res(v)), 0),
    "ModeSpec.from_momentum": (("k", "g", "dephasing"),
                               lambda v: fc.ModeSpec.from_momentum(v["k"], v["g"],
                                                                   v["dephasing"]), 0),
    "occ_a": (_MODE + ("n_a0", "n_b0", "t"),
              lambda v: fc.occ_a(_mode(v), v["n_a0"], v["n_b0"], v["t"]), 0),
    "occ_b": (_MODE + ("n_a0", "n_b0", "t"),
              lambda v: fc.occ_b(_mode(v), v["n_a0"], v["n_b0"], v["t"]), 0),
    "coherence_ab": (_MODE + ("n_a0", "n_b0", "t"),
                     lambda v: fc.coherence_ab(_mode(v), v["n_a0"], v["n_b0"], v["t"]), 0),
    "density_matrix_from_occupations": (
        _MODE + ("n_a0", "n_b0", "t"),
        lambda v: fc.density_matrix_from_occupations(_mode(v), v["n_a0"], v["n_b0"], v["t"]), 2),
    "density_matrix": (_MODE + _PAIR + ("t",),
                       lambda v: fc.density_matrix(_mode(v), _res(v), _res(v, "_b"), v["t"]), 2),
    "lindblad_trajectory": (_MODE, lambda v: fc.lindblad_trajectory(
        _mode(v), RES, DILUTE, [0.1], 0.05), 3),
    "transition_weight": (_MODE + ("t",), lambda v: fc.transition_weight(_mode(v), v["t"]), 0),
    "exchange_prob": (_MODE + _PAIR + ("t",), lambda v: fc.exchange_prob(
        "b_to_a", _mode(v), _res(v), _res(v, "_b"), v["t"]), 0),
    "ft_log_ratio": (_MODE + _PAIR + ("t",),
                     lambda v: fc.ft_log_ratio(_mode(v), _res(v), _res(v, "_b"), v["t"]), 0),
    "affinities": (_PAIR, lambda v: fc.affinities(_res(v), _res(v, "_b")), 0),
    "multi_mode_ft": (_MODE + ("delta_n_a",), lambda v: fc.multi_mode_ft(
        _mode(v), v["delta_n_a"], RES, DILUTE, 1.5), 0),
    "nbar_boltzmann_closed": (("t",), lambda v: fc.nbar_boltzmann_closed(v["t"], DILUTE, 0.1,
                                                                         1.0), 0),
    "ebar_boltzmann_closed": (("t",), lambda v: fc.ebar_boltzmann_closed(v["t"], DILUTE, 0.1,
                                                                         1.0), 0),
    "omega": (("x",), lambda v: fc.omega(1, v["x"], 3.0), 0),
}
_VALID = {"energy": -0.9, "coupling": 0.8, "dephasing": 0.1, "temperature": 0.5, "mu": 0.3,
          "temperature_b": 0.8, "mu_b": -0.2, "n_a0": 0.7, "n_b0": 0.2, "t": 1.5,
          "k": 1.0, "g": 1.0, "delta_n_a": -1, "x": 2.0}
# the names a message may give an argument, each naming one of the above
_SPOKEN_SHAPES = {"energy", "coupling", "dephasing", "temperature", "mu", "time", "n_a0",
                  "n_b0", "momentum k", "g", "delta_n_a", "mode at t", "mode energy",
                  "mode coupling", "mode dephasing", "res_a temperature", "res_a mu",
                  "res_b temperature", "res_b mu", "dephasing rate", "coupling g"}


def _shape_of(result, added: int) -> tuple:
    """A result's batch shape: an array's or number's without the axes the
    export adds, a record's the broadcast of its fields'."""
    if dataclasses.is_dataclass(result):
        return np.broadcast_shapes(*(np.shape(getattr(result, f.name))
                                     for f in dataclasses.fields(result)))
    shape = np.shape(result)
    return shape[:len(shape) - added]


@pytest.mark.parametrize("name", sorted(BROADCASTS))
def test_a_broadcasting_export_gives_the_broadcast_shape_or_names_the_clash(name):
    args, call, added = BROADCASTS[name]
    layouts = {"scalar": lambda n: (), "(n,)": lambda n: (n,), "(n, 1)": lambda n: (n, 1),
               "(n + 1,)": lambda n: (n + 1,)}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 3), picks=st.tuples(*(st.sampled_from(sorted(layouts))
                                                  for _ in args)))
    def one_draw(n, picks):
        shapes = [layouts[pick](n) for pick in picks]
        values = {arg: np.full(shape, _VALID[arg]) if shape else _VALID[arg]
                  for arg, shape in zip(args, shapes)}
        try:
            want = np.broadcast_shapes(*shapes)
        except ValueError:
            want = None
        if name == "multi_mode_ft" and want is not None:
            want = () if len(want) == 1 else None  # one sum over one 1-D batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is not None:
                assert _shape_of(call(values), added) == want
                return
            with pytest.raises(ValueError) as exc:
                call(values)
        message = str(exc.value)
        if name == "multi_mode_ft" and "one 1-D shape" in message:
            assert message.startswith("mode, t and delta_n_a must broadcast to one 1-D shape")
            return
        named, _, shown = message.partition(" must broadcast together, got ")
        shown = ast.literal_eval(shown)  # {argument: shape}, never numpy's own message
        assert named and set(shown) <= _SPOKEN_SHAPES, message
        with pytest.raises(ValueError):
            np.broadcast_shapes(*shown.values())  # the shapes listed do clash

    one_draw()
