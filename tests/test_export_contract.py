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
"""

import dataclasses
import inspect
import math
import numbers
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermichain as fc
from test_api_surface import _exported_names

RES = fc.ReservoirParams(0.1, 0.3)
DILUTE = fc.ReservoirParams(0.5, -3.0)  # inside the Boltzmann regime
MODE = fc.ModeSpec(-0.9, 0.8, 0.1)
PREP = fc.EquilibriumModePrep(0.4, 0.1, 0.8, 0.1)
BAND = (2.0, RES, 0.1, 1.0, 1e-8, fc.STATS_FD)
BLOCK = fc.OnsagerBlock(0.1, 0.02, 0.03, 0.2, 0.1)


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
    "density_matrix_from_occupations": _call(0.7, 0.2, 0.8, 0.1, 1.5),
    "lindblad_trajectory": _call(MODE, RES, DILUTE, [0.0, 0.1], 0.01),
    "occ_a": _call(MODE, 0.7, 0.2, 1.5),
    "occ_b": _call(MODE, 0.7, 0.2, 1.5),
    "OnsagerBlock": _call(0.1, 0.02, 0.03, 0.2, 0.1),
    "counters": _call(*BAND),
    "counters_and_onsager": _call(*BAND),
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
    "ExchangeEvent": _call(MODE, 1),
    "affinities": _call(RES, DILUTE),
    "exchange_prob": _call("a_to_b", MODE, RES, DILUTE, 1.5),
    "ft_log_ratio": _call(MODE, RES, DILUTE, 1.5),
    "multi_mode_ft": _call([fc.ExchangeEvent(MODE, 1)], RES, DILUTE, 1.5),
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
    # a reservoir is one (T, mu): numpy's "ambiguous" for T, a TypeError for mu
    "ReservoirParams(temperature=[0.1, 0.2])":
        ("temperature", lambda: fc.ReservoirParams(np.array([0.1, 0.2]))),
    "ReservoirParams(mu=[0.1, 0.2])":
        ("mu", lambda: fc.ReservoirParams(0.1, np.array([0.1, 0.2]))),
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
    # the stepper integrates one 4x4 state per mode: raw numpy errors otherwise
    "lindblad_trajectory(batched mode)":
        ("mode", lambda: fc.lindblad_trajectory([MODE, fc.ModeSpec(0.0, [1.0, 2.0], 0.1)],
                                                RES, RES, [1.5])),
    "coherence_ab(n_a0=[-1, 0.5])":
        ("n_a0", lambda: fc.coherence_ab(MODE, np.array([-1.0, 0.5]), 0.3, 1.5)),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_case_raises_a_value_error_naming_its_argument(probe):
    arg, call = PROBES[probe]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert _names(str(exc.value), arg), str(exc.value)
