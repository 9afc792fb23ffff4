"""Every export keeps one input contract: a finite result or a named error.

An export declares its arguments where it is defined: ``lattice._takes`` on
a function, a record's ``_contract`` on its fields.  Each ``lattice._Arg``
names the ``_REACH`` row, record class or choice the argument keeps, and
whether it is one scalar or joins the call's broadcast shape.  The probes
here are derived from those declarations: for every declared argument,
NaN, +-inf, the first values outside its reach, a string and None, an
array where a scalar is declared (or an array with a NaN entry where it
batches), and a shape that clashes with another batch argument, each of
which must raise the declared error naming the argument as it is spoken.
A scalar call must return plain Python numbers, and a broadcast call the
broadcast shape.  Hand tables hold only what a declaration cannot express:
one valid call per export (``CALLS``), the result records, the config's own
field table, and the checks of a value's regime past its declaration.

The walk covers every name the package exports, as ``test_api_surface.py``
parses them; a callable export that is not declared fails it.  For each
registered call a derandomized hypothesis run also replaces one numeric
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
    "ModeSpec.from_momentum": _call(1.0, 1.0, 0.1),
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
# checked by the config's own field table, scenarios._FIELDS, which raises
# ConfigError and takes JSON types only (test_scenarios holds it)
CONFIG = {"ScenarioConfig", "parse_config"}

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


def _export(name):
    """The export of a CALLS name: a package attribute, or a method of one."""
    head, _, method = name.partition(".")
    return getattr(getattr(fc, head), method) if method else getattr(fc, head)


def _bound(name):
    fn = _export(name)
    args, kwargs = CALLS[name]
    return fn, inspect.signature(fn).bind(*args, **kwargs)


def _contract(export) -> dict:
    """An export's declaration, parameter -> lattice._Arg: a function's or
    record's own, or a class's ``__init__``'s; empty when undeclared."""
    return getattr(export, "_contract", None) or getattr(
        getattr(export, "__init__", None), "_contract", None) or {}


def _takes_input() -> set:
    exports = {n: getattr(fc, n) for n in _exported_names()}
    return {n for n, e in exports.items() if callable(e)
            and not (inspect.isclass(e) and issubclass(e, BaseException))}


# every declared export with a registered call
DECLARED = sorted(name for name in CALLS if _contract(_export(name)))


def test_every_export_is_declared_and_has_a_registered_call_or_is_a_record():
    takes_input = _takes_input()
    assert "occupation_fd" in takes_input  # the walk found the functions
    undeclared = sorted(n for n in takes_input - RECORDS - CONFIG if not _contract(getattr(fc, n)))
    assert not undeclared, "export without a declared contract: %s" % undeclared
    unregistered = sorted(takes_input - set(CALLS) - RECORDS)
    assert not unregistered, "export without a registered call: %s" % unregistered
    stale = sorted(((set(CALLS) - {"ModeSpec.from_momentum"}) | RECORDS | CONFIG) - takes_input)
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


# (argument the error must name, call): checks past the declarations, of a
# value's regime or of a relation between arguments; each of these used to
# return NaN or inf, or raise a misleading or raw error
PROBES = {
    # -inf and inf with only a RegimeWarning: exp(mu/T) I_0(2/T) overflows
    "nbar_boltzmann_closed(T=0.02, mu=13)":
        ("temperature", lambda: fc.nbar_boltzmann_closed(1.0, fc.ReservoirParams(0.02, 13.0),
                                                         0.1, 1.0)),
    # spent 65,536 panels, then reported "achieved nan"
    "integrate_interval(a=nan)":
        ("a", lambda: fc.integrate_interval(lambda x: (np.sin(x),), math.nan, 1.0)),
    # accepted until a panel ran
    "ScenarioConfig(temperature=nan)":
        ("temperature", lambda: fc.ScenarioConfig(scenario="custom", temperature=math.nan)),
    "lindblad_trajectory(empty batch)":
        ("mode", lambda: fc.lindblad_trajectory(fc.ModeSpec(0.0, np.empty(0)), RES, RES,
                                                [1.5])),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_case_raises_a_value_error_naming_its_argument(probe):
    arg, call = PROBES[probe]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert _names(str(exc.value), arg), str(exc.value)


def _accepts(arg, value) -> bool:
    """Whether the declared rule takes value: a probe skips what it accepts."""
    if isinstance(arg.rule, str):
        reach = _REACH[arg.rule]
        number = isinstance(value, int) or (isinstance(value, float)
                                            and not isinstance(reach.last, int))
        return number and reach.first <= value <= reach.last
    return not isinstance(arg.rule, type) and arg.rule[1](value)


def _outside(arg) -> list:
    """The first values outside the declared reach, at each end it has."""
    reach = _REACH[arg.rule]
    step = (lambda v, away: v + away) if isinstance(reach.last, int) else (
        lambda v, away: math.nextafter(v, away * math.inf))
    ends = [step(reach.first, -1)] if reach.first > -math.inf else []
    ends += [step(reach.last, 1)] if reach.last < math.inf else []
    return ends


def _declared_probes(name) -> list:
    """(argument, value, error class, message start) of every probe that the
    declaration of the export CALLS names derives, one argument at a time."""
    fn, valid = _bound(name)
    valid.apply_defaults()
    probes = []
    for param, arg in _contract(fn).items():
        value, rule = valid.arguments[param], arg.rule
        if rule is None:  # it only joins the shape
            continue
        error = _REACH[rule].error if isinstance(rule, str) else ValueError
        said = (param if isinstance(rule, type) else arg.spoken) + " must "
        bad = [math.nan, math.inf, -math.inf, None]
        if isinstance(rule, str):
            bad += _outside(arg) + [str(value)]
            probes.append((param, np.array([value, math.nan]), error, said) if arg.batch
                          else (param, np.full(2, value), ValueError, said + "be one scalar"))
        elif not arg.batch and getattr(rule, "_batch_fields", ()):
            field = rule._batch_fields[0]  # a batch where one record is declared
            batch = dataclasses.replace(value, **{field: np.full(2, getattr(value, field))})
            probes.append((param, batch, ValueError, arg.spoken + field + " must be one scalar"))
        probes += [(param, v, error, said) for v in bad if not _accepts(arg, v)]
    return probes


def _slots(fn, valid) -> list:
    """(param, field or None, spoken name) of each value that joins the
    call's broadcast shape: a batch argument, or each batch field of one."""
    slots = []
    for param, arg in _contract(fn).items():
        if arg.batch and isinstance(arg.rule, type):
            slots += [(param, f, arg.spoken + f) for f in arg.rule._batch_fields]
        elif arg.batch:
            slots.append((param, None, param if inspect.isclass(fn) else arg.spoken))
    return slots


def _shaped(call, slot, shape):
    """The slot's value in call, filled to shape (a record with one field so)."""
    param, field, _ = slot
    value = call.arguments[param]
    if field is None:
        return np.full(shape, value)
    return dataclasses.replace(value, **{field: np.full(shape, getattr(value, field))})


@pytest.mark.parametrize("name", DECLARED)
def test_every_declared_argument_rejects_what_its_declaration_excludes(name, tmp_path,
                                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    fn, valid = _bound(name)
    probes = _declared_probes(name)
    assert probes or all(a.rule is None for a in _contract(fn).values())
    wrong = []
    for param, value, error, said in probes:
        call = inspect.signature(fn).bind(*valid.args, **valid.kwargs)
        call.arguments[param] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fn(*call.args, **call.kwargs)
                wrong.append("%s=%r: no error" % (param, value))
            except error as exc:
                if not str(exc).startswith(said):
                    wrong.append("%s=%r: %s" % (param, value, exc))
            except Exception as exc:  # noqa: BLE001 - the wrong class is the finding
                wrong.append("%s=%r: %s: %s" % (param, value, type(exc).__name__, exc))
    assert not wrong, "\n".join(wrong)


# exports whose batch arguments broadcast by a rule of their own, or whose
# result adds axes: (axes the result adds after the shape, or None to skip)
SHAPES = {
    "density_matrix": 2, "density_matrix_from_occupations": 2, "lindblad_trajectory": 3,
    # a table of one x or of a 1-D array of them, one order count or one per x
    "SpecialFnTable": None,
    # the eigenvalue axis comes first
    "joint_spectrum": None,
    # one sum over one 1-D batch (test_fluctuation holds its rule)
    "multi_mode_ft": None,
    # a block at one temperature (test_closedforms holds it)
    "equilibrium_sommerfeld_onsager": None,
}
BROADCASTING = [n for n in DECLARED if SHAPES.get(n, 0) is not None and _slots(*_bound(n))]


@pytest.mark.parametrize("name", [n for n in DECLARED
                                  if len({s[0] for s in _slots(*_bound(n))}) > 1])
def test_a_clashing_shape_is_named_with_each_shape(name):
    # each batch value (2,) against the next one's (3,), of another argument
    fn, valid = _bound(name)
    slots = _slots(fn, valid)
    for i, slot in enumerate(slots):
        other = next(s for s in slots[i + 1:] + slots[:i] if s[0] != slot[0])
        call = inspect.signature(fn).bind(*valid.args, **valid.kwargs)
        call.arguments[slot[0]] = _shaped(call, slot, (2,))
        call.arguments[other[0]] = _shaped(call, other, (3,))
        with pytest.raises(ValueError) as exc:
            fn(*call.args, **call.kwargs)
        named, _, shown = str(exc.value).partition(" must broadcast together, got ")
        shapes = ast.literal_eval(shown)  # {argument: shape}, never numpy's own message
        assert shapes[slot[2]] == (2,) and shapes[other[2]] == (3,), str(exc.value)
        assert named in (", ".join(shapes), "%s fields" % fn.__name__), str(exc.value)


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
# one, or |g| t = 0) is left out; g t reaches the J argument row
# through the closed forms, and the Boltzmann row is probed in T
REACH_PROBES = [
    ("time", "t", lambda v: fc.transition_weight(MODE, v), _edges("time", "lo")),
    ("energy", "energy", lambda v: fc.occupation_fd(v, RES),
     ([-math.inf, math.inf], [math.nan], st.floats(-sys.float_info.max, sys.float_info.max))),
    ("probability", "p", fc.binary_entropy, _edges("probability")),
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
    ("omega x", "x", lambda v: fc.omega(0, v, 1.0), _edges("omega x")),
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


# what a scalar call may return as a numpy scalar: the quadrature's totals
# keep their kernel group's leading axes, and the entropy coefficients are
# the terms of a float series
NUMPY_SCALARS = {"integrate_interval", "entropy_coeffs"}


def _numpy_scalars(value) -> list:
    """Every numpy scalar in a result, through records and containers."""
    if isinstance(value, np.generic):
        return [value]
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value)
                for x in _numpy_scalars(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _numpy_scalars(v)]
    return []


@pytest.mark.parametrize("name", sorted(set(DECLARED) - NUMPY_SCALARS))
def test_a_scalar_call_returns_plain_python_numbers(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fn, valid = _bound(name)
    assert not _numpy_scalars(fn(*valid.args, **valid.kwargs))


def _shape_of(result, added: int) -> tuple:
    """A result's batch shape: an array's or number's without the axes the
    export adds, a record's the broadcast of its fields'."""
    if dataclasses.is_dataclass(result):
        return np.broadcast_shapes(*(np.shape(getattr(result, f.name))
                                     for f in dataclasses.fields(result)))
    shape = np.shape(result)
    return shape[:len(shape) - added]


@pytest.mark.parametrize("name", BROADCASTING)
def test_a_broadcasting_export_gives_the_broadcast_shape_or_names_the_clash(name):
    fn, valid = _bound(name)
    slots = _slots(fn, valid)
    layouts = {"scalar": lambda n: (), "(n,)": lambda n: (n,), "(n, 1)": lambda n: (n, 1),
               "(n + 1,)": lambda n: (n + 1,)}
    # a record's own clash names each of its fields
    records = [fn] if inspect.isclass(fn) else [
        arg.rule for arg in _contract(fn).values() if isinstance(arg.rule, type)]
    spoken = {s[2] for s in slots} | {f for record in records for f in _contract(record)}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 3), picks=st.tuples(*(st.sampled_from(sorted(layouts))
                                                  for _ in slots)))
    def one_draw(n, picks):
        shapes = [layouts[pick](n) for pick in picks]
        try:
            want = np.broadcast_shapes(*shapes)
        except ValueError:
            want = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is not None:
                call = inspect.signature(fn).bind(*valid.args, **valid.kwargs)
                for slot, shape in zip(slots, shapes):
                    call.arguments[slot[0]] = _shaped(call, slot, shape)
                assert _shape_of(fn(*call.args, **call.kwargs), SHAPES.get(name, 0)) == want
                return
            with pytest.raises(ValueError) as exc:  # the records are built in here
                call = inspect.signature(fn).bind(*valid.args, **valid.kwargs)
                for slot, shape in zip(slots, shapes):
                    call.arguments[slot[0]] = _shaped(call, slot, shape)
                fn(*call.args, **call.kwargs)
        message = str(exc.value)
        named, _, shown = message.partition(" must broadcast together, got ")
        shown = ast.literal_eval(shown)  # {argument: shape}, never numpy's own message
        assert named and set(shown) <= spoken, message
        with pytest.raises(ValueError):
            np.broadcast_shapes(*shown.values())  # the shapes listed do clash

    one_draw()
