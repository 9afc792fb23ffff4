"""The (t, lam) contract of every closed-form function that takes a time.

``lattice.relaxation_envelope`` is the one place that validates t and the
dephasing rate and forms exp(-lam t); these tests hold every public caller
in dynamics, entropy and fluctuation to it.  The RK4 stepper
(``lindblad_trajectory``) keeps its own ``t_grid`` contract, tested in
test_dynamics.py.
"""

import dataclasses
import inspect
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermichain import (EquilibriumModePrep, EquilibriumUndefinedError,
                        ModeSpec, ReservoirParams, dynamics, entropy,
                        fluctuation)
from fermichain.lattice import _DAMPING_FLOOR, relaxation_envelope

RES_A = ReservoirParams(0.5, 0.3)
RES_B = ReservoirParams(0.8, -0.2)
N_A0, N_B0 = 0.7, 0.2


def _mode(lam):
    return ModeSpec(energy=-0.9, coupling=0.8, dephasing=lam)


def _prep(lam):
    return EquilibriumModePrep(n_eq=0.4, delta_n=0.1, coupling=0.8, dephasing=lam)


# public function name -> call at (lam, t)
CALLS = {
    "dynamics.occ_a": lambda lam, t: dynamics.occ_a(_mode(lam), N_A0, N_B0, t),
    "dynamics.occ_b": lambda lam, t: dynamics.occ_b(_mode(lam), N_A0, N_B0, t),
    "dynamics.coherence_ab": lambda lam, t: dynamics.coherence_ab(_mode(lam), N_A0, N_B0, t),
    "dynamics.density_matrix_from_occupations":
        lambda lam, t: dynamics.density_matrix_from_occupations(_mode(lam), N_A0, N_B0, t),
    "dynamics.density_matrix":
        lambda lam, t: dynamics.density_matrix(_mode(lam), RES_A, RES_B, t),
    "entropy.entropy_coeffs": lambda lam, t: entropy.entropy_coeffs(_prep(lam), t),
    "entropy.mutual_information": lambda lam, t: entropy.mutual_information(_prep(lam), t),
    "entropy.joint_entropy": lambda lam, t: entropy.joint_entropy(_prep(lam), t),
    "entropy.entropy_production": lambda lam, t: entropy.entropy_production(_prep(lam), t),
    "entropy.entropy_sum_rate": lambda lam, t: entropy.entropy_sum_rate(_prep(lam), t),
    "entropy.mutual_information_rate":
        lambda lam, t: entropy.mutual_information_rate(_prep(lam), t),
    "entropy.joint_entropy_exact": lambda lam, t: entropy.joint_entropy_exact(_prep(lam), t),
    "entropy.entropy_a_exact": lambda lam, t: entropy.entropy_a_exact(_prep(lam), t),
    "entropy.mutual_information_exact":
        lambda lam, t: entropy.mutual_information_exact(_prep(lam), t),
    "fluctuation.transition_weight":
        lambda lam, t: fluctuation.transition_weight(_mode(lam), t),
    "fluctuation.exchange_prob":
        lambda lam, t: fluctuation.exchange_prob("a_to_b", _mode(lam), RES_A, RES_B, t),
    "fluctuation.ft_log_ratio":
        lambda lam, t: fluctuation.ft_log_ratio(_mode(lam), RES_A, RES_B, t),
    "fluctuation.multi_mode_ft":
        lambda lam, t: fluctuation.multi_mode_ft(
            ModeSpec(-0.9, 0.8, np.full(2, lam)), [-1, 1], RES_A, RES_B, t),
}
STEPPER = {"dynamics.lindblad_trajectory"}


def _numbers(value):
    if dataclasses.is_dataclass(value):
        return [x for f in dataclasses.fields(value) for x in _numbers(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [x for v in value for x in _numbers(v)]
    arr = np.asarray(value)
    return list(arr.real.ravel()) + list(arr.imag.ravel())


def test_table_covers_every_public_function_that_takes_t():
    found = set()
    for module in (dynamics, entropy, fluctuation):
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and "t" in inspect.signature(fn).parameters):
                found.add("%s.%s" % (module.__name__.split(".")[-1], name))
    assert found - STEPPER == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("t", [math.nan, -1.0, -1e-300])
def test_bad_time_is_rejected_by_name(name, t):
    with pytest.raises(ValueError, match="time"):
        CALLS[name](0.3, t)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_infinite_time_with_noise_is_the_damped_limit(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _numbers(CALLS[name](0.3, math.inf))
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("name", sorted(set(CALLS) - {"fluctuation.multi_mode_ft"}))
def test_overflowing_lam_t_over_a_time_array_is_the_damped_limit(name):
    # lam t overflows to inf: a time array used to warn "overflow encountered
    # in multiply" where one scalar time gave the damped limit
    # (multi_mode_ft takes one scalar t); the entropy rates' brackets, inf
    # or NaN past lam = 9e307, made NaN of the limit for one time too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _numbers(CALLS[name](1e308, np.array([1.0, 2.0])))
        values += _numbers(CALLS[name](1e308, 1.0))
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_infinite_time_without_noise_is_undefined(name):
    with pytest.raises(EquilibriumUndefinedError):
        CALLS[name](0.0, math.inf)


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("t", [1.5e308, np.array([1.0, 1.5e308])])
def test_overflowing_phase_is_rejected_by_name(name, t):
    # 2 g t = 2.4e308 at g = 0.8: this used to give NaN with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="phase 2 g t must be finite"):
            CALLS[name](0.0, t)


def test_damped_limit_values():
    mode = _mode(0.3)
    mean = 0.5 * (N_A0 + N_B0)
    assert dynamics.occ_a(mode, N_A0, N_B0, math.inf) == mean
    assert dynamics.occ_b(mode, N_A0, N_B0, math.inf) == mean
    assert dynamics.coherence_ab(mode, N_A0, N_B0, math.inf) == 0.0
    assert fluctuation.transition_weight(mode, math.inf) == 0.5
    coeffs = entropy.entropy_coeffs(_prep(0.3), math.inf)
    assert coeffs.s1 == 0.0 and coeffs.s2 == 0.0
    # the correlations left at t = inf come from the constant corners only
    assert entropy.mutual_information_exact(_prep(0.3), math.inf) >= 0.0
    ts = np.array([0.0, 1.0, math.inf])
    np.testing.assert_array_equal(dynamics.occ_a(mode, N_A0, N_B0, ts)[2:], [mean])


def test_multi_mode_ft_checks_time_without_events():
    # an empty batch, with no dephasing rate of its own to pair with t = inf
    empty = ModeSpec(np.empty(0), np.empty(0), np.empty(0))
    assert fluctuation.multi_mode_ft(empty, [], RES_A, RES_B, math.inf).residual == 0.0
    with pytest.raises(ValueError, match="time"):
        fluctuation.multi_mode_ft(empty, [], RES_A, RES_B, math.nan)


@pytest.mark.parametrize("lam", [math.nan, -0.1, math.inf])
def test_envelope_rejects_bad_dephasing(lam):
    with pytest.raises(ValueError, match="dephasing"):
        relaxation_envelope(1.0, lam, 1.0)
    with pytest.raises(ValueError, match="dephasing"):
        relaxation_envelope(np.array([1.0, 2.0]), lam, 1.0)


@pytest.mark.parametrize("t, lam, g, match", [
    (-1.0, 0.0, 1.0, "time must be a number >= 0, got -1.0"),
    (math.nan, 0.1, 1.0, "time must be a number >= 0, got nan"),
    ("1.5", 0.1, 1.0, "time must be a number >= 0, got '1.5'"),
    (np.array([1.0, -1.0]), 0.1, 1.0, "time must be a number >= 0"),
    (1.0, 0.1, math.inf, "coupling g must be finite, got inf"),
    (np.array([]), -1.0, 1.0, "dephasing rate must be finite and >= 0, got -1.0"),
])
def test_envelope_names_the_argument_that_breaks_its_rule(t, lam, g, match):
    # a direct call is held to the rules that every export declares for t, lam and g
    with pytest.raises(ValueError, match="^" + re.escape(match)):
        relaxation_envelope(t, lam, g)


def test_envelope_rejects_overflowing_phase_but_not_the_damped_limit():
    for t in (1e308, np.array([0.0, 1e308])):
        for g in (1.0, np.float64(1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="phase 2 g t must be finite"):
                    relaxation_envelope(t, 0.0, g)
        # a huge t with noise is past the floor: the phase is dropped, not formed
        env, phase = relaxation_envelope(t, 0.1, 1.0)
        assert np.all(np.asarray(phase)[np.asarray(env) == 0.0] == 0.0)
    assert relaxation_envelope(math.inf, 0.1, 1e300) == (0.0, 0.0)


# lam t at the damping floor: an entry past it is damped out
_FLOOR_LAM_T = -math.log(_DAMPING_FLOOR)


@settings(max_examples=200, deadline=None)
@given(lam_ts=st.lists(st.floats(0.0, 2.0 * _FLOOR_LAM_T)
                       | st.sampled_from([0.0, _FLOOR_LAM_T, math.nextafter(_FLOOR_LAM_T, 0.0),
                                          math.inf]), min_size=1, max_size=6),
       lam=st.just(0.0) | st.floats(1e-3, 10.0), g=st.floats(-3.0, 3.0),
       zero_d=st.booleans())
def test_envelope_scalar_and_array_paths_agree(lam_ts, lam, g, zero_d):
    # entries on both sides of the floor and at inf; an array gives each
    # entry the bits of its own call, with plain floats or 0-d numpy inputs
    ts = [u / lam if lam else u for u in lam_ts]
    assume(lam or math.inf not in ts)
    env, phase = relaxation_envelope(np.array(ts), lam, g)
    for i, t in enumerate(ts):
        args = (np.array(t), np.float64(lam), np.array(g)) if zero_d else (t, lam, g)
        e, p = relaxation_envelope(*args)
        assert isinstance(e, np.float64) and isinstance(p, np.float64)
        assert (float(e).hex(), float(p).hex()) == (env[i].hex(), phase[i].hex())
        # a floored envelope takes the phase with it
        assert e > 0.0 or p == 0.0


# lam * t <= 500 keeps exp(-lam t) far above the damping floor (~1e-280)
finite_t = st.floats(0.0, 100.0)
rates = st.floats(0.0, 5.0)
couplings = st.floats(-3.0, 3.0)
occupations = st.floats(0.0, 1.0)


def _bits(x):
    c = complex(x)
    return (c.real.hex(), c.imag.hex())


@settings(max_examples=200, deadline=None)
@given(ts=st.lists(finite_t, min_size=1, max_size=4), lam=rates, g=couplings,
       n_a0=occupations, n_b0=occupations, n_eq=st.floats(0.05, 0.95))
def test_closed_forms_are_bit_equal_to_the_inline_envelope(ts, lam, g, n_a0, n_b0, n_eq):
    mode = ModeSpec(energy=0.0, coupling=g, dephasing=lam)
    prep = EquilibriumModePrep(n_eq=n_eq, delta_n=0.0, coupling=g, dephasing=lam)
    mean = 0.5 * (n_a0 + n_b0)
    half = 0.5 * (n_a0 - n_b0)
    log_ratio = math.log(1.0 - n_eq) - math.log(n_eq)
    tarr = np.array(ts)
    for t in ts + [tarr]:
        env = np.exp(-lam * np.asarray(t))
        want = {
            "occ_a": mean + half * env * np.cos(2.0 * g * np.asarray(t)),
            "occ_b": mean - half * env * np.cos(2.0 * g * np.asarray(t)),
            "coherence_ab": 1j * half * env * np.sin(2.0 * g * np.asarray(t)),
            "transition_weight": 0.5 * (1.0 - env * np.cos(2.0 * g * np.asarray(t))),
            "s1": 0.5 * env * np.cos(2.0 * g * np.asarray(t)) * log_ratio,
            "s2": -(env * np.cos(2.0 * g * np.asarray(t))) ** 2 / (8.0 * n_eq * (1.0 - n_eq)),
        }
        coeffs = entropy.entropy_coeffs(prep, t)
        got = {
            "occ_a": dynamics.occ_a(mode, n_a0, n_b0, t),
            "occ_b": dynamics.occ_b(mode, n_a0, n_b0, t),
            "coherence_ab": dynamics.coherence_ab(mode, n_a0, n_b0, t),
            "transition_weight": fluctuation.transition_weight(mode, t),
            "s1": coeffs.s1,
            "s2": coeffs.s2,
        }
        for key in want:
            w = np.atleast_1d(want[key])
            v = np.atleast_1d(got[key])
            assert [_bits(x) for x in v] == [_bits(x) for x in w], (key, t)


@pytest.mark.parametrize("name", sorted(n for n in CALLS if n.startswith("entropy.")))
@pytest.mark.parametrize("t", [0.7, np.array([0.0, 0.7, math.inf])])
def test_each_preparation_export_forms_its_envelope_once(name, t, monkeypatch):
    # mutual_information_exact used to form it three times: through occ_a,
    # through occ_b and for the joint spectrum
    calls = []

    def counted(*args):
        calls.append(args)
        return relaxation_envelope(*args)

    for qualified, module in list(sys.modules.items()):  # each name the library calls it by
        if (qualified.startswith("fermichain.")
                and vars(module).get("relaxation_envelope") is relaxation_envelope):
            monkeypatch.setattr(module, "relaxation_envelope", counted)
    CALLS[name](0.3, t)
    assert len(calls) == 1
