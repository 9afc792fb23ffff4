import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichain import (
    BoltzmannRangeError,
    ModeSpec,
    ReservoirParams,
    band_gap_ev,
    boltzmann_validity,
    dispersion,
    log_occupation_fd,
    log_vacancy_fd,
    occupation_boltzmann,
    occupation_fd,
    onsager,
)


def test_dispersion_band_edges():
    assert dispersion(0.0) == -2.0
    assert dispersion(math.pi) == 2.0
    assert abs(dispersion(math.pi / 2)) < 1e-15


def test_dispersion_monotone_on_half_band():
    k = np.linspace(0.0, math.pi, 400)
    eps = dispersion(k)
    assert np.all(np.diff(eps) > 0)


def test_effective_coupling_values():
    # g_k = g sin(k)^2
    assert ModeSpec.from_momentum(math.pi / 2, 1.0).coupling == 1.0
    assert ModeSpec.from_momentum(0.0, 1.0).coupling == 0.0
    np.testing.assert_allclose(ModeSpec.from_momentum(math.pi / 4, 2.0).coupling, 1.0,
                               rtol=1e-15)


@pytest.mark.parametrize("k", [math.nan, -0.1, math.pi + 1e-9])
def test_momentum_is_validated_by_dispersion(k):
    # NaN passes both k < 0 and k > pi, so it used to give eps_k = NaN;
    # ModeSpec no longer carries k, so from_momentum relies on this check
    with pytest.raises(ValueError, match="momentum"):
        dispersion(k)
    with pytest.raises(ValueError, match="momentum"):
        dispersion(np.array([0.5, k]))
    with pytest.raises(ValueError, match="momentum"):
        ModeSpec.from_momentum(k)


def test_mode_spec_holds_energy_coupling_and_dephasing_only():
    mode = ModeSpec.from_momentum(math.pi / 3, g=2.0, dephasing=0.4)
    assert list(vars(mode)) == ["energy", "coupling", "dephasing"]
    with pytest.raises(TypeError):
        ModeSpec(momentum=1.0, energy=0.0, coupling=1.0)


_MODE_AT_K = st.tuples(st.floats(0.0, math.pi), st.floats(-3.0, 3.0), st.floats(0.0, 5.0))


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(_MODE_AT_K, min_size=1, max_size=8), column=st.booleans(),
       batched=st.tuples(st.booleans(), st.booleans()))
def test_from_momentum_batch_entries_have_the_bits_of_their_scalar_calls(entries, column,
                                                                         batched):
    # k always an array of shape (n,) or (n, 1), g and the dephasing rate
    # arrays of that shape or the first entry's
    shape = (len(entries), 1) if column else (len(entries),)
    k, g, lam = (np.reshape(c, shape) for c in zip(*entries))
    g, lam = (v if on else float(v.flat[0]) for v, on in zip((g, lam), batched))
    batch = ModeSpec.from_momentum(k, g, lam)
    fields = [np.ravel(np.broadcast_to(v, shape))
              for v in (batch.energy, batch.coupling, batch.dephasing)]
    for i, (one_k, one_g, one_lam) in enumerate(np.broadcast(k, g, lam)):
        one = ModeSpec.from_momentum(float(one_k), float(one_g), float(one_lam))
        assert type(one.energy) is float and type(one.coupling) is float
        # the scalar call keeps the bits of g * sin(k) ** 2 over numpy scalars
        assert one.coupling.hex() == float(one_g * np.sin(float(one_k)) ** 2).hex()
        assert [float(f[i]).hex() for f in fields] == [
            one.energy.hex(), one.coupling.hex(), one.dephasing.hex()]


def test_from_momentum_over_a_fine_grid_keeps_the_scalar_squares():
    # an array's ** 2 (or s * s) rounds some squares of sin(k) differently
    # from the scalar ** 2; each of these 20,001 entries has its scalar bits
    ks = np.linspace(0.0, math.pi, 20_001)
    batch = ModeSpec.from_momentum(ks, 0.7)
    scalar = [float(0.7 * np.sin(k) ** 2) for k in ks.tolist()]
    assert [x.hex() for x in batch.coupling.tolist()] == [x.hex() for x in scalar]
    assert ModeSpec.from_momentum(np.array([0.8, 1.7])).energy.shape == (2,)


def test_mode_spec_batches_compare_field_by_field_and_do_not_hash():
    # the generated __eq__ compared field tuples, which numpy's array
    # truth value made ambiguous for a batch
    batch = ModeSpec(0.0, np.array([1.0, 2.0]), 0.1)
    assert batch == ModeSpec(0.0, np.array([1.0, 2.0]), 0.1)
    assert batch != ModeSpec(0.0, np.array([1.0, 3.0]), 0.1)
    assert batch != ModeSpec(0.0, np.array([1.0, 2.0, 2.0]), 0.1)
    assert batch != ModeSpec(0.0, np.array([1.0, 2.0]), np.array([0.1, 0.2]))
    with pytest.raises(TypeError, match="batched ModeSpec"):
        hash(batch)
    # one mode keeps its value equality and its hash
    mode = ModeSpec(-0.5, 1.0, 0.1)
    assert mode == ModeSpec(-0.5, 1.0, 0.1) and mode != ModeSpec(-0.5, 1.0, 0.2)
    assert mode != (-0.5, 1.0, 0.1)
    assert hash(mode) == hash(ModeSpec(-0.5, 1.0, 0.1)) == hash((-0.5, 1.0, 0.1))
    assert {mode: 1}[ModeSpec(-0.5, 1.0, 0.1)] == 1


# every broadcasting batch the suite builds: (n,) with scalars, (n,) with
# (n,), (n, 1) with (n, 1), a list field, and (n, 1) against (m,)
_BATCHES = [
    (0.0, np.array([1.0, 2.0]), 0.1),
    (np.array([0.0, 1.0]), 1.0, 0.1),
    (0.0, [1.0, 2.0], 0.1),
    (np.zeros(3), np.ones(3), np.array([0.1, 0.2, 0.3])),
    (np.array([[-1.0], [0.5]]), np.array([[0.8], [1.3]]), 0.2),
    (0.0, np.array([[1.0], [2.0]]), 0.1),
    (np.array([[-1.0], [0.5]]), np.array([0.8, 1.3, 2.0]), np.array([0.0, 0.1, 0.2])),
]


@pytest.mark.parametrize("fields", _BATCHES)
def test_mode_spec_batches_that_broadcast_still_construct(fields):
    batch = ModeSpec(*fields)
    assert batch == ModeSpec(*fields)


def test_mode_spec_fields_that_do_not_broadcast_are_rejected_by_name():
    # this built, then occ_a ignored the energies and ft_log_ratio the
    # couplings, and density_matrix raised numpy's unnamed broadcast error
    with pytest.raises(ValueError, match=re.escape(
            "ModeSpec fields must broadcast together, got {'energy': (2,), "
            "'coupling': (3,), 'dephasing': ()}")):
        ModeSpec(energy=np.zeros(2), coupling=np.ones(3), dephasing=0.1)
    with pytest.raises(ValueError, match=r"'dephasing': \(3,\)"):
        ModeSpec(0.0, np.ones(2), np.full(3, 0.1))


def test_reservoir_batches_compare_field_by_field_and_do_not_hash():
    batch = ReservoirParams(np.array([0.1, 0.2]), 0.3)
    assert batch == ReservoirParams(np.array([0.1, 0.2]), 0.3)
    assert batch != ReservoirParams(np.array([0.1, 0.3]), 0.3)
    assert batch != ReservoirParams(np.array([[0.1], [0.2]]), 0.3)
    # shapes count: one entry is not the scalar, nor an empty batch another
    assert ReservoirParams(np.array([0.1]), 0.3) != ReservoirParams(0.1, 0.3)
    assert ReservoirParams(np.array([]), 0.3) != ReservoirParams(np.array([]), np.array([]))
    assert batch != ReservoirParams(np.array([0.1, 0.2]), np.array([0.3, 0.3]))
    with pytest.raises(TypeError, match="batched ReservoirParams"):
        hash(batch)
    # one reservoir keeps the value equality and hash of a dataclass
    res = ReservoirParams(0.1, 0.3)
    assert res == ReservoirParams(0.1, 0.3) and res != ReservoirParams(0.1, -0.3)
    assert res == ReservoirParams(0.1, np.float64(0.3)) and res != (0.1, 0.3)
    assert hash(res) == hash(ReservoirParams(0.1, 0.3)) == hash((0.1, 0.3))
    assert {res: 1}[ReservoirParams(0.1, 0.3)] == 1

    class Subclassed(ReservoirParams):  # inherits the fields, and the contract
        pass

    assert Subclassed(0.1, 0.3) == Subclassed(0.1, 0.3) != Subclassed(0.2, 0.3)
    assert hash(Subclassed(0.1, 0.3)) == hash((0.1, 0.3))


def test_reservoir_fields_that_do_not_broadcast_are_rejected_by_name():
    with pytest.raises(ValueError, match=re.escape(
            "ReservoirParams fields must broadcast together, got {'temperature': (2,), "
            "'mu': (3,)}")):
        ReservoirParams(np.array([0.1, 0.2]), np.zeros(3))
    # one bad entry of a batch is named like a bad scalar
    with pytest.raises(ValueError, match="temperature must lie in"):
        ReservoirParams(np.array([0.1, -0.2]), np.zeros(2))
    with pytest.raises(ValueError, match="mu must be finite"):
        ReservoirParams(0.1, np.array([0.0, math.nan]))


def test_occupation_fd_symmetry_point():
    res = ReservoirParams(temperature=0.7, mu=0.3)
    assert occupation_fd(0.3, res) == 0.5


def test_occupation_fd_deep_below_mu():
    res = ReservoirParams(temperature=0.25, mu=0.0)
    assert occupation_fd(-40 * 0.25, res) == pytest.approx(1.0, abs=1e-15)


def test_occupation_fd_frozen_value():
    # 1/(e^2 + 1), 40-digit evaluation
    res = ReservoirParams(temperature=0.5, mu=0.0)
    np.testing.assert_allclose(occupation_fd(1.0, res),
                               0.11920292202211755, rtol=1e-15)


def test_occupation_fd_no_overflow_far_tails():
    res = ReservoirParams(temperature=0.01, mu=0.0)
    assert occupation_fd(50.0, res) == 0.0
    assert occupation_fd(-50.0, res) == 1.0


def test_occupation_fd_rejects_bad_temperature():
    with pytest.raises(ValueError):
        ReservoirParams(temperature=0.0)
    with pytest.raises(ValueError):
        ReservoirParams(temperature=-1.0)


def test_reservoir_rejects_temperature_whose_square_overflows():
    # T**2 in the Onsager block used to raise a raw OverflowError
    assert ReservoirParams(1e154).temperature == 1e154
    for temp in (1.35e154, 1e200, 1.7e308):
        message = ("temperature must lie in (0, 1.34078e+154] so that T**2 is finite, got %r"
                   % temp)
        with pytest.raises(ValueError, match=re.escape(message)):
            ReservoirParams(temp)


def test_reservoir_takes_numpy_scalars():
    # arrays are rejected by name (see the export-contract probes); 0-d values are not arrays
    res = ReservoirParams(np.float64(0.25), np.array(0.5))
    assert res.beta == 4.0 and res.mu == 0.5


def test_particle_hole_sum_is_one():
    # n(eps, mu) + n(-eps, -mu) = 1 exactly; random sweep
    rng = np.random.default_rng(7)
    for _ in range(300):
        eps = rng.uniform(-6, 6)
        temp = rng.uniform(0.05, 5.0)
        mu = rng.uniform(-4, 4)
        s = (occupation_fd(eps, ReservoirParams(temp, mu))
             + occupation_fd(-eps, ReservoirParams(temp, -mu)))
        assert abs(s - 1.0) < 1e-14


def test_log_occupation_matches_direct_log_in_safe_region():
    res = ReservoirParams(temperature=0.5, mu=0.2)
    for eps in (-1.5, 0.0, 0.2, 1.1):
        n = occupation_fd(eps, res)
        np.testing.assert_allclose(log_occupation_fd(eps, res), math.log(n),
                                   rtol=1e-14)
        np.testing.assert_allclose(log_vacancy_fd(eps, res), math.log(1.0 - n),
                                   rtol=1e-14)


def test_log_occupation_stays_accurate_where_occupation_rounds():
    # at x = (eps-mu)/T = -40 the occupation rounds to 1.0 and the direct
    # log(1 - n) is garbage; the stable form must still equal -x + ln-corrections
    res = ReservoirParams(temperature=0.1, mu=0.0)
    eps = -4.0  # x = -40
    np.testing.assert_allclose(log_vacancy_fd(eps, res),
                               -40.0 - math.log1p(math.exp(-40.0)), rtol=1e-15)
    assert log_occupation_fd(eps, res) == pytest.approx(
        -math.log1p(math.exp(-40.0)), rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(energy=st.floats(-60.0, 60.0), mu=st.floats(-5.0, 5.0),
       temp=st.floats(1e-3, 10.0))
def test_log_occupations_match_the_array_formula(energy, mu, temp):
    # the numpy form of ln(1/(e^x + 1)), exactly: scalars and arrays take
    # one path, and it is this one
    res = ReservoirParams(temp, mu)
    for fn, x in ((log_occupation_fd, (np.float64(energy) - mu) / temp),
                  (log_vacancy_fd, (mu - np.float64(energy)) / temp)):
        want = float(-(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))))
        got = fn(energy, res)
        assert type(got) is float
        assert got.hex() == want.hex(), (fn.__name__, x)
        assert fn(np.array([energy, energy]), res).tolist() == [got, got]


@settings(max_examples=300, deadline=None)
@given(energy=st.floats(allow_nan=False), mu=st.floats(-1e3, 1e3),
       temp=st.floats(1e-6, 1e6))
def test_log_vacancy_mirror_keeps_every_bit(energy, mu, temp):
    # ln(1 - n) shares ln n's log1p at -x; forming (mu - eps)/T instead
    # gives the same bits, because IEEE subtraction is sign-symmetric
    with np.errstate(over="ignore"):
        x = (mu - np.float64(energy)) / temp
    want = float(-(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))))
    assert log_vacancy_fd(energy, ReservoirParams(temp, mu)).hex() == want.hex()


@pytest.mark.parametrize("energy, occupation, vacancy", [
    (math.inf, "-inf", "-0x0.0p+0"),
    (-math.inf, "-0x0.0p+0", "-inf"),
])
def test_log_occupations_at_infinite_and_nan_energy(energy, occupation, vacancy):
    res = ReservoirParams(0.3, 0.2)
    assert log_occupation_fd(energy, res).hex() == occupation
    assert log_vacancy_fd(energy, res).hex() == vacancy


@pytest.mark.parametrize("fn", [log_occupation_fd, log_vacancy_fd, occupation_fd,
                                occupation_boltzmann], ids=lambda fn: fn.__name__)
def test_occupations_reject_nan_energy_by_name(fn):
    # each of these used to return NaN
    with pytest.raises(ValueError, match=r"^energy must be a number, not NaN, got nan$"):
        fn(math.nan, ReservoirParams(0.3, -3.0))
    if fn in (occupation_fd, occupation_boltzmann):
        with pytest.raises(ValueError, match="energy must be a number, not NaN"):
            fn(np.array([0.0, math.nan]), ReservoirParams(0.3, -3.0))


@pytest.mark.parametrize("row, call", [
    ("energy", lambda v: occupation_fd(v, ReservoirParams(0.1, 0.0))),
    ("time", lambda v: onsager(v, ReservoirParams(0.1, 0.3), 0.1, 1.0)),
    ("mu", lambda v: ReservoirParams(0.1, v)),
])
@pytest.mark.parametrize("value, shown", [(10 ** 400, "1.00e+400"), (-10 ** 400, "-1.00e+400")])
def test_an_int_beyond_the_float_range_is_named_as_one(row, call, value, shown):
    # rows with no finite upper limit used to word a domain the int meets:
    # "time must be a number >= 0", "energy must be a number, not NaN"
    with pytest.raises(ValueError, match="^%s must be a number in the float range, got %s$"
                                         % (row, re.escape(shown))):
        call(value)


@pytest.mark.parametrize("fn", [occupation_fd, occupation_boltzmann],
                         ids=lambda fn: fn.__name__)
def test_occupations_of_an_empty_array_are_empty(fn):
    # the Boltzmann cap check once took the least energy of no energies
    out = fn(np.array([]), ReservoirParams(0.3, -3.0))
    assert isinstance(out, np.ndarray) and out.shape == (0,) and out.dtype == float


def test_occupation_boltzmann_values():
    res = ReservoirParams(temperature=0.1, mu=-3.0)
    assert occupation_boltzmann(-3.0, res) == 1.0
    np.testing.assert_allclose(occupation_boltzmann(-2.9, res), math.exp(-1.0),
                               rtol=1e-15)
    np.testing.assert_allclose(occupation_boltzmann(-2.0, res), math.exp(-10.0),
                               rtol=1e-15)


def test_occupation_boltzmann_cap():
    res = ReservoirParams(temperature=0.1, mu=100.0)
    with pytest.raises(BoltzmannRangeError):
        occupation_boltzmann(-2.0, res)


def test_boltzmann_validity_bound():
    # mu_bound = -(10 * 0.1 * ln 10)/2 - 2
    v = boltzmann_validity(10.0, ReservoirParams(temperature=0.1, mu=-10.0))
    np.testing.assert_allclose(v.mu_bound, -3.151292546497023, rtol=1e-14)
    assert v.satisfied
    v2 = boltzmann_validity(10.0, ReservoirParams(temperature=0.1, mu=-3.0))
    assert not v2.satisfied


def test_band_gap_physical_units():
    np.testing.assert_allclose(band_gap_ev(10.0, 300.0), 0.2976321466566443,
                               rtol=1e-12)


def test_boltzmann_error_bound_at_band_bottom():
    # whenever the m-digit bound holds, |n_FD - n_B| < 10^-m at eps = -2
    for m in (6.0, 10.0):
        for temp in (0.1, 0.3):
            res = ReservoirParams(temperature=temp,
                                  mu=boltzmann_validity(m, ReservoirParams(temp)).mu_bound - 1e-9)
            gap = abs(occupation_fd(-2.0, res) - occupation_boltzmann(-2.0, res))
            assert gap < 10.0 ** (-m)


@pytest.mark.parametrize("dephasing", [-0.1, math.nan, math.inf])
def test_mode_spec_rejects_bad_dephasing(dephasing):
    with pytest.raises(ValueError, match="dephasing"):
        ModeSpec(energy=0.0, coupling=1.0, dephasing=dephasing)


@pytest.mark.parametrize("field, value", [
    ("coupling", math.nan), ("coupling", math.inf), ("coupling", -math.inf),
    ("energy", math.nan),
])
def test_mode_spec_rejects_non_finite_coupling_and_nan_energy(field, value):
    # coupling=nan used to surface later as a misleading IntegrationError
    kwargs = {"energy": 0.0, "coupling": 1.0, field: value}
    with pytest.raises(ValueError, match=field):
        ModeSpec(**kwargs)
