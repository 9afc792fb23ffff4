import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichain import (
    Affinities,
    FtCheck,
    ModeSpec,
    ReservoirParams,
    ZeroProbabilityError,
    affinities,
    density_matrix_from_occupations,
    exchange_prob,
    ft_log_ratio,
    log_occupation_fd,
    log_vacancy_fd,
    multi_mode_ft,
    occupation_fd,
    transition_weight,
)


def _mode(energy=-1.0, coupling=1.0, dephasing=0.1):
    return ModeSpec(energy=energy, coupling=coupling, dephasing=dephasing)


def test_transition_weight_range():
    m = _mode(dephasing=0.0)
    ts = np.linspace(0.0, 12.0, 400)
    w = transition_weight(m, ts)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    assert transition_weight(m, 0.0) == 0.0


def test_exchange_prob_trivials():
    res_a = ReservoirParams(0.5, 0.4)
    res_b = ReservoirParams(0.5, -0.4)
    m = _mode()
    assert exchange_prob("a_to_b", m, res_a, res_b, 0.0) == 0.0
    assert exchange_prob("b_to_a", m, res_a, res_b, 0.0) == 0.0


def test_exchange_prob_pauli_blocking():
    # receiving side full: nothing can move there
    res_a = ReservoirParams(0.5, 0.0)
    res_b = ReservoirParams(1e-4, 50.0)  # n_b = 1 to double precision
    m = _mode(energy=-1.0)
    assert exchange_prob("a_to_b", m, res_a, res_b, 2.0) == 0.0


def test_exchange_prob_damped_limit():
    res_a = ReservoirParams(0.5, 0.4)
    res_b = ReservoirParams(0.5, -0.4)
    m = _mode(dephasing=0.6)
    n_a = occupation_fd(m.energy, res_a)
    n_b = occupation_fd(m.energy, res_b)
    assert exchange_prob("a_to_b", m, res_a, res_b, 60.0) == pytest.approx(
        n_a * (1.0 - n_b), rel=1e-12)


def test_exchange_prob_rejects_unknown_direction():
    with pytest.raises(ValueError):
        exchange_prob("sideways", _mode(), ReservoirParams(1.0), ReservoirParams(1.0), 1.0)


def test_affinities_trivials():
    same = ReservoirParams(0.5, 0.2)
    f = affinities(same, same)
    assert f.f_h == 0.0 and f.f_m == 0.0
    iso = affinities(ReservoirParams(0.5, 0.3), ReservoirParams(0.5, -0.1))
    assert iso.f_h == 0.0
    assert iso.f_m == pytest.approx((0.3 - (-0.1)) / 0.5, rel=1e-14)
    split = affinities(ReservoirParams(0.55, 0.0), ReservoirParams(0.45, 0.0))
    assert split.f_h == pytest.approx(1.0 / 0.45 - 1.0 / 0.55, rel=1e-14)
    assert split.f_m == 0.0


def test_ft_equal_reservoirs():
    res = ReservoirParams(0.5, 0.2)
    chk = ft_log_ratio(_mode(), res, res, 1.0)
    assert chk.lhs == 0.0 and chk.rhs == 0.0


def test_ft_residual_over_reservoir_grid():
    # the transfer factor cancels in the ratio, so the identity must hold
    # at 1e-12 everywhere the occupations are inside (0, 1)
    vals = (0.2, 0.35, 0.5, 0.8, 1.1)
    mus = (-1.0, -0.3, 0.0, 0.4, 0.9)
    energies = (-2.0, -1.0, 0.0, 1.0, 2.0)
    worst = 0.0
    for ta in vals:
        for tb in vals:
            for ma in mus:
                for mb in mus:
                    for eps in energies:
                        chk = ft_log_ratio(_mode(energy=eps),
                                           ReservoirParams(ta, ma),
                                           ReservoirParams(tb, mb), 1.7)
                        worst = max(worst, abs(chk.residual))
    assert worst < 1e-12


def test_ft_independent_of_time_and_noise():
    res_a = ReservoirParams(0.3, 0.5)
    res_b = ReservoirParams(0.7, -0.2)
    base = ft_log_ratio(_mode(dephasing=0.0), res_a, res_b, 0.3).lhs
    for lam in (0.0, 0.5):
        for t in (0.3, 7.0, 30.0):
            assert ft_log_ratio(_mode(dephasing=lam), res_a, res_b, t).lhs == base


def test_ft_sign_tracks_odds_ratio():
    m = _mode(energy=-0.7)
    res_a = ReservoirParams(0.4, 0.6)
    res_b = ReservoirParams(0.4, -0.6)
    n_a = occupation_fd(m.energy, res_a)
    n_b = occupation_fd(m.energy, res_b)
    chk = ft_log_ratio(m, res_a, res_b, 2.0)
    assert (chk.lhs > 0.0) == (n_a / (1 - n_a) > n_b / (1 - n_b))


def test_ft_matches_probability_ratio_directly():
    res_a = ReservoirParams(0.3, 0.5)
    res_b = ReservoirParams(0.7, -0.2)
    m = _mode(dephasing=0.2)
    p_ab = exchange_prob("a_to_b", m, res_a, res_b, 1.3)
    p_ba = exchange_prob("b_to_a", m, res_a, res_b, 1.3)
    assert ft_log_ratio(m, res_a, res_b, 1.3).lhs == pytest.approx(
        math.log(p_ab / p_ba), abs=1e-12)


def test_ft_deep_saturation_still_accurate():
    # beta (eps - mu) = -+ 50: occupations round to 1/0 but the log-ratio
    # must stay exact through the stable log forms
    res_a = ReservoirParams(0.1, 3.0)
    res_b = ReservoirParams(0.1, -3.0)
    chk = ft_log_ratio(_mode(energy=-2.0), res_a, res_b, 1.0)
    assert abs(chk.residual) < 1e-12


def test_ft_zero_probability_reported():
    bad = ModeSpec(energy=math.inf, coupling=0.5, dephasing=0.1)
    with pytest.raises(ZeroProbabilityError):
        ft_log_ratio(bad, ReservoirParams(0.5), ReservoirParams(0.6), 1.0)


def test_middle_block_tracks_density_matrix():
    # the initial one-particle weights p and q mix through w(t)
    n_a0, n_b0 = 0.7, 0.2
    p, q = n_a0 * (1.0 - n_b0), (1.0 - n_a0) * n_b0
    m = _mode(coupling=0.9, dephasing=0.15)
    for t in (0.0, 0.8, 2.9):
        w = transition_weight(m, t)
        rho = density_matrix_from_occupations(m, n_a0, n_b0, t)
        assert p * (1.0 - w) + q * w == pytest.approx(rho[1, 1].real, abs=1e-13)
        assert q * (1.0 - w) + p * w == pytest.approx(rho[2, 2].real, abs=1e-13)


def test_single_particle_sector_bookkeeping():
    # the one-particle weights only mix between themselves
    n_a0, n_b0 = 0.7, 0.2
    m = _mode(coupling=0.9, dephasing=0.15)
    sector = n_a0 * (1 - n_b0) + (1 - n_a0) * n_b0
    for t in (0.4, 1.9, 6.0):
        rho = density_matrix_from_occupations(m, n_a0, n_b0, t)
        assert (rho[1, 1] + rho[2, 2]).real == pytest.approx(sector, abs=1e-14)


def test_multi_mode_single_event_reduces():
    res_a = ReservoirParams(0.3, 0.5)
    res_b = ReservoirParams(0.7, -0.2)
    m = _mode(energy=-1.2)
    joint = multi_mode_ft(m, [-1], res_a, res_b, 1.0)
    single = ft_log_ratio(m, res_a, res_b, 1.0)
    assert joint.lhs == pytest.approx(single.lhs, abs=1e-14)
    assert joint.rhs == pytest.approx(single.rhs, abs=1e-14)


def test_multi_mode_opposite_directions():
    res_a = ReservoirParams(0.3, 0.5)
    res_b = ReservoirParams(0.7, -0.2)
    m1 = _mode(energy=-1.2, coupling=0.8)
    m2 = _mode(energy=0.6, coupling=1.1)
    joint = multi_mode_ft(_mode(energy=[-1.2, 0.6], coupling=[0.8, 1.1]), [-1, +1],
                          res_a, res_b, 2.0)
    # brute force from the product of directed probabilities
    p_fwd = (exchange_prob("a_to_b", m1, res_a, res_b, 2.0)
             * exchange_prob("b_to_a", m2, res_a, res_b, 2.0))
    p_rev = (exchange_prob("b_to_a", m1, res_a, res_b, 2.0)
             * exchange_prob("a_to_b", m2, res_a, res_b, 2.0))
    assert joint.lhs == pytest.approx(math.log(p_fwd / p_rev), abs=1e-12)
    assert abs(joint.residual) < 1e-12


def test_multi_mode_ft_is_the_signed_sum_of_single_calls():
    rng = np.random.default_rng(7)
    res_a, res_b = ReservoirParams(0.4, 0.6), ReservoirParams(1.3, -0.5)
    energy, coupling, dephasing = (rng.uniform(-2.0, 2.0, 12), rng.uniform(-1.0, 1.0, 12),
                                   rng.uniform(0.0, 1.0, 12))
    delta_n_a = rng.choice([-1, 1], 12)
    joint = multi_mode_ft(_mode(energy, coupling, dephasing), delta_n_a, res_a, res_b, 2.5)
    singles = [ft_log_ratio(_mode(*one), res_a, res_b, 2.5)
               for one in zip(energy, coupling, dephasing)]
    assert type(joint.lhs) is float and type(joint.rhs) is float
    signs = -delta_n_a  # +1 when A loses the particle
    assert abs(joint.lhs - sum(s * one.lhs for s, one in zip(signs, singles))) <= 1e-14
    assert abs(joint.rhs - sum(s * one.rhs for s, one in zip(signs, singles))) <= 1e-14


# one field triple (eps, g, lam) per mode of a batch
mode_fields = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
                                 st.floats(0.0, 5.0)), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(fields=mode_fields, ts=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
       temps=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
       mus=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_batched_ft_log_ratio_equals_the_scalar_calls_bit_for_bit(fields, ts, temps, mus):
    res_a, res_b = ReservoirParams(temps[0], mus[0]), ReservoirParams(temps[1], mus[1])
    eps, g, lam = (np.array(column)[:, None] for column in zip(*fields))
    chk = ft_log_ratio(ModeSpec(eps, g, lam), res_a, res_b, np.array(ts))
    assert chk.lhs.shape == chk.rhs.shape == (len(fields), len(ts))
    for i, one_mode in enumerate(fields):
        for j, t in enumerate(ts):
            one = ft_log_ratio(ModeSpec(*one_mode), res_a, res_b, t)
            assert (chk.lhs[i, j].hex(), chk.rhs[i, j].hex()) == (one.lhs.hex(), one.rhs.hex())


# (shape of A's fields, shape of B's fields) for n and m reservoirs: two
# scalars, a batch against a scalar, two aligned batches, and every pair
_RESERVOIR_LAYOUTS = (lambda n, m: ((), ()), lambda n, m: ((n,), ()),
                      lambda n, m: ((), (n,)), lambda n, m: ((n,), (n,)),
                      lambda n, m: ((n, 1), (m,)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), layout=st.sampled_from(_RESERVOIR_LAYOUTS),
       n=st.integers(1, 3), m=st.integers(1, 3), fields=mode_fields,
       ts=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3))
def test_reservoir_batches_equal_their_scalar_calls_bit_for_bit(data, layout, n, m, fields, ts):
    def reservoirs(shape):
        """A batch of this shape, with trailing axes for (mode, t), and its
        entries as scalar reservoirs of plain floats."""
        size = math.prod(shape)
        temps = data.draw(st.lists(st.floats(0.05, 5.0), min_size=size, max_size=size))
        mus = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        batch = ReservoirParams(*(np.reshape(v, shape + (1, 1)) if shape else v[0]
                                  for v in (temps, mus)))
        return batch, np.reshape([ReservoirParams(*pair) for pair in zip(temps, mus)], shape)

    shape_a, shape_b = layout(n, m)
    (res_a, each_a), (res_b, each_b) = reservoirs(shape_a), reservoirs(shape_b)
    eps, g, lam = (np.array(column)[:, None] for column in zip(*fields))
    modes = ModeSpec(eps, g, lam)
    chk = ft_log_ratio(modes, res_a, res_b, np.array(ts))
    pairs = np.broadcast_shapes(shape_a, shape_b)
    forces = affinities(res_a, res_b)
    f_h, f_m = (np.broadcast_to(f, pairs + (1, 1)) for f in (forces.f_h, forces.f_m))
    occs = [fn(eps, res_a) for fn in (occupation_fd, log_occupation_fd, log_vacancy_fd)]
    assert chk.lhs.shape == chk.rhs.shape == pairs + (len(fields), len(ts))
    for r in np.ndindex(pairs):
        one_a, one_b = (np.broadcast_to(each, pairs)[r] for each in (each_a, each_b))
        one = affinities(one_a, one_b)
        assert (f_h[r + (0, 0)].hex(), f_m[r + (0, 0)].hex()) == (one.f_h.hex(), one.f_m.hex())
        for i, one_mode in enumerate(fields):
            for j, t in enumerate(ts):
                one = ft_log_ratio(ModeSpec(*one_mode), one_a, one_b, t)
                assert (chk.lhs[r + (i, j)].hex(), chk.rhs[r + (i, j)].hex()) == (
                    one.lhs.hex(), one.rhs.hex())
    for a in np.ndindex(shape_a):
        for i, (e, *_) in enumerate(fields):
            singles = (occupation_fd(e, each_a[a]), log_occupation_fd(e, each_a[a]),
                       log_vacancy_fd(e, each_a[a]))
            assert [occ[a + (i, 0)].hex() for occ in occs] == [x.hex() for x in singles]


def test_list_fields_read_as_arrays():
    # a list of energies or of temperatures raised a raw TypeError here
    res = ReservoirParams(0.3, 0.1)
    by_list = ft_log_ratio(ModeSpec([0.0, 1.0], 1.0, 0.1),
                           ReservoirParams([0.1, 0.2], [0.0, 0.5]), res, 1.0)
    by_array = ft_log_ratio(ModeSpec(np.array([0.0, 1.0]), 1.0, 0.1),
                            ReservoirParams(np.array([0.1, 0.2]), np.array([0.0, 0.5])), res, 1.0)
    assert by_list == by_array and by_list.lhs.shape == (2,)


def test_multi_mode_empty():
    empty = ModeSpec(np.empty(0), np.empty(0), np.empty(0))
    chk = multi_mode_ft(empty, [], ReservoirParams(0.3, 0.5), ReservoirParams(0.7, -0.2), 1.0)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.residual == 0.0


@pytest.mark.parametrize("delta_n_a", [0, [1, 0], [-1, 2], ["1", "-1"], [1.5, 1]])
def test_multi_mode_delta_validation(delta_n_a):
    with pytest.raises(ValueError, match="delta_n_a must be -1 or \\+1 for each mode"):
        multi_mode_ft(_mode(energy=[0.1, 0.2]), delta_n_a, ReservoirParams(0.3),
                      ReservoirParams(0.7), 1.0)


@pytest.mark.parametrize("mode, delta_n_a, match", [
    ((0.0, 1.0, 0.1), [1], "mode must be a ModeSpec"),
    (ModeSpec([0.1, 0.2, 0.3], 1.0, 0.1), [1, -1],
     "mode energy, mode coupling, mode dephasing, delta_n_a, time must broadcast"),
    (ModeSpec(np.zeros((2, 1)), 1.0, np.array([0.1, 0.2])), [1, -1], "one 1-D shape"),
    (ModeSpec(0.1, 1.0, 0.1), 1, "one 1-D shape"),
])
def test_multi_mode_rejects_what_is_not_one_batch_of_events(mode, delta_n_a, match):
    # ExchangeEvent raised numpy's "ambiguous" or "inhomogeneous shape", or
    # accepted a tuple that multi_mode_ft then failed on with AttributeError
    with pytest.raises(ValueError, match=match):
        multi_mode_ft(mode, delta_n_a, ReservoirParams(0.3), ReservoirParams(0.7), 1.0)


@settings(max_examples=60, deadline=None)
@given(fields=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
                                 st.floats(0.0, 5.0), st.sampled_from([-1, 1])),
                       min_size=1, max_size=6),
       t=st.floats(0.0, 100.0), temps=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
       mus=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_multi_mode_ft_equals_the_signed_sum_of_its_single_relations(fields, t, temps, mus):
    res_a, res_b = ReservoirParams(temps[0], mus[0]), ReservoirParams(temps[1], mus[1])
    eps, g, lam, delta_n_a = (np.array(column) for column in zip(*fields))
    joint = multi_mode_ft(ModeSpec(eps, g, lam), delta_n_a, res_a, res_b, t)
    singles = [ft_log_ratio(ModeSpec(*one[:3]), res_a, res_b, t) for one in fields]
    for side in ("lhs", "rhs"):
        each = [-d * getattr(one, side) for d, one in zip(delta_n_a, singles)]
        assert math.isclose(getattr(joint, side), math.fsum(each), rel_tol=1e-13,
                            abs_tol=1e-13 * sum(map(abs, each)))


def test_batched_checks_compare_field_by_field_and_do_not_hash():
    # the generated __eq__ compared field tuples, which numpy's array truth
    # value made ambiguous for a batch
    res = ReservoirParams(0.5, 0.1)
    batch = ModeSpec(np.array([0.0, 1.0]), 1.0, 0.1)
    check = ft_log_ratio(batch, res, res, 1.0)
    assert check == ft_log_ratio(batch, res, res, 1.0)
    assert check != ft_log_ratio(ModeSpec(np.array([0.0, 1.5]), 1.0, 0.1),
                                 ReservoirParams(0.4, 0.1), res, 1.0)
    assert check != ft_log_ratio(ModeSpec(np.array([0.0, 1.0, 2.0]), 1.0, 0.1), res, res, 1.0)
    with pytest.raises(TypeError, match="batched FtCheck"):
        hash(check)
    # one check keeps its value equality and its hash
    one = ft_log_ratio(_mode(), res, ReservoirParams(0.4, 0.1), 1.0)
    assert one == ft_log_ratio(_mode(), res, ReservoirParams(0.4, 0.1), 1.0)
    assert hash(one) == hash((one.lhs, one.rhs)) and one != (one.lhs, one.rhs)


@pytest.mark.parametrize("record, names", [(FtCheck, ("lhs", "rhs")),
                                           (Affinities, ("f_h", "f_m"))])
def test_batched_records_whose_fields_do_not_broadcast_are_rejected_by_name(record, names):
    with pytest.raises(ValueError, match=re.escape(
            "%s fields must broadcast together, got {'%s': (2,), '%s': (3,)}"
            % ((record.__name__,) + names))):
        record(np.zeros(2), np.zeros(3))
    assert record(np.zeros((2, 1)), np.zeros(3)) == record(np.zeros((2, 1)), np.zeros(3))
