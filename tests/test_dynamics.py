import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichain import (
    IntegrationError,
    ModeSpec,
    ReservoirParams,
    coherence_ab,
    density_matrix,
    density_matrix_from_occupations,
    lindblad_trajectory,
    occ_a,
    occ_b,
    occupation_fd,
)
from fermichain import dynamics, lattice


def _mode(coupling=1.0, dephasing=0.0, energy=0.0):
    return ModeSpec(energy=energy, coupling=coupling, dephasing=dephasing)


def test_occ_a_initial_condition():
    m = _mode(coupling=0.8, dephasing=0.3)
    assert occ_a(m, 0.7, 0.2, 0.0) == pytest.approx(0.7, abs=1e-15)
    assert occ_b(m, 0.7, 0.2, 0.0) == pytest.approx(0.2, abs=1e-15)


def test_occ_no_gradient_no_flow():
    m = _mode(coupling=1.3, dephasing=0.2)
    for t in (0.0, 0.7, 5.0):
        assert occ_a(m, 0.3, 0.3, t) == pytest.approx(0.3, abs=1e-15)


def test_occ_full_swap_at_half_period():
    # lambda = 0 and 2 g t = pi: cos = -1 swaps the two occupations
    m = _mode(coupling=1.0, dephasing=0.0)
    t = math.pi / 2.0
    assert occ_a(m, 0.9, 0.1, t) == pytest.approx(0.1, abs=1e-12)
    assert occ_b(m, 0.9, 0.1, t) == pytest.approx(0.9, abs=1e-12)


def test_occ_conservation_spot():
    m = _mode(coupling=0.8, dephasing=0.2)
    s = occ_a(m, 0.65, 0.25, 1.7) + occ_b(m, 0.65, 0.25, 1.7)
    assert s == pytest.approx(0.9, abs=1e-14)


def test_occ_conservation_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(500):
        na, nb = rng.uniform(0, 1, 2)
        m = _mode(coupling=rng.uniform(0, 2), dephasing=rng.uniform(0, 1))
        t = rng.uniform(0, 10)
        assert abs(occ_a(m, na, nb, t) + occ_b(m, na, nb, t) - (na + nb)) < 1e-14


def test_occ_damped_to_mean():
    m = _mode(coupling=1.0, dephasing=200.0)
    assert occ_a(m, 0.9, 0.1, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_coherence_trivial_zeros():
    m = _mode(coupling=1.0, dephasing=0.1)
    assert coherence_ab(m, 0.8, 0.3, 0.0) == 0.0
    for t in (0.4, 2.0):
        assert coherence_ab(m, 0.4, 0.4, t) == 0.0


def test_coherence_extremum():
    # lambda = 0, 2 g t = pi/2: value is i (nA - nB)/2
    m = _mode(coupling=1.0, dephasing=0.0)
    c = coherence_ab(m, 0.9, 0.1, math.pi / 4.0)
    assert c.real == pytest.approx(0.0, abs=1e-15)
    assert c.imag == pytest.approx(0.4, abs=1e-12)


def test_coherence_envelope():
    rng = np.random.default_rng(3)
    for _ in range(300):
        na, nb = rng.uniform(0, 1, 2)
        lam = rng.uniform(0, 1)
        m = _mode(coupling=rng.uniform(0, 2), dephasing=lam)
        t = rng.uniform(0, 10)
        bound = 0.5 * abs(na - nb) * math.exp(-lam * t) + 1e-15
        assert abs(coherence_ab(m, na, nb, t)) <= bound


def test_density_matrix_initial_product_state():
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.5, -0.3)
    m = _mode(coupling=1.0, dephasing=0.1, energy=-1.0)
    rho = density_matrix(m, res_a, res_b, 0.0)
    na = occupation_fd(-1.0, res_a)
    nb = occupation_fd(-1.0, res_b)
    site_a = np.diag([1.0 - na, na])
    site_b = np.diag([1.0 - nb, nb])
    # product state in the ordered basis {00, 10, 01, 11}
    want = np.zeros((4, 4))
    want[0, 0] = site_a[0, 0] * site_b[0, 0]
    want[1, 1] = site_a[1, 1] * site_b[0, 0]
    want[2, 2] = site_a[0, 0] * site_b[1, 1]
    want[3, 3] = site_a[1, 1] * site_b[1, 1]
    np.testing.assert_allclose(rho, want, atol=1e-14)


def test_density_matrix_pauli_blocked():
    rho = density_matrix_from_occupations(_mode(coupling=1.0, dephasing=0.3), 1.0, 1.0, 2.5)
    np.testing.assert_allclose(rho, np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-15)


def test_density_matrix_trace_and_positivity():
    m = _mode(coupling=1.0, dephasing=0.1)
    rho = density_matrix(m, ReservoirParams(0.5, 0.3), ReservoirParams(0.5, -0.3), 2.3)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_density_matrix_positivity_sweep():
    rng = np.random.default_rng(19)
    for _ in range(200):
        na, nb = rng.uniform(0, 1, 2)
        m = _mode(coupling=rng.uniform(0, 2), dephasing=rng.uniform(0, 1))
        rho = density_matrix_from_occupations(m, na, nb, rng.uniform(0, 10))
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_density_matrix_fixed_corners():
    na, nb = 0.62, 0.17
    m = _mode(coupling=1.1, dephasing=0.2)
    r0 = density_matrix_from_occupations(m, na, nb, 0.0)
    for t in (0.5, 3.0, 12.0):
        rt = density_matrix_from_occupations(m, na, nb, t)
        assert rt[0, 0] == r0[0, 0]
        assert rt[3, 3] == r0[3, 3]


def _site_reduction(rho, which):
    """diag(1 - n, n) of one site, tracing out the other.

    Basis order {00, 10, 01, 11}: site a is the first label.
    """
    empty, full = ((0, 2), (1, 3)) if which == "a" else ((0, 1), (2, 3))
    return np.diag([sum(rho[i, i] for i in empty), sum(rho[i, i] for i in full)]).real


def test_reduced_density_initial():
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.5, -0.3)
    m = _mode(energy=-1.0, coupling=1.0)
    na = occupation_fd(-1.0, res_a)
    np.testing.assert_allclose(_site_reduction(density_matrix(m, res_a, res_b, 0.0), "a"),
                               np.diag([1.0 - na, na]), atol=1e-15)


def test_reduced_density_is_partial_trace():
    # the single-site reductions of the 4x4 state carry the closed-form
    # occupations
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.7, -0.1)
    m = _mode(energy=-0.8, coupling=1.2, dephasing=0.15)
    t = 1.9
    rho = density_matrix(m, res_a, res_b, t)
    n_a0, n_b0 = occupation_fd(-0.8, res_a), occupation_fd(-0.8, res_b)
    na, nb = occ_a(m, n_a0, n_b0, t), occ_b(m, n_a0, n_b0, t)
    np.testing.assert_allclose(_site_reduction(rho, "a"), np.diag([1.0 - na, na]),
                               atol=1e-12)
    np.testing.assert_allclose(_site_reduction(rho, "b"), np.diag([1.0 - nb, nb]),
                               atol=1e-12)


def test_reduced_density_b_is_swap_of_a():
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.7, -0.1)
    m = _mode(energy=-0.8, coupling=1.2, dephasing=0.15)
    swapped = _site_reduction(density_matrix(m, res_b, res_a, 2.2), "a")
    direct = _site_reduction(density_matrix(m, res_a, res_b, 2.2), "b")
    np.testing.assert_allclose(direct, swapped, atol=1e-14)


def test_oracle_closed_system_is_unitary():
    m = _mode(coupling=1.0, dephasing=0.0, energy=-1.0)
    res_a = ReservoirParams(0.5, 0.4)
    res_b = ReservoirParams(0.5, -0.4)
    rho = lindblad_trajectory(m, res_a, res_b, [2.0], dt_max=1e-3)[0]
    # purity of the closed evolution never changes
    p0 = np.trace(density_matrix(m, res_a, res_b, 0.0) @ density_matrix(m, res_a, res_b, 0.0)).real
    assert np.trace(rho @ rho).real == pytest.approx(p0, abs=1e-9)
    np.testing.assert_allclose(rho, density_matrix(m, res_a, res_b, 2.0), atol=1e-9)


def test_oracle_matches_closed_form_random_thermal():
    rng = np.random.default_rng(23)
    m = _mode(coupling=1.0, dephasing=0.3, energy=-1.2)
    for _ in range(3):
        res_a = ReservoirParams(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
        res_b = ReservoirParams(rng.uniform(0.3, 2.0), rng.uniform(-1, 1))
        gap = np.abs(lindblad_trajectory(m, res_a, res_b, [5.0], dt_max=1e-3)[0]
                     - density_matrix(m, res_a, res_b, 5.0)).max()
        assert gap < 1e-8


def test_oracle_purity_non_increasing():
    m = _mode(coupling=1.0, dephasing=0.25, energy=0.5)
    res_a = ReservoirParams(0.4, 0.6)
    res_b = ReservoirParams(0.4, -0.6)
    traj = lindblad_trajectory(m, res_a, res_b, np.linspace(0.0, 6.0, 25), dt_max=1e-3)
    purity = np.einsum("tij,tji->t", traj, traj).real
    assert np.all(np.diff(purity) <= 1e-10)


def test_trajectory_rejects_bad_grid():
    m = _mode()
    with pytest.raises(ValueError):
        lindblad_trajectory(m, ReservoirParams(1.0), ReservoirParams(1.0),
                            [1.0, 0.5], dt_max=1e-3)


def _res_pair():
    return ReservoirParams(0.5, 0.3), ReservoirParams(0.5, -0.3)


@pytest.mark.parametrize("t_grid", [[math.nan], [1.0, math.nan], [1.0, math.inf], []])
def test_trajectory_rejects_non_finite_or_empty_grid(t_grid):
    with pytest.raises(ValueError, match="t_grid"):
        lindblad_trajectory(_mode(), *_res_pair(), t_grid, dt_max=1e-3)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_oracle_rejects_bad_time(t):
    with pytest.raises(ValueError, match="t_grid"):
        lindblad_trajectory(_mode(), *_res_pair(), [t], dt_max=1e-3)


@pytest.mark.parametrize("dt_max", [math.nan, math.inf, 0.0, -1e-3])
def test_trajectory_rejects_bad_dt_max(dt_max):
    with pytest.raises(ValueError, match="dt_max"):
        lindblad_trajectory(_mode(), *_res_pair(), [1.0], dt_max=dt_max)


def test_trajectory_batch_matches_single_mode_calls():
    fields = [(0.0, 1.0, -1.0), (0.4, 0.3, 0.5), (1.0, 2.0, 1.7), (0.1, 0.0, -2.0)]
    lam, g, eps = (np.array(column) for column in zip(*fields))
    t_grid = [0.0, 0.7, 2.5]
    batch = lindblad_trajectory(ModeSpec(eps, g, lam), *_res_pair(), t_grid, dt_max=1e-3)
    for (rate, coupling, energy), traj in zip(fields, batch):
        single = lindblad_trajectory(_mode(coupling, rate, energy), *_res_pair(), t_grid,
                                     dt_max=1e-3)
        np.testing.assert_allclose(traj, single, rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(fields=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                                 st.floats(0.0, 2.0)), min_size=1, max_size=4),
       column=st.booleans(), ts=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
def test_each_batch_entry_equals_its_single_mode_call(fields, column, ts):
    # a (n,) or (n, 1) batch: the entry of mode i sits at index i (then 0)
    t_grid = np.cumsum(ts)
    eps, g, lam = (np.array(c)[:, None] if column else np.array(c) for c in zip(*fields))
    batch = lindblad_trajectory(ModeSpec(eps, g, lam), *_res_pair(), t_grid, dt_max=1e-2)
    assert batch.shape == np.shape(eps) + (len(t_grid), 4, 4)
    for i, one in enumerate(fields):
        single = lindblad_trajectory(ModeSpec(*one), *_res_pair(), t_grid, dt_max=1e-2)
        np.testing.assert_allclose(batch[i].reshape(single.shape), single, rtol=0.0,
                                   atol=1e-12)


def test_trajectory_output_shapes():
    t_grid = [0.5, 1.0, 1.5]
    assert lindblad_trajectory(_mode(), *_res_pair(), t_grid).shape == (3, 4, 4)
    one = _mode(coupling=np.array([1.0]))
    assert lindblad_trajectory(one, *_res_pair(), t_grid).shape == (1, 3, 4, 4)
    modes = _mode(coupling=[1.0, 0.5, 1.0], dephasing=[0.0, 0.0, 0.2])
    assert lindblad_trajectory(modes, *_res_pair(), t_grid).shape == (3, 3, 4, 4)
    grid = _mode(coupling=np.array([0.5, 1.0, 1.5]), dephasing=np.array([[0.0], [0.2]]))
    assert lindblad_trajectory(grid, *_res_pair(), t_grid).shape == (2, 3, 3, 4, 4)


def test_trajectory_rejects_empty_batch():
    with pytest.raises(ValueError, match="mode must hold at least one mode, not an empty"):
        lindblad_trajectory(_mode(coupling=np.empty(0)), *_res_pair(), [1.0])


@pytest.mark.parametrize("mode", [None, [(0.0, 1.0, 0.1)], (0.0, 1.0, 0.1)])
def test_trajectory_rejects_a_mode_that_is_not_a_mode_spec(mode):
    # vars() raised a raw TypeError for each of these
    with pytest.raises(ValueError, match="mode must be a ModeSpec"):
        lindblad_trajectory(mode, *_res_pair(), [1.0])


def test_trajectory_unstable_mode_in_batch_raises():
    # g * dt_max = 10 lies far outside the RK4 stability region; the blow-up
    # used to warn "overflow" and "invalid value encountered in matmul" first
    modes = _mode(coupling=np.array([1.0, 1e4, 0.5]))
    with pytest.raises(IntegrationError, match="mode 1 "):
        lindblad_trajectory(modes, *_res_pair(), [1.0], dt_max=1e-3)
    grid = _mode(coupling=np.array([[1.0, 0.5], [0.5, 1e4]]))
    with pytest.raises(IntegrationError, match="mode 1,1 "):
        lindblad_trajectory(grid, *_res_pair(), [1.0], dt_max=1e-3)


def test_generator_parts_rebuild_every_per_mode_generator_bit_for_bit():
    l_e, l_g, l_lam = dynamics._liouvillian_parts()
    rng = np.random.default_rng(11)
    for eps, g, lam in zip(rng.uniform(-2, 2, 200), rng.uniform(0, 2, 200),
                           np.where(rng.random(200) < 0.1, 0.0, rng.uniform(0, 1, 200))):
        assert np.array_equal(eps * l_e + g * l_g + lam * l_lam,
                              dynamics._liouvillian(eps, g, lam))


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_repeated_squaring_matches_n_explicit_steps(n):
    # dt = 2**-6 divides each span exactly, so the stepper takes n steps of
    # dt per interval; the three equal intervals reuse one P^n
    dt = 2.0 ** -6
    mode = _mode(coupling=0.8, dephasing=0.3, energy=-0.9)
    res_a, res_b = _res_pair()
    n_a0, n_b0 = occupation_fd(mode.energy, res_a), occupation_fd(mode.energy, res_b)
    y = np.diag([(1 - n_a0) * (1 - n_b0), n_a0 * (1 - n_b0), (1 - n_a0) * n_b0,
                 n_a0 * n_b0]).astype(complex).reshape(16, 1)
    hl = dt * dynamics._liouvillian(mode.energy, mode.coupling, mode.dephasing)
    eye = np.eye(16, dtype=complex)
    step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)
    traj = lindblad_trajectory(mode, res_a, res_b, n * dt * np.arange(1, 4), dt_max=dt)
    for state in traj:
        for _ in range(n):
            y = step @ y
        np.testing.assert_allclose(state, y.reshape(4, 4), rtol=0.0, atol=1e-13)


def _c2_draws():
    # acceptance criterion c2's own draws
    rng = np.random.default_rng(20260822)
    n_a0, n_b0, lam, g_k, t = (rng.uniform(0.0, hi, 10_000)
                               for hi in (1.0, 1.0, 1.0, 2.0, 10.0))
    return n_a0, n_b0, lam, g_k, t


def test_batched_occupations_equal_the_scalar_calls_bit_for_bit():
    n_a0, n_b0, lam, g_k, t = _c2_draws()
    batch = ModeSpec(energy=0.0, coupling=g_k, dephasing=lam)
    got_a, got_b = occ_a(batch, n_a0, n_b0, t), occ_b(batch, n_a0, n_b0, t)
    for i in range(len(t)):
        mode = ModeSpec(energy=0.0, coupling=g_k[i], dephasing=lam[i])
        assert got_a[i].hex() == occ_a(mode, n_a0[i], n_b0[i], t[i]).hex()
        assert got_b[i].hex() == occ_b(mode, n_a0[i], n_b0[i], t[i]).hex()


def test_occupation_lists_broadcast_like_arrays():
    mode = _mode(coupling=0.8, dephasing=0.1, energy=-0.9)
    n_a0, n_b0, t = [0.2, 0.9], [0.1, 0.4], [1.0, 2.5]
    for fn in (occ_a, occ_b, coherence_ab):
        np.testing.assert_array_equal(fn(mode, n_a0, n_b0, t),
                                      fn(mode, np.array(n_a0), np.array(n_b0), np.array(t)))


@settings(max_examples=100, deadline=None)
@given(fields=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
                                 st.floats(0.0, 5.0)), min_size=1, max_size=4),
       ts=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
       temps=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)), mu=st.floats(-1.0, 1.0))
def test_batched_density_matrix_equals_the_scalar_calls_bit_for_bit(fields, ts, temps, mu):
    # modes along the first axis, times along the second
    res_a, res_b = ReservoirParams(temps[0], mu), ReservoirParams(temps[1], -mu)
    eps, g, lam = (np.array(column)[:, None] for column in zip(*fields))
    got = density_matrix(ModeSpec(eps, g, lam), res_a, res_b, np.array(ts))
    assert got.shape == (len(fields), len(ts), 4, 4)
    for i, one_mode in enumerate(fields):
        for j, t in enumerate(ts):
            want = density_matrix(ModeSpec(*one_mode), res_a, res_b, t)
            assert got[i, j].tobytes() == want.tobytes()


def test_one_density_matrix_call_forms_one_envelope(monkeypatch):
    # the state used to run the envelope three times (occ_a, occ_b through
    # occ_a, coherence_ab) and check the occupations five times
    calls = []
    inner = lattice.relaxation_envelope
    monkeypatch.setattr(lattice, "relaxation_envelope",
                        lambda *args: calls.append(args) or inner(*args))
    batch = ModeSpec(np.array([[-1.0], [0.5]]), np.array([[0.8], [1.3]]), 0.2)
    rho = density_matrix(batch, ReservoirParams(0.3, 0.2), ReservoirParams(0.7, -0.4),
                         np.array([0.0, 1.5, 40.0]))
    assert len(calls) == 1 and rho.shape == (2, 3, 4, 4)
    calls.clear()
    density_matrix_from_occupations(_mode(coupling=0.8, dephasing=0.1), 0.7, 0.2, 1.5)
    assert len(calls) == 1


def test_state_entries_equal_the_per_entry_functions_bit_for_bit():
    # one shared envelope: occ_b is mean - swing, the same bits as occ_a with
    # the halves swapped
    n_a0, n_b0 = np.array([0.7, 0.1, 0.35]), np.array([0.2, 0.9, 0.35])
    mode = _mode(coupling=np.array([0.8, -1.3, 2.0]), dephasing=np.array([0.0, 0.3, 1.0]))
    t = 3.7
    rho = density_matrix_from_occupations(mode, n_a0, n_b0, t)
    both = n_a0 * n_b0
    np.testing.assert_array_equal(rho[:, 1, 1].real, occ_a(mode, n_a0, n_b0, t) - both)
    np.testing.assert_array_equal(rho[:, 2, 2].real, occ_b(mode, n_a0, n_b0, t) - both)
    np.testing.assert_array_equal(occ_b(mode, n_a0, n_b0, t), occ_a(mode, n_b0, n_a0, t))
    np.testing.assert_array_equal(rho[:, 2, 1], coherence_ab(mode, n_a0, n_b0, t))
