import math

import numpy as np
import pytest

from fermichain import (
    IntegrationError,
    ModeSpec,
    ReservoirParams,
    coherence_ab,
    density_matrix,
    density_matrix_from_occupations,
    lindblad_oracle,
    lindblad_trajectory,
    occ_a,
    occ_b,
    occupation_fd,
    reduced_density,
)


def _mode(coupling=1.0, dephasing=0.0, energy=0.0, k=math.pi / 2):
    return ModeSpec(momentum=k, energy=energy, coupling=coupling,
                    dephasing=dephasing, bare_coupling=coupling)


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
    rho = density_matrix_from_occupations(1.0, 1.0, 1.0, 0.3, 2.5)
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
        rho = density_matrix_from_occupations(na, nb, rng.uniform(0, 2),
                                              rng.uniform(0, 1), rng.uniform(0, 10))
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_density_matrix_fixed_corners():
    na, nb = 0.62, 0.17
    r0 = density_matrix_from_occupations(na, nb, 1.1, 0.2, 0.0)
    for t in (0.5, 3.0, 12.0):
        rt = density_matrix_from_occupations(na, nb, 1.1, 0.2, t)
        assert rt[0, 0] == r0[0, 0]
        assert rt[3, 3] == r0[3, 3]


def test_reduced_density_initial():
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.5, -0.3)
    m = _mode(energy=-1.0, coupling=1.0)
    na = occupation_fd(-1.0, res_a)
    np.testing.assert_allclose(reduced_density("a", m, res_a, res_b, 0.0),
                               np.diag([1.0 - na, na]), atol=1e-15)


def test_reduced_density_is_partial_trace():
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.7, -0.1)
    m = _mode(energy=-0.8, coupling=1.2, dephasing=0.15)
    t = 1.9
    rho = density_matrix(m, res_a, res_b, t)
    # trace out site b: basis order {00, 10, 01, 11}, site a is the first label
    red_a = np.array([[rho[0, 0] + rho[2, 2], 0.0],
                      [0.0, rho[1, 1] + rho[3, 3]]]).real
    np.testing.assert_allclose(reduced_density("a", m, res_a, res_b, t), red_a,
                               atol=1e-12)
    red_b = np.array([[rho[0, 0] + rho[1, 1], 0.0],
                      [0.0, rho[2, 2] + rho[3, 3]]]).real
    np.testing.assert_allclose(reduced_density("b", m, res_a, res_b, t), red_b,
                               atol=1e-12)


def test_reduced_density_b_is_swap_of_a():
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.7, -0.1)
    m = _mode(energy=-0.8, coupling=1.2, dephasing=0.15)
    swapped = reduced_density("a", m, res_b, res_a, 2.2)
    direct = reduced_density("b", m, res_a, res_b, 2.2)
    np.testing.assert_allclose(direct, swapped, atol=1e-14)


def test_reduced_density_rejects_unknown_site():
    m = _mode()
    with pytest.raises(ValueError):
        reduced_density("c", m, ReservoirParams(1.0), ReservoirParams(1.0), 0.0)


def test_oracle_closed_system_is_unitary():
    m = _mode(coupling=1.0, dephasing=0.0, energy=-1.0)
    res_a = ReservoirParams(0.5, 0.4)
    res_b = ReservoirParams(0.5, -0.4)
    rho = lindblad_oracle(m, res_a, res_b, 2.0, dt_max=1e-3)
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
        gap = np.abs(lindblad_oracle(m, res_a, res_b, 5.0, dt_max=1e-3)
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
        lindblad_oracle(_mode(), *_res_pair(), t, dt_max=1e-3)


@pytest.mark.parametrize("dt_max", [math.nan, math.inf, 0.0, -1e-3])
def test_trajectory_rejects_bad_dt_max(dt_max):
    with pytest.raises(ValueError, match="dt_max"):
        lindblad_trajectory(_mode(), *_res_pair(), [1.0], dt_max=dt_max)


def test_trajectory_batch_matches_single_mode_calls():
    modes = [_mode(coupling=g, dephasing=lam, energy=eps)
             for lam, g, eps in [(0.0, 1.0, -1.0), (0.4, 0.3, 0.5),
                                 (1.0, 2.0, 1.7), (0.1, 0.0, -2.0)]]
    t_grid = [0.0, 0.7, 2.5]
    batch = lindblad_trajectory(modes, *_res_pair(), t_grid, dt_max=1e-3)
    for mode, traj in zip(modes, batch):
        single = lindblad_trajectory(mode, *_res_pair(), t_grid, dt_max=1e-3)
        np.testing.assert_allclose(traj, single, rtol=0.0, atol=1e-12)


def test_trajectory_output_shapes():
    t_grid = [0.5, 1.0, 1.5]
    assert lindblad_trajectory(_mode(), *_res_pair(), t_grid).shape == (3, 4, 4)
    assert lindblad_trajectory([_mode()], *_res_pair(), t_grid).shape == (1, 3, 4, 4)
    modes = (_mode(), _mode(coupling=0.5), _mode(dephasing=0.2))
    assert lindblad_trajectory(modes, *_res_pair(), t_grid).shape == (3, 3, 4, 4)


def test_trajectory_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        lindblad_trajectory([], *_res_pair(), [1.0])


@pytest.mark.filterwarnings("ignore:.*in matmul:RuntimeWarning")
def test_trajectory_unstable_mode_in_batch_raises():
    # g * dt_max = 10 lies far outside the RK4 stability region
    modes = [_mode(coupling=1.0), _mode(coupling=1e4), _mode(coupling=0.5)]
    with pytest.raises(IntegrationError, match="mode 1"):
        lindblad_trajectory(modes, *_res_pair(), [1.0], dt_max=1e-3)
