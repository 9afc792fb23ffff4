import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermichain import (
    EquilibriumModePrep,
    ReservoirParams,
    binary_entropy,
    density_matrix,
    density_matrix_from_occupations,
    entropy_a_exact,
    entropy_coeffs,
    entropy_production,
    entropy_production_integral,
    entropy_sum_rate,
    joint_entropy,
    joint_entropy_exact,
    mutual_information,
    mutual_information_exact,
    mutual_information_rate,
    occ_a,
    occ_b,
    occupation_fd,
)
from fermichain.lattice import ModeSpec, relaxation_envelope


def von_neumann(rho: np.ndarray, atol: float = 1e-10) -> float:
    """-Tr rho ln rho of a validated density matrix, by dense eigensolver.

    The independent oracle for the closed-form spectrum behind
    ``joint_entropy_exact``.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise ValueError("density matrix must have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -atol:
        raise ValueError("density matrix has negative eigenvalue %g" % evals.min())
    weights = evals[evals > 0.0]
    return float(-(weights * np.log(weights)).sum())


def _joint_density(p: EquilibriumModePrep, t: float) -> np.ndarray:
    """The full 4x4 state of the prepared mode at time t."""
    mode = ModeSpec(energy=0.0, coupling=p.coupling, dephasing=p.dephasing)
    return density_matrix_from_occupations(mode, p.occupation_a, p.occupation_b, t)


def test_von_neumann_pure_and_mixed():
    assert von_neumann(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann(np.diag([0.5, 0.5])) == pytest.approx(math.log(2.0), rel=1e-14)


def test_von_neumann_initial_product_saturates_subadditivity():
    res_a = ReservoirParams(0.5, 0.3)
    res_b = ReservoirParams(0.5, -0.3)
    m = ModeSpec(energy=0.0, coupling=1.0, dephasing=0.1)
    rho = density_matrix(m, res_a, res_b, 0.0)
    na = occupation_fd(0.0, res_a)
    nb = occupation_fd(0.0, res_b)
    want = binary_entropy(na) + binary_entropy(nb)
    assert von_neumann(rho) == pytest.approx(want, rel=1e-12)


def test_von_neumann_rejects_bad_states():
    with pytest.raises(ValueError):
        von_neumann(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        von_neumann(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValueError):
        von_neumann(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative weight


def test_prep_validation():
    with pytest.raises(ValueError):
        EquilibriumModePrep(n_eq=0.0, delta_n=0.0, coupling=1.0)
    with pytest.raises(ValueError):
        EquilibriumModePrep(n_eq=1.0, delta_n=0.0, coupling=1.0)
    with pytest.raises(ValueError):
        EquilibriumModePrep(n_eq=0.05, delta_n=0.2, coupling=1.0)  # n - dn/2 < 0
    p = EquilibriumModePrep(n_eq=0.3, delta_n=0.1, coupling=1.0, dephasing=0.2)
    assert p.occupation_a == pytest.approx(0.35)
    assert p.occupation_b == pytest.approx(0.25)


@pytest.mark.parametrize("field, value", [
    ("dephasing", math.nan), ("dephasing", math.inf), ("dephasing", -0.1),
    ("coupling", math.nan), ("coupling", math.inf), ("coupling", -math.inf),
])
def test_prep_rejects_non_finite_coupling_and_bad_dephasing(field, value):
    # dephasing=nan or coupling=inf used to pass and turn s1 into NaN
    kwargs = {"n_eq": 0.3, "delta_n": 0.1, "coupling": 1.0, field: value}
    with pytest.raises(ValueError, match=field):
        EquilibriumModePrep(**kwargs)


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.1, [0.2, math.nan]])
def test_binary_entropy_rejects_nan_and_out_of_range(p):
    # NaN used to slip past the range check and return -0.0
    with pytest.raises(ValueError, match="occupation"):
        binary_entropy(p)


def test_coeffs_symmetric_filling_kills_linear_term():
    p = EquilibriumModePrep(n_eq=0.5, delta_n=0.1, coupling=1.0, dephasing=0.2)
    for t in (0.0, 0.9, 4.0):
        assert entropy_coeffs(p, t).s1 == 0.0


def test_coeffs_damped_limit():
    p = EquilibriumModePrep(n_eq=0.2, delta_n=0.1, coupling=1.0, dephasing=0.5)
    c = entropy_coeffs(p, 80.0)
    assert abs(c.s1) < 1e-16 and abs(c.s2) < 1e-16
    assert c.entropy_a == pytest.approx(c.s0)
    assert c.entropy_b == pytest.approx(c.s0)
    assert c.s0 == pytest.approx(binary_entropy(0.2), rel=1e-14)


def test_expansion_residual_is_third_order():
    # |exact - expansion| / dn^3 stays bounded as dn shrequired
    ratios = []
    for dn in (0.1, 0.05, 0.025):
        p = EquilibriumModePrep(n_eq=0.1, delta_n=dn, coupling=1.0, dephasing=0.2)
        exact = entropy_a_exact(p, 1.3)
        approx = entropy_coeffs(p, 1.3).entropy_a
        ratios.append(abs(exact - approx) / dn ** 3)
    assert max(ratios) / min(ratios) < 3.0


def test_mutual_information_trivials():
    p = EquilibriumModePrep(n_eq=0.3, delta_n=0.08, coupling=1.0, dephasing=0.0)
    assert mutual_information(p, 0.0) == 0.0
    # sin = 1 extremum of the envelope
    env_max = p.delta_n ** 2 / (4.0 * p.n_eq * (1.0 - p.n_eq))
    assert mutual_information(p, math.pi / 4.0) == pytest.approx(env_max, rel=1e-12)


def test_mutual_information_matches_exact_to_third_order():
    p = EquilibriumModePrep(n_eq=0.5, delta_n=0.1, coupling=1.0, dephasing=0.2)
    closed = mutual_information(p, 0.7)
    exact = mutual_information_exact(p, 0.7)
    assert abs(closed - exact) < p.delta_n ** 3


def test_production_trivial_zeros():
    no_noise = EquilibriumModePrep(n_eq=0.4, delta_n=0.1, coupling=1.0, dephasing=0.0)
    assert entropy_production(no_noise, 2.0) == 0.0
    no_bias = EquilibriumModePrep(n_eq=0.4, delta_n=0.0, coupling=1.0, dephasing=0.3)
    assert entropy_production(no_bias, 2.0) == 0.0
    assert entropy_production_integral(no_noise) == 0.0


def test_production_integral_equals_lifetime_quadrature():
    p = EquilibriumModePrep(n_eq=0.5, delta_n=0.1, coupling=1.0, dephasing=0.2)
    t = np.linspace(0.0, 400.0, 2_000_001)
    total = np.trapezoid(entropy_production(p, t), t)
    assert entropy_production_integral(p) == pytest.approx(total, abs=1e-10)
    # and it equals the mutual-information envelope maximum
    env_max = p.delta_n ** 2 / (4.0 * p.n_eq * (1.0 - p.n_eq))
    assert entropy_production_integral(p) == pytest.approx(env_max, rel=1e-14)


def test_production_nonnegative():
    p = EquilibriumModePrep(n_eq=0.35, delta_n=0.12, coupling=1.3, dephasing=0.4)
    assert np.all(entropy_production(p, np.linspace(0.0, 30.0, 301)) >= 0.0)


def test_joint_entropy_rate_identity_exact_forms():
    # Pi = d(S_A + S_B)/dt - dI/dt holds exactly in the expansion
    p = EquilibriumModePrep(n_eq=0.5, delta_n=0.1, coupling=1.0, dephasing=0.2)
    for t in (0.0, 0.4, 1.0, 3.7):
        lhs = entropy_production(p, t)
        rhs = entropy_sum_rate(p, t) - mutual_information_rate(p, t)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rates_at_the_largest_dephasing_rates_are_finite():
    # the bracket used to be formed in 2 lam, inf past lam = 9e307: dI/dt
    # read NaN with a RuntimeWarning and d(S_A + S_B)/dt read inf
    p = EquilibriumModePrep(0.4, 0.1, 0.8, 1e308)
    assert mutual_information_rate(p, 0.0) == 0.0
    assert entropy_sum_rate(p, 0.0) == pytest.approx(0.1 ** 2 * 1e308 / (2.0 * 0.4 * 0.6),
                                                     rel=1e-15)
    assert entropy_sum_rate(p, np.array([0.0, 1.0]))[1] == 0.0  # damped out


def _rate_before_halving(prep, t, lam_term):
    """The rates as formed before their bracket was halved: the oracle."""
    env, phase = relaxation_envelope(t, prep.dephasing, prep.coupling)
    n = prep.n_eq
    two_lam = np.where(env > 0.0, 2.0 * prep.dephasing, 0.0)
    return (prep.delta_n ** 2 * env ** 2
            * (lam_term(two_lam, phase) + 2.0 * prep.coupling * np.sin(2.0 * phase))
            / (4.0 * n * (1.0 - n)))


@settings(max_examples=300, deadline=None)
@given(n_eq=st.floats(0.01, 0.99), split=st.floats(-0.9, 0.9),
       coupling=st.floats(-100.0, 100.0),
       dephasing=st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(10.0, 1e300)),
       times=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4))
def test_halved_rates_keep_the_bits_of_the_doubled_form(n_eq, split, coupling, dephasing,
                                                        times):
    p = EquilibriumModePrep(n_eq, split * 2.0 * min(n_eq, 1.0 - n_eq), coupling, dephasing)
    t = np.array(times)
    for rate, lam_term in ((entropy_sum_rate, lambda lam, ph: lam * np.cos(ph) ** 2),
                           (mutual_information_rate, lambda lam, ph: -lam * np.sin(ph) ** 2)):
        want = _rate_before_halving(p, t, lam_term)
        # in the subnormal range a halving rounds; every normal value is exact
        assume(np.all((want == 0.0) | (np.abs(want) > 1e-290)))
        assert [x.hex() for x in rate(p, t).tolist()] == [x.hex() for x in want.tolist()]
        assert rate(p, times[0]).hex() == want[0].hex()


def test_joint_entropy_rate_matches_finite_difference():
    p = EquilibriumModePrep(n_eq=0.5, delta_n=0.1, coupling=1.0, dephasing=0.2)
    h = 1e-5
    fd = (joint_entropy(p, 1.0 + h) - joint_entropy(p, 1.0 - h)) / (2.0 * h)
    assert entropy_production(p, 1.0) == pytest.approx(fd, abs=1e-7)


def test_joint_entropy_closed_system_is_constant():
    p = EquilibriumModePrep(n_eq=0.3, delta_n=0.1, coupling=1.0, dephasing=0.0)
    ts = np.linspace(0.0, 20.0, 101)
    vals = joint_entropy(p, ts)
    assert np.max(np.abs(vals - vals[0])) < 1e-14
    exact = joint_entropy_exact(p, ts)
    assert np.max(np.abs(exact - exact[0])) < 1e-10


def test_joint_entropy_second_law_with_noise():
    p = EquilibriumModePrep(n_eq=0.3, delta_n=0.1, coupling=1.0, dephasing=0.25)
    exact = joint_entropy_exact(p, np.linspace(0.0, 20.0, 401))
    assert np.all(np.diff(exact) >= -1e-10)


def test_joint_entropy_damped_limit():
    p = EquilibriumModePrep(n_eq=0.3, delta_n=0.1, coupling=1.0, dephasing=0.5)
    assert joint_entropy(p, 200.0) == pytest.approx(2.0 * binary_entropy(0.3), rel=1e-12)


def test_joint_entropy_exact_consistency_with_von_neumann():
    for p, ts in ((EquilibriumModePrep(n_eq=0.5, delta_n=0.1, coupling=1.0, dephasing=0.2),
                   (0.7,)),
                  (EquilibriumModePrep(n_eq=0.35, delta_n=0.14, coupling=1.2, dephasing=0.15),
                   (0.0, 0.8, 2.9))):
        for t in ts:
            assert joint_entropy_exact(p, t) == pytest.approx(
                von_neumann(_joint_density(p, t)), abs=1e-12)


def test_subadditivity_exact():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n_eq = rng.uniform(0.05, 0.95)
        dn = rng.uniform(0.0, 2.0 * min(n_eq, 1.0 - n_eq) * 0.9)
        p = EquilibriumModePrep(n_eq=n_eq, delta_n=dn,
                                coupling=rng.uniform(0.0, 2.0),
                                dephasing=rng.uniform(0.0, 1.0))
        t = rng.uniform(0.0, 10.0)
        gap = entropy_a_exact(p, t) + _entropy_b(p, t) - joint_entropy_exact(p, t)
        assert gap >= -1e-12


def _entropy_b(p: EquilibriumModePrep, t):
    """S_B: S_A of the mirrored preparation, -delta_n."""
    return entropy_a_exact(EquilibriumModePrep(p.n_eq, -p.delta_n, p.coupling, p.dephasing), t)


def _exact_oracles(p: EquilibriumModePrep, t):
    """(S_A, S_B, S_AB, I), each from its own envelope: H of occ_a and occ_b,
    and -Tr rho ln rho from the closed-form spectrum."""
    mode = ModeSpec(energy=0.0, coupling=p.coupling, dephasing=p.dephasing)
    s_a = binary_entropy(occ_a(mode, p.occupation_a, p.occupation_b, t))
    s_b = binary_entropy(occ_b(mode, p.occupation_a, p.occupation_b, t))
    env, _ = relaxation_envelope(t, p.dephasing, p.coupling)
    n, dn = p.n_eq, p.delta_n
    quarter = 0.25 * dn * dn
    mid = n * (1.0 - n) + quarter
    split = 0.5 * abs(dn) * env
    evals = np.stack([np.broadcast_to((1.0 - n) ** 2 - quarter, np.shape(env)),
                      np.broadcast_to(n * n - quarter, np.shape(env)),
                      mid + split, mid - split], axis=0)
    logs = np.log(np.where(evals > 0.0, evals, 1.0))
    s_ab = -np.where(evals > 0.0, evals * logs, 0.0).sum(axis=0)
    s_ab = s_ab.item() if np.ndim(s_ab) == 0 else s_ab
    return s_a, s_b, s_ab, s_a + s_b - s_ab


def _hexes(x):
    return [v.hex() for v in np.atleast_1d(np.asarray(x, dtype=float)).tolist()]


@settings(max_examples=300, deadline=None)
@given(n_eq=st.floats(0.01, 0.99), split=st.floats(-0.999, 0.999),
       coupling=st.floats(-10.0, 10.0),
       dephasing=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
       times=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0), st.just(math.inf)),
                      min_size=1, max_size=4))
def test_exact_entropies_keep_the_bits_of_their_oracles(n_eq, split, coupling, dephasing,
                                                        times):
    # t = inf is the damped limit only where lam > 0
    times = [t for t in times if dephasing or t < math.inf] or [0.0]
    p = EquilibriumModePrep(n_eq, split * 2.0 * min(n_eq, 1.0 - n_eq), coupling, dephasing)
    for t in times + [np.array(times)]:
        s_a, s_b, s_ab, info = _exact_oracles(p, t)
        assert _hexes(entropy_a_exact(p, t)) == _hexes(s_a)
        assert _hexes(_entropy_b(p, t)) == _hexes(s_b)
        assert _hexes(joint_entropy_exact(p, t)) == _hexes(s_ab)
        assert _hexes(mutual_information_exact(p, t)) == _hexes(info)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="S_A + S_B - S_AB rounds to -2.22e-16 for the t = 0 product state, "
                          "and both mutint CSVs under perfbench/reference/ carry that cell")
@pytest.mark.parametrize("lam", [0.0, 0.2])
def test_exact_mutual_information_of_the_initial_product_is_not_negative(lam):
    # at t = 0 the two sites are uncorrelated, so I(A:B) = 0 exactly
    assert mutual_information_exact(EquilibriumModePrep(0.5, 0.1, 1.0, lam), 0.0) >= 0.0
