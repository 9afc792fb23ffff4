import math

import numpy as np
import pytest

from fermichain import (
    BipartitePreparation,
    BoltzmannRangeError,
    ModeSpec,
    ReservoirParams,
    band_gap_ev,
    boltzmann_validity,
    dispersion,
    effective_coupling,
    log_occupation_fd,
    log_vacancy_fd,
    occupation_boltzmann,
    occupation_fd,
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
    assert effective_coupling(math.pi / 2, 1.0) == 1.0
    assert effective_coupling(0.0, 1.0) == 0.0
    np.testing.assert_allclose(effective_coupling(math.pi / 4, 2.0), 1.0, rtol=1e-15)


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


def test_preparation_reservoir_split():
    prep = BipartitePreparation(base=ReservoirParams(temperature=1.0, mu=0.5),
                                delta_t=0.2, delta_mu=0.1)
    assert prep.reservoir_a().temperature == pytest.approx(1.1)
    assert prep.reservoir_b().temperature == pytest.approx(0.9)
    assert prep.reservoir_a().mu == pytest.approx(0.55)
    assert prep.reservoir_b().mu == pytest.approx(0.45)


def test_preparation_flags_large_gradients():
    prep = BipartitePreparation(base=ReservoirParams(temperature=1.0, mu=0.5),
                                delta_t=0.5, delta_mu=0.0)
    assert prep.linear_response_warnings() == ["delta_t"]
    assert not prep.within_linear_response
    quiet = BipartitePreparation(base=ReservoirParams(temperature=1.0, mu=0.5),
                                 delta_t=0.01, delta_mu=0.001)
    assert quiet.within_linear_response


@pytest.mark.parametrize("dephasing", [-0.1, math.nan])
def test_mode_spec_rejects_bad_dephasing(dephasing):
    with pytest.raises(ValueError, match="dephasing"):
        ModeSpec(momentum=1.0, energy=0.0, coupling=1.0, dephasing=dephasing)
