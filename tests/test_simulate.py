import numpy as np
import pytest
from numpy.testing import assert_allclose

from powruin.delaymodel import HashrateProfile, zero_delay_theta
from powruin.phi import phi_from_theta
from powruin.ruinlindley import lead_pmf
from powruin.simulate import (SimConfig, ThetaSampler, simulate_attack,
                              simulate_attack_sweep, simulate_lindley)

ALPHA = 1 / 600


def zero_profile():
    return HashrateProfile.zero_delay(ALPHA)


def var_profile():
    return HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), ALPHA)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(profile=zero_profile(), beta=1.0, k=0)
    with pytest.raises(ValueError):
        SimConfig(profile=zero_profile(), beta=1.0, k=5, stop_lead=3)
    with pytest.raises(ValueError):
        SimConfig(profile=zero_profile(), beta=1.0, k=1, warmup_blocks=10)
    with pytest.raises(ValueError):
        SimConfig(profile=zero_profile(), beta=-1.0, k=1)


def test_sampler_zero_delay_is_exponential():
    rng = np.random.default_rng(0)
    x = ThetaSampler(zero_profile()).sample(rng, 200_000)
    assert x.mean() == pytest.approx(600.0, rel=0.02)
    assert x.std() == pytest.approx(600.0, rel=0.02)


def test_sampler_zero_profile_is_scaled_exponential():
    x = ThetaSampler(zero_profile()).sample(np.random.default_rng(4), 1000)
    e = np.random.default_rng(4).exponential(size=1000)
    assert np.array_equal(x, e / ALPHA)


def test_sampler_respects_dead_zone():
    # first segment mines at fraction zero: no sample can fall below 2 s
    rng = np.random.default_rng(1)
    x = ThetaSampler(var_profile()).sample(rng, 100_000)
    assert x.min() >= 2.0


def test_sampler_mean_matches_analytic():
    prof = var_profile()
    from powruin.delaymodel import assemble_theta
    theta = assemble_theta(prof, 27)
    rng = np.random.default_rng(2)
    x = ThetaSampler(prof).sample(rng, 400_000)
    se = x.std() / np.sqrt(len(x))
    assert abs(x.mean() - theta.mean()) < 4 * se


def test_draw_scalar_and_vector():
    rng = np.random.default_rng(3)
    sampler = ThetaSampler(zero_profile())
    s = sampler.sample(rng, 1)
    assert s.shape == (1,) and s[0] > 0
    v = sampler.sample(rng, 10)
    assert v.shape == (10,)


def test_deterministic_given_seed():
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=2,
                       warmup_blocks=1_000, trials=20_000, seed=7)
    a = simulate_attack(config)
    b = simulate_attack(config)
    assert a.q_hat == b.q_hat
    c = simulate_attack(SimConfig(profile=zero_profile(), beta=0.2 * ALPHA,
                                  k=2, warmup_blocks=1_000, trials=20_000,
                                  seed=8))
    assert c.q_hat != a.q_hat


def test_single_trial():
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=1,
                       warmup_blocks=1_000, trials=1, seed=0)
    est = simulate_attack(config)
    assert est.q_hat in (0.0, 1.0)
    assert est.trials == 1


def test_sweep_matches_zero_delay_analytic():
    # analytic q for rho=0.2, k=1..3: 0.36, 0.16444..., 0.08
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=3,
                       warmup_blocks=2_000, trials=100_000, seed=1)
    ests = simulate_attack_sweep(config, [1, 2, 3])
    for k, q_true in zip([1, 2, 3], [0.36, 0.1644444444444444, 0.08]):
        e = ests[k]
        assert abs(e.q_hat - q_true) <= 3.5 * e.std_err


def test_sweep_rejects_bad_depths():
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=3,
                       warmup_blocks=1_000, trials=1_000, seed=0)
    with pytest.raises(ValueError):
        simulate_attack_sweep(config, [0, 1])
    with pytest.raises(ValueError):
        simulate_attack_sweep(config, [100])


def test_lindley_simulation_matches_lead_pmf():
    rho = 0.2
    phi = phi_from_theta(zero_delay_theta(ALPHA), rho * ALPHA, 8)
    analytic = lead_pmf(phi, 8).masses

    def sampler(rng, size):
        return rng.geometric(1.0 / (1.0 + rho), size=size) - 1

    emp = simulate_lindley(sampler, steps=400_000, seed=5)
    n = min(len(emp), 8)
    se = 1.0 / np.sqrt(400_000)
    assert_allclose(emp[:n], analytic[:n], atol=5 * se)


def test_lindley_rejects_short_runs():
    with pytest.raises(ValueError):
        simulate_lindley(lambda rng, size: np.zeros(size), steps=10)
