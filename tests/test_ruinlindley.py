import numpy as np
import pytest
from numpy.testing import assert_allclose

from powruin.delaymodel import zero_delay_theta
from powruin.phi import PhiDistribution, phi_from_theta
from powruin.ruinlindley import (LeadDistribution, RuinTable,
                                 UnstableRegimeError, lead_pmf,
                                 ruin_recursive, ruin_via_lindley)

ALPHA = 1 / 600
BETA = 0.2 * ALPHA
RHO = 0.2


def geometric_phi(rho, k):
    p = rho / (1 + rho)
    masses = (1 - p) * p ** np.arange(k)
    return PhiDistribution(masses=masses, mean=rho)


def random_phi(rng, support=40):
    """Complete pmf on 0..support-1 with mean < 1 and positive p(0)."""
    raw = rng.random(support) * 0.5 ** np.arange(support)
    p = raw / raw.sum() * 0.4
    p[0] += 0.6
    mean = float(np.arange(support) @ p)
    assert mean < 1.0
    return PhiDistribution(masses=p, mean=mean)


def test_zero_delay_ruin_closed_form():
    phi = phi_from_theta(zero_delay_theta(ALPHA), BETA, 10)
    psi = ruin_recursive(phi, 10).psi
    assert_allclose(psi, RHO ** (np.arange(10) + 1), atol=1e-12)


def test_zero_delay_lead_closed_form():
    phi = phi_from_theta(zero_delay_theta(ALPHA), BETA, 10)
    q = lead_pmf(phi, 10).masses
    # p_Q(0) = (1 - E)/p(0) = 0.8 * 6/5 = 0.96; tails are rho^{u+1}, so
    # p_Q(n) = (1 - rho) rho^{n+1} for n >= 1
    assert_allclose(q[0], 0.96, rtol=1e-12)
    expect = (1 - RHO) * RHO ** (np.arange(10) + 1)
    assert_allclose(q[1:], expect[1:], atol=1e-12)


def test_routes_agree_geometric():
    phi = geometric_phi(0.35, 30)
    a = ruin_recursive(phi, 30).psi
    b = ruin_via_lindley(phi, 30).psi
    assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_routes_agree_random_pmfs(seed):
    rng = np.random.default_rng(seed)
    phi = random_phi(rng)
    a = ruin_recursive(phi, 25).psi
    b = ruin_via_lindley(phi, 25).psi
    assert_allclose(a, b, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_drift_identity(seed):
    # p_Q(0) p(0) = 1 - E[count]
    rng = np.random.default_rng(100 + seed)
    phi = random_phi(rng)
    q0 = lead_pmf(phi, 5).masses[0]
    assert abs(q0 * phi.masses[0] - (1.0 - phi.mean)) < 1e-12


def test_psi_monotone_decreasing():
    rng = np.random.default_rng(7)
    phi = random_phi(rng)
    psi = ruin_recursive(phi, 20).psi
    assert np.all(np.diff(psi) <= 1e-12)
    assert psi[0] == pytest.approx(phi.mean)


def test_lead_masses_sum_to_one():
    phi = geometric_phi(0.2, 200)
    q = lead_pmf(phi, 200).masses
    assert q.sum() == pytest.approx(1.0, abs=1e-10)


def test_unstable_regime_raises():
    masses = np.array([0.2, 0.1, 0.1, 0.1])
    phi = PhiDistribution(masses=masses, mean=1.4)
    with pytest.raises(UnstableRegimeError):
        ruin_recursive(phi, 3)
    with pytest.raises(UnstableRegimeError):
        lead_pmf(phi, 3)


def test_zero_p0_rejected():
    phi = PhiDistribution(masses=np.array([0.0, 0.5, 0.5]), mean=1.5 * 0.5)
    with pytest.raises(ValueError):
        ruin_recursive(phi, 2)


def test_k_out_of_range():
    phi = geometric_phi(0.2, 5)
    with pytest.raises(ValueError):
        ruin_recursive(phi, 6)
    with pytest.raises(ValueError):
        lead_pmf(phi, 0)


def test_heavier_counts_raise_ruin():
    a = ruin_recursive(geometric_phi(0.15, 10), 10).psi
    b = ruin_recursive(geometric_phi(0.30, 10), 10).psi
    assert np.all(b >= a)


def test_masses_summing_above_one_keep_tails_nonnegative():
    # rounding can leave Phi masses summing to 1 + O(1e-11); a negative
    # tail 1 - cumsum would make deep lead masses negative
    masses = np.zeros(40)
    masses[:3] = [0.7, 0.2, 0.1 + 2e-11]
    phi = PhiDistribution(masses=masses, mean=0.4)
    assert np.all(lead_pmf(phi, 40).masses >= 0)
    assert_allclose(ruin_recursive(phi, 40).psi, ruin_via_lindley(phi, 40).psi,
                    atol=1e-10)


def test_lead_and_ruin_tables_refuse_nan():
    # each check is written so that NaN fails it
    with pytest.raises(ValueError, match="NaN"):
        LeadDistribution([np.nan, 0.1])
    with pytest.raises(ValueError, match="NaN"):
        RuinTable([np.nan])


@pytest.mark.parametrize("build, message", [
    (lambda m: PhiDistribution(m, 0.5), "Phi masses sum to"),
    (lambda m: LeadDistribution(m), "lead masses sum to"),
], ids=["phi", "lead"])
def test_masses_summing_past_one_are_refused(build, message):
    # the shared pmf check allows 1e-8 above one, not 2e-8
    build([0.6, 0.4 + 1e-8])
    with pytest.raises(ValueError, match=message):
        build([0.6, 0.4 + 2e-8])
