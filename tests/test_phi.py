import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from numpy.testing import assert_allclose

from powruin.delaymodel import (HashrateProfile, assemble_theta,
                                fixed_delay_theta, random_delay_theta,
                                zero_delay_theta)
from powruin.ingest import (BITCOIN_LIKE, apply_cutoff, bin_delays,
                            synth_delays, to_profile)
from powruin.medist import MEDistribution, erlang_me
from powruin.phi import PhiDistribution, phi_from_theta

ALPHA = 1 / 600
BETA = 0.2 * ALPHA


def geometric_masses(n):
    return (5 / 6) * (1 / 6) ** np.arange(n)


def test_zero_delay_masses_are_geometric():
    phi = phi_from_theta(zero_delay_theta(ALPHA), BETA, 10)
    assert_allclose(phi.masses, geometric_masses(10), atol=1e-14)
    assert_allclose(phi.masses[0], 5 / 6, rtol=1e-13)
    assert_allclose(phi.masses[1], 5 / 36, rtol=1e-13)


def test_zero_delay_mean():
    phi = phi_from_theta(zero_delay_theta(ALPHA), BETA, 5)
    assert_allclose(phi.mean, 0.2, rtol=1e-12)


def test_vanishing_adversary():
    phi = phi_from_theta(zero_delay_theta(ALPHA), 1e-12 * ALPHA, 5)
    assert phi.masses[0] > 1 - 1e-10
    assert phi.mean < 1e-10


def test_rejects_bad_args():
    theta = zero_delay_theta(ALPHA)
    with pytest.raises(ValueError):
        phi_from_theta(theta, -1.0, 5)
    for beta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            phi_from_theta(theta, beta, 5)
    with pytest.raises(ValueError):
        phi_from_theta(theta, BETA, 0)
    with pytest.raises(ValueError):
        phi_from_theta(theta, BETA, 20_000)


def test_ccdf():
    phi = phi_from_theta(zero_delay_theta(ALPHA), BETA, 10)
    tail = 1.0 - np.cumsum(phi.masses)
    assert_allclose(tail[0], 1 / 6, rtol=1e-12)
    assert np.all(np.diff(tail) <= 1e-14)
    assert np.all(tail >= 0)


def test_ccdf_vanishing_adversary():
    phi = phi_from_theta(zero_delay_theta(ALPHA), 1e-12 * ALPHA, 3)
    assert 1.0 - phi.masses[0] < 1e-10


def test_partial_pgf_values():
    phi = phi_from_theta(zero_delay_theta(ALPHA), BETA, 8)
    assert_allclose(phi.masses[0], 5 / 6, rtol=1e-12)
    assert phi.masses.sum() <= 1 + 1e-10


def test_wald_identity():
    # mean count = beta * mean interval, for any interval distribution; the
    # masses, computed without the mean, must carry the same first moment
    prof = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), ALPHA)
    for theta in (zero_delay_theta(ALPHA),
                  fixed_delay_theta(10.0, 1 / 590, 9),
                  assemble_theta(prof, 9)):
        phi = phi_from_theta(theta, BETA, 200)
        assert_allclose(phi.mean, BETA * theta.mean(), rtol=1e-9)
        assert_allclose(np.arange(200) @ phi.masses, phi.mean, rtol=1e-9)


def test_pgf_consistency_with_mgf():
    # c (I - Az)^{-1} b evaluated through the masses must match the mgf
    # of the interval at s = beta (z - 1)
    theta = fixed_delay_theta(10.0, 1 / 590, 9)
    phi = phi_from_theta(theta, BETA, 400)
    for z in (0.0, 0.5, 0.9):
        geom_tail = phi.masses * z ** np.arange(400)
        assert_allclose(geom_tail.sum(), theta.mgf(BETA * (z - 1)),
                        atol=1e-10)


def quad_oracle(theta, beta, n):
    """Poisson count mass over a random interval, by adaptive quadrature."""
    def integrand(x):
        lam = beta * x
        logp = -lam + n * np.log(lam) if lam > 0 else (0.0 if n == 0 else -np.inf)
        w = np.exp(logp - scipy.special.gammaln(n + 1)) if lam > 0 else (
            1.0 if n == 0 else 0.0)
        return w * theta.pdf(x)
    upper = 60 * theta.mean()
    val, _ = scipy.integrate.quad(integrand, 0, upper, limit=400)
    return val


import scipy.special  # noqa: E402


@pytest.mark.parametrize("make_theta", [
    lambda: zero_delay_theta(ALPHA),
    lambda: fixed_delay_theta(10.0, 1 / 590, 9),
    lambda: assemble_theta(
        HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), ALPHA), 5),
])
def test_quadrature_oracle(make_theta):
    theta = make_theta()
    assert theta.order <= 30
    phi = phi_from_theta(theta, BETA, 8)
    for n in range(8):
        assert abs(phi.masses[n] - quad_oracle(theta, BETA, n)) < 1e-6


@pytest.mark.parametrize("make_theta", [
    lambda: random_delay_theta(erlang_me(3, 5.0), 1 / 595),
    lambda: fixed_delay_theta(10.0, 1 / 590, 9),
    lambda: assemble_theta(
        HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), ALPHA), 9),
], ids=["random", "fixed10", "criterion58"])
def test_forward_solves_match_matrix_powers(make_theta):
    # p(n) = v A^{n+1} h / beta with A = -beta (T - beta I)^{-1} inverted
    theta = make_theta()
    A = -BETA * np.linalg.inv(theta.subgen - BETA * np.eye(theta.order))
    ref, y = [], theta.exit
    for _ in range(12):
        y = A @ y
        ref.append(theta.init @ y / BETA)
    masses = phi_from_theta(theta, BETA, 12).masses
    assert np.max(np.abs(masses - ref) / np.abs(ref)) <= 1e-12


def test_recursion_does_not_amplify():
    theta = fixed_delay_theta(10.0, 1 / 590, 9)
    phi = phi_from_theta(theta, BETA, 60)
    # masses of a matrix-geometric pmf decay geometrically past the head
    assert phi.masses[-1] < phi.masses[5]


def test_large_sparse_model_matches_small_dense():
    prof = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), ALPHA)
    small = phi_from_theta(assemble_theta(prof, 9), BETA, 6)
    big = phi_from_theta(assemble_theta(prof, 27), BETA, 6)
    assert_allclose(small.masses, big.masses, atol=2e-5)
    assert_allclose(small.mean, big.mean, rtol=1e-6)


@pytest.mark.parametrize("n", [1, 2, 5, 50])
@pytest.mark.parametrize("ratio", [0.1, 0.3, 0.45])
def test_random_delay_phi_is_negbin_convolved_with_geometric(n, ratio):
    # an Erlang(n, lam = n/mu) delay, then Exp(alpha): over each phase the
    # adversary count is geometric, so Phi = NegBin(n, lam/(lam + beta)) *
    # Geometric(alpha/(alpha + beta)).  Measured at most 8.0e-14 relative
    # over the 40 masses (n = 50, ratio 0.1), down to masses of 2e-41.
    mu, alpha, k = 10.0, 1 / 590, 40
    beta, lam = ratio * alpha, n / mu
    p, q = lam / (lam + beta), alpha / (alpha + beta)
    negbin = np.array([math.comb(j + n - 1, j) * p**n * (1 - p)**j
                       for j in range(k)])
    exact = np.convolve(negbin, q * (1 - q) ** np.arange(k))[:k]
    phi = phi_from_theta(random_delay_theta(erlang_me(n, mu), alpha), beta, k)
    assert np.max(np.abs(phi.masses - exact) / exact) < 3e-13
    assert_allclose(phi.mean, beta * (mu + 1 / alpha), rtol=1e-14)


@pytest.mark.parametrize("masses, mean", [([0.8, np.nan], 0.2),
                                          ([0.8], np.nan)],
                         ids=["nan-mass", "nan-mean"])
def test_phi_distribution_refuses_nan(masses, mean):
    with pytest.raises(ValueError, match="NaN|nan"):
        PhiDistribution(masses=masses, mean=mean)


def _criterion10_profile():
    kept, _ = apply_cutoff(synth_delays(BITCOIN_LIKE, 50_000, seed=6), 0.01)
    return to_profile(bin_delays(kept, 128), ALPHA)


def _underflow_profile():
    """A 10 s dead time, then 200 full-rate segments of 1e4 s each."""
    thresholds = (0.0, 10.0) + tuple(10.0 + 1e4 * np.arange(1, 201))
    return HashrateProfile(thresholds, (0.0,) + (1.0,) * 200, ALPHA)


@pytest.mark.parametrize("K", [9, 27, 51])
@pytest.mark.parametrize("profile", [
    lambda: HashrateProfile.zero_delay(ALPHA),
    lambda: HashrateProfile.fixed_delay(10.0, ALPHA),
    lambda: HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), ALPHA),
    _criterion10_profile,
], ids=["zero", "fixed10", "criterion58", "criterion10"])
@pytest.mark.parametrize("beta_fraction", [0.2, 0.45])
def test_profile_phi_stepping_equals_the_generic_loop(profile, K,
                                                      beta_fraction):
    # a profile's theta steps Phi in its own segment layout; the generic
    # loop of MEDistribution makes one full solve per mass on the same
    # theta.  Measured at most 1.2e-14 relative at k = 200
    theta = assemble_theta(profile(), K)
    beta = beta_fraction * ALPHA
    got = theta._phi_masses(beta, 200)
    ref = MEDistribution._phi_masses(theta, beta, 200)
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


@pytest.mark.parametrize("beta_fraction", [0.2, 0.45])
def test_underflow_profile_phi_stepping_stays_near_the_generic_loop(
        beta_fraction):
    # the deep masses of this profile are ill-conditioned: at k = 200 the
    # two routes differ by up to 3.5e-13 relative (K = 27), and each lies
    # 1.7e-13 to 5.0e-13 from the fixed 10 s delay's Phi, which is the same
    # law (full rate is memoryless); at k = 20 they agree to 8.5e-14
    theta = assemble_theta(_underflow_profile(), 27)
    beta = beta_fraction * ALPHA
    got = theta._phi_masses(beta, 200)
    ref = MEDistribution._phi_masses(theta, beta, 200)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref) / ref) <= 1e-12
