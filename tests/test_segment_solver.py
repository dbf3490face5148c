"""The segment-by-segment solver of a profile's theta against sparse LU.

The oracle assembles the profile's T from sparse Kronecker blocks, with
theta's init and exit, and solves every T - sI by ``splu``; its Phi masses
take the transposed route, c A^n h with c = v A / beta.  Agreement
measured on 2 vCPUs with OpenBLAS: at most 9.2e-12 relative for the mean,
the mgf, the solves and the Phi masses (ingested profile, K = 51), and
1.7e-11 for the scv, whose second moment cancels against the squared
mean.  The bounds keep about a factor two of margin.
"""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from powruin.delaymodel import HashrateProfile, _ProfileTheta, assemble_theta
from powruin.ingest import (BITCOIN_LIKE, apply_cutoff, bin_delays,
                            synth_delays, to_profile)
from powruin.medist import MEValidationError, _validated, cme
from powruin.phi import phi_from_theta

RATE = 1 / 590
AGREE = 2e-11
AGREE_SCV = 5e-11


def _ingested():
    """The criterion-10 profile: N = 130 segments."""
    kept, _ = apply_cutoff(synth_delays(BITCOIN_LIKE, 50_000, seed=6), 0.01)
    return to_profile(bin_delays(kept, 128), RATE)


PROFILES = {
    "zero": lambda: HashrateProfile.zero_delay(RATE),
    "fixed10": lambda: HashrateProfile.fixed_delay(10.0, RATE),
    "criterion58": lambda: HashrateProfile((0.0, 2.0, 5.0, 10.0),
                                           (0.0, 0.4, 0.8), RATE),
    "ingested": _ingested,
}


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - b) / np.abs(b)))


def _sparse_subgen(profile, K):
    """The profile's T from sparse blocks: a kron of the unit CME per
    segment, coupled through its exit column into the next block."""
    N, alpha = profile.n_segments, profile.fullrate
    if N == 0:
        return scipy.sparse.csc_matrix([[-alpha]])
    unit = cme(K, 1.0)
    delta = 1.0 / np.asarray(profile.segment_lengths)
    rates = np.asarray(profile.fractions) * alpha
    blocks = (scipy.sparse.kron(scipy.sparse.diags(delta), unit.subgen)
              - scipy.sparse.diags(np.repeat(rates, K)))
    coupling = scipy.sparse.kron(
        scipy.sparse.diags(delta[:-1], 1, shape=(N, N)),
        scipy.sparse.csr_matrix(np.outer(unit.exit, unit.init)))
    last = np.zeros((N * K, 1))
    last[-K:, 0] = unit.exit * delta[-1]
    return scipy.sparse.bmat(
        [[blocks + coupling, last], [None, [[-alpha]]]], format="csc")


class _SpluOracle:
    """Mean, scv, mgf, solves and Phi masses by ``splu`` on a sparse T."""

    def __init__(self, theta, T):
        self.v, self.h, self.T = theta.init, theta.exit, T

    def solver(self, s):
        eye = scipy.sparse.identity(self.T.shape[0], format="csc")
        return scipy.sparse.linalg.splu(self.T - s * eye)

    def mean(self):
        return -self.v @ self.solver(0.0).solve(np.ones(len(self.v)))

    def scv(self):
        lu = self.solver(0.0)
        x = lu.solve(np.ones(len(self.v)))
        return 2.0 * (self.v @ lu.solve(x)) / (self.v @ x) ** 2 - 1.0

    def mgf(self, s):
        return -self.v @ self.solver(-s).solve(self.h)

    def masses(self, beta, k):
        lu = self.solver(beta)
        c = lu.solve(-self.v, trans="T")  # c = v A / beta
        y, out = self.h, []
        for _ in range(k):
            out.append(c @ y)
            y = lu.solve(-beta * y)  # y = A y
        return np.array(out)


@pytest.mark.parametrize("K", [1, 3, 27, 51])
@pytest.mark.parametrize("name", PROFILES)
def test_profile_theta_matches_splu_on_its_subgen(name, K):
    profile = PROFILES[name]()
    theta = assemble_theta(profile, K)
    T = _sparse_subgen(profile, K)
    ref = _SpluOracle(theta, T)
    beta = 0.3 * RATE

    assert _rel(theta.mean(), ref.mean()) <= AGREE
    assert _rel(theta.scv(), ref.scv()) <= AGREE_SCV
    for s in (-0.01, -RATE, 0.5 * RATE):
        assert _rel(theta.mgf(s), ref.mgf(s)) <= AGREE
    b = np.random.default_rng(K).standard_normal(theta.order)
    x = ref.solver(beta).solve(b)
    got = theta.solver(beta)(b)
    assert np.max(np.abs(got - x)) <= AGREE * np.max(np.abs(x))
    masses = phi_from_theta(theta, beta, 20).masses
    assert _rel(masses, ref.masses(beta, 20)) <= AGREE
    if theta.order <= 500:
        assert np.array_equal(theta.subgen, T.toarray())


def test_profile_theta_builds_subgen_on_first_access():
    theta = assemble_theta(PROFILES["criterion58"](), 9)
    assert "subgen" not in vars(theta)
    phi_from_theta(theta, 0.2 * RATE, 5)
    theta.scv()
    assert "subgen" not in vars(theta)
    assert theta.subgen.shape == (theta.order, theta.order)
    assert theta.subgen is theta.subgen


def test_profile_solver_refuses_a_singular_shift():
    theta = assemble_theta(PROFILES["fixed10"](), 3)
    with pytest.raises(ValueError, match="singular"):
        theta.solver(-RATE)  # the full-rate phase -alpha - s vanishes


def _corrupt(theta, **fields):
    for name, value in fields.items():
        object.__setattr__(theta, name, value)
    return theta


@pytest.mark.parametrize("corruption, message", [
    (lambda t: dict(init=2.0 * t.init), "init mass"),
    (lambda t: dict(_mean=-t._mean), "mean"),
    pytest.param(lambda t: dict(_alpha=-t._alpha), "mgf", id="alpha-mgf"),
    (lambda t: dict(exit=1.01 * t.exit), "mgf"),
    # NaN fails both tolerance checks, as it fails phi's
    pytest.param(lambda t: dict(init=np.append(t.init[:-1], np.nan)),
                 "init mass", id="nan-init"),
    pytest.param(lambda t: dict(exit=np.append(t.exit[:-1], np.nan)), "mgf",
                 id="nan-exit"),
])
def test_validation_still_raises_on_a_corrupted_profile_theta(corruption,
                                                              message):
    # an unvalidated copy, without the solver of T that validation caches;
    # its mean is stored when it is built
    theta = assemble_theta(PROFILES["criterion58"](), 9)
    fresh = _ProfileTheta(PROFILES["criterion58"](), 9)
    with pytest.raises(MEValidationError, match=message):
        _validated(_corrupt(fresh, **corruption(theta)))


def test_segment_solve_stays_finite_where_pass_products_underflow():
    # a 10 s dead time, then 200 full-rate segments of 1e4 s: each is left
    # without mining with probability about exp(-17), so the product of the
    # pass probabilities underflows.  Full rate is memoryless, so Phi is the
    # fixed 10 s delay's; measured 3.5e-14 relative at K = 27
    thresholds = (0.0, 10.0) + tuple(10.0 + 1e4 * np.arange(1, 201))
    profile = HashrateProfile(thresholds, (0.0,) + (1.0,) * 200, RATE)
    theta = assemble_theta(profile, 27)
    beta = 0.2 * RATE
    masses = phi_from_theta(theta, beta, 20).masses
    assert np.all(np.isfinite(masses))
    np.testing.assert_allclose(masses[:3], [0.83051, 0.14123, 0.02354],
                               atol=1e-5)
    ref = phi_from_theta(assemble_theta(PROFILES["fixed10"](), 27), beta, 20)
    assert _rel(masses, ref.masses) <= 2e-13
    assert _rel(theta.mean(), 600.0) <= 1e-14
