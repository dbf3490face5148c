"""The segment-by-segment solver of a profile's theta against sparse LU.

The oracle is a general ME on the profile theta's own ``subgen``, init,
exit and spectrum, which solves every T - sI by ``splu``.  Agreement
measured on 2 vCPUs with OpenBLAS: at most 9.2e-12 relative for the mean,
the mgf, both solve directions and the Phi masses (ingested profile,
K = 51), and 1.7e-11 for the scv, whose second moment cancels against the
squared mean.  The bounds keep about a factor two of margin.
"""

import numpy as np
import pytest

from powruin.delaymodel import HashrateProfile, assemble_theta
from powruin.ingest import (BITCOIN_LIKE, apply_cutoff, bin_delays,
                            synth_delays, to_profile)
from powruin.medist import MEDistribution, MEValidationError, _validated
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


def _splu_oracle(theta):
    return MEDistribution(init=theta.init, subgen=theta.subgen,
                          exit=theta.exit, order=theta.order,
                          eigenvalues=theta.eigenvalues)


@pytest.mark.parametrize("K", [1, 3, 27, 51])
@pytest.mark.parametrize("name", PROFILES)
def test_profile_theta_matches_splu_on_its_subgen(name, K):
    profile = PROFILES[name]()
    theta = assemble_theta(profile, K)
    ref = _splu_oracle(theta)
    beta = 0.3 * RATE

    assert _rel(theta.mean(), ref.mean()) <= AGREE
    assert _rel(theta.scv(), ref.scv()) <= AGREE_SCV
    for s in (-0.01, -RATE, 0.5 * RATE):
        assert _rel(theta.mgf(s), ref.mgf(s)) <= AGREE
    b = np.random.default_rng(K).standard_normal(theta.order)
    for trans in ("N", "T"):
        x = ref.solver(beta).solve(b, trans=trans)
        got = theta.solver(beta).solve(b, trans=trans)
        assert np.max(np.abs(got - x)) <= AGREE * np.max(np.abs(x))
    masses = phi_from_theta(theta, beta, 20).masses
    assert _rel(masses, phi_from_theta(ref, beta, 20).masses) <= AGREE


def test_profile_theta_builds_subgen_on_first_access():
    theta = assemble_theta(PROFILES["criterion58"](), 9)
    assert "subgen" not in vars(theta)
    phi_from_theta(theta, 0.2 * RATE, 5)
    theta.scv()
    assert "subgen" not in vars(theta)
    assert theta.subgen.shape == (theta.order, theta.order)
    assert theta.subgen is theta.subgen


def test_profile_solver_refuses_a_singular_shift_and_bad_trans():
    theta = assemble_theta(PROFILES["fixed10"](), 3)
    with pytest.raises(ValueError, match="singular"):
        theta.solver(-RATE)  # the full-rate phase -alpha - s vanishes
    with pytest.raises(ValueError, match="trans"):
        theta.solver(0.0).solve(np.ones(theta.order), trans="H")


def _corrupt(theta, **fields):
    for name, value in fields.items():
        object.__setattr__(theta, name, value)
    return theta


@pytest.mark.parametrize("corruption, message", [
    (lambda t: dict(init=2.0 * t.init), "init mass"),
    (lambda t: dict(eigenvalues=-t.eigenvalues), "eigenvalue"),
    (lambda t: dict(_alpha=-t._alpha), "mean"),
    (lambda t: dict(exit=1.01 * t.exit), "mgf"),
])
def test_validation_still_raises_on_a_corrupted_profile_theta(corruption,
                                                              message):
    # a copy without the solver of T that validation cached
    theta = assemble_theta(PROFILES["criterion58"](), 9)
    fresh = _corrupt(type(theta).__new__(type(theta)), **{
        k: v for k, v in vars(theta).items() if k != "_T_solver"})
    with pytest.raises(MEValidationError, match=message):
        _validated(_corrupt(fresh, **corruption(theta)))
