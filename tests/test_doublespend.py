import functools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import powruin
from powruin import delaymodel, doublespend, medist, ruinlindley
from powruin.delaymodel import (HashrateProfile, assemble_theta,
                                calibrate_alpha, fixed_delay_theta,
                                zero_delay_theta)
from powruin.doublespend import (DelayModel, adversary_lead_pmf, analyze,
                                 compute_q, honest_lead_pmf,
                                 poisson_partial_pgf, truncated_power,
                                 truncated_product)
from powruin.medist import erlang_me
from powruin.phi import phi_from_theta
from powruin.ruinlindley import (RuinTable, lead_pmf, ruin_recursive,
                                 ruin_via_lindley)

ALPHA = 1 / 600
BETA = 0.2 * ALPHA


def test_partial_pgf_rejects_bad_coefficients():
    # the pgf algebra's output is checked once, as p_Z in compute_q
    ruin = RuinTable(psi=np.array([0.5, 0.25]))
    with pytest.raises(ValueError):
        compute_q(np.array([0.5, -0.1]), 0.0, ruin)
    with pytest.raises(ValueError):
        compute_q(np.array([0.9, 0.9]), 0.0, ruin)


def test_poisson_partial_pgf():
    g = poisson_partial_pgf(0.5, 4)
    expect = np.exp(-0.5) * 0.5 ** np.arange(4) / np.array([1, 1, 2, 6])
    assert_allclose(g, expect, rtol=1e-12)
    g0 = poisson_partial_pgf(0.0, 3)
    assert_allclose(g0, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        poisson_partial_pgf(-1.0, 3)


@pytest.mark.parametrize("lam", [0.0, 1e-300, 1e-12, 0.0033, 0.2, 3.7,
                                 50.0, 700.0])
def test_poisson_partial_pgf_equals_scipy_stats(lam):
    from scipy import stats
    for k in (1, 2, 20, 200):
        assert np.array_equal(poisson_partial_pgf(lam, k),
                              stats.poisson.pmf(np.arange(k), lam))


def test_cli_import_leaves_scipy_stats_out():
    src = os.path.dirname(os.path.dirname(powruin.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, powruin.cli; print([m in sys.modules for m in "
         "('scipy.stats', 'scipy.optimize')], "
         "[m for m in sys.modules if m.startswith('scipy.sparse')])"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True).stdout
    assert out.strip() == "[False, False] []"


def test_truncated_product_hand_case():
    g = np.array([0.5, 0.5])
    sq = truncated_product(g, g)
    assert_allclose(sq, [0.25, 0.5])


def test_truncated_product_matches_full_convolution_head():
    rng = np.random.default_rng(3)
    a = rng.random(6)
    a /= a.sum()
    b = rng.random(6)
    b /= b.sum()
    head = truncated_product(a, b)
    assert_allclose(head, np.convolve(a, b)[:6], atol=1e-15)


def test_truncated_product_associative():
    rng = np.random.default_rng(4)
    gs = [p / p.sum() for p in rng.random((3, 5))]
    left = truncated_product(truncated_product(gs[0], gs[1]), gs[2])
    right = truncated_product(gs[0], truncated_product(gs[1], gs[2]))
    assert_allclose(left, right, atol=1e-15)


def test_truncated_power_matches_repeated_product():
    rng = np.random.default_rng(5)
    p = rng.random(7)
    g = p / p.sum()
    by_repeat = g
    for _ in range(4):
        by_repeat = truncated_product(by_repeat, g)
    assert_allclose(truncated_power(g, 5), by_repeat, atol=1e-15)


def test_truncated_power_zero_is_identity():
    g = np.array([0.5, 0.5])
    assert_allclose(truncated_power(g, 0), [1.0, 0.0])


def test_adversary_lead_zero_delay_hand_value():
    # k=2, rho=0.2: p_V(0) = p_Q(0) * p_phi(0)^2 = 0.96 * (5/6)^2 = 2/3
    phi = phi_from_theta(zero_delay_theta(ALPHA), BETA, 2)
    lead = lead_pmf(phi, 2)
    p_V = adversary_lead_pmf(lead, phi, 0.0, BETA, 2)
    assert_allclose(p_V[0], 2 / 3, rtol=1e-12)


def test_honest_lead_is_reversal():
    p_V = np.array([0.5, 0.3, 0.1])
    p_Z, deficit = honest_lead_pmf(p_V, 3)
    assert_allclose(p_Z, [0.1, 0.3, 0.5])
    assert deficit == pytest.approx(0.1)


def test_compute_q_hand_case():
    # q = 1 - sum p_Z(u)(1 - psi(u))
    p_Z = np.array([0.1, 0.3, 0.5])
    ruin = RuinTable(psi=np.array([0.5, 0.25, 0.125]))
    res = compute_q(p_Z, 0.1, ruin)
    expect = 1 - (0.1 * 0.5 + 0.3 * 0.75 + 0.5 * 0.875)
    assert res.q == pytest.approx(expect)


def test_compute_q_rejects_mass_above_one():
    ruin = RuinTable(psi=np.array([0.5, 0.25]))
    with pytest.raises(ValueError, match="sum"):
        compute_q(np.array([0.6, 0.6]), 0.0, ruin)


# the criterion-5/8 profile
PROFILE = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), 1.0)


@pytest.mark.parametrize("model, profile", [
    (DelayModel("zero"), HashrateProfile.zero_delay(1.0)),
    (DelayModel("fixed", delay=10.0), HashrateProfile.fixed_delay(10.0, 1.0)),
    (DelayModel("variable", profile=PROFILE), PROFILE),
], ids=["zero", "fixed", "variable"])
def test_analyze_zero_delay_matches_manual_pipeline(model, profile):
    # analyze reads the first k entries of one Phi, lead and psi; the
    # manual pipeline builds each of them for depth k alone
    rate = calibrate_alpha(profile, 600.0, 9, rel_tol=1e-6).calibrated_rate
    theta = assemble_theta(profile.with_fullrate(rate), 9)
    beta = 0.2 * rate
    results = analyze(model, 0.2, 600.0, 6, K=9)
    ruin = ruin_recursive(phi_from_theta(theta, beta, 6), 6)
    for k, res in enumerate(results, start=1):
        phi_k = phi_from_theta(theta, beta, k)
        lead = lead_pmf(phi_k, k)
        p_V = adversary_lead_pmf(lead, phi_k, profile.max_delay, beta, k)
        p_Z, deficit = honest_lead_pmf(p_V, k)
        manual = compute_q(p_Z, deficit, RuinTable(psi=ruin.psi[:k]))
        assert res.q == pytest.approx(manual.q, abs=1e-14)
        assert res.k == k


def test_analyze_assembles_theta_once_per_calibration_iteration(monkeypatch):
    # calibration's last iterate is the calibrated theta; analyze reuses it
    cal = calibrate_alpha(PROFILE, 600.0, 9, rel_tol=1e-6)
    assembled = []
    assemble = delaymodel.assemble_theta
    monkeypatch.setattr(delaymodel, "assemble_theta",
                        lambda *args: assembled.append(args) or assemble(*args))
    analyze(DelayModel("variable", profile=PROFILE), 0.2, 600.0, 6, K=9)
    assert len(assembled) == cal.iterations
    assert assembled[-1] == (PROFILE.with_fullrate(cal.calibrated_rate), 9)


def test_analyze_calibration_error_in_q_is_below_the_q_tolerance(monkeypatch):
    # analyze stops calibration at 1e-6 on the relative mean error; its q
    # stays within min(1e-6, 1e-10 + 1e-4 q) of q on a 1e-10 calibration
    model = DelayModel("variable", profile=PROFILE)
    qs = [r.q for r in analyze(model, 0.2, 600.0, 8, K=9)]
    monkeypatch.setattr(doublespend, "calibrate_alpha",
                        functools.partial(calibrate_alpha, rel_tol=1e-10))
    tight = [r.q for r in analyze(model, 0.2, 600.0, 8, K=9)]
    for q, ref in zip(qs, tight):
        assert abs(q - ref) < min(1e-6, 1e-10 + 1e-4 * ref)


def _spy_lu(monkeypatch):
    """Record every dense LU and every read of a profile theta's subgen."""
    calls = []
    lu_factor = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor", lambda *a, **kw:
                        calls.append("lu_factor") or lu_factor(*a, **kw))
    subgen = delaymodel._ProfileTheta.subgen
    monkeypatch.setattr(delaymodel._ProfileTheta, "subgen", property(
        lambda self: calls.append("subgen") or subgen.__get__(self)))
    return calls


@pytest.mark.parametrize("model", [
    DelayModel("zero"), DelayModel("fixed", delay=10.0),
    DelayModel("variable", profile=PROFILE)], ids=["zero", "fixed",
                                                   "variable"])
def test_analyze_profile_models_factor_nothing(model, monkeypatch):
    # a profile's theta solves segment by segment, for calibration and Phi
    # alike, and never builds its subgen; only the unit CME, validated
    # once per K, is ever factored
    medist.cme(9, 1.0)
    calls = _spy_lu(monkeypatch)
    analyze(model, 0.2, 600.0, 6, K=9)
    assert calls == []


def test_analyze_random_model_factors_theta_and_phi_once(monkeypatch):
    # a random delay chain keeps dense LU: one for its theta (its mean
    # and mgf(0) share it) and one for Phi, whose mean is beta E[theta]
    model = DelayModel("random", delay_dist=erlang_me(2, 1.0))
    calls = _spy_lu(monkeypatch)
    analyze(model, 0.2, 600.0, 6, delta_conf=1.0)
    assert calls == ["lu_factor"] * 2


def test_analyze_builds_the_lead_once(monkeypatch):
    # the ruin table is read off analyze's own lead, not a second one
    calls = []
    spy = lambda *args: calls.append(args) or lead_pmf(*args)  # noqa: E731
    monkeypatch.setattr(ruinlindley, "lead_pmf", spy)
    monkeypatch.setattr(doublespend, "lead_pmf", spy)
    analyze(DelayModel("zero"), 0.2, 600.0, 20)
    assert len(calls) == 1


@pytest.mark.parametrize("delay, beta_fraction", [(300.0, 0.2), (590.0, 0.01)])
def test_analyze_fixed_delay_uses_closed_form_rate(delay, beta_fraction):
    results = analyze(DelayModel("fixed", delay=delay), beta_fraction, 600.0,
                      4, K=5)
    alpha = 1 / (600.0 - delay)
    beta = beta_fraction * alpha
    phi = phi_from_theta(fixed_delay_theta(delay, alpha, 5), beta, 4)
    ruin = ruin_via_lindley(phi, 4)
    lead = lead_pmf(phi, 4)
    p_V = adversary_lead_pmf(lead, phi, delay, beta, 4)
    p_Z, deficit = honest_lead_pmf(p_V, 4)
    manual = compute_q(p_Z, deficit, ruin)
    assert results[-1].q == pytest.approx(manual.q, rel=1e-12, abs=1e-14)


def test_analyze_q_decreasing_in_k():
    for model in (DelayModel("zero"), DelayModel("fixed", delay=10.0)):
        results = analyze(model, 0.2, 600.0, 8)
        qs = [r.q for r in results]
        assert np.all(np.diff(qs) < 0)


def test_delay_raises_q():
    zero = analyze(DelayModel("zero"), 0.2, 600.0, 6)
    prof = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), 1.0)
    var = analyze(DelayModel("variable", profile=prof), 0.2, 600.0, 6, K=9)
    for rz, rv in zip(zero, var):
        assert rv.q >= rz.q


def test_analyze_random_model_requires_delta_conf():
    model = DelayModel("random", delay_dist=erlang_me(2, 5.0))
    with pytest.raises(ValueError):
        analyze(model, 0.2, 600.0, 3)
    results = analyze(model, 0.2, 600.0, 3, delta_conf=5.0)
    assert 0 < results[0].q < 1


def test_analyze_unstable_regime():
    # delays so heavy the calibrated full rate is several times 1/T;
    # even a 20% adversary then out-mines the effective honest chain
    prof = HashrateProfile((0.0, 200.0, 500.0, 900.0), (0.0, 0.1, 0.3), 1.0)
    results = analyze(DelayModel("variable", profile=prof), 0.2, 600.0, 4, K=9)
    assert all(r.unstable_regime for r in results)
    assert all(r.q == 1.0 for r in results)


def test_analyze_rejects_bad_args():
    with pytest.raises(ValueError):
        analyze(DelayModel("zero"), 1.5, 600.0, 3)
    with pytest.raises(ValueError):
        analyze(DelayModel("zero"), 0.2, 600.0, 0)
    with pytest.raises(ValueError):
        DelayModel("fixed")
    with pytest.raises(ValueError):
        DelayModel("bogus")


def test_analyze_rejects_non_finite_inputs():
    for delay in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="delay"):
            DelayModel("fixed", delay=delay)
    for T in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="block_interval"):
            analyze(DelayModel("zero"), 0.2, T, 3)
    with pytest.raises(ValueError, match="delta_conf"):
        analyze(DelayModel("zero"), 0.2, 600.0, 3, delta_conf=np.nan)


def test_fixed_zero_delay_equals_zero_model():
    a = analyze(DelayModel("zero"), 0.2, 600.0, 4)
    b = analyze(DelayModel("fixed", delay=0.0), 0.2, 600.0, 4)
    for ra, rb in zip(a, b):
        assert ra.q == pytest.approx(rb.q, rel=1e-12)


def test_zero_delay_q_reference_values():
    # independent closed form: direct race enumeration with rho = 0.2
    results = analyze(DelayModel("zero"), 0.2, 600.0, 3)
    assert_allclose([r.q for r in results],
                    [0.36, 0.1644444444444444, 0.08], rtol=1e-10)


def test_analyze_k27_profile_deep_lead():
    # criterion-5/8 profile at K=27: its Phi masses summed to 1 + O(1e-11)
    # and lead_pmf raised "negative lead mass"
    prof = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), 1.0)
    res = analyze(DelayModel("variable", profile=prof), 0.2, 600.0, 30, K=27)
    assert len(res) == 30 and all(0.0 <= r.q <= 1.0 for r in res)
    rate = calibrate_alpha(prof, 600.0, 27, rel_tol=1e-6).calibrated_rate
    theta = assemble_theta(prof.with_fullrate(rate), 27)
    phi = phi_from_theta(theta, 0.2 * rate, 30)
    gap = np.abs(ruin_recursive(phi, 30).psi - ruin_via_lindley(phi, 30).psi)
    assert gap.max() <= 1e-10
