import decimal
import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import powruin
from powruin import delaymodel, doublespend, medist, ruinlindley
from powruin.delaymodel import (HashrateProfile, assemble_theta,
                                calibrate_alpha, fixed_delay_theta,
                                zero_delay_theta)
from powruin.doublespend import (DelayModel, adversary_lead_pmf, analyze,
                                 compute_q, honest_lead_pmf,
                                 poisson_partial_pgf, truncated_product)
from powruin.ingest import (BITCOIN_LIKE, apply_cutoff, bin_delays,
                            synth_delays, to_profile)
from powruin.medist import erlang_me
from powruin.phi import PhiDistribution, phi_from_theta
from powruin.ruinlindley import (LeadDistribution, RuinTable, lead_pmf,
                                 ruin_recursive, ruin_via_lindley)

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


# exp(-lam) underflows past lam = 745, so lam = 800 pins the log form
_LAMBDAS = [0.0, 1e-300, 1e-12, 0.0033, 0.2, 3.7, 50.0, 700.0, 800.0]


def _poisson_reference(lam, k):
    """The first k Poisson masses of lam to 50 digits, by ``decimal``."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin = 50, decimal.MIN_EMIN
        lam_d = decimal.Decimal(lam)
        masses = [(-lam_d).exp()]
        for n in range(1, k):
            masses.append(masses[-1] * lam_d / n)
    return masses


def _assert_poisson_masses(lam, k):
    """Each mass within 5e-12 relative of the 50-digit reference, and of
    SciPy's pmf, where the reference is at least 1e-300, and exactly 0
    where the reference rounds to 0 in double."""
    from scipy import stats
    reference = _poisson_reference(lam, k)
    got = poisson_partial_pgf(lam, k)
    for mass, ref in zip(got.tolist(), reference):
        if ref >= decimal.Decimal("1e-300"):
            assert abs(float(decimal.Decimal(mass) / ref) - 1) <= 5e-12, (
                mass, ref)
        elif float(ref) == 0:
            assert mass == 0, (mass, ref)
    big = np.array([float(ref) >= 1e-300 for ref in reference])
    assert_allclose(got[big], stats.poisson.pmf(np.arange(k), lam)[big],
                    rtol=5e-12, atol=0)


@pytest.mark.parametrize("lam", _LAMBDAS)
def test_poisson_partial_pgf_equals_scipy_stats(lam):
    for k in (1, 2, 20, 200):
        _assert_poisson_masses(lam, k)


@pytest.mark.parametrize("lam", _LAMBDAS)
def test_poisson_partial_pgf_equals_scipy_stats_at_depth_2000(lam):
    _assert_poisson_masses(lam, 2_000)


# Records the scipy modules loaded after each step and prints them as JSON.
# SciPy is needed only for expm, which the last step (argv[1]) calls:
# density, or make_me's cdf check.
_SCIPY_STEPS = r"""
import json, sys
import numpy as np

loaded = {}
def step(name):
    loaded[name] = sorted(m for m in sys.modules
                          if m.partition(".")[0] == "scipy")

import powruin.cli
step("import")
from powruin import DelayModel, HashrateProfile, analyze, erlang_me, make_me
from powruin.simulate import SimConfig, simulate_attack_sweep
profile = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), 1 / 600)
for model in [DelayModel("zero"), DelayModel("fixed", delay=10.0),
              DelayModel("variable", profile=profile)]:
    analyze(model, 0.2, 600.0, 6, K=27)
    step(model.kind)
analyze(DelayModel("random", delay_dist=erlang_me(2, 1.0)), 0.2, 600.0, 6,
        delta_conf=1.0)
step("random")
simulate_attack_sweep(SimConfig(profile, beta=0.2 / 600, k=2, trials=500,
                                warmup_blocks=1_000), [1, 2])
step("simulate")
np.savetxt("d.txt", np.random.default_rng(1).lognormal(2.0, 1.0, 200))
assert powruin.cli.main(["ingest", "--data", "d.txt", "--bins", "4"]) == 0
step("ingest")
if sys.argv[1] == "density":
    assert powruin.cli.main(["density", "--model", "expdelay",
                             "--delay-mean", "5", "--points", "5"]) == 0
else:
    assert make_me([0.5, 0.5], [[-1.0, 0.0], [0.0, -2.0]]).mean() == 0.75
step(sys.argv[1])
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("expm_user", ["density", "make_me"])
def test_only_expm_loads_scipy(tmp_path, expm_user):
    src = os.path.dirname(os.path.dirname(powruin.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_STEPS, expm_user], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True).stdout
    loaded = json.loads(out.splitlines()[-1])
    *steps, last = loaded
    assert steps == ["import", "zero", "fixed", "variable", "random",
                     "simulate", "ingest"]
    assert last == expm_user
    assert {name: loaded[name] for name in steps} == dict.fromkeys(steps, [])
    assert "scipy.linalg" in loaded[last]


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
    # each calibration iterate builds one theta, at its rate, whose
    # constructor computes the mean; the calibration hands back the last
    # iterate's theta, validated once, and analyze builds no other
    built, validated, calibrations = [], [], []
    init = delaymodel._ProfileTheta.__init__
    monkeypatch.setattr(delaymodel._ProfileTheta, "__init__",
                        lambda self, *args: built.append((self, args))
                        or init(self, *args))
    validate = delaymodel._validated
    monkeypatch.setattr(delaymodel, "_validated",
                        lambda d: validated.append(d) or validate(d))
    monkeypatch.setattr(doublespend, "calibrate_alpha", lambda *args:
                        calibrations.append(calibrate_alpha(*args))
                        or calibrations[-1])
    analyze(DelayModel("variable", profile=PROFILE), 0.2, 600.0, 6, K=9)
    cal, = calibrations
    assert cal.iterations > 1
    assert [(profile.fullrate, K) for _, (profile, K) in built] == [
        (alpha, 9) for alpha, _ in cal.trace]
    assert cal.theta is built[-1][0]
    assert validated == [cal.theta]


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


def _spy_inv(monkeypatch):
    """Record every dense inverse and every read of a profile theta's
    subgen."""
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda *a, **kw:
                        calls.append("inv") or inv(*a, **kw))
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
    # once per K, is ever factored (order 1 for the zero profile)
    medist.cme(1, 1.0)
    medist.cme(9, 1.0)
    calls = _spy_inv(monkeypatch)
    analyze(model, 0.2, 600.0, 6, K=9)
    assert calls == []


def test_analyze_random_model_factors_theta_and_phi_once(monkeypatch):
    # a random delay chain keeps a dense inverse: one for its theta (its
    # mean and mgf(0) share it) and one for Phi, whose mean is beta E[theta]
    model = DelayModel("random", delay_dist=erlang_me(2, 1.0))
    calls = _spy_inv(monkeypatch)
    analyze(model, 0.2, 600.0, 6, delta_conf=1.0)
    assert calls == ["inv"] * 2


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
    # an untabled K is refused also by models that build no CME
    with pytest.raises(ValueError, match="K must be an odd integer"):
        analyze(DelayModel("zero"), 0.2, 600.0, 1, K=200)
    with pytest.raises(ValueError, match="K must be an odd integer"):
        analyze(DelayModel("random", delay_dist=erlang_me(2, 5.0)), 0.2, 600.0,
                1, K=4, delta_conf=5.0)
    with pytest.raises(ValueError):
        DelayModel("fixed")
    with pytest.raises(ValueError):
        DelayModel("bogus")
    with pytest.raises(ValueError, match="needs a delay distribution"):
        DelayModel("random")
    with pytest.raises(ValueError, match="needs a hashrate profile"):
        DelayModel("variable")
    profile = HashrateProfile.fixed_delay(10.0, ALPHA)
    with pytest.raises(ValueError, match="zero model does not read delay"):
        DelayModel("zero", delay=599.0)
    with pytest.raises(ValueError, match="fixed model does not read profile"):
        DelayModel("fixed", delay=10.0, profile=profile)
    with pytest.raises(ValueError, match="random model does not read delay$"):
        DelayModel("random", delay=1.0, delay_dist=erlang_me(2, 1.0))
    with pytest.raises(ValueError,
                       match="variable model does not read delay_dist"):
        DelayModel("variable", delay_dist=erlang_me(2, 1.0), profile=profile)


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


def _zero_model_q_80_digits(f, depths):
    """q(k) on the zero model at beta = f alpha and delta_conf = 0, to 80
    digits by ``decimal``.  Phi is Geometric, P(Phi = n) = (1 - p) p^n with
    p = f / (1 + f) and rho = f, and its ladder height has Phi's law, so
    the lead M has P(M = 0) = 1 - f^2 and P(M = m) = (1 - f) f^(m+1) for
    m >= 1.  q(k) = P(M + M' + S >= k), S ~ NegBin(k + 1, 1 - p) the sum
    of k + 1 counts, taken as 1 - P(... < k): 80 digits keep some 50 of
    the smallest q asked for here, 3e-27."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        f = decimal.Decimal(f)
        p, n = f / (1 + f), max(depths)
        lead = [1 - f * f] + [(1 - f) * f ** (m + 1) for m in range(1, n)]
        # the CDF of M + M' on 0..n-1
        cdf, total = [], decimal.Decimal(0)
        for j in range(n):
            total += sum(lead[i] * lead[j - i] for i in range(j + 1))
            cdf.append(total)
        q = {}
        for k in depths:
            # P(S = s) = C(s + k, k) (1 - p)^(k+1) p^s, stepped in s
            mass, below = (1 - p) ** (k + 1), decimal.Decimal(0)
            for s in range(k):
                below += mass * cdf[k - 1 - s]
                mass *= p * (s + k + 1) / (s + 1)
            q[k] = 1 - below
        return q


@pytest.mark.parametrize("f, pinned", [
    (0.2, {20: 1.694360e-6, 50: 2.422715e-14, 100: 2.983242e-27}),
    (0.45, {100: 3.687243e-8, 200: 4.783351e-15, 300: 7.060504e-22})])
def test_zero_model_q_is_within_the_q_tolerance_of_an_80_digit_reference(
        f, pinned):
    # the reference reproduces, to their 7 digits, the values two
    # independent high-precision computations gave; analyze is within the
    # q tolerance of it at every depth, the deep ones included, where its
    # relative error is not bounded
    ref = _zero_model_q_80_digits(f, [1, 5, *pinned])
    for k, q in pinned.items():
        assert float(ref[k]) == pytest.approx(q, rel=1e-6), k
    results = analyze(DelayModel("zero"), f, 600.0, max(pinned),
                      delta_conf=0.0)
    for k, r in ref.items():
        r = float(r)
        assert abs(results[k - 1].q - r) <= min(1e-6, 1e-10 + 1e-4 * r), k


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


def test_compute_q_refuses_nan():
    # each check is written so that NaN fails it, rather than q = nan
    with pytest.raises(ValueError, match="NaN"):
        compute_q(np.array([np.nan]), 0.0, RuinTable([0.5]))


def _criterion10_profile():
    """The criterion-10 profile of 50 000 delays (seed 6): N = 130."""
    kept, _ = apply_cutoff(synth_delays(BITCOIN_LIKE, 50_000, seed=6), 0.01)
    return to_profile(bin_delays(kept, 128), 1.0)


def _grid_deep_profile():
    """The 4-bin ingested profile of 2 100 delays at epsilon = 0.01."""
    kept, _ = apply_cutoff(synth_delays(BITCOIN_LIKE, 2_100, seed=7), 0.01)
    return to_profile(bin_delays(kept, 4), 1.0)


@pytest.mark.parametrize("kind", ["zero", "fixed", "ingested"])
def test_one_pass_matches_the_per_depth_layers_at_depth_200(kind):
    # analyze convolves one more Phi per depth; the per-depth route raises
    # Phi to the k-th power for each depth on its own
    beta_fraction, k_max, K = 0.45, 200, 27
    if kind == "zero":
        model, theta, rate, dconf = (DelayModel("zero"),
                                     zero_delay_theta(ALPHA), ALPHA, 0.0)
    elif kind == "fixed":
        rate = 1 / 590
        model, theta, dconf = (DelayModel("fixed", delay=10.0),
                               fixed_delay_theta(10.0, rate, K), 10.0)
    else:
        profile = _grid_deep_profile()
        cal = calibrate_alpha(profile, 600.0, K)
        model, theta, rate = (DelayModel("variable", profile=profile),
                              cal.theta, cal.calibrated_rate)
        dconf = profile.max_delay
    results = analyze(model, beta_fraction, 600.0, k_max, K=K)
    beta = beta_fraction * rate
    phi = phi_from_theta(theta, beta, k_max)
    lead, ruin = lead_pmf(phi, k_max), ruin_via_lindley(phi, k_max)
    for k, res in enumerate(results, start=1):
        p_V = adversary_lead_pmf(lead, phi, dconf, beta, k)
        p_Z, deficit = honest_lead_pmf(p_V, k)
        assert abs(res.q - compute_q(p_Z, deficit, ruin).q) <= 1e-14
        assert abs(res.deficit_mass - deficit) <= 1e-14


@pytest.mark.parametrize("beta_fraction", [0.2, 0.45])
@pytest.mark.parametrize("kind", ["zero", "ingested"])
def test_depth_pass_flush_leaves_every_q_bit_identical_at_depth_600(
        kind, beta_fraction, monkeypatch):
    # the pass reads Phi's masses below 1e-300 as 0; at k_max = 600 Phi
    # has such masses, and against the pass that convolves them no q or
    # deficit moves by one bit
    model = (DelayModel("zero") if kind == "zero" else
             DelayModel("variable", profile=_grid_deep_profile()))
    phis = []
    monkeypatch.setattr(doublespend, "phi_from_theta",
                        lambda *args: phis.append(phi_from_theta(*args))
                        or phis[-1])

    def bits():
        return [(r.q.hex(), r.deficit_mass.hex())
                for r in analyze(model, beta_fraction, 600.0, 600, K=27)]

    flushed = bits()
    assert np.any((phis[0].masses > 0) & (phis[0].masses < 1e-300))
    monkeypatch.setattr(doublespend, "_FLUSH_BELOW", 0.0)
    assert bits() == flushed


@pytest.mark.parametrize("scale, message", [
    (np.nan, r"p_Z out of \[0, 1\] or NaN"),
    (2.0, r"p_Z sums to .* > 1"),
], ids=["nan", "sum-above-one"])
def test_depth_pass_refuses_what_compute_q_refuses(scale, message,
                                                  monkeypatch):
    # the pass checks its partial sums once, with compute_q's messages:
    # NaN masses, or masses summing above 1 + 1e-8 at some depth
    pgf = doublespend.poisson_partial_pgf
    monkeypatch.setattr(doublespend, "poisson_partial_pgf",
                        lambda *args: scale * pgf(*args))
    with pytest.raises(ValueError, match=message):
        analyze(DelayModel("fixed", delay=10.0), 0.2, 600.0, 6, K=9)


def _scaled_profile(profile, c):
    return HashrateProfile(tuple(c * t for t in profile.thresholds),
                           profile.fractions, profile.fullrate / c)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
@pytest.mark.parametrize("kind", ["zero", "fixed", "random", "criterion58",
                                  "criterion10"])
def test_q_is_invariant_under_time_rescaling(kind, c):
    # thresholds, the fixed delay, the random delay's mean, T and
    # delta_conf times c, the full rate over c: q is the same law's.
    # Measured at most 2.1e-7 of the q tolerance min(1e-6, 1e-10 + 1e-4 q)
    dconf = (None, None)
    if kind == "zero":
        models = DelayModel("zero"), DelayModel("zero")
    elif kind == "fixed":
        models = DelayModel("fixed", delay=10.0), DelayModel("fixed",
                                                             delay=10.0 * c)
    elif kind == "random":
        models = (DelayModel("random", delay_dist=erlang_me(3, 5.0)),
                  DelayModel("random", delay_dist=erlang_me(3, 5.0 * c)))
        dconf = 5.0, 5.0 * c
    else:
        profile = PROFILE if kind == "criterion58" else _criterion10_profile()
        models = (DelayModel("variable", profile=profile),
                  DelayModel("variable", profile=_scaled_profile(profile, c)))
    ref, scaled = (analyze(model, 0.3, 600.0 * t, 20, K=27, delta_conf=d)
                   for model, t, d in zip(models, (1.0, c), dconf))
    for r, s in zip(ref, scaled):
        assert abs(s.q - r.q) <= 1e-3 * min(1e-6, 1e-10 + 1e-4 * r.q)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(1, 8), mean=st.floats(0.01, 250.0),
       log_c=st.floats(-6.0, 6.0), beta_fraction=st.floats(0.05, 0.45),
       dconf_ratio=st.floats(0.0, 2.0))
def test_q_is_invariant_under_time_rescaling_of_any_random_delay(
        order, mean, log_c, beta_fraction, dconf_ratio):
    # an Erlang delay of any order and mean, T and delta_conf times c: the
    # same gate as the cases above.  On 300 random models the worst gap was
    # 2.5e-4 of the q tolerance
    c, dconf = 10.0 ** log_c, dconf_ratio * mean
    ref, scaled = (
        analyze(DelayModel("random", delay_dist=erlang_me(order, mean * t)),
                beta_fraction, 600.0 * t, 20, delta_conf=dconf * t)
        for t in (1.0, c))
    for r, s in zip(ref, scaled):
        assert abs(s.q - r.q) <= 1e-3 * min(1e-6, 1e-10 + 1e-4 * r.q)


@pytest.mark.parametrize("call, message", [
    (lambda: poisson_partial_pgf(1.0, 0), "k must be >= 1"),
    (lambda: poisson_partial_pgf(np.inf, 3), "nonnegative and finite"),
    (lambda: poisson_partial_pgf(np.nan, 3), "nonnegative and finite"),
    (lambda: truncated_product(np.ones(2), np.ones(3)), "length mismatch"),
    (lambda: adversary_lead_pmf(LeadDistribution([0.5, 0.2]),
                                PhiDistribution([0.5, 0.2, 0.1], 0.4),
                                0.0, BETA, 3),
     "lead and phi must carry k masses"),
    (lambda: honest_lead_pmf(np.array([0.5, 0.2]), 3),
     "p_V has 2 coefficients, expected 3"),
    (lambda: compute_q(np.array([0.5, 0.2]), 0.0, RuinTable([0.5])),
     "ruin table shorter than p_Z"),
    (lambda: adversary_lead_pmf(LeadDistribution([0.5, 0.2]),
                                PhiDistribution([0.5, 0.2], 0.4),
                                0.0, BETA, 0), "k must be >= 1"),
], ids=["pgf-k0", "pgf-inf", "pgf-nan", "product-lengths", "short-lead",
        "p_V-length", "short-ruin-table", "lead-k0"])
def test_pgf_algebra_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
