import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from powruin import simulate
from powruin.delaymodel import HashrateProfile, assemble_theta, calibrate_alpha
from powruin.doublespend import DelayModel, analyze
from powruin.phi import phi_from_theta
from powruin.ruinlindley import lead_pmf
from powruin.simulate import (SimConfig, ThetaSampler, _counts, _integrals,
                              _maxima, _PhiSampler, simulate_attack_sweep)

ALPHA = 1 / 600


def zero_profile():
    return HashrateProfile.zero_delay(ALPHA)


def var_profile():
    return HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), ALPHA)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(profile=zero_profile(), beta=1.0, k=0)
    with pytest.raises(ValueError):
        SimConfig(profile=zero_profile(), beta=-1.0, k=1)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        SimConfig(profile=zero_profile(), beta=1.0, k=1, trials=0)
    fields = {"k": 1, "trials": 1_500, "warmup_blocks": 1_000,
              "stop_lead": 6, "seed": 0}
    for name, value in [("k", 1.5), ("trials", 1500.5), ("stop_lead", 6.5),
                        ("warmup_blocks", 1000.5), ("trials", np.nan),
                        ("seed", 2.5), ("seed", -1)]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SimConfig(profile=zero_profile(), beta=1.0,
                      **{**fields, name: value})
    whole = SimConfig(profile=zero_profile(), beta=1.0, k=2.0, trials=10.0)
    assert (whole.k, whole.trials) == (2, 10)
    assert type(whole.trials) is int


@pytest.mark.parametrize("field", ["beta", "delta_conf"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_config_refuses_a_negative_or_non_finite_rate_field(field, value):
    fields = {"beta": 1.0, "delta_conf": 0.0, field: value}
    with pytest.raises(ValueError,
                       match=f"^{field} must be nonnegative and finite"):
        SimConfig(profile=zero_profile(), k=1, **fields)


def test_sampler_zero_delay_is_exponential():
    rng = np.random.default_rng(0)
    x = ThetaSampler(zero_profile()).sample(rng, 200_000)
    assert x.mean() == pytest.approx(600.0, rel=0.02)
    assert x.std() == pytest.approx(600.0, rel=0.02)


def test_sampler_zero_profile_is_scaled_exponential():
    x = ThetaSampler(zero_profile()).sample(np.random.default_rng(4), 1000)
    e = np.random.default_rng(4).exponential(size=1000)
    assert np.array_equal(x, e / ALPHA)


class _FixedExponentials:
    """Stub rng whose exponential draws are the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def exponential(self, size):
        assert size == len(self.values)
        return self.values.copy()


def test_sampler_draws_of_zero_and_on_edges():
    # unit full rate: cumulative hazard 0, 0, 1.2, 5.2 at 0, 2, 5, 10 s; a
    # draw of 0 starts at the first mining instant, not in the dead zone,
    # and a draw on an edge lands on that edge's time
    prof = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), 1.0)
    e = [0.0, 1.2, 5.2, 600.0, 0.4, 5e-324]
    x = ThetaSampler(prof).sample(_FixedExponentials(e), len(e))
    assert np.all(np.isfinite(x))
    assert_allclose(x, [2.0, 5.0, 10.0, 604.8, 3.0, 2.0], rtol=1e-15)
    fixed = HashrateProfile.fixed_delay(10.0, 0.5)
    y = ThetaSampler(fixed).sample(_FixedExponentials([0.0, 1.0]), 2)
    assert np.array_equal(y, [10.0, 12.0])


@pytest.mark.parametrize("profile, violations", [
    (HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), 1 / 589.6),
     [10414, 6389, 4102, 2644, 1749, 1147]),
    (HashrateProfile.zero_delay(ALPHA), [10226, 6220, 3923, 2608, 1753, 1174]),
])
def test_seeded_sweep_draws_are_pinned(profile, violations):
    # violation counts of a seeded sweep, which pin the draw stream of the
    # race every depth of a trial shares against unintended changes; a
    # deliberate change of sampling method re-pins them, with evidence that
    # the law of the draws is kept
    config = SimConfig(profile=profile, beta=0.3 * profile.fullrate, k=6,
                       delta_conf=profile.max_delay, warmup_blocks=1_000,
                       trials=20_000, seed=7)
    ests = simulate_attack_sweep(config, range(1, 7))
    assert [ests[k].q_hat for k in range(1, 7)] == [
        n / 20_000 for n in violations]


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
    a = simulate_attack_sweep(config, [2])[2]
    b = simulate_attack_sweep(config, [2])[2]
    assert a.q_hat == b.q_hat
    c = simulate_attack_sweep(
        SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=2,
                  warmup_blocks=1_000, trials=20_000, seed=8), [2])[2]
    assert c.q_hat != a.q_hat


def test_single_trial():
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=1,
                       warmup_blocks=1_000, trials=1, seed=0)
    est = simulate_attack_sweep(config, [1])[1]
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
    with pytest.raises(ValueError, match="need one or more confirmation depths"):
        simulate_attack_sweep(config, [])
    with pytest.raises(ValueError, match="depth must be a whole number"):
        simulate_attack_sweep(config, [1.7, 2])


def criterion_profile():
    """The criterion-5/8 profile at its K=27 calibrated rate."""
    cal = calibrate_alpha(var_profile(), 600.0, 27)
    return var_profile().with_fullrate(cal.calibrated_rate), cal.theta


def congested_profile():
    """Criterion 7's congested profile, where about a tenth of theta falls
    before the last threshold."""
    return HashrateProfile((0.0, 30.0, 90.0, 200.0), (0.0, 0.2, 0.5), ALPHA)


PROFILES = {"zero": zero_profile, "criterion": lambda: criterion_profile()[0],
            "congested": congested_profile}


def ladder(prof, beta):
    """rho = beta E[theta] and the sampler of ``prof``'s ladder heights."""
    sampler = _PhiSampler(prof, beta)
    return beta * sampler.mean, sampler.excess()


def law_z(draws, ref):
    """The largest |z| of the draws' masses against ref's, over the masses
    from 0 whose expected count is at least 50, and the rest pooled."""
    n = draws.size
    j = int(np.argmax(n * ref < 50))
    ref = np.append(ref[:j], 1 - ref[:j].sum())
    emp = np.bincount(np.minimum(draws, j), minlength=j + 1) / n
    z = (emp - ref) / np.sqrt(ref * (1 - ref) / n)
    return np.abs(z[n * ref >= 50]).max()


def test_loynes_lead_matches_lead_pmf_on_the_criterion_profile():
    # M = sup_n S_n drawn as a geometric sum of ladder heights against the
    # K = 51 ME route's stationary lead, on the zero, criterion and
    # congested profiles; the congested profile at 0.9 has rho > 1
    n = 400_000
    for name, make in PROFILES.items():
        prof = make()
        theta = assemble_theta(prof, 51)
        for fraction in (0.2, 0.45, 0.9):
            beta = fraction * prof.fullrate
            rho, heights = ladder(prof, beta)
            if (name, fraction) == ("congested", 0.9):
                assert rho > 1
                continue
            lead = _maxima(heights, rho, np.random.default_rng(21), n)
            ref = lead_pmf(phi_from_theta(theta, beta, 400), 400).masses
            assert law_z(lead, ref) <= 4.0, (name, fraction)
            mean = ref @ np.arange(400)
            assert abs(lead.mean() - mean) <= 4 * lead.std() / np.sqrt(n)


def test_loynes_lead_is_lindley_on_the_reversed_increments():
    # by Loynes' reversal the stationary lead has the law of Lindley's
    # recursion Q' = (Q + Phi - 1)+ run forward from 0: 200 steps of it on
    # fresh counts against M drawn as a geometric sum of ladder heights, on
    # the criterion profile, masses 0..5 and the rest
    prof, _ = criterion_profile()
    beta, n = 0.45 * prof.fullrate, 50_000
    sampler, rng = _PhiSampler(prof, beta), np.random.default_rng(11)
    q = np.zeros(n, dtype=np.int64)
    for _ in range(200):
        q = np.maximum(q + _counts(sampler, rng, n) - 1, 0)
    lead = _maxima(sampler.excess(), beta * sampler.mean, rng, n)
    a, b = (np.bincount(np.minimum(x, 6), minlength=7) / n for x in (q, lead))
    pooled = (a + b) / 2
    assert a[1] > 0.1 and a[6] > 0.002
    assert np.all(np.abs(a - b) <= 4 * np.sqrt(pooled * (1 - pooled) * 2 / n))


@pytest.mark.parametrize("fraction", [0.2, 0.45, 0.9, 0.98])
def test_lead_is_zero_with_probability_one_minus_rho_over_p0(fraction):
    # the lead's pgf (1 - rho)(z - 1) / (z - E[z^Phi]) at z = 0: P(M = 0)
    # = (1 - rho) / P(Phi = 0), which is 1 - fraction**2 at zero delay;
    # P(Phi = 0) from the K = 51 ME route elsewhere
    n = 200_000
    for name, make in PROFILES.items():
        prof = make()
        beta = fraction * prof.fullrate
        rho, heights = ladder(prof, beta)
        if rho >= 1:
            assert name == "congested" and fraction >= 0.9
            continue
        p0 = (1 / (1 + fraction) if name == "zero" else
              phi_from_theta(assemble_theta(prof, 51), beta, 1).masses[0])
        p = (1 - rho) / p0
        if name == "zero":
            assert p == pytest.approx(1 - fraction**2, rel=1e-12)
        lead = _maxima(heights, rho, np.random.default_rng(23), n)
        assert abs(np.mean(lead == 0) - p) <= 4 * np.sqrt(p * (1 - p) / n)


def spy_draws(monkeypatch):
    """Record the sizes that simulate._counts(sampler, rng, size) is called
    with."""
    calls, draw = [], simulate._counts

    def spied(sampler, rng, size):
        calls.append(size)
        return draw(sampler, rng, size)
    monkeypatch.setattr(simulate, "_counts", spied)
    return calls


def test_sweep_samples_far_fewer_times_than_the_cap(monkeypatch):
    # warmup_blocks and stop_lead change no draw, and a 1 500-trial sweep
    # on the criterion profile draws Phi in eight calls: six for the
    # confirmations, one for the races' first steps, then one for every
    # ladder height of the leads and the races
    prof, _ = criterion_profile()
    counts = spy_draws(monkeypatch)
    fields = dict(profile=prof, beta=0.2 * prof.fullrate, k=6,
                  delta_conf=prof.max_delay, trials=1_500, seed=3)
    runs = []
    for warmup, stop in [(2_000, 64), (1_000, 6), (2**61, 2**61)]:
        counts.clear()
        config = SimConfig(**fields, warmup_blocks=warmup, stop_lead=stop)
        runs.append((simulate_attack_sweep(config, range(1, 7)), counts[:]))
    assert runs[0] == runs[1] == runs[2]
    assert counts[:6] == [1_500] * 6 and 0 < counts[6] < 1_500
    assert len(counts) == 8 and 0 < counts[7] < 1_500 + counts[6]


def test_sweep_runs_one_race_per_batch(monkeypatch):
    races = []
    race = simulate._race

    def spy(z, *args):
        races.append(z.shape)
        return race(z, *args)
    monkeypatch.setattr(simulate, "_race", spy)
    monkeypatch.setattr(simulate, "_BATCH", 500)
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=3,
                       warmup_blocks=1_000, trials=1_200, seed=4)
    simulate_attack_sweep(config, [1, 2, 3])
    assert races == [(3, 500), (3, 500), (3, 200)]


def test_sweep_spawns_each_batch_its_child_seed(monkeypatch):
    # one SeedSequence.spawn(1) per batch, as the batch starts, gives the
    # children that one spawn(n) up front would: batch b draws from child b
    seeds, make = [], np.random.default_rng

    def spy(seed):
        seeds.append(seed)
        return make(seed)
    monkeypatch.setattr(np.random, "default_rng", spy)
    monkeypatch.setattr(simulate, "_BATCH", 500)
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=3,
                       trials=1_200, seed=4)
    simulate_attack_sweep(config, [1, 2, 3])
    assert [(s.entropy, s.spawn_key) for s in seeds] == [
        (4, (0,)), (4, (1,)), (4, (2,))]


def test_race_matches_a_naive_walk_per_depth(monkeypatch):
    # one draw of M per batch gives every lead, then for each trial with
    # max_d w_d >= 0 its race's M'; depth d violates when w_d - lead <=
    # Phi_1 - 1 + M'.  With stub counts and stub draws of M, each trial
    # and depth is checked by hand.
    rng = np.random.default_rng(12)
    n, ks = 400, [1, 2, 3, 5]
    rows = rng.poisson(0.6, size=(ks[-1] + 1, n))
    drawn = iter(rows)
    monkeypatch.setattr(simulate, "_counts",
                        lambda sampler, rng, size: next(drawn)[:size])
    stub = rng.integers(0, 6, size=2 * n)
    calls = []

    def maxima(heights, rho, rng, size):
        calls.append((rho, size))
        return stub[:size]
    monkeypatch.setattr(simulate, "_maxima", maxima)
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=5,
                       trials=n, seed=2)
    ests = simulate_attack_sweep(config, ks)

    w = np.array([k - 1 - rows[:k].sum(axis=0) for k in ks])
    racing = np.flatnonzero(w.max(axis=0) >= 0)
    first = rows[ks[-1], :racing.size] - 1
    assert calls == [(pytest.approx(0.2, rel=1e-15), n + racing.size)]
    lead, race = stub[:n], dict(zip(racing, first + stub[n:n + racing.size]))
    violations = [sum(w[d, j] - lead[j] <= race.get(j, w[:, j].max())
                      for j in range(n)) for d in range(len(ks))]
    assert [round(ests[k].q_hat * n) for k in ks] == violations
    assert 0 < racing.size < n


def test_maxima_sum_each_draws_own_ladder_heights(monkeypatch):
    # every draw of M sums the next N of the heights, in order, N its
    # geometric count; the heights come in calls of at most _BATCH, and a
    # draw's heights may straddle calls
    rng = np.random.default_rng(13)
    counts = rng.geometric(0.3, 500) - 1
    counts[:3] = 0  # draws of M = 0 first, and one on a call's boundary
    counts[100] = 7 - counts[:100].sum() % 7
    heights = rng.integers(0, 9, counts.sum())
    sizes = []

    def draw(sampler, rng, size):
        sizes.append(size)
        return heights[sum(sizes) - size:sum(sizes)]
    monkeypatch.setattr(simulate, "_counts", draw)
    monkeypatch.setattr(simulate, "_BATCH", 7)

    class Geometric:
        def geometric(self, p, size):
            assert (p, size) == (0.25, counts.size)
            return counts + 1
    got = _maxima(None, 0.75, Geometric(), counts.size)
    ends = np.cumsum(counts)
    want = [heights[e - c:e].sum() for c, e in zip(counts, ends)]
    assert got.tolist() == want
    assert sizes == [min(7, heights.size - i) for i in range(0, heights.size, 7)]


def test_race_is_the_gamblers_ruin_on_the_zero_profile():
    # at beta = 0.2 alpha, a race from lead u is lost with probability
    # psi(u) = 0.2**(u + 1); its maximum over steps n >= 1 is
    # Phi_1 - 1 + M', which reads every u <= 3
    beta, n = 0.2 * ALPHA, 1_000_000
    sampler, rng = _PhiSampler(zero_profile(), beta), np.random.default_rng(33)
    first = _counts(sampler, rng, n) - 1
    top = first + _maxima(sampler.excess(), 0.2, rng, n)
    z = np.repeat(np.arange(4)[:, None], n, axis=1)
    nviol = simulate._race(z, top)
    psi = 0.2 ** (np.arange(4) + 1)
    assert np.all(np.abs(nviol / n - psi) <= 4 * np.sqrt(psi * (1 - psi) / n))


@pytest.mark.parametrize("fraction", [0.95, 0.98])
def test_sweep_is_unbiased_near_beta_equal_to_alpha(fraction):
    # ROADMAP item 6's cells: the zero model, k = 1..4, 2e5 trials at the
    # default warmup_blocks and stop_lead; the walk-based sweep was 9.6
    # standard errors low at 0.98, while the exact draw of M leaves no bias
    config = SimConfig(profile=zero_profile(), beta=fraction * ALPHA, k=4,
                       trials=200_000, seed=11)
    ests = simulate_attack_sweep(config, range(1, 5))
    analytic = analyze(DelayModel("zero"), fraction, 600.0, 4)
    for k in range(1, 5):
        assert abs(ests[k].q_hat - analytic[k - 1].q) <= 3 * ests[k].std_err


def test_sweep_of_an_unstable_model_violates_without_a_walk(monkeypatch):
    # a 599.99 s fixed delay at a 600 s mean puts beta E[theta] far above 1:
    # M is infinite, so every depth violates, no Phi is drawn and no table
    # is built
    counts = spy_draws(monkeypatch)

    def refused(*args):
        raise AssertionError("no table is built")
    monkeypatch.setattr(simulate, "_PhiSampler", refused)
    prof = HashrateProfile.fixed_delay(599.99, 100.0)
    config = SimConfig(profile=prof, beta=0.2 * 100.0, k=3, trials=1_000,
                       seed=1)
    ests = simulate_attack_sweep(config, range(1, 4))
    assert [(ests[k].q_hat, ests[k].std_err) for k in range(1, 4)] == [
        (1.0, 0.0)] * 3
    assert counts == []


def test_sweep_on_a_long_last_segment_matches_analyze():
    # thresholds (0, 10, 1e6) s at fractions (0, 1), calibrated to a 600 s
    # mean: e^-H_N underflows to 0, so that every draw of theta and of A
    # falls before t_N, and beta t_N = 339
    prof = HashrateProfile((0.0, 10.0, 1e6), (0.0, 1.0), 1 / 590)
    config = SimConfig(profile=prof, beta=0.2 / 590, k=3, trials=20_000,
                       seed=1)
    ests = simulate_attack_sweep(config, [1, 2, 3])
    analytic = analyze(DelayModel("variable", profile=prof), 0.2, 600.0, 3,
                       delta_conf=0.0)
    for k in (1, 2, 3):
        assert abs(ests[k].q_hat - analytic[k - 1].q) <= 4 * ests[k].std_err


def test_sweep_where_S_N_underflows_reads_a_one_entry_table():
    # thresholds (0, 10, 1e9) s at fractions (0, 1): S_N = 0, so the table
    # holds [1.0] alone (it took some 680 000 entries, none ever read,
    # before its stop rule bounded it at every j), and the sweep calibrated
    # to a 600 s mean at K = 9, with a 10 s final window, matches analyze
    prof = HashrateProfile((0.0, 10.0, 1e9), (0.0, 1.0), 1 / 590)
    assert _PhiSampler(prof, 0.2 / 590).cdf.tolist() == [1.0]
    rate = calibrate_alpha(prof, 600.0, 9).calibrated_rate
    config = SimConfig(profile=prof.with_fullrate(rate), beta=0.2 * rate, k=3,
                       delta_conf=10.0, trials=200_000, seed=12)
    ests = simulate_attack_sweep(config, [1, 2, 3])
    analytic = analyze(DelayModel("variable", profile=prof), 0.2, 600.0, 3,
                       K=9, delta_conf=10.0)
    for k in (1, 2, 3):
        assert abs(ests[k].q_hat - analytic[k - 1].q) <= 4 * ests[k].std_err


@pytest.mark.parametrize("K", [9, 27])
@pytest.mark.parametrize("prof", [
    HashrateProfile((0.0, 10.0, 590.0), (0.0, 0.001), 1.0),
    HashrateProfile((0.0, 30.0, 90.0, 200.0, 590.0),
                    (0.0, 0.001, 0.001, 0.002), 1.0),
], ids=["one-segment", "three-segments"])
def test_sweep_with_little_early_mining_matches_analyze(prof, K):
    # profiles that calibrate only since secant steps replaced fixed-point
    # ones; beta = 0.01 alpha puts rho = beta E[theta] near 0.3, with the
    # profile's 590 s as the final window
    rate = calibrate_alpha(prof, 600.0, K).calibrated_rate
    config = SimConfig(profile=prof.with_fullrate(rate), beta=0.01 * rate,
                       k=4, delta_conf=prof.max_delay, trials=200_000,
                       seed=13)
    ests = simulate_attack_sweep(config, range(1, 5))
    analytic = analyze(DelayModel("variable", profile=prof), 0.01, 600.0, 4,
                       K=K)
    for k in range(1, 5):
        assert abs(ests[k].q_hat - analytic[k - 1].q) <= 4 * ests[k].std_err


def test_sweep_on_a_long_dead_zone_at_a_vanishing_beta_matches_analyze():
    # a 5e5 s dead zone at beta = 1e-6 alpha, with the delay as the final
    # window: rho = 8.3e-4, and nearly every ladder height is drawn before
    # t_N, as Poisson(beta A) with A uniform on the dead zone
    prof = HashrateProfile.fixed_delay(5e5, ALPHA)
    config = SimConfig(profile=prof, beta=1e-6 * ALPHA, k=2, trials=200_000,
                       delta_conf=5e5, seed=9)
    ests = simulate_attack_sweep(config, [1, 2])
    analytic = analyze(DelayModel("fixed", delay=5e5), 1e-6, 500_600.0, 2,
                       delta_conf=5e5)
    assert ests[1].q_hat > 0.002
    for k in (1, 2):
        se = max(ests[k].std_err, 1 / config.trials)
        assert abs(ests[k].q_hat - analytic[k - 1].q) <= 4 * se


def test_no_counts_call_exceeds_the_batch_near_beta_equal_to_alpha(monkeypatch):
    # at beta = 0.98 alpha a draw of M sums 49 ladder heights on average,
    # and E[M] = 0.98**2 / 0.02 at zero delay: the heights are drawn in
    # calls of at most _BATCH, as the trials are
    counts = spy_draws(monkeypatch)
    monkeypatch.setattr(simulate, "_BATCH", 1_000)
    config = SimConfig(profile=zero_profile(), beta=0.98 * ALPHA, k=2,
                       trials=2_500, seed=6)
    simulate_attack_sweep(config, [1, 2])
    assert max(counts) == 1_000 and sum(counts) > 100_000
    counts.clear()
    rho, heights = ladder(zero_profile(), 0.98 * ALPHA)
    lead = _maxima(heights, rho, np.random.default_rng(8), 20_000)
    assert max(counts) == 1_000 and len(counts) > 900
    assert abs(lead.mean() - 0.98**2 / 0.02) <= 4 * lead.std() / np.sqrt(
        lead.size)


def survival_integral_50_digits(prof):
    """E[theta] = int S to 50 digits by ``decimal``: each segment's
    int e^-H(t) dt in closed form, then S_N / alpha."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        alpha, H, total = D(prof.fullrate), D(0), D(0)
        for length, f in zip(prof.segment_lengths, prof.fractions):
            r, length = D(f) * alpha, D(length)
            total += (-H).exp() * ((1 - (-r * length).exp()) / r if r else length)
            H += r * length
        return total + (-H).exp() / alpha


@pytest.mark.parametrize("make", [
    lambda: HashrateProfile.fixed_delay(10.0, 1 / 590),
    lambda: criterion_profile()[0], congested_profile,
    lambda: HashrateProfile((0.0, 10.0, 1e6), (0.0, 1.0), 1 / 590)],
    ids=["fixed", "criterion", "congested", "long-segment"])
def test_mean_is_the_integral_of_the_survival(make):
    # rho = beta E[theta] reads E[theta] off the profile's own law in
    # closed form, to 1e-14 of a 50-digit reference
    prof = make()
    mean = _integrals(ThetaSampler(prof))[2]
    assert abs(decimal.Decimal(mean) - survival_integral_50_digits(prof)) <= (
        decimal.Decimal(1e-14 * mean))
    assert _PhiSampler(prof, 0.2 * prof.fullrate).mean == mean


@pytest.mark.parametrize("make", [zero_profile, lambda: criterion_profile()[0],
                                  congested_profile],
                         ids=["zero", "criterion", "congested"])
@pytest.mark.parametrize("fraction", [0.2, 0.45])
def test_counts_follow_phi_of_the_profile(make, fraction):
    # masses 0..5 and the rest against the exact geometric on the zero
    # profile, else against the K = 51 ME route; and the mean is
    # beta E[theta]
    prof = make()
    beta, n = fraction * prof.fullrate, 1_000_000
    if prof.thresholds[-1] == 0:
        ref, mean = (1 - fraction / (1 + fraction)) * (
            fraction / (1 + fraction)) ** np.arange(60), fraction
    else:
        theta = assemble_theta(prof, 51)
        ref, mean = phi_from_theta(theta, beta, 60).masses, beta * theta.mean()
    ref = np.append(ref[:6], ref[6:].sum())
    sampler, rng = _PhiSampler(prof, beta), np.random.default_rng(31)
    phi = _counts(sampler, rng, n)
    emp = np.bincount(np.minimum(phi, 6), minlength=7) / phi.size
    z = np.abs(emp - ref) / np.sqrt(ref * (1 - ref) / phi.size)
    assert z.max() <= 4.0
    assert abs(phi.mean() - mean) <= 4 * phi.std() / np.sqrt(phi.size)


@pytest.mark.parametrize("make", PROFILES.values(), ids=PROFILES.keys())
@pytest.mark.parametrize("fraction", [0.2, 0.45])
def test_ladder_heights_follow_the_excess_law(make, fraction):
    # P(H = h) = P(Phi > h) / rho, from the K = 51 ME route's masses, and
    # its mean E[Phi (Phi - 1)] / (2 rho); the excess table shares theta's
    # sums
    prof = make()
    beta, n = fraction * prof.fullrate, 1_000_000
    sampler = _PhiSampler(prof, beta)
    rho, heights = beta * sampler.mean, sampler.excess()
    masses = phi_from_theta(assemble_theta(prof, 51), beta, 200).masses
    ref = (1 - np.cumsum(masses)) / rho
    h = _counts(heights, np.random.default_rng(37), n)
    assert law_z(h, ref) <= 4.0
    mean = masses @ (np.arange(200) * np.arange(-1, 199)) / (2 * rho)
    assert abs(h.mean() - mean) <= 4 * h.std() / np.sqrt(n)
    assert heights.sums is sampler.sums


def test_tail_table_at_a_beta_far_above_alpha_carries_the_law():
    # at beta = 1000 alpha the law on the zero profile is
    # P(Phi >= n) = q**n, q = 1000 / 1001: the table runs whole to the
    # first n with q**n < 2**-53, some 37 000 entries, and the excess law,
    # theta's own at zero delay, shares it
    beta, q = 1000 * ALPHA, 1000 / 1001
    sampler = _PhiSampler(zero_profile(), beta)
    assert q ** len(sampler.cdf) < 2.0**-53 <= q ** (len(sampler.cdf) - 1)
    assert sampler.cdf[-1] == 1.0
    excess = sampler.excess()
    assert_allclose(excess.cdf, sampler.cdf, rtol=0, atol=1e-15)
    n = 1_000_000
    for law, seed in ((sampler, 35), (excess, 36)):
        phi = _counts(law, np.random.default_rng(seed), n)
        for level in (1, 500, 1_023, 1_024, 1_025, 3_000, 10_000):
            p = q ** level
            assert abs((phi >= level).mean() - p) <= 4 * np.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("make", [zero_profile, lambda: criterion_profile()[0]],
                         ids=["zero", "criterion"])
@pytest.mark.parametrize("ratio", [0.0, 1e-300])
def test_sweep_at_a_vanishing_beta_never_violates(make, ratio, monkeypatch):
    # Phi = 0 on every draw, or all but a 1e-300 share: 1 - rho rounds to
    # 1, so that every draw of M counts no ladder, and no height is drawn;
    # every count is drawn under theta's law
    samplers, draw = [], simulate._counts

    def spied(sampler, rng, size):
        samplers.append(sampler)
        return draw(sampler, rng, size)
    monkeypatch.setattr(simulate, "_counts", spied)
    prof = make()
    config = SimConfig(profile=prof, beta=ratio * prof.fullrate, k=4,
                       delta_conf=prof.max_delay, warmup_blocks=1_000,
                       stop_lead=8, trials=2_000, seed=5)
    ests = simulate_attack_sweep(config, range(1, 5))
    assert [ests[k].q_hat for k in range(1, 5)] == [0.0] * 4
    assert len(samplers) == 5 and len(set(map(id, samplers))) == 1


def tail_left(prof, beta, j):
    """S_N P(T > j) for T = Poisson(beta t_N) + Geometric(alpha/(alpha+beta)),
    summed over the Poisson's masses."""
    q, mu = beta / (beta + prof.fullrate), beta * prof.thresholds[-1]
    pois = [math.exp(i * math.log(mu) - mu - math.lgamma(i + 1)) if mu else
            float(i == 0) for i in range(300)]
    surv = math.exp(-ThetaSampler(prof).hazard[-1])
    return surv * sum(p * (q ** (j - i + 1) if i <= j else 1.0)
                      for i, p in enumerate(pois))


@pytest.mark.parametrize("ratio", [0.2, 0.95, 3.0])
def test_tail_table_is_the_geometric_cdf_at_zero_delay(ratio):
    cdf = _PhiSampler(zero_profile(), ratio * ALPHA).cdf
    q = ratio / (1 + ratio)
    assert_allclose(cdf, 1 - q ** np.arange(1, len(cdf) + 1), rtol=0,
                    atol=1e-15)
    assert cdf[-1] == 1.0


@pytest.mark.parametrize("make", [zero_profile, var_profile,
                                  congested_profile,
                                  lambda: HashrateProfile.fixed_delay(
                                      3000.0, ALPHA)],
                         ids=["zero", "variable", "congested", "fixed"])
def test_tail_table_is_sized_from_the_law(make):
    prof, lengths = make(), []
    for ratio in (0.2, 0.95, 3.0):
        beta = ratio * prof.fullrate
        cdf = _PhiSampler(prof, beta).cdf
        assert np.all(np.diff(cdf) >= 0) and cdf[-1] == 1.0
        left = [tail_left(prof, beta, j) for j in range(len(cdf))]
        assert_allclose(cdf, 1 - np.array(left), rtol=0, atol=1e-15)
        # it ends at the first j whose remaining mass is below 2**-53
        assert left[-1] < 2.0**-53 <= left[-2]
        lengths.append(len(cdf))
    assert lengths[0] < lengths[1] < lengths[2]


@pytest.mark.parametrize("mu", [700, 740, 750, 5_000])
def test_tail_table_carries_the_law_at_a_large_beta_t_N(mu):
    # past beta t_N ~ 708, e^-beta t_N is subnormal, and past ~ 745 it is
    # 0: the table's mean is still E T = beta t_N + beta / alpha
    beta = 0.2 * ALPHA
    sampler = _PhiSampler(HashrateProfile.fixed_delay(mu / beta, ALPHA), beta)
    assert sampler.head == 0.0
    assert_allclose(np.sum(1 - sampler.cdf), mu + beta / ALPHA, rtol=1e-9)


@pytest.mark.parametrize("make", [zero_profile, congested_profile])
def test_counts_at_zero_beta_are_zero(make):
    sampler = _PhiSampler(make(), 0.0)
    assert sampler.cdf.tolist() == [1.0]
    phi = _counts(sampler, np.random.default_rng(32), 100_000)
    assert not phi.any()


@pytest.mark.parametrize("mu", [0.0, 0.0034, 5.0, 700.0, 5_000.0])
def test_poisson_masses_are_one_arrays_prefix(mu):
    # the tail table reads Poisson masses only as far as its stop test;
    # drawn _CHUNK at a time, they are bit for bit those of one long array
    masses = simulate._poisson(mu)
    got = [next(masses) for _ in range(300)]
    with np.errstate(divide="ignore"):
        one = np.exp(np.cumsum(np.append(-mu, np.log(
            mu / np.arange(1, 2_000))))).tolist()
    assert got == one[:300]


@st.composite
def profiles(draw):
    """Random profiles: one to five segments of 0.1 s to 1e6 s at
    nondecreasing fractions, at full rate ALPHA."""
    lengths = draw(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=5))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=len(lengths),
                              max_size=len(lengths)))
    return HashrateProfile(tuple(np.cumsum([0.0, *lengths])),
                           tuple(sorted(fractions)), ALPHA)


PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(prof=profiles(), rho=st.floats(1e-6, 0.999))
def test_tail_table_is_short_wherever_it_is_read(prof, rho):
    # where rho = beta E[theta] < 1 and S_N >= 2**-53, the sweep reads the
    # table; nondecreasing fractions make the hazard H convex, so that
    # int_0^t_N S >= t_N (1 - S_N) / H_N and mu = beta t_N <=
    # rho H_N / (1 - S_N) < 37, and the table ends within 2 mu + 150
    sampler = _PhiSampler(prof, rho / _integrals(ThetaSampler(prof))[2])
    assume(sampler.surv >= 2.0**-53)
    hazard = sampler.hazard[-1]
    ratio = hazard / -math.expm1(-hazard) if hazard else 1.0
    assert sampler.mu <= rho * ratio * (1 + 1e-12)
    assert len(sampler.cdf) <= 2 * sampler.mu + 150


@PROPERTY
@given(prof=profiles(), rho=st.floats(1e-6, 0.999), data=st.data())
def test_splitting_a_segment_leaves_the_laws_unchanged(prof, rho, data):
    # a segment cut in two at its own fraction is the same profile: theta's
    # mean to 1e-15 relative, and S_N and the tail tables of theta and of
    # its excess to 1e-15, agree to rounding
    i = data.draw(st.integers(0, prof.n_segments - 1))
    cut = data.draw(st.floats(0.01, 0.99))
    thr, fr = prof.thresholds, prof.fractions
    split = HashrateProfile(
        thr[:i + 1] + (thr[i] + cut * (thr[i + 1] - thr[i]),) + thr[i + 1:],
        fr[:i + 1] + fr[i:], ALPHA)
    beta = rho / _integrals(ThetaSampler(prof))[2]
    one, two = _PhiSampler(prof, beta), _PhiSampler(split, beta)
    assert two.mean == pytest.approx(one.mean, rel=1e-15, abs=0)
    assert abs(two.surv - one.surv) <= 1e-15
    for a, b in ((one, two), (one.excess(), two.excess())):
        assert_allclose(b.cdf, a.cdf, rtol=0, atol=1e-15)
