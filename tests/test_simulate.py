import decimal
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from powruin import simulate
from powruin.delaymodel import HashrateProfile, assemble_theta, calibrate_alpha
from powruin.doublespend import DelayModel, analyze
from powruin.phi import phi_from_theta
from powruin.ruinlindley import lead_pmf
from powruin.simulate import (SimConfig, ThetaSampler, _counts, _PhiSampler,
                              _ladder_max, _lundberg, simulate_attack_sweep)

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


@pytest.mark.parametrize("field", ["k", "warmup_blocks", "stop_lead"])
def test_config_refuses_step_counts_past_2_to_61(field):
    # the bounds are kept for compatibility, though no draw reads the
    # fields; k is bounded by stop_lead, which must be at least k
    fields = {"k": 1, "warmup_blocks": 1_000, "stop_lead": 64}
    at_bound = SimConfig(profile=zero_profile(), beta=1.0,
                         **{**fields, "stop_lead": 2**61, field: 2**61})
    assert getattr(at_bound, field) == 2**61
    refused = "stop_lead" if field == "k" else field
    for value in (2**61 + 1, 10**20):
        with pytest.raises(ValueError, match=f"^{refused} must be at most"):
            SimConfig(profile=zero_profile(), beta=1.0,
                      **{**fields, "stop_lead": value, field: value})


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
     [10469, 6392, 4141, 2640, 1740, 1168]),
    (HashrateProfile.zero_delay(ALPHA), [10194, 6201, 3924, 2540, 1716, 1116]),
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
    with pytest.raises(ValueError):
        simulate_attack_sweep(config, [100])
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
# a rise no draw of M reaches
NO_RISE = np.iinfo(np.int64).max


def tilted(prof, beta):
    """R and the sampler of ``prof``'s law at ``beta`` tilted by R."""
    R = _lundberg(_PhiSampler(prof, beta), beta)
    return R, _PhiSampler(prof, beta, R)


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
    # M = sup_n S_n drawn by tilted ladders against the K = 51 ME route's
    # stationary lead, on the zero, criterion and congested profiles; the
    # congested profile at 0.9 has beta E[theta] > 1, and no R
    n = 200_000
    for name, make in PROFILES.items():
        prof = make()
        theta = assemble_theta(prof, 51)
        for fraction in (0.2, 0.45, 0.9):
            beta = fraction * prof.fullrate
            if (name, fraction) == ("congested", 0.9):
                assert _lundberg(_PhiSampler(prof, beta), beta) is None
                continue
            R, sampler = tilted(prof, beta)
            lead = _ladder_max(sampler, np.log(R), np.random.default_rng(21),
                               np.full(n, NO_RISE))
            ref = lead_pmf(phi_from_theta(theta, beta, 400), 400).masses
            assert law_z(lead, ref) <= 4.0, (name, fraction)


def test_loynes_lead_is_lindley_on_the_reversed_increments():
    # by Loynes' reversal the stationary lead has the law of Lindley's
    # recursion Q' = (Q + Phi - 1)+ run forward from 0: 200 steps of it on
    # fresh counts against M drawn by tilted ladders, on the criterion
    # profile, masses 0..5 and the rest
    prof, _ = criterion_profile()
    beta, n = 0.45 * prof.fullrate, 50_000
    sampler, rng = _PhiSampler(prof, beta), np.random.default_rng(11)
    q = np.zeros(n, dtype=np.int64)
    for _ in range(200):
        q = np.maximum(q + _counts(sampler, rng, n) - 1, 0)
    R, tilt = tilted(prof, beta)
    lead = _ladder_max(tilt, np.log(R), rng, np.full(n, NO_RISE))
    a, b = (np.bincount(np.minimum(x, 6), minlength=7) / n for x in (q, lead))
    pooled = (a + b) / 2
    assert a[1] > 0.1 and a[6] > 0.002
    assert np.all(np.abs(a - b) <= 4 * np.sqrt(pooled * (1 - pooled) * 2 / n))


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
    # on the criterion profile draws Phi in a few dozen calls: six for the
    # confirmations, one for the races' first steps, then one per pass of
    # the ladder loop, which draws for fewer walks at each pass
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
    assert 1_500 < counts[7] <= 1_500 + counts[6]
    assert counts[7:] == sorted(counts[7:], reverse=True) and len(counts) < 40


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
    # one ladder call per batch draws every lead, stopped at max_d w_d + 1,
    # then for each trial with max_d w_d >= 0 its race's M', stopped at
    # max_d w_d - (Phi_1 - 1); depth d violates when w_d - lead <=
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

    def ladders(sampler, log_r, rng, rise):
        calls.append(rise)
        return stub[:rise.size]
    monkeypatch.setattr(simulate, "_ladder_max", ladders)
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=5,
                       trials=n, seed=2)
    ests = simulate_attack_sweep(config, ks)

    w = np.array([k - 1 - rows[:k].sum(axis=0) for k in ks])
    racing = np.flatnonzero(w.max(axis=0) >= 0)
    first = rows[ks[-1], :racing.size] - 1
    assert len(calls) == 1 and calls[0].tolist() == (
        (w.max(axis=0) + 1).tolist() + (w.max(axis=0)[racing] - first).tolist())
    lead, race = stub[:n], dict(zip(racing, first + stub[n:n + racing.size]))
    violations = [sum(w[d, j] - lead[j] <= race.get(j, w[:, j].max())
                      for j in range(n)) for d in range(len(ks))]
    assert [round(ests[k].q_hat * n) for k in ks] == violations
    assert 0 < racing.size < n


def naive_ladders(phi, e, log_r, rise):
    """One draw of M on the tilted steps phi and exponentials e, step by
    step: a ladder s > 0 is kept when e_t > s log_r, and the draw stops once
    M >= rise or at the first ladder not kept.  Returns M and the steps
    walked; a rise <= 0 walks none."""
    s = m = t = 0
    while m < rise:
        s, t = s + phi[t] - 1, t + 1
        if s > 0:
            if e[t - 1] <= s * log_r:
                break
            m, s = m + s, 0
    return m, t


def test_race_draws_once_per_walking_trial(monkeypatch):
    # every pass of the ladder loop draws one tilted step, and one
    # exponential, per walk still walking; every walk sees the same draws,
    # so one naive walk per rise tells its M and the steps it walks
    rng = np.random.default_rng(13)
    phi, e = rng.poisson(1.6, 10_000), rng.exponential(size=10_000)
    sizes = []

    def counts(sampler, rng, size):
        sizes.append(size)
        return np.full(size, phi[len(sizes) - 1])
    monkeypatch.setattr(simulate, "_counts", counts)

    class Exponentials:
        def standard_exponential(self, size):
            assert size == sizes[-1]
            return np.full(size, e[len(sizes) - 1])
    rise = np.arange(-2, 40)
    got = _ladder_max(None, 0.3, Exponentials(), rise)
    want = [naive_ladders(phi, e, 0.3, r) for r in rise]
    assert got.tolist() == [m for m, _ in want]
    walked = [t for _, t in want]
    assert sizes == [sum(t > i for t in walked) for i in range(max(walked))]
    # some draws stop at their rise, others at a ladder not kept
    assert any(m >= r > 0 for m, r in zip(got, rise))
    assert any(0 < m < r for m, r in zip(got, rise))


def test_race_is_the_gamblers_ruin_on_the_zero_profile():
    # at beta = 0.2 alpha, a race from lead u is lost with probability
    # psi(u) = 0.2**(u + 1); its maximum over steps n >= 1 is Phi_1 - 1 + M',
    # and M' stopped once that maximum reaches 3 reads every u <= 3
    beta, n = 0.2 * ALPHA, 1_000_000
    sampler, rng = _PhiSampler(zero_profile(), beta), np.random.default_rng(33)
    R, tilt = tilted(zero_profile(), beta)
    first = _counts(sampler, rng, n) - 1
    top = first + _ladder_max(tilt, np.log(R), rng, 3 - first)
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
    # M is infinite, so every depth violates, and no Phi is drawn
    counts = spy_draws(monkeypatch)
    prof = HashrateProfile.fixed_delay(599.99, 100.0)
    config = SimConfig(profile=prof, beta=0.2 * 100.0, k=3, trials=1_000,
                       seed=1)
    ests = simulate_attack_sweep(config, range(1, 4))
    assert [(ests[k].q_hat, ests[k].std_err) for k in range(1, 4)] == [
        (1.0, 0.0)] * 3
    assert counts == []


def test_sweep_on_a_long_last_segment_matches_analyze():
    # thresholds (0, 10, 1e6) s at fractions (0, 1), calibrated to a 600 s
    # mean: e^-H_N underflows to 0 while e^(c t_N) overflows, so each
    # e^(c t - H) is formed as one exponent
    prof = HashrateProfile((0.0, 10.0, 1e6), (0.0, 1.0), 1 / 590)
    config = SimConfig(profile=prof, beta=0.2 / 590, k=3, trials=20_000,
                       seed=1)
    ests = simulate_attack_sweep(config, [1, 2, 3])
    analytic = analyze(DelayModel("variable", profile=prof), 0.2, 600.0, 3,
                       delta_conf=0.0)
    for k in (1, 2, 3):
        assert abs(ests[k].q_hat - analytic[k - 1].q) <= 4 * ests[k].std_err


@pytest.mark.parametrize("fraction", [0.2, 0.45, 0.9, 0.98])
def test_lundberg_root_is_alpha_over_beta_at_zero_delay(fraction):
    # to rounding: near beta = alpha the root is ill-conditioned, and at
    # 0.98 R falls 22 ulps from alpha / beta
    beta = fraction * ALPHA
    R = _lundberg(_PhiSampler(zero_profile(), beta), beta)
    assert R == pytest.approx(ALPHA / beta, rel=1e-14, abs=0)


def mgf_50_digits(prof, c):
    """E[e^(c theta)] to 50 digits by ``decimal``: each segment's
    r int e^(c t - H(t)) dt in closed form, then the exponential tail."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        alpha, c, H, total = D(prof.fullrate), D(c), D(0), D(0)
        for t0, length, f in zip(prof.thresholds, prof.segment_lengths,
                                 prof.fractions):
            r, t0, length = D(f) * alpha, D(t0), D(length)
            x = r - c
            span = (1 - (-x * length).exp()) / x if x else length
            total += r * (c * t0 - H).exp() * span
            H += r * length
        return total + (c * D(prof.thresholds[-1]) - H).exp() * alpha / (
            alpha - c)


@pytest.mark.parametrize("make", [
    lambda: HashrateProfile.fixed_delay(10.0, 1 / 590),
    lambda: criterion_profile()[0], congested_profile,
    lambda: HashrateProfile((0.0, 10.0, 1e6), (0.0, 1.0), 1 / 590)],
    ids=["fixed", "criterion", "congested", "long-segment"])
def test_lundberg_root_solves_its_equation(make):
    # |E[R^Phi] - R| <= 1e-12 R, with E[R^Phi] = E[e^(beta (R - 1) theta)]
    # to 50 digits; only the congested profile at 0.9 has no root
    prof = make()
    for fraction in (0.2, 0.45, 0.9):
        beta = fraction * prof.fullrate
        R = _lundberg(_PhiSampler(prof, beta), beta)
        if make is congested_profile and fraction == 0.9:
            assert R is None
            continue
        c = decimal.Decimal(beta) * (decimal.Decimal(R) - 1)
        assert abs(mgf_50_digits(prof, c) - decimal.Decimal(R)) <= 1e-12 * R


def test_lundberg_refuses_a_root_it_cannot_reach():
    # a 5e5 s dead zone at beta = 1e-6 alpha: e^(c t_N) overflows at the
    # first u with h(u) > 0, Newton's iterates turn NaN and the cap raises
    prof = HashrateProfile.fixed_delay(5e5, ALPHA)
    beta = 1e-6 * ALPHA
    with pytest.raises(ValueError, match="did not converge in 100 Newton"):
        _lundberg(_PhiSampler(prof, beta), beta)


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
def test_tilted_counts_follow_the_tilted_law(make, fraction):
    # P'(Phi = n) = P(Phi = n) R**n / R, from the K = 51 ME route's masses,
    # and the tilted mean; the tilted walk drifts up
    prof = make()
    beta, n = fraction * prof.fullrate, 1_000_000
    R, sampler = tilted(prof, beta)
    ref = phi_from_theta(assemble_theta(prof, 51), beta, 200).masses * (
        R ** np.arange(200) / R)
    phi = _counts(sampler, np.random.default_rng(37), n)
    assert law_z(phi, ref) <= 4.0
    mean = ref @ np.arange(200)
    assert mean > 1 and abs(phi.mean() - mean) <= 4 * phi.std() / np.sqrt(n)


def test_a_cut_tail_table_draws_its_geometric_rest():
    # at beta = 0.001 alpha the tilted law on the zero profile is
    # P'(Phi >= n) = (1 / 1.001)**n, whose table would take some 37 000
    # entries: it stops at _TABLE, and a draw past it inverts the
    # geometric rest; the untilted table is not cut
    beta = 0.001 * ALPHA
    R, sampler = tilted(zero_profile(), beta)
    assert len(sampler.cdf) == simulate._TABLE and sampler.rest > 0
    assert _PhiSampler(zero_profile(), beta).rest == 0.0
    n = 1_000_000
    phi = _counts(sampler, np.random.default_rng(35), n)
    for level in (1, 500, 1_023, 1_024, 1_025, 3_000, 10_000):
        p = (1 / 1.001) ** level
        assert abs((phi >= level).mean() - p) <= 4 * np.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("make", [zero_profile, lambda: criterion_profile()[0]],
                         ids=["zero", "criterion"])
@pytest.mark.parametrize("ratio", [0.0, 1e-300])
def test_sweep_at_a_vanishing_beta_never_violates(make, ratio, monkeypatch):
    # Phi = 0 on every draw, or all but a 1e-300 share: R is infinite or
    # above 2**40, so that a ladder is kept with probability below 1e-12,
    # and no ladder is drawn
    def never(*args):
        raise AssertionError("no ladder is drawn")
    monkeypatch.setattr(simulate, "_ladder_max", never)
    prof = make()
    config = SimConfig(profile=prof, beta=ratio * prof.fullrate, k=4,
                       delta_conf=prof.max_delay, warmup_blocks=1_000,
                       stop_lead=8, trials=2_000, seed=5)
    ests = simulate_attack_sweep(config, range(1, 5))
    assert [ests[k].q_hat for k in range(1, 5)] == [0.0] * 4


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
