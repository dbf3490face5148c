import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from powruin import simulate
from powruin.delaymodel import HashrateProfile, assemble_theta, calibrate_alpha
from powruin.phi import phi_from_theta
from powruin.ruinlindley import lead_pmf
from powruin.simulate import (SimConfig, ThetaSampler, _counts, _PhiSampler,
                              _walk_max, simulate_attack_sweep)

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
     [10401, 6358, 4016, 2612, 1729, 1139]),
    (HashrateProfile.zero_delay(ALPHA), [10341, 6162, 3917, 2573, 1709, 1141]),
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


def columns(phi):
    """Increment draw replaying phi - 1 column by column, while no trial
    but the last has stopped early."""
    steps = iter(phi.T - 1)
    return lambda size: next(steps)


def loynes_reference(increment, n, cap, stop_lead):
    """Reference pre-mining walk with the fall stop only: each trial's
    running maximum from 0, stopped once the walk falls stop_lead below it
    or after cap steps, with no stop at stop_lead."""
    lead = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    s = np.zeros(n, dtype=np.int64)
    m = np.zeros(n, dtype=np.int64)
    for _ in range(cap):
        s += increment(active.size)
        np.maximum(m, s, out=m)
        done = s <= m - stop_lead
        if done.any():
            lead[active[done]] = m[done]
            active, s, m = simulate._compact(~done, active, s, m)
            if not active.size:
                break
    lead[active] = m
    return lead


def test_loynes_lead_is_lindley_on_the_reversed_increments():
    phi = np.random.default_rng(11).poisson(0.9, size=(40, 300))
    cap = 250
    lead = _walk_max(columns(phi), len(phi), 0, 10**9, cap)
    for row, got in zip(phi, lead):
        q = 0
        for x in row[:cap][::-1]:
            q = max(q + x - 1, 0)
        assert got == q
    # the early stop keeps the maximum reached: up to 3, down to -2, stop;
    # with stop_lead 6 the walk climbs back and stops as its maximum
    # reaches 6
    rise = np.array([[2, 2, 2, 0, 0, 0, 0, 0, 9, 9]])
    assert _walk_max(columns(rise), 1, 0, 5, 10)[0] == 3
    assert _walk_max(columns(rise), 1, 0, 6, 10)[0] == 6


@pytest.mark.parametrize("cap", [40, None], ids=["cap", "no-cap"])
def test_walk_max_from_zero_is_the_loynes_walk_bit_for_bit(cap):
    # whenever no maximum reaches stop_lead, the lead and every draw after
    # it are those of the walk without the stop at stop_lead
    rng, checked = np.random.default_rng(14), 0
    for _ in range(200):
        rate, stop = rng.uniform(0.1, 0.9), int(rng.integers(1, 12))
        n, seed = int(rng.integers(1, 60)), int(rng.integers(2**32))
        old, new = (np.random.default_rng(seed) for _ in range(2))
        want = loynes_reference(lambda size: old.poisson(rate, size) - 1,
                                n, cap or 10**9, stop)
        if want.max() >= stop:
            continue
        caps = () if cap is None else (cap,)
        got = _walk_max(lambda size: new.poisson(rate, size) - 1, n, 0,
                        stop, *caps)
        assert np.array_equal(got, want)
        assert new.random() == old.random()
        checked += 1
    assert checked >= 100


def test_walk_max_from_minus_one_is_the_maximum_over_steps_from_one():
    down = np.array([[0, 0, 0, 0, 0, 0]])
    assert _walk_max(columns(down), 1, -1, 3)[0] == -1
    assert _walk_max(columns(down), 1, 0, 3)[0] == 0
    assert _walk_max(columns(np.array([[0, 2, 0, 0, 0, 0]])), 1, -1, 3)[0] == 0


def test_walk_max_without_a_cap_stops_at_stop_lead_or_at_once():
    sizes = []

    def up(size):
        sizes.append(size)
        return np.ones(size, dtype=np.int64)
    assert _walk_max(up, 3, -1, 5).tolist() == [5, 5, 5]
    assert sizes == [3] * 5

    def never(size):
        raise AssertionError("no trial walks")
    assert _walk_max(never, 0, -1, 5).size == 0


def test_loynes_lead_matches_lead_pmf_on_the_criterion_profile():
    prof, theta = criterion_profile()
    beta = 0.2 * prof.fullrate
    analytic = lead_pmf(phi_from_theta(theta, beta, 10), 10).masses
    sampler, rng, n = ThetaSampler(prof), np.random.default_rng(21), 400_000
    lead = _walk_max(
        lambda size: rng.poisson(beta * sampler.sample(rng, size)) - 1,
        n, 0, 64, 2_000)
    emp = np.bincount(lead, minlength=10)[:10] / n
    z = np.abs(emp - analytic) / np.sqrt(analytic * (1 - analytic) / n)
    assert z.max() <= 4.0


def count_samples(monkeypatch):
    calls = []
    counts = simulate._counts

    def spy(sampler, beta, rng, size):
        calls.append(size)
        return counts(sampler, beta, rng, size)
    monkeypatch.setattr(simulate, "_counts", spy)
    return calls


def test_sweep_samples_far_fewer_times_than_the_cap(monkeypatch):
    prof, _ = criterion_profile()
    calls = count_samples(monkeypatch)
    config = SimConfig(profile=prof, beta=0.2 * prof.fullrate, k=6,
                       delta_conf=prof.max_delay, warmup_blocks=2_000,
                       stop_lead=64, trials=1_500, seed=3)
    simulate_attack_sweep(config, range(1, 7))
    assert len(calls) < 400
    # a walk that never falls stop_lead below its maximum stops at the cap;
    # at rho = 3 every confirmation lead is negative, so no race step runs
    calls.clear()
    config = SimConfig(profile=zero_profile(), beta=3 * ALPHA, k=2,
                       warmup_blocks=1_000, stop_lead=10**9, trials=50)
    ests = simulate_attack_sweep(config, [1, 2])
    assert len(calls) == 1_000 + 2
    assert ests[1].q_hat == ests[2].q_hat == 1.0


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


def naive_race(starts, phi, stop_lead):
    """One trial's race on the phi sequence: the walk of phi_t - 1 and its
    maximum over steps >= 1, stopped once the walk falls stop_lead below
    the maximum or the maximum reaches stop_lead; whether each start
    violates (it is at most the maximum) and the steps walked.  A trial
    whose starts are all below 0 does not walk."""
    if max(starts) < 0:
        return [1] * len(starts), 0
    s, top, t = 0, -1, 0
    while s > top - stop_lead and top < stop_lead:
        s += phi[t] - 1
        top = max(top, s)
        t += 1
    return [int(z <= top) for z in starts], t


def barrier_race(starts, phi, stop_lead):
    """Reference per-depth barrier rule on the phi sequence: for each
    start, Z <- Z + 1 - phi_t until Z <= 0 (violated) or Z >= stop_lead
    (safe); a start below 0 violates outright."""
    violated = []
    for z in starts:
        t = 0
        while 0 <= z < stop_lead and (t == 0 or z > 0):
            z += 1 - phi[t]
            t += 1
        violated.append(int(z <= 0))
    return violated


def stub_counts(monkeypatch, phi):
    """Replace the race's draws: step t gives every walking trial phi[t];
    returns the list of the draws' sizes."""
    sizes = []

    def counts(sampler, beta, rng, size):
        sizes.append(size)
        return np.full(size, phi[len(sizes) - 1])
    monkeypatch.setattr(simulate, "_counts", counts)
    return sizes


def race_cases(rng):
    """(starts, stop_lead, phi) cases, starts below stop_lead."""
    cases = [([0], 1), ([0, 0, -1], 3), ([-2, -1], 4), ([3, 0, 5], 6),
             ([5, 5, 5], 6)]
    cases += [(rng.integers(-4, stop, size=rng.integers(1, 8)).tolist(), stop)
              for stop in rng.integers(1, 15, size=600)]
    return [(starts, stop, rng.poisson(rng.uniform(0.2, 2.0), size=10_000))
            for starts, stop in cases]


def test_race_matches_a_naive_walk_per_depth(monkeypatch):
    cases = race_cases(np.random.default_rng(12))
    for starts, stop_lead, phi in cases:
        sizes = stub_counts(monkeypatch, phi)
        z = np.array(starts, dtype=np.int64)[:, None]
        got = simulate._race(z, None, None, stop_lead, None)
        want, steps = naive_race(starts, phi, stop_lead)
        assert got.tolist() == want, (starts, stop_lead)
        assert sizes == [1] * steps
    # the cases cover a start at 0, starts below 0 and a start at
    # stop_lead - 1, the largest a depth allows
    assert any(0 in st for st, _, _ in cases)
    assert any(min(st) < 0 for st, _, _ in cases)
    assert any(stop == max(st) + 1 for st, stop, _ in cases)


def test_race_finds_every_violation_of_the_per_depth_barrier():
    # on the same increments, a start the per-depth barrier rule violates
    # is violated by the stopped maximum too: before the walk reaches z its
    # maximum is below z, so its stop has not fired
    found_more = 0
    for starts, stop_lead, phi in race_cases(np.random.default_rng(15)):
        new, _ = naive_race(starts, phi, stop_lead)
        old = barrier_race(starts, phi, stop_lead)
        assert all(o <= v for o, v in zip(old, new)), (starts, stop_lead)
        found_more += sum(new) - sum(old)
    assert found_more > 0


def test_race_draws_once_per_walking_trial(monkeypatch):
    # every trial sees the same increments, so a naive walk per trial
    # tells how many trials still walk at each step
    rng = np.random.default_rng(13)
    phi = rng.poisson(0.9, size=10_000)
    z = rng.integers(-3, 8, size=(5, 400))
    results = [naive_race(col, phi, 8) for col in z.T.tolist()]
    sizes = stub_counts(monkeypatch, phi)
    given = z.copy()
    got = simulate._race(z, None, None, 8, None)
    assert np.array_equal(z, given)
    assert got.tolist() == np.sum([v for v, _ in results], axis=0).tolist()
    steps = np.array([t for _, t in results])
    assert sizes == [np.count_nonzero(steps > t)
                     for t in range(steps.max())]
    walking = np.count_nonzero((z >= 0).any(axis=0))
    assert sizes[0] == walking < np.count_nonzero(z >= 0)


def test_race_is_the_gamblers_ruin_on_the_zero_profile():
    # at beta = 0.2 alpha, a race from lead u is lost with probability
    # psi(u) = 0.2**(u + 1); the stop's bias, psi(16) < 1e-11, is far
    # below the standard errors
    beta, n = 0.2 * ALPHA, 1_000_000
    z = np.repeat(np.arange(4)[:, None], n, axis=1)
    nviol = simulate._race(z, _PhiSampler(zero_profile(), beta), beta, 16,
                           np.random.default_rng(33))
    psi = 0.2 ** (np.arange(4) + 1)
    assert np.all(np.abs(nviol / n - psi) <= 4 * np.sqrt(psi * (1 - psi) / n))


def congested_profile():
    """Criterion 7's congested profile, where about a tenth of theta falls
    before the last threshold."""
    return HashrateProfile((0.0, 30.0, 90.0, 200.0), (0.0, 0.2, 0.5), ALPHA)


@pytest.mark.parametrize("make", [zero_profile, lambda: criterion_profile()[0],
                                  congested_profile],
                         ids=["zero", "criterion", "congested"])
@pytest.mark.parametrize("fraction", [0.2, 0.45])
def test_counts_follow_phi_of_the_profile(make, fraction):
    # masses 0..5 and the rest against the exact geometric on the zero
    # profile, else against the K = 51 ME route; and the mean is beta E[theta]
    prof = make()
    beta, n = fraction * prof.fullrate, 1_000_000
    if prof.thresholds[-1] == 0:
        ref, mean = (1 - fraction / (1 + fraction)) * (
            fraction / (1 + fraction)) ** np.arange(60), fraction
    else:
        theta = assemble_theta(prof, 51)
        ref, mean = phi_from_theta(theta, beta, 60).masses, beta * theta.mean()
    ref = np.append(ref[:6], ref[6:].sum())
    phi = _counts(_PhiSampler(prof, beta), beta, np.random.default_rng(31), n)
    emp = np.bincount(np.minimum(phi, 6), minlength=7) / n
    z = np.abs(emp - ref) / np.sqrt(ref * (1 - ref) / n)
    assert z.max() <= 4.0
    assert abs(phi.mean() - mean) <= 4 * phi.std() / np.sqrt(n)


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


@pytest.mark.parametrize("make", [zero_profile, congested_profile])
def test_counts_at_zero_beta_are_zero(make):
    sampler = _PhiSampler(make(), 0.0)
    assert sampler.cdf.tolist() == [1.0]
    phi = _counts(sampler, 0.0, np.random.default_rng(32), 100_000)
    assert not phi.any()
