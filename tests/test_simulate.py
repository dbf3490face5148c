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


@pytest.mark.parametrize("field", ["k", "warmup_blocks", "stop_lead"])
def test_config_refuses_step_counts_past_2_to_61(field):
    # the walks' s - m + stop_lead and m - stop_lead stay inside int64;
    # k is bounded by stop_lead, which must be at least k
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
     [10281, 6299, 3969, 2564, 1685, 1145]),
    (HashrateProfile.zero_delay(ALPHA), [10304, 6240, 3961, 2543, 1737, 1177]),
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


class Events:
    """Stub event draw: walk i takes the events of rows[i] in turn, each a
    (run, Phi) pair, and returns (runs, Phi - 1); records how many events
    each walk drew."""

    def __init__(self, rows):
        self.rows = [iter(row) for row in rows]
        self.drawn = [0] * len(rows)

    def __call__(self, walks):
        pairs = [next(self.rows[i]) for i in walks]
        for i in walks:
            self.drawn[i] += 1
        runs, phi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return runs, phi - 1


def events_of(phi, rng):
    """Events that expand back into the steps phi: a zero joins a run with
    probability 0.7, else it is the draw after a run, as a head draw's
    zero is; a step of 1 or more always ends its event."""
    ends = np.flatnonzero((phi > 0) | (rng.random(phi.size) < 0.3))
    ends = np.append(ends[ends < phi.size - 1], phi.size - 1)
    return np.column_stack([np.diff(ends, prepend=-1) - 1, phi[ends]])


def steps_of(events):
    """The Phi steps of events, one run of zeros and one draw each."""
    for run, phi in events:
        yield from [0] * run
        yield phi


def events_used(events, steps):
    """Events a walk draws to walk the given number of steps."""
    return int(np.searchsorted(np.cumsum(np.asarray(events)[:, 0] + 1),
                               steps)) + 1


def naive_walk(steps, start, rise, cap, stop_lead):
    """One walk of Phi - 1 from 0 on the steps, step by step: its maximum
    from start, stopped once the walk falls stop_lead below it, the
    maximum reaches rise or cap steps are walked; and the steps walked."""
    s, m, t = 0, start, 0
    for phi in steps:
        s += phi - 1
        m, t = max(m, s), t + 1
        if s <= m - stop_lead or m >= rise or t >= cap:
            break
    return m, t


def walk(events, start, rise, cap, stop_lead):
    """_walk_max on stub events, one walk per row; also the events each
    walk drew."""
    draw = Events(events)
    n = len(events)
    out = _walk_max(draw, [start] * n, [rise] * n, [cap] * n, stop_lead)
    return out.tolist(), draw.drawn


def test_loynes_lead_is_lindley_on_the_reversed_increments():
    rng = np.random.default_rng(11)
    phi = rng.poisson(0.9, size=(40, 300))
    cap = 250
    rows = [events_of(row, rng) for row in phi]
    assert all(any(r > 0 for r, _ in row) for row in rows)
    lead, _ = walk(rows, 0, 10**9, cap, 10**9)
    for row, got in zip(phi, lead):
        q = 0
        for x in row[:cap][::-1]:
            q = max(q + x - 1, 0)
        assert got == q
    # the early stop keeps the maximum reached: up to 3, down to -2 in a
    # run of 4 and a zero after it, stop; with stop_lead 6 the walk climbs
    # back and stops as its maximum reaches 6
    rise = [[(0, 2), (0, 2), (0, 2), (4, 0), (0, 9), (0, 9)]]
    assert walk(rise, 0, 5, 10, 5) == ([3], [4])
    assert walk(rise, 0, 6, 10, 6) == ([6], [5])
    # a run that crosses the fall level ends the walk within it, and the
    # draw after the run, which would raise the maximum, is dropped
    assert walk([[(0, 2), (0, 2), (0, 2), (9, 20)]], 0, 64, 100, 5) == (
        [3], [4])


@pytest.mark.parametrize("cap", [40, None], ids=["cap", "no-cap"])
def test_walk_max_from_zero_is_the_loynes_walk_bit_for_bit(cap):
    # whenever no maximum reaches stop_lead, each lead and the events it
    # drew are those of the step-by-step walk without the stop at stop_lead
    rng, checked = np.random.default_rng(14), 0
    for _ in range(200):
        rate, stop = rng.uniform(0.1, 0.9), int(rng.integers(1, 12))
        n = int(rng.integers(1, 60))
        runs = rng.geometric(rng.uniform(0.2, 1.0, (n, 1)), (n, 1_000)) - 1
        rows = np.stack([runs, rng.poisson(rate, (n, 1_000))], axis=2)
        want = [naive_walk(steps_of(row), 0, 10**9, cap or 10**9, stop)
                for row in rows]
        if max(m for m, _ in want) >= stop:
            continue
        got, drawn = walk(rows, 0, stop, cap or simulate._NO_CAP, stop)
        assert got == [m for m, _ in want]
        assert drawn == [events_used(row, t)
                         for row, (_, t) in zip(rows, want)]
        checked += 1
    assert checked >= 100


def test_walk_max_caps_within_a_run_or_on_its_last_step():
    # +1, +1, then a run of 3: a cap of 4 falls within the run, a cap of
    # 5 on its last step; either way the draw after the run is dropped
    row = [[(0, 2), (0, 2), (3, 30), (0, 2)]]
    for cap in (4, 5):
        assert walk(row, 0, 64, cap, 64) == ([2], [3])
    assert walk(row, 0, 64, 6, 64) == ([28], [3])


def test_walk_max_from_minus_one_is_the_maximum_over_steps_from_one():
    down = [[(0, 0)] * 6]
    assert walk(down, -1, 3, simulate._NO_CAP, 3)[0] == [-1]
    assert walk(down, 0, 3, simulate._NO_CAP, 3)[0] == [0]
    assert walk([[(0, 0), (0, 2)] + [(0, 0)] * 4], -1, 3,
                simulate._NO_CAP, 3)[0] == [0]
    # a first step inside a run: the maximum over steps >= 1 stays -1
    assert walk([[(5, 9)]], -1, 3, simulate._NO_CAP, 3) == ([-1], [1])


def test_walk_max_without_a_cap_stops_at_stop_lead_or_at_once():
    for event, calls in [((0, 2), 5), ((1, 3), 5)]:
        sizes = []

        def up(walks, event=event):
            sizes.append(walks.size)
            return (np.full(walks.size, event[0]),
                    np.full(walks.size, event[1] - 1))
        assert _walk_max(up, [-1] * 3, [5] * 3, [simulate._NO_CAP] * 3,
                         5).tolist() == [5, 5, 5]
        assert sizes == [3] * calls

    def never(walks):
        raise AssertionError("no trial walks")
    assert _walk_max(never, [], [], [], 5).size == 0


class HashedEvents:
    """Stub events of walks offset, offset + 1, ...: each a hash of the
    walk's id and its event count, so a walk's events do not depend on the
    others.  Checks that every call lists its walks in ascending order."""

    def __init__(self, n, offset=0):
        self.offset, self.count = offset, np.zeros(n, dtype=np.uint64)

    def __call__(self, walks):
        assert np.all(np.diff(walks) > 0)
        ids = walks + self.offset
        self.count[ids] += np.uint64(1)
        h = (ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             + self.count[ids] * np.uint64(0xBF58476D1CE4E5B9))
        h ^= h >> np.uint64(31)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(29)
        return ((h % np.uint64(3)).astype(np.int64),
                ((h >> np.uint64(8)) % np.uint64(4)).astype(np.int64) - 1)


def test_walk_max_keeps_each_walk_on_its_own_events():
    # one call of 150 000 walks, whose walking ones are dropped as they
    # stop, returns what the same walks return in calls of 1 000
    n, step = 150_000, 1_000
    ids = np.arange(n)
    start, rise, cap = -(ids % 2), ids % 7 + 1, ids % 97 + 1
    events = HashedEvents(n)
    whole = _walk_max(events, start, rise, cap, 5)
    assert events.count.max() > 20 and len(set(whole.tolist())) > 5
    parts = [_walk_max(HashedEvents(n, i), start[i:i + step],
                       rise[i:i + step], cap[i:i + step], 5)
             for i in range(0, n, step)]
    assert np.array_equal(whole, np.concatenate(parts))


def event_draw(prof, beta, seed):
    """The sweep's event draw on ``prof`` at ``beta``, for _walk_max."""
    sampler, rng = _PhiSampler(prof, beta), np.random.default_rng(seed)
    return lambda walks: simulate._events(sampler, beta, rng, walks.size)


def test_loynes_lead_matches_lead_pmf_on_the_criterion_profile():
    # the lead walked by events against the K = 51 ME route, on the
    # criterion profile and on the congested one, whose draws before t_N
    # give the draw after a run's head branch its weight
    for make in (lambda: criterion_profile()[0], congested_profile):
        prof = make()
        theta = assemble_theta(prof, 51)
        for fraction in (0.2, 0.45):
            beta, n = fraction * prof.fullrate, 400_000
            analytic = lead_pmf(phi_from_theta(theta, beta, 10), 10).masses
            lead = _walk_max(event_draw(prof, beta, 21), np.zeros(n),
                             np.full(n, 64), np.full(n, 2_000), 64)
            emp = np.bincount(lead, minlength=10)[:10] / n
            z = np.abs(emp - analytic) / np.sqrt(analytic * (1 - analytic) / n)
            assert z.max() <= 4.0, (prof, fraction)


def spy_draws(monkeypatch, name):
    """Record the sizes that simulate.<name>(sampler, beta, rng, size) is
    called with."""
    calls, draw = [], getattr(simulate, name)

    def spied(sampler, beta, rng, size):
        calls.append(size)
        return draw(sampler, beta, rng, size)
    monkeypatch.setattr(simulate, name, spied)
    return calls


def test_sweep_samples_far_fewer_times_than_the_cap(monkeypatch):
    prof, _ = criterion_profile()
    counts = spy_draws(monkeypatch, "_counts")
    events = spy_draws(monkeypatch, "_events")
    config = SimConfig(profile=prof, beta=0.2 * prof.fullrate, k=6,
                       delta_conf=prof.max_delay, warmup_blocks=2_000,
                       stop_lead=64, trials=1_500, seed=3)
    simulate_attack_sweep(config, range(1, 7))
    assert counts == [1_500] * 6
    assert len(events) < 100
    # a walk that never falls stop_lead below its maximum stops at the
    # cap, here within its last run (1 000) or on the run's last step
    # (1 001): 333 events of a run of 2 and Phi = 5 walk 999 steps.  At
    # this drift every confirmation lead is negative, and each race stops
    # at its first event, its maximum past max_d w_d <= k - 1.
    monkeypatch.setattr(simulate, "_events", lambda sampler, beta, rng, size: (
        events.append(size) or (np.full(size, 2), np.full(size, 4))))
    for cap in (1_000, 1_001):
        counts.clear()
        events.clear()
        config = SimConfig(profile=zero_profile(), beta=3 * ALPHA, k=2,
                           warmup_blocks=cap, stop_lead=10**9, trials=50)
        ests = simulate_attack_sweep(config, [1, 2])
        assert counts == [50, 50]
        assert len(events) == 334 and events[1:] == [50] * 333
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


def naive_race(starts, phi, stop_lead, rise=None):
    """One trial's race on the phi sequence: the walk of phi_t - 1 and its
    maximum over steps >= 1, stopped once the walk falls stop_lead below
    the maximum or the maximum reaches rise (default stop_lead); whether
    each start violates (it is at most the maximum) and the steps walked.
    A trial whose starts are all below 0 does not walk."""
    if max(starts) < 0:
        return [1] * len(starts), 0
    top, t = naive_walk(phi, -1, stop_lead if rise is None else rise,
                        np.inf, stop_lead)
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


def race_cases(rng):
    """(starts, stop_lead, phi) cases, starts below stop_lead."""
    cases = [([0], 1), ([0, 0, -1], 3), ([-2, -1], 4), ([3, 0, 5], 6),
             ([5, 5, 5], 6)]
    cases += [(rng.integers(-4, stop, size=rng.integers(1, 8)).tolist(), stop)
              for stop in rng.integers(1, 15, size=600)]
    return [(starts, stop, rng.poisson(rng.uniform(0.2, 2.0), size=10_000))
            for starts, stop in cases]


def test_race_matches_a_naive_walk_per_depth():
    # a race stopped once its maximum reaches its largest start decides
    # every depth as the walk stopped at stop_lead does, and draws the
    # events of the steps it walks
    rng = np.random.default_rng(12)
    cases = race_cases(rng)
    for starts, stop_lead, phi in cases:
        z = np.array(starts, dtype=np.int64)[:, None]
        want, _ = naive_race(starts, phi, stop_lead)
        if max(starts) < 0:
            assert simulate._race(z, -1).tolist() == want
            continue
        events = events_of(phi, rng)
        top, drawn = walk([events], -1, max(starts), simulate._NO_CAP,
                          stop_lead)
        assert simulate._race(z, top).tolist() == want, (starts, stop_lead)
        _, steps = naive_race(starts, phi, stop_lead, max(starts))
        assert drawn == [events_used(events, steps)]
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
    # one loop walks every trial's lead and, where max_d w_d >= 0, its
    # race; each event call draws once per walk still walking.  Every walk
    # sees the same events, so one naive walk per trial tells its result
    # and how many events it draws.
    rng = np.random.default_rng(13)
    n, ks, stop, cap = 400, [1, 2, 3, 5], 8, 1_000
    conf = rng.poisson(0.4, size=(ks[-1], n))
    events = events_of(rng.poisson(0.9, size=10_000), rng)
    rows = iter(conf)
    monkeypatch.setattr(simulate, "_counts",
                        lambda sampler, beta, rng, size: next(rows))
    sizes = []

    def shared(sampler, beta, rng, size):
        sizes.append(size)
        run, phi = events[len(sizes) - 1]
        return np.full(size, run), np.full(size, phi - 1)
    monkeypatch.setattr(simulate, "_events", shared)
    config = SimConfig(profile=zero_profile(), beta=0.2 * ALPHA, k=5,
                       warmup_blocks=cap, stop_lead=stop, trials=n)
    ests = simulate_attack_sweep(config, ks)

    lead, steps = naive_walk(steps_of(events), 0, stop, cap, stop)
    drawn = [events_used(events, steps)] * n
    w = np.array([k - 1 - conf[:k].sum(axis=0) for k in ks])
    violations = np.zeros(len(ks), dtype=int)
    for col in w.T:
        top = -1
        if col.max() >= 0:
            top, steps = naive_walk(steps_of(events), -1, col.max(),
                                    np.inf, stop)
            drawn.append(events_used(events, steps))
        violations += col - lead <= top
    assert [round(ests[k].q_hat * n) for k in ks] == violations.tolist()
    assert sizes == [sum(d > e for d in drawn) for e in range(max(drawn))]
    racing = np.count_nonzero(w.max(axis=0) >= 0)
    assert sizes[0] == n + racing and 0 < racing < n


def test_race_is_the_gamblers_ruin_on_the_zero_profile():
    # at beta = 0.2 alpha, a race from lead u is lost with probability
    # psi(u) = 0.2**(u + 1); a race stopped once its maximum reaches 3 or
    # falls 16 below it reads every u <= 3, and the fall's bias,
    # psi(16) < 1e-11, is far below the standard errors
    beta, n = 0.2 * ALPHA, 1_000_000
    top = _walk_max(event_draw(zero_profile(), beta, 33), np.full(n, -1),
                    np.full(n, 3), np.full(n, simulate._NO_CAP), 16)
    z = np.repeat(np.arange(4)[:, None], n, axis=1)
    nviol = simulate._race(z, top)
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
    # profile, else against the K = 51 ME route; and the mean is
    # beta E[theta]; for the fresh counts and for the events' runs of tail
    # zeros expanded back into steps
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
    runs, x = simulate._events(sampler, beta, rng, round(n * (1 - sampler.zero)))
    expanded = np.zeros(runs.sum() + runs.size, dtype=np.int64)
    expanded[np.cumsum(runs + 1) - 1] = x + 1
    assert runs.max() > 0 and abs(expanded.size - n) < 0.01 * n
    for phi in (_counts(sampler, beta, rng, n), expanded):
        emp = np.bincount(np.minimum(phi, 6), minlength=7) / phi.size
        z = np.abs(emp - ref) / np.sqrt(ref * (1 - ref) / phi.size)
        assert z.max() <= 4.0
        assert abs(phi.mean() - mean) <= 4 * phi.std() / np.sqrt(phi.size)


class _Complement:
    """A generator whose runs are all 0 and whose uniforms are the given
    values, less one ulp where ``below`` is set."""

    def __init__(self, values, below):
        self.values, self.below = values, below
        self.rng = np.random.default_rng(34)

    def standard_exponential(self, size):
        return np.zeros(size)

    def uniform(self, low, high, size):
        v = np.array([high if v is None else v for v in self.values])
        return np.where(self.below, np.nextafter(v, 0.0), v)

    def random(self, size):
        return self.uniform(0.0, 1.0, size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("make", [lambda: criterion_profile()[0],
                                  congested_profile],
                         ids=["criterion", "congested"])
@pytest.mark.parametrize("fraction", [0.2, 0.45])
def test_draw_after_a_run_is_never_a_tail_zero(make, fraction):
    # the complement's v = head, where a fresh u would be a tail zero, and
    # v at, or one ulp below, its upper end 1 - a read Phi >= 1 off the
    # tail table
    prof = make()
    beta = fraction * prof.fullrate
    sampler = _PhiSampler(prof, beta)
    assert 0 < sampler.head < sampler.cdf[0] and len(sampler.cdf) > 2
    rng = _Complement([sampler.head, None, None], [False, True, False])
    runs, x = simulate._events(sampler, beta, rng, 3)
    assert runs.tolist() == [0] * 3
    assert x[0] >= 0 and x[1] == x[2] == len(sampler.cdf) - 2
    assert _counts(sampler, beta, _Complement([sampler.head], [False]),
                   1).tolist() == [0]


def test_runs_vanish_where_rounding_leaves_no_tail_zero():
    # on a 50 000 s segment at beta t_N = 75, P(T = 0) ~ 1e-33 and cdf[0]
    # rounds below head: the tail zeros' chance is 0, so every run is empty
    prof = HashrateProfile((0.0, 50_000.0), (0.001,), ALPHA)
    beta = 0.9 * ALPHA
    sampler = _PhiSampler(prof, beta)
    assert sampler.cdf[0] < sampler.head and sampler.zero == 0.0
    with np.errstate(all="raise"):
        runs, x = simulate._events(sampler, beta, np.random.default_rng(36),
                                   10_000)
    assert not runs.any() and x.min() >= -1


@pytest.mark.parametrize("make", [zero_profile, lambda: criterion_profile()[0]],
                         ids=["zero", "criterion"])
@pytest.mark.parametrize("ratio", [0.0, 1e-300])
def test_sweep_at_a_vanishing_beta_never_violates(make, ratio):
    # Phi = 0 on every draw, or all but a 1e-300 share: on the zero profile
    # every draw is a tail zero (a = 1), so each walk ends within its first
    # run, by the fall or the cap
    prof = make()
    config = SimConfig(profile=prof, beta=ratio * prof.fullrate, k=4,
                       delta_conf=prof.max_delay, warmup_blocks=1_000,
                       stop_lead=8, trials=2_000, seed=5)
    ests = simulate_attack_sweep(config, range(1, 5))
    assert [ests[k].q_hat for k in range(1, 5)] == [0.0] * 4
    assert (_PhiSampler(prof, config.beta).zero == 1.0) == (make is zero_profile)


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
    phi = _counts(sampler, 0.0, np.random.default_rng(32), 100_000)
    assert not phi.any()
