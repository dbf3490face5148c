"""Monte Carlo oracle for the private double-spend attack.

Independent of the matrix-analytic pipeline: the adversary count Phi over
an honest inter-mining time theta is drawn from the actual
piecewise-constant-rate renewal process (exact piecewise exponential
inversion, no ME approximation), and each trial walks through pre-mining,
confirmation, and the post-confirmation race.  Past the profile's last
threshold t_N the honest rate is the constant alpha, so given theta >= t_N,
Phi = Poisson(beta t_N) + Geometric(alpha / (alpha + beta)), the parts
independent: such a draw inverts one uniform against that law's CDF.  Only
a draw with theta < t_N samples theta, by the same inversion, and then only
when some of the adversary's blocks on [0, t_N] could fall before it.  The
CDF table drops a far tail of mass below 2**-53, the granularity of the
uniforms, far below any Monte Carlo standard error.

Pre-mining and the race are both the running maximum of a walk of Phi - 1,
and one loop per batch walks both of every trial together, under one stop
rule.  Pre-mining uses Loynes' reversal: the Phi increments are i.i.d., so
the lead after n blocks from empty has the law of the maximum of the
reversed walk over n steps, for at most ``warmup_blocks`` steps.  The race
starting at an honest lead z is lost exactly when the post-confirmation
walk reaches z at some step n >= 1, so psi(z) = P(max over n >= 1 >= z),
and every depth of a trial reads the trial's one race.  The race's draws
do not depend on the lead, so the confirmation margins
w_d = k_d - 1 - (the adversary's blocks by confirmation) are drawn first;
depth d's honest lead is z_d = w_d - lead <= w_d.  A trial whose every
w_d < 0 violates at every depth without a race; any other race stops once
its maximum reaches max_d w_d, which decides every depth.  The lead stops
once its maximum reaches ``stop_lead``, which puts every z_d below 0.
Each walk also stops once it falls ``stop_lead`` below its maximum; it
would raise that maximum again with probability at most psi(stop_lead),
which bounds the bias.

Walks move by events.  Most draws are Phi = 0 read off the tail table, a
tail zero, so an event is a run of tail zeros, of geometric length, and
the one draw after it, whose uniform is drawn on the rest of [0, 1).  A
run never raises a maximum: a walk stops within one only by the fall or
its cap.  Trials are vectorized in fixed-size batches; results are
deterministic given (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delaymodel import HashrateProfile

__all__ = ["SimConfig", "SimEstimate", "ThetaSampler", "simulate_attack_sweep"]

# trials per batch; each walks up to two walks at once
_BATCH = 500_000
# the cap of a walk with none
_NO_CAP = np.iinfo(np.int64).max


def _whole(value, name):
    """``value`` as an int, refused unless it is a whole number."""
    if not float(value).is_integer():  # NaN and infinities fail it too
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run of the attack.

    profile: the honest hashrate profile (thresholds in s, full rate alpha
        in blocks/s).
    beta: the adversary's mining rate in blocks/s, not a fraction of alpha.
    k: the deepest confirmation depth, in blocks; ``stop_lead`` must be at
        least k.
    delta_conf: the final propagation window in s, in which only the
        adversary mines.
    warmup_blocks: the most steps, in blocks, of the reversed pre-mining
        walk, a finite pre-mining horizon.  Unlike the fall stop's bias,
        which psi(``stop_lead``) bounds, its bias has no stated bound.
    stop_lead: the pre-mining lead, in blocks, at which the lead walk
        stops, and the fall below its maximum at which any walk stops.
    trials: the number of trials, each read by every depth.
    seed: the nonnegative seed of the trials' random streams.

    k, warmup_blocks and stop_lead are at most 2**61.
    """

    profile: HashrateProfile
    beta: float
    k: int
    delta_conf: float = 0.0
    warmup_blocks: int = 10_000
    stop_lead: int = 64
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "warmup_blocks", "stop_lead", "trials", "seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.stop_lead < self.k:
            raise ValueError("stop_lead must be at least k")
        if self.warmup_blocks < 1_000:
            raise ValueError("warmup_blocks must be at least 1000")
        # well inside int64, so that the walks' s - m + stop_lead and
        # m - stop_lead cannot wrap; k <= stop_lead is bounded with it
        for name in ("warmup_blocks", "stop_lead"):
            if getattr(self, name) > 2**61:
                raise ValueError(f"{name} must be at most 2**61")
        for name in ("beta", "delta_conf"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails it too
                raise ValueError(f"{name} must be nonnegative and finite")


@dataclass(frozen=True)
class SimEstimate:
    q_hat: float
    std_err: float
    trials: int


class ThetaSampler:
    """First-event sampler of the piecewise-constant-rate mining process.

    Inverts the piecewise-linear cumulative hazard of the profile, which is
    exact for piecewise-constant rates (no thinning).  A profile with no
    segment samples the exponential at full rate.
    """

    def __init__(self, profile: HashrateProfile):
        self.profile = profile
        self.rate = np.array(profile.fractions) * profile.fullrate
        self.left = np.array(profile.thresholds)
        # cumulative hazard at every threshold
        self.hazard = np.concatenate(
            [[0.0], np.cumsum(self.rate * np.array(profile.segment_lengths))])

    def sample(self, rng, size):
        """``size`` draws, mapped in place from exponentials e.

        Every draw first takes the full-rate tail's inverse; the draws below
        the tail's hazard then take their segment's, found as the last
        segment whose left-edge hazard is at most e, so that a zero-rate
        segment is never hit.
        """
        e = rng.exponential(size=size)
        head = np.flatnonzero(e < self.hazard[-1])
        x = e[head]
        e -= self.hazard[-1]
        e /= self.profile.fullrate
        e += self.left[-1]
        e[head] = self._invert(x)
        return e

    def _invert(self, x):
        """The times at cumulative hazards x below the tail's, each in the
        last segment whose left-edge hazard is at most x."""
        idx = np.searchsorted(self.hazard[:-1], x, side="right") - 1
        return self.left[idx] + (x - self.hazard[idx]) / self.rate[idx]


class _PhiSampler(ThetaSampler):
    """A :class:`ThetaSampler` that also holds Phi's law at one beta.

    ``head`` is P(theta < t_N) = 1 - S_N.  ``cdf[j]`` is
    1 - S_N P(T > j), T = Poisson(beta t_N) + Geometric(alpha/(alpha+beta)),
    from the reverse sums of T's masses f(j) = q f(j-1) + (1 - q) pois(j),
    q = beta/(alpha+beta).  pois(j) steps as its log, so the table carries
    the law at any beta t_N, also where e^(-beta t_N) is subnormal or 0.
    The table ends once S_N P(T > j) < 2**-53, bounded by
    S_N (beta/alpha f(j) + 2 pois(j+1)) for j + 2 >= 2 beta t_N, and its
    last entry is 1.0.  ``zero`` is a = cdf[0] - head, the chance
    of a tail zero, a Phi = 0 read off the table; E ``scale``, E
    exponential, rounds down to Geometric(1 - a) - 1, the length of a run
    of them.
    """

    def __init__(self, profile, beta):
        super().__init__(profile)
        surv = np.exp(-self.hazard[-1])
        self.head = 1 - surv
        q, mu = beta / (beta + profile.fullrate), beta * self.left[-1]
        logp = -mu
        f = [(1 - q) * np.exp(logp)]
        with np.errstate(divide="ignore"):  # log 0 = -inf at mu = 0
            while True:
                logp += np.log(mu / len(f))
                pois = np.exp(logp)
                if len(f) + 1 >= 2 * mu and surv * (
                        beta / profile.fullrate * f[-1] + 2 * pois) < 2.0**-53:
                    break
                f.append(q * f[-1] + (1 - q) * pois)
            self.cdf = 1 - surv * np.append(np.cumsum(f[:0:-1])[::-1], 0.0)
            self.zero = np.fmax(self.cdf[0] - self.head, 0.0)
            self.scale = 1 / np.log(1 / self.zero)  # inf at zero = 1


def _phi(sampler, beta, rng, u):
    """Adversary counts Phi at uniforms u, one inter-mining time each.

    Given theta >= t_N, the rate is the constant alpha past t_N, so
    Phi = Poisson(beta t_N) + Geometric(alpha/(alpha+beta)) by the
    exponential's memorylessness: u >= P(theta < t_N) reads Phi off
    ``sampler.cdf`` (u < cdf[0] is Phi = 0), whose dropped far tail, below
    2**-53 (the granularity of u), is far below any Monte Carlo standard
    error; a u of 1.0 reads the table's last count.  Below it, -log(1 - u)
    is the cumulative hazard of a theta < t_N, and Phi counts the
    m ~ Poisson(beta t_N) uniform points of the adversary's process on
    [0, t_N] that fall before theta, Binomial(m, theta / t_N), which is
    Poisson(beta theta); theta is drawn only where m > 0.
    """
    phi = np.searchsorted(sampler.cdf[:-1], u, side="right")
    head = np.flatnonzero(u < sampler.head)
    m = rng.poisson(beta * sampler.left[-1], head.size)
    head, m = head[m > 0], m[m > 0]
    if head.size:
        theta = sampler._invert(-np.log(1 - u[head]))
        phi[head] = rng.binomial(m, np.minimum(theta / sampler.left[-1], 1.0))
    return phi


def _counts(sampler, beta, rng, size):
    """Phi over ``size`` fresh inter-mining times, one uniform each."""
    return _phi(sampler, beta, rng, rng.random(size))


def _events(sampler, beta, rng, size):
    """The next event of ``size`` walks: a run of tail zeros, then one draw.

    A tail zero is a u in [head, cdf[0]), Phi = 0 read off the tail table,
    with chance a = ``sampler.zero``, so a run's length is
    Geometric(1 - a) - 1, cut at 2**62: at a = 1 every run is that long,
    and ends every walk.  The draw after the run takes its u uniform on
    [0, head) and [cdf[0], 1), mapped by :func:`_phi`.  Returns the runs
    and that draw's Phi - 1.
    """
    runs = np.fmin(rng.standard_exponential(size) * sampler.scale,
                   2.0**62).astype(np.int64)
    u = rng.uniform(0.0, 1 - sampler.zero, size)
    tail = u >= sampler.head
    np.subtract(u, sampler.head, out=u, where=tail)
    np.add(u, sampler.cdf[0], out=u, where=tail)
    return runs, _phi(sampler, beta, rng, u) - 1


def _walk_max(event, start, rise, cap, stop_lead):
    """Running maxima of walks of Phi - 1 from 0, each maximum from start.

    ``start``, ``rise`` and ``cap`` hold one entry per walk.
    ``event(walks)`` draws the next event of each listed walk, in order:
    the length of a run of Phi = 0 steps and the Phi - 1 of the step after
    it.  Each walk keeps s += Phi - 1 and m = max(m, s) until
    s <= m - stop_lead, m >= rise or cap steps; it returns m.  A run never
    raises m, so a walk that stops within a run stops there by the fall or
    the cap, and the step after the run is dropped.  After each event the
    stopped walks are dropped from the arrays, which keep the walking ones
    in their order, so each call of ``event`` lists them in ascending order.
    """
    # s and m count up from rise, so a walk rises out at m >= 0
    rise = np.asarray(rise, dtype=np.int64)
    out = np.array(start, dtype=np.int64) - rise
    active, s, m = np.arange(out.size), -rise, out.copy()
    room = np.array(cap, dtype=np.int64)
    while active.size:
        runs, x = event(active)
        left = np.minimum(s - m + stop_lead, room)
        go = runs < left
        runs = np.minimum(runs, left, out=left)
        room -= runs + go
        s += np.where(go, x, 0) - runs
        np.maximum(m, s, out=m)
        done = (s <= m - stop_lead) | (m >= 0) | (room <= 0)
        out[active[done]] = m[done]
        keep = ~done
        active, s, m, room = active[keep], s[keep], m[keep], room[keep]
    return out + rise


def _race(z, top):
    """Violations of the post-confirmation race, counted per depth.

    z[d, j] is trial j's honest lead at confirmation for depth index d.
    The race is lost when the adversary's walk of Phi - 1 from 0 reaches
    z_d at some step n >= 1 (ties included), so depth d violates when
    z_d <= top_j, the walk's maximum over n >= 1, which every depth of a
    trial reads.
    """
    return np.count_nonzero(z <= top, axis=1)


def _confirmation_margins(n, ks, sampler, beta, delta_conf, rng):
    """w_d = k_d - 1 - (Phi_1 + ... + Phi_{k_d} + Poisson(beta delta_conf)),
    one row per depth k_d in ks: the k_d honest intervals and the final
    propagation window of adversary-only mining.  A trial's honest lead at
    confirmation is w_d less its pre-mining lead.
    """
    w = np.empty((len(ks), n), dtype=np.int64)
    cum = np.zeros(n, dtype=np.int64)
    for i in range(1, ks[-1] + 1):
        cum += _counts(sampler, beta, rng, n)
        if i in ks:
            w[ks.index(i)] = i - 1 - cum - rng.poisson(beta * delta_conf, n)
    return w


def simulate_attack_sweep(config: SimConfig, ks) -> dict[int, SimEstimate]:
    """Estimates for several confirmation depths sharing one pre-mining pass.

    The stationary lead, the confirmation-interval counts and the race's
    post-confirmation walk are drawn once per trial and read by every depth
    (estimates are correlated across k but unbiased per k): each depth's
    race still sees i.i.d. Phi independent of its start.
    """
    ks = sorted(set(_whole(k, "confirmation depth") for k in ks))
    if min(ks, default=0) < 1:
        raise ValueError("need one or more confirmation depths, each >= 1")
    if config.stop_lead < max(ks):
        raise ValueError("stop_lead must cover the largest depth")
    beta = config.beta
    sampler = _PhiSampler(config.profile, beta)

    violations = np.zeros(len(ks), dtype=np.int64)
    n_batches = -(-config.trials // _BATCH)
    streams = np.random.SeedSequence(config.seed).spawn(n_batches)
    remaining = config.trials
    for batch in range(n_batches):
        n = min(_BATCH, remaining)
        remaining -= n
        rng = np.random.default_rng(streams[batch])

        w = _confirmation_margins(n, ks, sampler, beta, config.delta_conf, rng)
        top = w.max(axis=0)
        racing = np.flatnonzero(top >= 0)
        # the n pre-mining leads, then the races, walked together
        maxima = _walk_max(
            lambda walks: _events(sampler, beta, rng, walks.size),
            np.repeat([0, -1], [n, racing.size]),
            np.concatenate([np.full(n, config.stop_lead), top[racing]]),
            np.repeat([config.warmup_blocks, _NO_CAP], [n, racing.size]),
            config.stop_lead)
        w -= maxima[:n]
        # a trial that does not race keeps top = max_d w_d >= max_d z_d
        top[racing] = maxima[n:]
        violations += _race(w, top)

    out = {}
    for k, nviol in zip(ks, violations):
        q_hat = int(nviol) / config.trials
        se = float(np.sqrt(q_hat * (1.0 - q_hat) / config.trials))
        out[k] = SimEstimate(q_hat=q_hat, std_err=se, trials=config.trials)
    return out
