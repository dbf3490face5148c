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
drawn by one routine under one stop rule.  Pre-mining uses Loynes'
reversal: the Phi increments are i.i.d., so the lead after n blocks from
empty has the law of the maximum of the reversed walk over n steps, for at
most ``warmup_blocks`` steps.  The race starting at an honest lead z is
lost exactly when the post-confirmation walk reaches z at some step
n >= 1, so psi(z) = P(max over n >= 1 >= z), and every depth of a trial
reads the trial's one walk: a race step draws once per walking trial,
whatever the number of depths.  Each walk stops once it falls
``stop_lead`` below its maximum, or once its maximum reaches ``stop_lead``.
A maximum at ``stop_lead`` decides every depth, since every confirmation
lead is below it; a walk that falls ``stop_lead`` below its maximum raises
it again with probability at most psi(stop_lead), which bounds the bias.
Trials are vectorized in fixed-size batches; results are deterministic
given (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delaymodel import HashrateProfile

__all__ = ["SimConfig", "SimEstimate", "ThetaSampler", "simulate_attack_sweep"]

_BATCH = 1_000_000
# walking trials are compacted in slices this long, never all at once
_SLICE = 65_536


def _whole(value, name):
    """``value`` as an int, refused unless it is a whole number."""
    if not float(value).is_integer():  # NaN and infinities fail it too
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
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
    q = beta/(alpha+beta).  The table ends once S_N P(T > j) < 2**-53,
    bounded by S_N (beta/alpha f(j) + 2 pois(j+1)) for j + 2 >= 2 beta t_N,
    and its last entry is 1.0.
    """

    def __init__(self, profile, beta):
        super().__init__(profile)
        surv = np.exp(-self.hazard[-1])
        self.head = 1 - surv
        q, mu = beta / (beta + profile.fullrate), beta * self.left[-1]
        pois = np.exp(-mu)
        f = [(1 - q) * pois]
        while True:
            pois *= mu / len(f)
            if len(f) + 1 >= 2 * mu and surv * (
                    beta / profile.fullrate * f[-1] + 2 * pois) < 2.0**-53:
                break
            f.append(q * f[-1] + (1 - q) * pois)
        self.cdf = 1 - surv * np.append(np.cumsum(f[:0:-1])[::-1], 0.0)


def _counts(sampler, beta, rng, size):
    """Adversary counts Phi over ``size`` fresh inter-mining times.

    One uniform u per draw.  Given theta >= t_N, the rate is the constant
    alpha past t_N, so Phi = Poisson(beta t_N) + Geometric(alpha/(alpha+beta))
    by the exponential's memorylessness: u >= P(theta < t_N) reads Phi off
    ``sampler.cdf`` (u < cdf[0] is Phi = 0, most draws), whose dropped far
    tail, below 2**-53 (the granularity of u), is far below any Monte Carlo
    standard error.  Below it, -log(1 - u) is the cumulative hazard of a
    theta < t_N (1 - u is exact, u being a multiple of 2**-53), and Phi
    counts the m ~ Poisson(beta t_N) uniform points of the adversary's
    process on [0, t_N] that fall before theta, Binomial(m, theta / t_N),
    which is Poisson(beta theta); theta is drawn only where m > 0.
    """
    u = rng.random(size)
    phi = np.zeros(size, dtype=np.int64)
    more = np.flatnonzero(u >= sampler.cdf[0])
    phi[more] = np.searchsorted(sampler.cdf, u[more], side="right")
    head = np.flatnonzero(u < sampler.head)
    m = rng.poisson(beta * sampler.left[-1], head.size)
    head, m = head[m > 0], m[m > 0]
    if head.size:
        theta = sampler._invert(-np.log(1 - u[head]))
        phi[head] = rng.binomial(m, np.minimum(theta / sampler.left[-1], 1.0))
    return phi


def _walk_max(increment, n, start, stop_lead, cap=np.inf):
    """Running maxima of n walks of Phi - 1 from 0, the maxima from start.

    ``increment(size)`` draws the next Phi - 1 for the ``size`` trials
    still walking, in trial order.  Each trial keeps s += Phi - 1 and
    m = max(m, s) until s <= m - stop_lead, m >= stop_lead or cap steps;
    it returns m.  The walking trials are compacted in place.
    """
    out = np.full(n, start, dtype=np.int64)
    active, s, m = np.arange(n), np.zeros(n, dtype=np.int64), out.copy()
    step = 0
    while active.size and step < cap:
        step += 1
        s += increment(active.size)
        np.maximum(m, s, out=m)
        done = (s <= m - stop_lead) | (m >= stop_lead)
        if done.any():
            out[active[done]] = m[done]
            active, s, m = _compact(~done, active, s, m)
    out[active] = m
    return out


def _race(z, sampler, beta, stop_lead, rng):
    """Violations of the post-confirmation race, counted per depth.

    z[d, j], each below stop_lead, is trial j's honest lead at confirmation
    for depth index d.  The race is lost when the adversary's walk of
    Phi - 1 from 0 reaches z_d at some step n >= 1 (ties included), so depth
    d violates when z_d <= M, the walk's maximum over n >= 1: the running
    maximum from -1 of :func:`_walk_max`, which every depth of a trial
    reads.  A trial with every z_d < 0 does not walk; its M stays -1, so
    each z_d < 0 violates outright.
    """
    top = np.full(z.shape[1], -1, dtype=np.int64)
    walking = np.flatnonzero(z.max(axis=0) >= 0)
    top[walking] = _walk_max(
        lambda size: _counts(sampler, beta, rng, size) - 1,
        walking.size, -1, stop_lead)
    return np.count_nonzero(z <= top, axis=1)


def _compact(keep, *arrays):
    """Move the kept entries of each array to its front, in order, slice by
    slice; return the prefix views."""
    n = 0
    for i in range(0, keep.size, _SLICE):
        part = keep[i:i + _SLICE]
        m = np.count_nonzero(part)
        for a in arrays:
            a[n:n + m] = a[i:i + _SLICE][part]
        n += m
    return [a[:n] for a in arrays]


def _confirmation_leads(lead, ks, sampler, beta, delta_conf, rng):
    """Honest lead at confirmation, one row per depth in ks.

    Each depth k adds k honest intervals plus the final propagation window
    of adversary-only mining to the pre-mining ``lead``.
    """
    n = len(lead)
    z = np.empty((len(ks), n), dtype=np.int64)
    cum = np.zeros(n, dtype=np.int64)
    for i in range(1, ks[-1] + 1):
        cum += _counts(sampler, beta, rng, n)
        if i in ks:
            v = lead + cum + rng.poisson(beta * delta_conf, size=n)
            z[ks.index(i)] = i - 1 - v
    return z


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

        # Pre-mining: adversary lead right after an honest mining instant.
        lead = _walk_max(
            lambda size: _counts(sampler, beta, rng, size) - 1,
            n, 0, config.stop_lead, config.warmup_blocks)
        violations += _race(
            _confirmation_leads(lead, ks, sampler, beta, config.delta_conf,
                                rng), sampler, beta, config.stop_lead, rng)

    out = {}
    for k, nviol in zip(ks, violations):
        q_hat = int(nviol) / config.trials
        se = float(np.sqrt(q_hat * (1.0 - q_hat) / config.trials))
        out[k] = SimEstimate(q_hat=q_hat, std_err=se, trials=config.trials)
    return out
