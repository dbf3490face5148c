"""Monte Carlo oracle for the private double-spend attack.

Independent of the matrix-analytic pipeline: the adversary count Phi over
an honest inter-mining time theta is drawn from the actual
piecewise-constant-rate renewal process (exact piecewise exponential
inversion, no ME approximation).  Past the profile's last threshold t_N the
honest rate is the constant alpha, so given theta >= t_N,
Phi = Poisson(beta t_N) + Geometric(alpha / (alpha + beta)), the parts
independent: such a draw inverts one uniform against that law's CDF.  Only
a draw with theta < t_N samples theta, by inverting its CDF within its
segment, and then only when some of the adversary's blocks on [0, t_N]
could fall before it.  The
CDF table drops a far tail of mass below 2**-53, the granularity of the
uniforms, far below any Monte Carlo standard error.

Pre-mining and the race are both read off M = sup_{n >= 0} S_n, the maximum
of the walk S of Phi - 1.  By Loynes' reversal the stationary pre-mining
lead has the law of M.  The race starting at an honest lead z is lost
exactly when the post-confirmation walk reaches z at some step n >= 1, and
its maximum over n >= 1 is Phi_1 - 1 + M', M' an independent copy of M.
The race's draws do not depend on the lead, so the confirmation margins
w_d = k_d - 1 - (the adversary's blocks by confirmation) are drawn first;
depth d's honest lead is z_d = w_d - lead <= w_d, and every depth of a
trial reads the trial's one race.

M is drawn exactly, with no truncation, as a geometric sum.  The walk steps
down by at most 1, so where rho = beta E[theta] < 1 its weak ascending
ladder heights H are i.i.d. with P(H = h) = P(Phi > h) / rho, and M is the
sum of a Geometric(1 - rho) count N >= 0 of them: the discrete
Pollaczek-Khinchine form of the lead, whose pgf is
(1 - rho)(z - 1) / (z - E[z^Phi]).  H is Poisson(beta A), A of density
S(a) / E[theta], theta's stationary excess, so that H is drawn like Phi
with A's law in place of theta's.  Where rho >= 1, M is infinite and every
depth violates, and nothing is drawn.  Trials are vectorized in fixed-size
batches; results are deterministic given (seed, config).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

import numpy as np

from .delaymodel import HashrateProfile

__all__ = ["SimConfig", "SimEstimate", "ThetaSampler", "simulate_attack_sweep"]

# trials per batch
_BATCH = 500_000
# Poisson masses computed per step of the tail table's recursion
_CHUNK = 64


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
    delta_conf: the final propagation window in s, in which only the
        adversary mines.
    trials: the number of trials, each read by every depth.
    seed: the nonnegative seed of the trials' random streams.
    k, warmup_blocks, stop_lead: whole numbers, k >= 1, that change no
        draw: the sweep reads its depths from ``ks``, and the lead and the
        race are drawn exactly, with no warmup horizon and no fall stop.
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
        idx = np.searchsorted(self.hazard[:-1], x, side="right") - 1
        e[head] = self.left[idx] + (x - self.hazard[idx]) / self.rate[idx]
        return e


def _integrals(sampler):
    """The integral of theta's survival S over each segment of the
    sampler's profile, l_i S_i (1 - e^-d_i) / d_i with d_i the hazard the
    segment adds; S_N; E[theta], their sum plus S_N / alpha past t_N; and
    the d_i, floored at 1e-300, below which (1 - e^-d) / d = 1."""
    d = np.fmax(np.diff(sampler.hazard), 1e-300)
    surv = np.exp(-sampler.hazard)
    span = np.diff(sampler.left) * surv[:-1] * (-np.expm1(-d) / d)
    return span, surv[-1], span.sum() + surv[-1] / sampler.profile.fullrate, d


def _poisson(mu):
    """Poisson(mu)'s masses from 0 on, each stepped from the last as its
    log, ``_CHUNK`` at a time, so that e^-mu may be subnormal or 0.
    np.cumsum is sequential, so each mass is bit for bit the one a single
    array of any length would hold."""
    last, start = -mu, 1
    while True:
        with np.errstate(divide="ignore"):  # log 0 = -inf at mu = 0
            logs = np.cumsum(np.append(last, np.log(
                mu / np.arange(start, start + _CHUNK))))
        yield from np.exp(logs[:-1]).tolist()
        last, start = logs[-1], start + _CHUNK


class _PhiSampler(ThetaSampler):
    """A :class:`ThetaSampler` that also holds Phi's law at one beta, or
    with :meth:`excess`, that of the weak ladder height H.

    ``head`` is the share of draws below t_N, 1 - S_N for theta, and
    ``edges`` its split over the segments, whose densities are prop. to
    e^(-d_i x) on [0, 1] (see :func:`_integrals`).  Past t_N, theta - t_N
    is Exp(alpha), so Phi there is T = Poisson(mu) +
    Geometric(alpha / (alpha + beta)), mu = beta t_N.  ``cdf[j]`` is
    1 - S_N P(T > j), from the reverse sums of T's masses
    f(j) = q f(j-1) + (1 - q) pois(j), q = beta / (alpha + beta).  The
    table ends once S_N P(T > j) < 2**-53, bounded by S_N for
    j + 2 < 2 mu and by S_N (beta / alpha f(j) + 2 pois(j+1)) past it, and
    its last entry is 1.0: where S_N < 2**-53 it is [1.0].  Fractions are
    nondecreasing, so the hazard H is convex and mu <= rho H_N / (1 - S_N),
    below 37 where rho < 1 and S_N >= 2**-53: a table the sweep reads has
    some 200 entries at most.
    """

    def __init__(self, profile, beta):
        super().__init__(profile)
        self.span, self.surv, self.mean, self.decay = _integrals(self)
        q, mu = beta / (beta + profile.fullrate), beta * profile.thresholds[-1]
        ratio, self.mu, pois = beta / profile.fullrate, mu, _poisson(mu)
        f = [(1 - q) * next(pois)]
        # past 2 mu each Poisson mass at most halves, and q < 1, so that
        # the bound falls geometrically and the loop ends
        for j, p in enumerate(pois, start=1):
            bound = ratio * f[-1] + 2 * p if j + 1 >= 2 * mu else 1.0
            if self.surv * bound < 2.0**-53:
                break
            f.append(q * f[-1] + (1 - q) * p)
        # T's reverse sums P(T > j), which the excess law shares
        self.sums = np.append(np.cumsum(f[:0:-1])[::-1], 0.0)
        self._share(self.rate * self.span, self.surv)

    def _share(self, seg, surv):
        """Sets the law whose segments take shares ``seg`` and whose draws
        past t_N take ``surv``, on the tail table's sums."""
        self.edges = np.cumsum(np.append(0.0, seg))
        self.head = 1 - surv if self.edges[-1] > 0 else 0.0
        self.cdf = 1 - surv * self.sums

    def excess(self):
        """The sampler of H = Poisson(beta A), A of density S(a) / E[theta]:
        segment i takes share int S / E[theta] and the draws past t_N
        S_N / (alpha E[theta]), with theta's densities within the segments
        and past t_N, so that H past t_N is T.  No rate exceeds alpha, so
        alpha E[theta] >= 1, and this table, on theta's sums, drops less
        than 2**-53 too."""
        ladder = copy(self)
        ladder._share(self.span / self.mean,
                      self.surv / (self.profile.fullrate * self.mean))
        return ladder

    def _theta(self, u):
        """The times below t_N at uniforms u < head: the segment whose
        share of head holds u, then within it the inverse of the density
        prop. to e^(-d x) on [0, 1], log1p(v (e^-d - 1)) / -d."""
        idx = np.searchsorted(self.edges[1:-1], u, side="right")
        v = np.fmin((u - self.edges[idx])
                    / (self.edges[idx + 1] - self.edges[idx]), 1.0)
        x = np.log1p(v * np.expm1(-self.decay[idx])) / -self.decay[idx]
        return self.left[idx] + x * (self.left[idx + 1] - self.left[idx])


def _counts(sampler, rng, size):
    """Counts over ``size`` fresh draws of the sampler's law, one uniform u
    in [0, 1) each: Phi over inter-mining times theta, or a ladder height
    over times A of theta's excess.

    Past t_N, the rate is the constant alpha, so a count there is T (see
    :class:`_PhiSampler`) by the exponential's memorylessness: u >= head
    reads it off ``sampler.cdf`` (u < cdf[0] is 0), whose dropped far
    tail, below 2**-53 (the granularity of u), is far below any Monte Carlo
    standard error.  Below it, u picks a time theta < t_N, and the count is
    that of the m ~ Poisson(mu) uniform points of the adversary's process
    on [0, t_N] that fall before theta, Binomial(m, theta / t_N), which is
    Poisson(beta theta); theta is drawn only where m > 0.
    """
    u = rng.random(size)
    phi = np.searchsorted(sampler.cdf, u, side="right")
    head = np.flatnonzero(u < sampler.head)
    m = rng.poisson(sampler.mu, head.size)
    head, m = head[m > 0], m[m > 0]
    if head.size:
        theta = sampler._theta(u[head])
        phi[head] = rng.binomial(m, np.minimum(theta / sampler.left[-1], 1.0))
    return phi


def _maxima(ladder, rho, rng, size):
    """``size`` draws of M = sup_{n >= 0} S_n, S the walk of Phi - 1 from 0:
    each the sum of a Geometric(1 - rho) count N >= 0 of ladder heights
    drawn under ``ladder``.

    The draws' heights, in order, are drawn in calls of at most ``_BATCH``.
    Each draw whose heights end within a call reads the running sum of all
    heights at its end, and M is the step of that sum from the draw before.
    """
    ends = np.cumsum(rng.geometric(1 - rho, size) - 1)
    at, total = np.zeros(size, dtype=np.int64), 0
    for start in range(0, ends[-1], _BATCH):
        run = total + np.cumsum(
            _counts(ladder, rng, min(_BATCH, ends[-1] - start)))
        lo, hi = np.searchsorted(ends, [start, start + run.size], side="right")
        at[lo:hi] = run[ends[lo:hi] - start - 1]
        total = run[-1]
    return np.diff(at, prepend=0)


def _race(z, top):
    """Violations of the post-confirmation race, counted per depth.

    z[d, j] is trial j's honest lead at confirmation for depth index d.
    The race is lost when the adversary's walk of Phi - 1 from 0 reaches
    z_d at some step n >= 1 (ties included), so depth d violates when
    z_d <= top_j, the walk's maximum over n >= 1, which every depth of a
    trial reads.
    """
    return np.count_nonzero(z <= top, axis=1)


def _confirmation_margins(n, ks, sampler, window, rng):
    """w_d = k_d - 1 - (Phi_1 + ... + Phi_{k_d} + Poisson(window)), one row
    per depth k_d in ks: the k_d honest intervals and the final propagation
    window of adversary-only mining, whose mean count is
    window = beta delta_conf.  A trial's honest lead at confirmation is w_d
    less its pre-mining lead.
    """
    w = np.empty((len(ks), n), dtype=np.int64)
    cum = np.zeros(n, dtype=np.int64)
    for i in range(1, ks[-1] + 1):
        cum += _counts(sampler, rng, n)
        if i in ks:
            w[ks.index(i)] = i - 1 - cum - rng.poisson(window, n)
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
    beta = config.beta
    rho = beta * _integrals(ThetaSampler(config.profile))[2]
    # where M is infinite, every depth violates, and no table is built
    violations = np.full(len(ks), config.trials if rho >= 1 else 0)
    if rho < 1:
        sampler = _PhiSampler(config.profile, beta)
        ladder = sampler.excess()
    seeds = np.random.SeedSequence(config.seed)
    for start in range(0, config.trials if rho < 1 else 0, _BATCH):
        n = min(_BATCH, config.trials - start)
        rng = np.random.default_rng(seeds.spawn(1)[0])
        w = _confirmation_margins(n, ks, sampler, beta * config.delta_conf, rng)
        top = w.max(axis=0)
        racing = np.flatnonzero(top >= 0)
        first = _counts(sampler, rng, racing.size) - 1
        # the leads, then the races' M', drawn together
        maxima = _maxima(ladder, rho, rng, n + racing.size)
        w -= maxima[:n]
        # a trial that does not race keeps top = max_d w_d >= max_d z_d
        top[racing] = first + maxima[n:]
        violations += _race(w, top)

    out = {}
    for k, nviol in zip(ks, violations):
        q_hat = int(nviol) / config.trials
        se = float(np.sqrt(q_hat * (1.0 - q_hat) / config.trials))
        out[k] = SimEstimate(q_hat=q_hat, std_err=se, trials=config.trials)
    return out
