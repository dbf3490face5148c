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

M is drawn exactly, with no truncation, by Lundberg-tilted ladder heights
(Ensor and Glynn 2000).  R > 1 solves E[R^Phi] = R.  Under the tilt, theta
has density f(t) e^{c t} / R, c = beta (R - 1) < alpha, and Phi given
theta is Poisson(beta R theta), so the walk drifts up and each ascending
ladder height H is finite.  A ladder of height H is one of the untilted
walk's with probability R^-H; M sums the kept ladders up to the first one
not kept.  A draw of M may stop once M reaches a rise that decides
every depth: max_d w_d + 1 for the lead, which puts every z_d below 0, and
max_d w_d - (Phi_1 - 1) for the race.  Where beta E[theta] >= 1 there is
no R: M is infinite and every depth violates.  Trials are vectorized in
fixed-size batches; results are deterministic given (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delaymodel import HashrateProfile

__all__ = ["SimConfig", "SimEstimate", "ThetaSampler", "simulate_attack_sweep"]

# trials per batch
_BATCH = 500_000
# the tail table's length past which its geometric rest is inverted in
# closed form; only a tilted table at a small beta reaches it
_TABLE = 1_024
# above this R no ladder is drawn: P(M >= 1) <= 1/R, and the tilted law
# would lose its precision in c = beta (R - 1)
_R_MAX = 2.0**40


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
    warmup_blocks, stop_lead: accepted and checked for compatibility; they
        no longer change any draw, since the lead and the race are drawn
        exactly, with no warmup horizon and no fall stop.
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
        # k <= stop_lead is bounded with it
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
        idx = np.searchsorted(self.hazard[:-1], x, side="right") - 1
        e[head] = self.left[idx] + (x - self.hazard[idx]) / self.rate[idx]
        return e


def _tilt(sampler, u):
    """The terms of E[e^(c theta)], c = alpha - u < alpha: one per segment,
    the term past t_N, and the slopes y of each segment's exponent.

    Segment i adds r_i int e^(a(t)) dt over its span, a(t) = c t - H(t)
    linear in t, which is l_i e^max(a) (1 - e^-d) / d, d = |y|,
    y = a(t_{i+1}) - a(t_i); past t_N, e^a(t_N) alpha / u.  Each e^a is one
    exponent, so no e^(c t) overflows against an e^-H that underflows.
    """
    a = (sampler.profile.fullrate - u) * sampler.left - sampler.hazard
    y = a[1:] - a[:-1]
    d = np.fmax(np.abs(y), 1e-300)  # (1 - e^-d) / d = 1 below it
    seg = sampler.rate * (sampler.left[1:] - sampler.left[:-1]) * np.exp(
        np.fmax(a[:-1], a[1:])) * (-np.expm1(-d) / d)
    return seg, np.exp(a[-1]) * (sampler.profile.fullrate / u), y


def _lundberg(sampler, beta):
    """The R > 1 with E[R^Phi] = R at a beta > 0, or None where
    beta E[theta] >= 1, so that the walk of Phi - 1 does not drift down.

    E[R^Phi] = E[e^(c theta)] with c = beta (R - 1), so R solves
    h(u) = E[e^((alpha - u) theta)] - 1 - (alpha - u) / beta = 0 for the
    rate u = alpha - c in (0, alpha).  h is convex with h(alpha) = 0, so
    from a u with h(u) > 0, found by halving from beta, Newton's iterates
    rise monotonically to the root; they stop once they no longer rise.
    h'(u) = 1 / beta - E[theta e^(c theta)]: within segment i the tilted
    theta - t_i has mean l_i nu(y), nu(y) = 1 / (1 - e^-y) - 1 / y the mean
    of the density prop. to e^(y x) on [0, 1], and past t_N, theta - t_N
    is Exp(u).
    """
    alpha, left = sampler.profile.fullrate, sampler.left

    # nu's closed form cancels near y = 0, where its series replaces it;
    # at a vanishing beta the tail's term in h' overflows to inf, so that
    # Newton stops at once
    @np.errstate(all="ignore")
    def h(u):
        seg, tail, y = _tilt(sampler, u)
        nu = np.where(np.abs(y) < 1e-3, 0.5 + y / 12, 1 / -np.expm1(-y) - 1 / y)
        mean = left[:-1] + (left[1:] - left[:-1]) * nu
        return (seg.sum() + tail - 1 - (alpha - u) / beta,
                1 / beta - seg @ mean - tail * (left[-1] + 1 / u))

    if h(alpha)[1] <= 0:
        return None
    u = beta
    while h(u)[0] <= 0:
        u /= 2
    for _ in range(100):
        value, slope = h(u)
        new = u - value / slope
        if new <= u:
            return 1 + (alpha - u) / beta
        u = new  # a NaN stays NaN, and the loop runs out
    raise ValueError("the Lundberg root did not converge in 100 Newton steps")


class _PhiSampler(ThetaSampler):
    """A :class:`ThetaSampler` that also holds Phi's law at one beta,
    tilted by R: theta's density times e^(c theta) / R, c = beta (R - 1),
    and Phi given theta Poisson(beta R theta).  R = 1 is the untilted law.

    ``head`` is P(theta < t_N) = 1 - S_N, ``edges`` its split over the
    segments and ``slopes`` the y of each segment's tilted density (see
    :func:`_tilt`).  Past t_N, theta - t_N is Exp(alpha - c), so Phi there
    is T = Poisson(mu) + Geometric((alpha - c) / (alpha + beta)),
    mu = beta R t_N.  ``cdf[j]`` is 1 - S_N P(T > j), from the reverse
    sums of T's masses f(j) = q f(j-1) + (1 - q) pois(j),
    q = beta R / (alpha + beta).  pois(j) steps as its log, so the table
    carries the law at any mu, also where e^-mu is subnormal or 0.  The
    table ends once S_N P(T > j) < 2**-53, bounded by
    S_N (q / (1 - q) f(j) + 2 pois(j+1)) for j + 2 >= 2 mu, and its last
    entry is 1.0; or, past ``_TABLE`` entries, once the Poisson part's
    bound alone is below 2**-53.  Then T past the table is its last count
    plus a Geometric(1 - q), and ``rest`` is S_N P(T > j) at its end.
    """

    def __init__(self, profile, beta, R=1.0):
        super().__init__(profile)
        u = profile.fullrate - beta * (R - 1)
        seg, tail, self.slopes = _tilt(self, u)
        surv, self.edges = float(tail / R), np.cumsum(np.append(0.0, seg / R))
        self.head = 1 - surv if self.edges[-1] > 0 else 0.0
        q, mu = beta * R / (beta + profile.fullrate), beta * R * profile.thresholds[-1]
        ratio, self.mu, self.q = beta * R / u, mu, q
        # n masses end the loop: past _TABLE the geometric part's bound is
        # dropped, and past 2 mu each Poisson mass at most halves
        n = max(_TABLE, int(2 * mu) + 57)
        with np.errstate(divide="ignore"):  # log 0 = -inf at mu = 0
            pois = np.exp(np.cumsum(np.append(
                -mu, np.log(mu / np.arange(1, n + 1))))).tolist()
        f = [(1 - q) * pois[0]]
        for j in range(1, n + 1):
            if j + 1 >= 2 * mu and surv * ((0.0 if j >= _TABLE else ratio * f[-1])
                                           + 2 * pois[j]) < 2.0**-53:
                break
            f.append(q * f[-1] + (1 - q) * pois[j])
        self.rest = surv * ratio * f[-1] if j >= _TABLE else 0.0
        self.cdf = 1 - surv * np.append(np.cumsum(f[:0:-1])[::-1], 0.0) - self.rest

    def _theta(self, u):
        """The times theta < t_N at uniforms u < head: the segment whose
        share of head holds u, then within it the inverse of the tilted
        density prop. to e^(y x) on [0, 1], in the decreasing form
        log1p(v (e^-|y| - 1)) / -|y|, reflected where y > 0."""
        idx = np.searchsorted(self.edges[1:-1], u, side="right")
        v = np.fmin((u - self.edges[idx])
                    / (self.edges[idx + 1] - self.edges[idx]), 1.0)
        d = np.fmax(np.abs(self.slopes[idx]), 1e-300)  # x = v below it
        x = np.log1p(v * np.expm1(-d)) / -d
        x = np.where(self.slopes[idx] > 0, 1 - x, x)
        return self.left[idx] + x * (self.left[idx + 1] - self.left[idx])


def _counts(sampler, rng, size):
    """Adversary counts Phi over ``size`` fresh inter-mining times, one
    uniform u in [0, 1) each, under the sampler's law.

    Given theta >= t_N, the rate is the constant alpha past t_N, so Phi is
    T (see :class:`_PhiSampler`) by the exponential's memorylessness:
    u >= P(theta < t_N) reads Phi off ``sampler.cdf`` (u < cdf[0] is
    Phi = 0), whose dropped far tail, below 2**-53 (the granularity of u),
    is far below any Monte Carlo standard error; a u past a cut table's end
    inverts the geometric rest.  Below it, u picks a theta < t_N, and Phi
    counts the m ~ Poisson(mu) uniform points of the adversary's process on
    [0, t_N] that fall before theta, Binomial(m, theta / t_N), which is
    Poisson(mu theta / t_N); theta is drawn only where m > 0.
    """
    u = rng.random(size)
    phi = np.searchsorted(sampler.cdf, u, side="right")
    if sampler.rest:  # a cut table: past its end, its geometric rest
        far = np.flatnonzero(u >= sampler.cdf[-1])
        phi[far] += (np.log((1 - u[far]) / sampler.rest)
                     // np.log(sampler.q)).astype(np.int64)
    head = np.flatnonzero(u < sampler.head)
    m = rng.poisson(sampler.mu, head.size)
    head, m = head[m > 0], m[m > 0]
    if head.size:
        theta = sampler._theta(u[head])
        phi[head] = rng.binomial(m, np.minimum(theta / sampler.left[-1], 1.0))
    return phi


def _ladder_max(tilted, log_r, rng, rise):
    """Draws of M = sup_{n >= 0} S_n, S the walk of Phi - 1 from 0, one per
    entry of ``rise``, each stopped once M >= rise (at once where rise <= 0).

    The walk under ``tilted``, the law tilted by R = e^log_r, steps until
    s > 0, a ladder of height H = s, kept with probability R^-H: M adds H
    and s restarts at 0.  The first ladder not kept ends the draw.
    """
    out = np.zeros(rise.size, dtype=np.int64)
    active = np.flatnonzero(rise > 0)
    rise, s, m = rise[active], np.zeros(active.size, np.int64), out[active]
    while active.size:
        s += _counts(tilted, rng, active.size) - 1
        up = s > 0
        kept = up & (rng.standard_exponential(active.size) > s * log_r)
        m[kept] += s[kept]
        s[up] = 0
        done = (up & ~kept) | (m >= rise)
        out[active[done]] = m[done]
        keep = ~done
        active, s, m, rise = active[keep], s[keep], m[keep], rise[keep]
    return out


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
    if config.stop_lead < max(ks):
        raise ValueError("stop_lead must cover the largest depth")
    beta = config.beta
    sampler = _PhiSampler(config.profile, beta)
    R = _lundberg(sampler, beta) if beta else np.inf
    # where M is infinite, every depth violates
    violations = np.full(len(ks), config.trials if R is None else 0)
    # a ladder is kept with probability at most 1/R: none where R > _R_MAX
    tilted = _PhiSampler(config.profile, beta, R) if R and R <= _R_MAX else None
    seeds = np.random.SeedSequence(config.seed)
    for start in range(0, config.trials if R else 0, _BATCH):
        n = min(_BATCH, config.trials - start)
        rng = np.random.default_rng(seeds.spawn(1)[0])
        w = _confirmation_margins(n, ks, sampler, beta * config.delta_conf, rng)
        top = w.max(axis=0)
        racing = np.flatnonzero(top >= 0)
        first = _counts(sampler, rng, racing.size) - 1
        # the leads, then the races' M', drawn together
        rise = np.concatenate([top + 1, top[racing] - first])
        maxima = (_ladder_max(tilted, np.log(R), rng, rise) if tilted
                  else np.zeros_like(rise))
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
