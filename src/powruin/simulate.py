"""Monte Carlo oracle for the private double-spend attack.

Independent of the matrix-analytic pipeline: honest inter-mining times are
drawn from the actual piecewise-constant-rate renewal process (exact
piecewise exponential inversion, no ME approximation), adversary counts are
Poisson over the sampled interval, and each trial walks through pre-mining,
confirmation, and the post-confirmation race.

Pre-mining uses Loynes' reversal: the Phi increments are i.i.d., so the lead
after n blocks from empty has the law of the maximum of the reversed walk
of Phi - 1 over n steps.  Each trial walks until it falls ``stop_lead``
below its running maximum, or for at most ``warmup_blocks`` steps.  Without
the early stop the lead has exactly the law of the chain after
``warmup_blocks`` blocks; the stop's bias is at most psi(stop_lead), the
bound the race's upper barrier already carries.  The races of every depth
run in one loop.  Trials are vectorized in fixed-size batches; results are
deterministic given (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .delaymodel import HashrateProfile

__all__ = [
    "SimConfig", "SimEstimate", "ThetaSampler", "simulate_attack",
    "simulate_attack_sweep", "simulate_lindley",
]

_BATCH = 1_000_000


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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.stop_lead < self.k:
            raise ValueError("stop_lead must be at least k")
        if self.warmup_blocks < 1_000:
            raise ValueError("warmup_blocks must be at least 1000")
        if self.beta < 0 or self.delta_conf < 0:
            raise ValueError("beta and delta_conf must be nonnegative")


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
        idx = np.searchsorted(self.hazard[:-1], x, side="right") - 1
        e -= self.hazard[-1]
        e /= self.profile.fullrate
        e += self.left[-1]
        e[head] = self.left[idx] + (x - self.hazard[idx]) / self.rate[idx]
        return e


def _counts(sampler, beta, rng, size):
    """Poisson(beta theta) adversary counts over ``size`` fresh theta draws."""
    rate = sampler.sample(rng, size)
    rate *= beta
    return rng.poisson(rate)


def _loynes_lead(increment, n, cap, stop_lead):
    """Maxima of n reversed walks, each stopped early or after cap steps.

    ``increment(size)`` draws the next Phi - 1 for the ``size`` trials
    still walking, in trial order.  Each trial keeps s += Phi - 1 and
    m = max(m, s) until s <= m - stop_lead or the cap; its lead is m.
    """
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
            keep = ~done
            active, s, m = active[keep], s[keep], m[keep]
            if not active.size:
                break
    lead[active] = m
    return lead


def _race(z, depth, n_depths, sampler, beta, stop_lead, rng):
    """Violations of the post-confirmation race, counted per depth index.

    z holds the honest lead at confirmation and ``depth`` the index of the
    depth each entry belongs to; entries < 0 violate outright, the rest walk
    Z <- Z + 1 - Phi until Z <= 0 (violation, ties included) or
    Z >= stop_lead (safe).  The caller passes z without keeping it, so the
    first copy of the live entries frees it.
    """
    nviol = np.bincount(depth[z < 0], minlength=n_depths)
    live = z >= 0
    z, depth = z[live], depth[live]
    while z.size:
        z += 1  # in place: z is this function's own copy
        z -= _counts(sampler, beta, rng, z.size)
        hit = z <= 0
        nviol += np.bincount(depth[hit], minlength=n_depths)
        keep = ~hit & (z < stop_lead)
        z, depth = z[keep], depth[keep]
    return nviol


def _confirmation_leads(lead, ks, sampler, beta, delta_conf, rng):
    """Honest lead at confirmation for each depth in ks, raveled depth-major.

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
    return z.ravel()


def simulate_attack_sweep(config: SimConfig, ks) -> dict[int, SimEstimate]:
    """Estimates for several confirmation depths sharing one pre-mining pass.

    The stationary lead and the confirmation-interval counts are drawn once
    per trial and reused across depths (estimates are correlated across k
    but unbiased per k); each depth's race draws are fresh, and the races of
    all depths run in one loop.
    """
    ks = sorted(set(int(k) for k in ks))
    if min(ks) < 1:
        raise ValueError("confirmation depths must be >= 1")
    if config.stop_lead < max(ks):
        raise ValueError("stop_lead must cover the largest depth")
    sampler = ThetaSampler(config.profile)
    beta = config.beta

    violations = np.zeros(len(ks), dtype=np.int64)
    n_batches = -(-config.trials // _BATCH)
    streams = np.random.SeedSequence(config.seed).spawn(n_batches)
    remaining = config.trials
    for batch in range(n_batches):
        n = min(_BATCH, remaining)
        remaining -= n
        rng = np.random.default_rng(streams[batch])

        # Pre-mining: adversary lead right after an honest mining instant.
        lead = _loynes_lead(
            lambda size: _counts(sampler, beta, rng, size) - 1,
            n, config.warmup_blocks, config.stop_lead)
        depth = np.repeat(np.arange(len(ks), dtype=np.min_scalar_type(
            len(ks) - 1)), n)
        violations += _race(
            _confirmation_leads(lead, ks, sampler, beta, config.delta_conf,
                                rng), depth, len(ks), sampler, beta,
            config.stop_lead, rng)

    out = {}
    for k, nviol in zip(ks, violations):
        q_hat = int(nviol) / config.trials
        se = float(np.sqrt(q_hat * (1.0 - q_hat) / config.trials))
        out[k] = SimEstimate(q_hat=q_hat, std_err=se, trials=config.trials)
    return out


def simulate_attack(config: SimConfig) -> SimEstimate:
    """Estimate the violation probability at the configured depth."""
    return simulate_attack_sweep(config, [config.k])[config.k]


def simulate_lindley(phi_sampler, steps: int, seed: int = 0) -> np.ndarray:
    """Empirical stationary pmf of the lead recursion Q' = (Q + Phi - 1)+.

    Uses the reflected-walk identity Q_n = S_n - min_{t<=n} S_t for a chain
    started empty, discarding the first 10% as burn-in.  ``phi_sampler``
    is a callable (rng, size) -> integer array.
    """
    if steps < 100_000:
        raise ValueError("steps must be at least 1e5")
    rng = np.random.default_rng(seed)
    x = phi_sampler(rng, steps).astype(np.int64) - 1
    s = np.concatenate([[0], np.cumsum(x)])
    q = s - np.minimum.accumulate(s)
    q = q[int(0.1 * len(q)):]
    return np.bincount(q) / len(q)
