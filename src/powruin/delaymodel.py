"""Honest inter-mining time models under time-varying hashrate.

The effective honest mining rate after a block is a piecewise-constant
function of elapsed time: fraction ``fractions[i]`` of the full rate on
``[thresholds[i], thresholds[i+1])`` and the full rate beyond the last
threshold.  Zero delay is the profile with no segment and a fixed delay d
the profile with one segment [0, d) that does not mine.  The inter-mining
time distribution is assembled as a sparse block-bidiagonal ME
distribution: each segment length is replaced by a concentrated ME
approximation shifted by the segment's mining rate, chained into a final
exponential phase at full rate.

Calibration rescales the single full-rate scalar by fixed-point iteration
on the mean time after the profile's dead time until the model mean equals
the protocol block interval; the iterates rise monotonically to the root,
so no bracketing fallback is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .medist import MEDistribution, _validated, cme, make_me

__all__ = [
    "HashrateProfile", "CalibrationResult", "assemble_theta",
    "zero_delay_theta", "fixed_delay_theta", "random_delay_theta",
    "calibrate_alpha",
]


@dataclass(frozen=True)
class HashrateProfile:
    """Piecewise-constant honest hashrate function.

    thresholds: ascending finite breakpoints in seconds, starting at 0,
                length N+1; N = 0 mines at full rate from time 0.
    fractions:  rate fractions in [0,1] on each of the N segments,
                nondecreasing.
    fullrate:   finite rate in blocks/second past the last threshold.
    """

    thresholds: tuple
    fractions: tuple
    fullrate: float

    def __post_init__(self):
        thr = tuple(float(t) for t in self.thresholds)
        fr = tuple(float(f) for f in self.fractions)
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "fractions", fr)
        if not thr or thr[0] != 0.0:
            raise ValueError("thresholds must start at 0")
        if not np.all(np.isfinite(thr)):
            raise ValueError("thresholds must be finite")
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if len(fr) != len(thr) - 1:
            raise ValueError("need one fraction per segment")
        if any(not 0 <= f <= 1 for f in fr):
            raise ValueError("fractions must lie in [0, 1]")
        if any(b < a for a, b in zip(fr, fr[1:])):
            raise ValueError("fractions must be nondecreasing")
        if not 0 < self.fullrate < np.inf:
            raise ValueError("fullrate must be positive and finite")

    @property
    def n_segments(self) -> int:
        return len(self.fractions)

    @property
    def segment_lengths(self) -> tuple:
        return tuple(b - a for a, b in zip(self.thresholds, self.thresholds[1:]))

    @property
    def max_delay(self) -> float:
        return self.thresholds[-1]

    def with_fullrate(self, rate: float) -> "HashrateProfile":
        return replace(self, fullrate=rate)

    @classmethod
    def zero_delay(cls, alpha: float) -> "HashrateProfile":
        """No segment: full rate from time zero."""
        return cls(thresholds=(0.0,), fractions=(), fullrate=alpha)

    @classmethod
    def fixed_delay(cls, delay: float, alpha: float) -> "HashrateProfile":
        """No mining until ``delay``, then full rate."""
        if not 0 <= delay < np.inf:
            raise ValueError(f"delay must be nonnegative and finite, got {delay}")
        if delay == 0:
            return cls.zero_delay(alpha)
        return cls(thresholds=(0.0, float(delay)), fractions=(0.0,),
                   fullrate=alpha)

    # -- plain-text table serialization (threshold_s, cum_fraction) --------

    def to_table(self) -> str:
        lines = [f"# fullrate_bps = {self.fullrate!r}",
                 "threshold_s,cum_fraction"]
        for thr, fr in zip(self.thresholds[1:], self.fractions):
            lines.append(f"{thr!r},{fr!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_table(cls, text: str) -> "HashrateProfile":
        fullrate = None
        thresholds = [0.0]
        fractions = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "fullrate_bps" in line:
                    fullrate = float(line.partition("=")[2])
                continue
            if line.startswith("threshold_s"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'threshold,fraction'")
            thresholds.append(float(parts[0]))
            fractions.append(float(parts[1]))
        if fullrate is None:
            raise ValueError("profile table missing '# fullrate_bps =' header")
        return cls(tuple(thresholds), tuple(fractions), fullrate)


@dataclass(frozen=True)
class CalibrationResult:
    calibrated_rate: float
    achieved_mean: float
    iterations: int
    converged: bool
    theta: MEDistribution
    trace: tuple = ()


def zero_delay_theta(alpha: float) -> MEDistribution:
    """Exponential inter-mining time at rate alpha (no propagation delay)."""
    return assemble_theta(HashrateProfile.zero_delay(alpha), 1)


def fixed_delay_theta(delay: float, alpha: float, K: int) -> MEDistribution:
    """ME-fication of the fixed-delay model: CME[K, delay] then exp(alpha)."""
    return assemble_theta(HashrateProfile.fixed_delay(delay, alpha), K)


def random_delay_theta(delay_dist: MEDistribution, alpha: float) -> MEDistribution:
    """ME-distributed random delay followed by exponential mining."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    T = scipy.sparse.bmat([[delay_dist.subgen, delay_dist.exit[:, None]],
                           [None, [[-alpha]]]], format="csc")
    v = np.append(delay_dist.init, 0.0)
    return _validated(v, T, np.append(delay_dist.eigenvalues, -alpha))


def assemble_theta(profile: HashrateProfile, K: int) -> MEDistribution:
    """Inter-mining time ME distribution of order N*K + 1 for a profile.

    With no segment (N = 0) it is the exponential at full rate, for any K.
    Each segment i contributes a CME[K, delta_i] block shifted by the
    segment mining rate; consecutive blocks couple through exit/init rank-one
    products and the final scalar phase mines at full rate.  The sparse
    matrix and its spectrum are built from the mean-one CME: the blocks are
    its time-rescaled copies, and the CME's initial vector e_1 makes each
    coupling block a single column.
    """
    N = profile.n_segments
    alpha = profile.fullrate
    if N == 0:
        return make_me([1.0], [[-alpha]], eigenvalues=[-alpha])
    unit = cme(K, 1.0)
    inv = 1.0 / np.asarray(profile.segment_lengths)
    rates = np.asarray(profile.fractions) * alpha

    blocks = (scipy.sparse.kron(scipy.sparse.diags(inv), unit.subgen)
              - scipy.sparse.diags(np.repeat(rates, K)))
    coupling = scipy.sparse.kron(scipy.sparse.diags(inv[:-1], 1, shape=(N, N)),
                                 scipy.sparse.csr_matrix(
                                     np.outer(unit.exit, unit.init)))
    last = np.zeros((N * K, 1))
    last[-K:, 0] = unit.exit * inv[-1]
    T = scipy.sparse.bmat([[blocks + coupling, last], [None, [[-alpha]]]],
                          format="csc")
    v = np.zeros(N * K + 1)
    v[:K] = unit.init
    eigs = np.append(np.outer(inv, unit.eigenvalues) - rates[:, None], -alpha)
    return _validated(v, T, eigs)


def calibrate_alpha(profile: HashrateProfile, block_interval: float, K: int,
                    rel_tol: float = 1e-6, max_iter: int = 200) -> CalibrationResult:
    """Find the full rate making the model mean equal the block interval.

    The model mean exceeds the profile's dead time D (where its first
    mining segment starts) and tends to it as alpha grows, so a root exists
    exactly when D is below the block interval T; otherwise this raises
    ``ValueError``.  Fixed-point iteration on the time after the dead time,
    alpha <- alpha * (mean - D)/(T - D) from 1/(T - D), converges
    monotonically with no bracketing fallback and lands on a fixed delay's
    root 1/(T - d) at the first step, and stops within ``rel_tol`` of T
    (relative; every analysis uses the default).  The result carries the
    theta it assembled at the calibrated rate.
    """
    if not 0 < block_interval < np.inf:
        raise ValueError(
            f"block_interval must be positive and finite, got {block_interval}")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    target = float(block_interval)
    dead = next((t for t, f in zip(profile.thresholds, profile.fractions)
                 if f > 0), profile.max_delay)
    if dead >= target:
        raise ValueError(f"no mining before {dead:g} s, which is not below "
                         f"the block interval {target:g} s")

    # nondecreasing fractions make alpha*E[theta - D] nondecreasing in alpha,
    # and 1/(T - D) lies below the root: the iterates only rise
    alpha = 1.0 / (target - dead)
    trace = []
    for it in range(1, max_iter + 1):
        theta = assemble_theta(profile.with_fullrate(alpha), K)
        mean = theta.mean()
        trace.append((alpha, mean))
        if abs(mean - target) / target <= rel_tol:
            return CalibrationResult(alpha, mean, it, True, theta, tuple(trace))
        alpha = alpha * (mean - dead) / (target - dead)
    raise RuntimeError(
        f"calibration did not converge in {max_iter} iterations; last "
        f"alpha={trace[-1][0]!r}, mean={trace[-1][1]!r}")
