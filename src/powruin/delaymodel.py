"""Honest inter-mining time models under time-varying hashrate.

The effective honest mining rate after a block is a piecewise-constant
function of elapsed time: fraction ``fractions[i]`` of the full rate on
``[thresholds[i], thresholds[i+1])`` and the full rate beyond the last
threshold.  The inter-mining time distribution is assembled as a
sparse block-bidiagonal ME distribution: each segment length is replaced by
a concentrated ME approximation shifted by the segment's mining rate,
chained into a final exponential phase at full rate.

Calibration rescales the single full-rate scalar until the model mean equals
the protocol block interval.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from .medist import MEDistribution, _validated, cme, make_me

logger = logging.getLogger(__name__)

__all__ = [
    "HashrateProfile", "CalibrationResult", "assemble_theta",
    "zero_delay_theta", "fixed_delay_theta", "random_delay_theta",
    "calibrate_alpha",
]


@dataclass(frozen=True)
class HashrateProfile:
    """Piecewise-constant honest hashrate function.

    thresholds: ascending breakpoints in seconds, starting at 0, length N+1.
    fractions:  rate fractions in [0,1] on each of the N segments,
                nondecreasing.
    fullrate:   rate in blocks/second for times past the last threshold.
    """

    thresholds: tuple
    fractions: tuple
    fullrate: float

    def __post_init__(self):
        thr = tuple(float(t) for t in self.thresholds)
        fr = tuple(float(f) for f in self.fractions)
        object.__setattr__(self, "thresholds", thr)
        object.__setattr__(self, "fractions", fr)
        if len(thr) < 2 or thr[0] != 0.0:
            raise ValueError("thresholds must start at 0 and have N >= 1 segments")
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if len(fr) != len(thr) - 1:
            raise ValueError("need one fraction per segment")
        if any(f < 0 or f > 1 for f in fr):
            raise ValueError("fractions must lie in [0, 1]")
        if any(b < a for a, b in zip(fr, fr[1:])):
            raise ValueError("fractions must be nondecreasing")
        if not self.fullrate > 0:
            raise ValueError("fullrate must be positive")

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
        """Degenerate profile: full rate effectively from time zero."""
        return cls(thresholds=(0.0, 1e-9), fractions=(1.0,), fullrate=alpha)

    @classmethod
    def fixed_delay(cls, delay: float, alpha: float) -> "HashrateProfile":
        """No mining until ``delay``, then full rate."""
        if delay <= 0:
            raise ValueError("delay must be positive; use zero_delay instead")
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
                    fullrate = float(line.split("=", 1)[1])
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
    trace: tuple = ()


def zero_delay_theta(alpha: float) -> MEDistribution:
    """Exponential inter-mining time at rate alpha (no propagation delay)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return make_me([1.0], [[-alpha]], eigenvalues=[-alpha])


def _chain(delay_dist: MEDistribution, alpha: float) -> MEDistribution:
    """Delay segment followed by an exponential(alpha) mining phase."""
    T = scipy.sparse.bmat([[delay_dist.subgen, delay_dist.exit[:, None]],
                           [None, [[-alpha]]]], format="csc")
    v = np.append(delay_dist.init, 0.0)
    return _validated(v, T, np.append(delay_dist.eigenvalues, -alpha))


def fixed_delay_theta(delay: float, alpha: float, K: int) -> MEDistribution:
    """ME-fication of the fixed-delay model: CME[K, delay] then exp(alpha)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if delay < 0:
        raise ValueError(f"delay must be nonnegative, got {delay}")
    if delay == 0:
        return zero_delay_theta(alpha)
    return _chain(cme(K, delay), alpha)


def random_delay_theta(delay_dist: MEDistribution, alpha: float) -> MEDistribution:
    """ME-distributed random delay followed by exponential mining."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _chain(delay_dist, alpha)


def assemble_theta(profile: HashrateProfile, K: int) -> MEDistribution:
    """Inter-mining time ME distribution of order N*K + 1 for a profile.

    Each segment i contributes a CME[K, delta_i] block shifted by the
    segment mining rate; consecutive blocks couple through exit/init rank-one
    products and the final scalar phase mines at full rate.  The sparse
    matrix and its spectrum are built from the mean-one CME: the blocks are
    its time-rescaled copies, and the CME's initial vector e_1 makes each
    coupling block a single column.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K != 1 and K % 2 == 0:
        raise ValueError(f"K must be odd (or 1), got {K}")
    N = profile.n_segments
    alpha = profile.fullrate
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
                    rel_tol: float = 1e-4, max_iter: int = 200) -> CalibrationResult:
    """Find the full rate making the model mean equal the block interval.

    Fixed-point iteration alpha <- alpha * mean/target starting from
    1/target, with a bisection fallback if the iterates stop contracting.
    """
    if block_interval <= 0:
        raise ValueError("block_interval must be positive")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")

    target = float(block_interval)
    alpha0 = 1.0 / target

    def model_mean(alpha):
        return assemble_theta(profile.with_fullrate(alpha), K).mean()

    alpha = alpha0
    trace = []
    prev_err = np.inf
    for it in range(1, max_iter + 1):
        mean = model_mean(alpha)
        err = abs(mean - target) / target
        trace.append((alpha, mean))
        if err <= rel_tol:
            return CalibrationResult(alpha, mean, it, True, tuple(trace))
        if err > prev_err:
            logger.info("fixed-point iteration stopped contracting; bisecting")
            break
        prev_err = err
        alpha = alpha * mean / target

    # Bisection on g(alpha) = mean(alpha) - target; mean decreases in alpha.
    lo, hi = alpha0 / 10.0, alpha0 * 10.0
    if model_mean(lo) < target or model_mean(hi) > target:
        raise RuntimeError(
            f"calibration failed to bracket the target; trace={trace}")
    for it2 in range(max_iter):
        mid = 0.5 * (lo + hi)
        mean = model_mean(mid)
        trace.append((mid, mean))
        if abs(mean - target) / target <= rel_tol:
            return CalibrationResult(mid, mean, len(trace), True, tuple(trace))
        if mean > target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"calibration did not converge; trace={trace}")
