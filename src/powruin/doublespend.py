"""Double-spend probability under the k-deep confirmation rule.

The adversary's block count at the confirmation instant combines three
independent pieces: the stationary pre-mining lead, the blocks mined over k
honest inter-mining intervals, and a Poisson count over the final
propagation window.  All generating-function algebra is carried out on
k-partial pgfs, arrays p(0..k-1) of polynomials truncated to degree k-1;
truncation is exact for the retained coefficients since degrees only add.

The honest lead at confirmation is the index reversal Z = k-1-V, and the
violation probability is q = 1 - sum_u p_Z(u) (1 - psi(u)).

Phi, the lead and psi are built and validated once for k_max, and
:func:`analyze` takes every depth in one pass: starting from the lead
convolved with the final window's Poisson count, each depth convolves the
previous depth's k_max-partial pgf with Phi once, and depth k reads its
first k masses.  The pass keeps two arrays of length k_max, sum p_Z and
sum p_Z (1 - psi) per depth, and computes q and the deficit from them at
once.  The pass reads Phi's masses below 1e-300 as 0: they would only
add products in the subnormal range, which are slow and too small to
reach q or the deficit.  Products of nonnegative coefficients stay
nonnegative, and Phi, the lead and the Poisson count are validated
nonnegative, so one check covers the whole pass: it refuses a NaN or a
partial sum above 1 + 1e-8, with :func:`compute_q`'s messages.
:func:`adversary_lead_pmf`, :func:`honest_lead_pmf` and :func:`compute_q`
take one depth on its own, with Phi raised to the k-th power by k - 1
truncated products, and :func:`compute_q` checks its p_Z the same way,
entry by entry.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import delaymodel
from .delaymodel import HashrateProfile, calibrate_alpha
from .medist import MEDistribution, _check_cme_order
from .phi import PhiDistribution, phi_from_theta
from .ruinlindley import (LeadDistribution, RuinTable, _ruin_from_lead,
                          lead_pmf)

__all__ = [
    "DoubleSpendResult", "DelayModel",
    "poisson_partial_pgf", "truncated_product",
    "adversary_lead_pmf", "honest_lead_pmf", "compute_q", "analyze",
]


@dataclass(frozen=True)
class DoubleSpendResult:
    q: float
    deficit_mass: float
    model_tag: str
    k: int
    unstable_regime: bool = False


@dataclass(frozen=True)
class DelayModel:
    """Delay-model selection for :func:`analyze`.

    kind: 'zero' | 'fixed' | 'random' | 'variable'.
    'fixed' needs ``delay``; 'random' needs ``delay_dist`` plus an explicit
    ``delta_conf`` at analyze time; 'variable' needs ``profile``.  A
    field that the kind does not read is refused.
    """

    kind: str
    delay: float | None = None
    delay_dist: MEDistribution | None = None
    profile: HashrateProfile | None = None

    def __post_init__(self):
        reads = {"zero": None, "fixed": "delay", "random": "delay_dist",
                 "variable": "profile"}
        if self.kind not in reads:
            raise ValueError(f"unknown delay model kind {self.kind!r}")
        for name in ("delay", "delay_dist", "profile"):
            if name != reads[self.kind] and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} model does not read {name}")
        if self.kind == "fixed" and (self.delay is None
                                     or not 0 <= self.delay < np.inf):
            raise ValueError("fixed model needs a nonnegative finite delay")
        if self.kind == "random" and self.delay_dist is None:
            raise ValueError("random model needs a delay distribution")
        if self.kind == "variable" and self.profile is None:
            raise ValueError("variable model needs a hashrate profile")


def poisson_partial_pgf(lam: float, k: int) -> np.ndarray:
    """First k Poisson masses exp(n log(lam) - log(n!) - lam).

    log n! is ``math.lgamma(n + 1)``, and n log(lam) is 0 at n = 0, as
    ``xlogy`` has it, so lam = 0 gives the point mass at 0.  The log form
    holds where exp(-lam) underflows.  For lam <= 800 and n < 2000, each
    mass of at least 1e-300 is within 5e-12 relative of a 50-digit
    reference, as SciPy's ``poisson.pmf`` is, and a mass that rounds to 0
    in double is 0.
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    xlogy = np.arange(k, dtype=float)
    xlogy[1:] *= math.log(lam) if lam > 0 else -math.inf
    log_factorial = np.fromiter(map(math.lgamma, range(1, k + 1)), float, k)
    return np.exp(xlogy - log_factorial - lam)


def truncated_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Polynomial product truncated to degree k-1.

    Exact for all retained coefficients: the discarded cross terms only
    contribute to degrees >= k.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return np.convolve(a, b)[:len(a)]


def adversary_lead_pmf(leadQ: LeadDistribution, phi: PhiDistribution,
                       delta_conf: float, beta: float, k: int) -> np.ndarray:
    """First k masses of the adversary block count V at confirmation.

    V = pre-mining lead + counts over k honest intervals + Poisson blocks
    over the final delta_conf propagation window.  The lead and Phi may
    carry more than k masses; the first k are used.  Phi^k is formed by
    k - 1 truncated products.
    """
    gq, gphi = leadQ.masses[:k], phi.masses[:k]
    if len(gq) != k or len(gphi) != k:
        raise ValueError("lead and phi must carry k masses")
    gd = poisson_partial_pgf(delta_conf * beta, k)
    power = gphi
    for _ in range(k - 1):
        power = truncated_product(power, gphi)
    return truncated_product(truncated_product(gq, power), gd)


def honest_lead_pmf(p_V: np.ndarray, k: int):
    """Honest lead masses p_Z(i) = p_V(k-1-i) and the deficit mass P(Z < 0)."""
    if len(p_V) != k:
        raise ValueError(f"p_V has {len(p_V)} coefficients, expected {k}")
    p_Z = p_V[::-1].copy()
    deficit = max(1.0 - float(p_V.sum()), 0.0)
    return p_Z, deficit


def compute_q(p_Z: np.ndarray, deficit_mass: float, ruin: RuinTable
              ) -> DoubleSpendResult:
    """Violation probability q = 1 - sum_u p_Z(u) (1 - psi(u)).

    The deficit mass (adversary already at or past the honest tip) is
    covered automatically by the 1-minus-sum structure.  Only the first
    len(p_Z) entries of the ruin table are read.  The result's tag is "".
    """
    p_Z = np.asarray(p_Z, dtype=float)
    k = len(p_Z)
    psi = ruin.psi[:k]
    if len(psi) < k:
        raise ValueError("ruin table shorter than p_Z")
    if not np.all((p_Z >= 0) & (p_Z <= 1)):
        raise ValueError("p_Z out of [0, 1] or NaN")
    if not p_Z.sum() <= 1 + 1e-8:
        raise ValueError(f"p_Z sums to {p_Z.sum()} > 1")
    q = 1.0 - float(np.sum(p_Z * (1.0 - psi)))
    q = min(max(q, 0.0), 1.0)
    return DoubleSpendResult(q=q, deficit_mass=deficit_mass, model_tag="",
                             k=k)


# Phi's masses below this are 0 in the depth pass (see the module docstring)
_FLUSH_BELOW = 1e-300

# A model's calibrated law.  A random delay has no calibration and no
# profile, and no delta_conf unless one is given (None).
_Law = namedtuple("_Law", "theta fullrate calibration profile delta_conf tag")


def _calibrated_law(model: DelayModel, block_interval: float, K: int,
                    delta_conf: float | None = None):
    """The calibrated law of any model, the one place that maps a model.

    K is checked on every model, also one that builds no CME, so that no
    result is tagged with an order the CME table lacks.  Zero, fixed and
    variable models are profiles: the law holds the calibration's theta,
    the profile at the calibrated rate and, unless ``delta_conf`` is given,
    the profile's max delay as delta_conf.  A random ME delay D has full
    rate 1/(T - E[D]).
    """
    _check_cme_order(K)
    if model.kind == "random":
        dmean = model.delay_dist.mean()
        if not dmean < block_interval < np.inf:
            raise ValueError(f"block_interval must be finite and above the "
                             f"mean delay {dmean:g} s, got {block_interval}")
        alpha = 1.0 / (block_interval - dmean)
        return _Law(delaymodel.random_delay_theta(model.delay_dist, alpha),
                    alpha, None, None, delta_conf, f"random(mean={dmean:g})")
    if model.kind == "zero":
        profile, tag = HashrateProfile.zero_delay(1.0), "zero"
    elif model.kind == "fixed":
        profile = HashrateProfile.fixed_delay(model.delay, 1.0)
        tag = f"fixed({model.delay:g})"
    else:
        profile, tag = model.profile, f"variable(N={model.profile.n_segments})"
    cal = calibrate_alpha(profile, block_interval, K)
    profile = profile.with_fullrate(cal.calibrated_rate)
    return _Law(cal.theta, cal.calibrated_rate, cal, profile,
                profile.max_delay if delta_conf is None else delta_conf, tag)


def _check_attack(beta_fraction: float, delta_conf: float | None):
    """Refuse beta_fraction outside (0, 1) and a bad delta_conf (not None)."""
    if not 0 < beta_fraction < 1:
        raise ValueError("beta_fraction must lie in (0, 1)")
    if delta_conf is not None and not 0 <= delta_conf < np.inf:
        raise ValueError(
            f"delta_conf must be nonnegative and finite, got {delta_conf}")


def analyze(model: DelayModel, beta_fraction: float, block_interval: float,
            k_max: int, K: int = 27, delta_conf: float | None = None
            ) -> list[DoubleSpendResult]:
    """Violation probabilities for confirmation depths k = 1..k_max.

    Calibrates the honest rate to the block interval, to 1e-6 on the mean,
    builds the adversary count distribution, the lead and the ruin table
    once with k_max masses, and computes every depth in one pass of
    O(k_max) memory, with one check of its partial sums (see the module
    docstring).  The adversary rate is beta_fraction times the calibrated
    full rate.
    """
    _check_attack(beta_fraction, delta_conf)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    law = _calibrated_law(model, block_interval, K, delta_conf)
    if law.delta_conf is None:
        raise ValueError("random-delay models need an explicit delta_conf")
    beta = beta_fraction * law.fullrate
    tag = f"{law.tag},beta={beta_fraction:g},T={block_interval:g},K={K}"

    phi = phi_from_theta(law.theta, beta, k_max)
    if phi.mean >= 1.0:
        return [DoubleSpendResult(q=1.0, deficit_mass=1.0, model_tag=tag, k=k,
                                  unstable_regime=True)
                for k in range(1, k_max + 1)]
    lead = lead_pmf(phi, k_max)
    ruin = _ruin_from_lead(phi, lead)

    # G_0 = lead * Poisson(beta delta_conf) and G_k = G_{k-1} * Phi, each
    # truncated to k_max masses; depth k's p_V is the first k masses of G_k.
    # Against the last k rows of [1, 1 - psi] reversed, they give sum p_Z
    # and sum p_Z (1 - psi) in one product
    G = truncated_product(lead.masses,
                          poisson_partial_pgf(law.delta_conf * beta, k_max))
    weights = np.column_stack((np.ones(k_max), 1.0 - ruin.psi))[::-1].copy()
    partial = np.empty((k_max, 2))
    step = np.where(phi.masses < _FLUSH_BELOW, 0.0, phi.masses)
    for k in range(1, k_max + 1):
        G = truncated_product(G, step)
        partial[k - 1] = G[:k] @ weights[k_max - k:]
    sums, dots = partial.T
    total = sums.max()  # NaN if any sum is
    if not total <= 1 + 1e-8:
        raise ValueError("p_Z out of [0, 1] or NaN" if np.isnan(total)
                         else f"p_Z sums to {total} > 1")
    qs, deficits = np.clip(1.0 - dots, 0.0, 1.0), np.maximum(1.0 - sums, 0.0)
    return [DoubleSpendResult(q=q, deficit_mass=d, model_tag=tag, k=k)
            for k, (q, d) in enumerate(zip(qs.tolist(), deficits.tolist()), 1)]
