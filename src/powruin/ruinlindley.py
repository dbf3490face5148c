"""Stationary adversary lead and ultimate ruin probabilities.

The adversary's lead right after honest mining instants follows the
recursion Q' = (Q + count - 1)+; its stationary pmf feeds the pre-mining
phase.  The honest lead during the race is a unit-premium surplus process
whose ultimate ruin probabilities psi(u) are computed two independent ways:
the direct recursion and the complement of the stationary lead cdf.  The
routes must agree, which downstream tests exploit as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phi import PhiDistribution, _checked_pmf

__all__ = [
    "UnstableRegimeError", "LeadDistribution", "RuinTable",
    "lead_pmf", "ruin_recursive", "ruin_via_lindley",
]


class UnstableRegimeError(ValueError):
    """Mean adversary count per interval >= 1: the attack trivially succeeds."""


@dataclass(frozen=True, eq=False)
class LeadDistribution:
    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", _checked_pmf(self.masses, "lead"))


@dataclass(frozen=True, eq=False)
class RuinTable:
    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if not np.all((psi >= -1e-12) & (psi <= 1 + 1e-12)):
            raise ValueError("ruin probability out of [0, 1] or NaN")
        object.__setattr__(self, "psi", np.clip(psi, 0.0, 1.0))


def _tails(phi: PhiDistribution, k: int):
    """p(0) and the tails P(count > j), j = 0..k-1, of a stable ``phi``.

    Both recursions start here.  Refuses a mean count of one or more, p(0)
    = 0 and a k outside 1..phi.k, in that order.  Masses of a large model
    can sum to 1 + O(1e-11), which would leave a negative tail; a tail
    probability is clamped at 0.
    """
    if phi.mean >= 1.0:
        raise UnstableRegimeError(
            f"mean adversary count {phi.mean} >= 1: attack always succeeds")
    if phi.masses[0] <= 0.0:
        raise ValueError("p(0) = 0: recursions are undefined")
    if k < 1 or k > phi.k:
        raise ValueError(f"k={k} needs phi masses up to index {k - 1}")
    return phi.masses[0], np.maximum(1.0 - np.cumsum(phi.masses[:k]), 0.0)


def lead_pmf(phi: PhiDistribution, k: int) -> LeadDistribution:
    """First k stationary masses of the lead recursion Q' = (Q + count - 1)+.

    Starts from p(0) and the tails of :func:`_tails`, as
    :func:`ruin_recursive` does.
    """
    p0, tail = _tails(phi, k)
    q = np.empty(k)
    q[0] = (1.0 - phi.mean) / p0
    for n in range(1, k):
        # sum_{j<n} q(j) * P(count > n-j)
        q[n] = float(q[:n] @ tail[n:0:-1]) / p0
    return LeadDistribution(masses=q)


def ruin_recursive(phi: PhiDistribution, k: int) -> RuinTable:
    """Ruin probabilities psi(0..k-1) by the direct recursion.

    The defining relation contains psi(u) on both sides (the j=0 term);
    rearranging and dividing by p(0) makes it explicit.  It starts from
    p(0) and the tails of :func:`_tails`, as :func:`lead_pmf` does.
    """
    p0, tail = _tails(phi, k)
    psi = np.empty(k)
    psi[0] = phi.mean
    for u in range(1, k):
        acc = phi.mean - tail[:u].sum()
        if u > 1:
            acc += float(tail[1:u] @ psi[u - 1:0:-1])
        psi[u] = acc / p0
    return RuinTable(psi=np.clip(psi, 0.0, 1.0))


def ruin_via_lindley(phi: PhiDistribution, k: int) -> RuinTable:
    """Ruin probabilities via the stationary lead: psi(u) = P(Q >= u)."""
    return _ruin_from_lead(phi, lead_pmf(phi, k))


def _ruin_from_lead(phi: PhiDistribution, lead: LeadDistribution) -> RuinTable:
    """psi(0..k-1) from the first k stationary lead masses of ``phi``."""
    k = len(lead.masses)
    psi = np.empty(k)
    psi[0] = phi.mean
    psi[1:] = 1.0 - np.cumsum(lead.masses[:k - 1])
    return RuinTable(psi=np.clip(psi, 0.0, 1.0))
