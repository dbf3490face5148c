"""Adversary block counts per honest inter-mining interval.

With the honest inter-mining time ME-distributed as (v, T, h) and the
adversary mining at fixed Poisson rate beta, the count of adversary blocks
per interval has the matrix-geometric pmf

    p(n) = v A^{n+1} h / beta,
    A = (I - T/beta)^{-1} = -beta (T - beta I)^{-1}.

A is never formed: with y_0 = h, each mass takes one forward solve
x_n = (T - beta I)^{-1} y_n, gives p(n) = -v x_n and hands on
y_{n+1} = A y_n = -beta x_n.  Theta steps its own masses, and
:func:`phi_from_theta` only checks the arguments and asks it.  A general
ME, such as a random delay chain, takes k solves with the one solver of
T - beta I that it returns, the product with the dense inverse (see
:meth:`powruin.medist.MEDistribution.solver`).  A profile's theta steps in
its own segment layout: the first entries, the rotation pairs as one
complex array and the full-rate phase in closed form, with -beta folded
into its multipliers and one pass of the segment coupling per mass (see
:class:`powruin.delaymodel._ProfileTheta`).  Every eigenvalue lambda of T has
negative real part (by construction for a derived theta, checked by
:func:`powruin.medist.make_me` for outside input), so each eigenvalue
1/(1 - lambda/beta) of A lies inside the unit disc and the pmf is summable.

Given theta the count is Poisson(beta theta), so its mean is beta E[theta]
(Wald's identity), the mean cached with theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .medist import MEDistribution

__all__ = ["PhiDistribution", "phi_from_theta"]


@dataclass(frozen=True, eq=False)
class PhiDistribution:
    """First k probability masses and the mean of the per-interval count."""

    masses: np.ndarray
    mean: float

    def __post_init__(self):
        object.__setattr__(self, "masses", _checked_pmf(self.masses, "Phi"))
        if not self.mean >= 0:
            raise ValueError(f"mean must be nonnegative, got {self.mean}")

    @property
    def k(self) -> int:
        return len(self.masses)


def _checked_pmf(masses, layer: str) -> np.ndarray:
    """``masses`` clamped at 0, refusing a mass below -1e-12 or a sum above
    1 + 1e-8 (large models carry ~1e-10 absolute error per mass).

    Each check is written so that NaN fails it; ``layer`` names the masses
    in the messages.
    """
    masses = np.asarray(masses, dtype=float)
    if not np.all(masses >= -1e-12):
        raise ValueError(f"negative or NaN {layer} mass")
    masses = np.maximum(masses, 0.0)
    if not masses.sum() <= 1 + 1e-8:
        raise ValueError(f"{layer} masses sum to {masses.sum()} > 1")
    return masses


def phi_from_theta(theta: MEDistribution, beta: float, k: int) -> PhiDistribution:
    """Masses p(0..k-1) and mean of the adversary count per interval."""
    if not 0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > 10_000:
        raise ValueError(f"k={k} exceeds the supported cap of 10000")

    return PhiDistribution(masses=theta._phi_masses(beta, k),
                           mean=beta * theta.mean())
