"""Matrix-exponential (ME) distributions.

An ME distribution of order ``m`` is characterized by a row vector ``v``
(``init``), an m-by-m matrix ``T`` (``subgen``) whose eigenvalues all have
negative real part, and the exit column vector ``h = -T 1``.  Density and
distribution function are

    f(x) = -v expm(T x) T 1,        F(x) = 1 - v expm(T x) 1,

and the moment generating function is the rational function
``M(s) = -v (sI + T)^{-1} h``.

Every distribution carries its validated spectrum and holds ``T`` as a
dense array.  The mean, the squared coefficient of variation and the mgf
all solve through one method, :meth:`MEDistribution.solver`, which returns
the solve function of ``T - sI``.  A general distribution factors
``T - sI`` by dense LU; the inter-mining time of a hashrate profile
(:func:`powruin.delaymodel.assemble_theta`) solves segment by segment
without a factorization and builds ``T`` only on first access.

Two families approximating a deterministic value ``delta`` are provided:

* :func:`erlang_me` -- Erlang-K chain, squared coefficient of variation 1/K;
* :func:`cme` -- a concentrated ME family with density
  ``c exp(-lam x) prod_i cos^2((omega x - phi_i)/2)`` for odd K up to 51,
  whose frequency and phases (squared coefficient of variation roughly
  2/K^2) are read from the table in :mod:`powruin._cmetable`, then scaled
  to the requested mean.  ``tools/make_cme_table.py`` regenerates the
  table by numerical search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.linalg

from ._cmetable import CME_UNIT

_EIG_TOL = 1e-8

__all__ = ["MEDistribution", "make_me", "erlang_me", "cme"]


class MEValidationError(ValueError):
    """Raised when (init, subgen) do not define a valid ME distribution."""


@dataclass(frozen=True)
class MEDistribution:
    """A validated matrix-exponential distribution.

    Instances are immutable; all fields are read-only after construction
    and safe to share between threads.  ``subgen`` is a dense array (a
    profile's theta builds it on first access) and ``eigenvalues`` its
    spectrum.  Use :func:`make_me` rather than instantiating directly.
    """

    init: np.ndarray
    subgen: np.ndarray
    exit: np.ndarray
    order: int
    eigenvalues: np.ndarray

    # -- solves --------------------------------------------------------------

    def solver(self, s: float = 0.0):
        """The function b -> (T - sI)^{-1} b.

        Here a dense LU of ``subgen - sI``; a singular matrix raises
        ``ValueError``.
        """
        lu = scipy.linalg.lu_factor(self.subgen - s * np.eye(self.order),
                                    check_finite=False)
        if not np.all(np.diag(lu[0])):  # lu_factor only warns of a zero pivot
            raise ValueError(f"T - sI singular at s={s}")
        return partial(scipy.linalg.lu_solve, lu, check_finite=False)

    def _solve_T(self, b):
        """Solve T x = b through the solver of T, made once and cached."""
        solve = getattr(self, "_T_solver", None)
        if solve is None:
            solve = self.solver()
            object.__setattr__(self, "_T_solver", solve)
        return solve(b)

    # -- evaluation --------------------------------------------------------

    def pdf(self, x: float) -> float:
        """Density -v expm(Tx) T 1 at x >= 0."""
        if x < 0:
            raise ValueError(f"pdf requires x >= 0, got {x}")
        w = self.init @ scipy.linalg.expm(self.subgen * x)
        val = float(w @ self.exit)
        if val < -1e-9:
            raise MEValidationError(f"negative density {val} at x={x}")
        return max(val, 0.0)

    def cdf(self, x: float) -> float:
        """Distribution function 1 - v expm(Tx) 1 at x >= 0, clamped to [0,1]."""
        if x < 0:
            raise ValueError(f"cdf requires x >= 0, got {x}")
        w = self.init @ scipy.linalg.expm(self.subgen * x)
        val = 1.0 - float(w.sum())
        if val < -1e-9 or val > 1 + 1e-9:
            raise MEValidationError(f"cdf value {val} out of range at x={x}")
        return min(max(val, 0.0), 1.0)

    def pdf_grid(self, xs: np.ndarray) -> np.ndarray:
        """Density on an equispaced ascending grid, stepping a dense expm."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1 or len(xs) < 2:
            raise ValueError("need a 1-d grid with at least two points")
        steps = np.diff(xs)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("grid must be equispaced ascending")
        step = scipy.linalg.expm(self.subgen * steps[0])
        w = self.init @ scipy.linalg.expm(self.subgen * xs[0])
        out = np.empty(len(xs))
        for i in range(len(xs)):
            out[i] = w @ self.exit
            w = w @ step
        return np.maximum(out, 0.0)

    def mgf(self, s: float) -> float:
        """Moment generating function -v (sI + T)^{-1} h.

        The caller must supply ``s`` inside the convergence region (to the
        left of the spectral abscissa of -T).
        """
        return -float(self.init @ self.solver(-s)(self.exit))

    def mean(self) -> float:
        """First moment -v T^{-1} 1, solved once and cached."""
        mean = getattr(self, "_mean", None)
        if mean is None:
            mean = -float(self.init @ self._solve_T(np.ones(self.order)))
            object.__setattr__(self, "_mean", mean)
        return mean

    def scv(self) -> float:
        """Squared coefficient of variation, var/mean^2.

        Second moment is 2 v T^{-2} 1, obtained with two linear solves.
        """
        x = self._solve_T(np.ones(self.order))
        m2 = 2.0 * float(self.init @ self._solve_T(x))
        m1 = self.mean()
        return m2 / m1**2 - 1.0


def _me(init, subgen, eigenvalues) -> MEDistribution:
    """An unchecked :class:`MEDistribution` with its exit vector -T 1."""
    return MEDistribution(init=init, subgen=subgen,
                          exit=-(subgen @ np.ones(len(init))),
                          order=len(init), eigenvalues=np.asarray(eigenvalues))


def _validated(d: MEDistribution) -> MEDistribution:
    """Check the initial mass, the spectrum, the mean and mgf(0) of ``d``.

    The mean and mgf(0) = -v T^{-1} h both solve through the one cached
    solver of T, and the mean stays cached.  Models derived from validated
    ones (chained, shifted or rescaled) come here directly; outside input
    goes through :func:`make_me`.
    """
    mass = float(d.init.sum())
    if abs(mass - 1.0) > 1e-10:
        raise MEValidationError(f"init mass {mass} != 1")
    worst = float(np.max(np.real(d.eigenvalues)))
    if worst >= -_EIG_TOL:
        raise MEValidationError(
            f"subgenerator eigenvalue with real part {worst} >= -{_EIG_TOL}")
    mu = d.mean()
    if not (mu > 0 and math.isfinite(mu)):
        raise MEValidationError(f"mean {mu} not strictly positive and finite")
    if abs(-float(d.init @ d._solve_T(d.exit)) - 1.0) > 1e-10:
        raise MEValidationError("mgf(0) != 1")
    return d


def make_me(init, subgen, *, eigenvalues=None) -> MEDistribution:
    """Validate (init, subgen) and build an :class:`MEDistribution`.

    ``eigenvalues`` may carry the spectrum when it is known by construction;
    without it the spectrum is computed.

    Raises :class:`MEValidationError` on dimension mismatch, initial mass
    different from one, a subgenerator eigenvalue with nonnegative real
    part, a nonpositive mean, mgf(0) different from one, or a distribution
    function that decreases on a grid up to five means.
    """
    v = np.array(init, dtype=float, ndmin=1).ravel()
    T = np.array(subgen, dtype=float, ndmin=2)
    m = len(v)
    if T.shape != (m, m):
        raise MEValidationError(
            f"dimension mismatch: init has length {m}, subgen is {T.shape}")
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvals(T)
    d = _validated(_me(v, T, eigenvalues))
    grid = np.linspace(0.0, 5.0 * d.mean(), 16)
    F = np.array([d.cdf(x) for x in grid])
    if np.any(np.diff(F) < -1e-9):
        raise MEValidationError("cdf not nondecreasing on check grid")
    return d


def erlang_me(K: int, delta: float) -> MEDistribution:
    """Erlang-K approximation of the deterministic value ``delta``.

    Mean is exactly ``delta``; the squared coefficient of variation is 1/K.
    """
    if K < 1 or K != int(K):
        raise ValueError(f"K must be a positive integer, got {K}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    K = int(K)
    rate = K / delta
    T = rate * (np.diag(-np.ones(K)) + np.diag(np.ones(K - 1), 1))
    v = np.zeros(K)
    v[0] = 1.0
    return make_me(v, T, eigenvalues=np.full(K, -rate))


# -- concentrated ME construction ------------------------------------------


def _cosine_harmonics(phases):
    """Laurent coefficients of prod_i (1 + cos(w x - phi_i)) in e^{iwx}."""
    coeffs = np.array([1.0 + 0j])
    for phi in phases:
        factor = np.array([np.exp(1j * phi) / 2, 1.0, np.exp(-1j * phi) / 2])
        coeffs = np.convolve(coeffs, factor)
    return coeffs  # coeffs[j + n] multiplies e^{i j w x}


@lru_cache(maxsize=None)
def _cme_unit(K: int) -> MEDistribution:
    """The unit-rate order-K concentrated ME, built and validated once."""
    return _cme_from_params(*CME_UNIT[K])


def _cme_from_params(omega, phases) -> MEDistribution:
    """The unit-rate concentrated ME of order 2 len(phases) + 1."""
    n = len(phases)
    K = 2 * n + 1
    coeffs = _cosine_harmonics(phases) / 2**n
    # f(x) = e^{-x} [a_0 + sum_j a_j cos(j w x) + b_j sin(j w x)]
    a = np.empty(n + 1)
    b = np.empty(n + 1)
    a[0] = coeffs[n].real
    for j in range(1, n + 1):
        a[j] = 2.0 * coeffs[n + j].real
        b[j] = -2.0 * coeffs[n + j].imag

    T = np.zeros((K, K))
    T[0, 0] = -1.0
    v = np.zeros(K)
    v[0] = a[0]
    for j in range(1, n + 1):
        i = 2 * j - 1
        w = j * omega
        T[i:i + 2, i:i + 2] = [[-1.0, w], [-w, -1.0]]
        # Match the cos/sin coefficients of -v expm(Tx) T 1 on this block.
        sys = np.array([[1.0 - w, 1.0 + w], [1.0 + w, -(1.0 - w)]])
        v[i:i + 2] = np.linalg.solve(sys, [a[j], b[j]])
    v /= v.sum()  # normalize total mass; density sign is already nonneg

    # Change basis by P^{-1} = [v; e_2; ...; e_K], so that the initial
    # vector becomes e_1.  Rows 2..K of T stay; the first row becomes
    # [-1, ..., -w v_{i+1}, w v_i, ...] over the rotation blocks.  A chain
    # of CME blocks then hands its exit mass on through one column, not a
    # dense exit-init product, whose independently rounded entries left
    # the Phi masses of the criterion-10 model 6e-11 off a long-double
    # solve (2e-12 in this basis).
    for j in range(1, n + 1):
        i = 2 * j - 1
        T[0, i], T[0, i + 1] = -j * omega * v[i + 1], j * omega * v[i]
    e1 = np.zeros(K)
    e1[0] = 1.0
    eigs = np.concatenate([[-1.0], (-1.0 + 1j * omega * np.arange(1, n + 1)),
                           (-1.0 - 1j * omega * np.arange(1, n + 1))])
    return make_me(e1, T, eigenvalues=eigs)


def _check_cme_order(K) -> None:
    """Refuse an order K that has no row in the CME table."""
    if K not in CME_UNIT:
        raise ValueError(f"K must be an odd integer from 1 to "
                         f"{max(CME_UNIT)}, got {K!r}")


def cme(K: int, delta: float) -> MEDistribution:
    """Concentrated ME approximation of the deterministic value ``delta``.

    ``K`` must be one of the tabulated orders, an odd integer from 1 to
    51; the order-K family achieves scv on the order of 2/K^2, and K=1 is
    the exponential distribution.  The result is a time-rescaled copy of
    the cached unit-rate model; rescaling changes neither the mass, the
    sign of an eigenvalue nor monotonicity, so it needs no second
    validation.
    """
    _check_cme_order(K)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    unit = _cme_unit(K)
    scale = unit.mean() / delta  # time rescale X -> X * delta/mean
    return MEDistribution(init=unit.init, subgen=unit.subgen * scale,
                          exit=unit.exit * scale, order=unit.order,
                          eigenvalues=unit.eigenvalues * scale)
