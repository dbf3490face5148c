"""Matrix-exponential (ME) distributions.

An ME distribution of order ``m`` is characterized by a row vector ``v``
(``init``), an m-by-m matrix ``T`` (``subgen``) whose eigenvalues all have
negative real part, and the exit column vector ``h = -T 1``.  Density and
distribution function are

    f(x) = -v expm(T x) T 1,        F(x) = 1 - v expm(T x) 1,

and the moment generating function is the rational function
``M(s) = -v (sI + T)^{-1} h``.

:class:`MEDistribution` is a plain class built by one constructor from
``init`` and ``T``; it adds the exit vector and the order.  Its
attributes are read-only by convention, its solver of ``T`` and its mean
are cached with ``functools.cached_property``, and instances compare and
hash by identity.  Every distribution holds ``T`` as a dense array and
no spectrum: only :func:`make_me`, which takes outside input, computes
one, and every derived model's is stable by construction.  The mean, the
squared coefficient of variation, the mgf and the adversary count Phi all
solve through one method, :meth:`MEDistribution.solver`, which returns the
solve function of ``T - sI``; a profile's theta steps Phi in its own
layout instead, and its constructor computes and stores its mean in
closed form, shadowing the cached one, so that calibration builds one
such theta per iterate and solves nothing.  A general distribution inverts
``T - sI`` once and multiplies by the inverse; the inter-mining time of a
hashrate profile (:func:`powruin.delaymodel.assemble_theta`) solves
segment by segment without a factorization and builds ``T`` only on
first access.  Only the density and distribution function need SciPy,
for ``expm``, and import it on first use; one routine steps ``v expm(T x)``
over an equispaced grid for both.

Two families approximating a deterministic value ``delta`` are provided:

* :func:`erlang_me` -- Erlang-K chain, squared coefficient of variation 1/K;
* :func:`cme` -- a concentrated ME family with density
  ``c exp(-lam x) prod_i cos^2((omega x - phi_i)/2)`` for odd K up to 51,
  whose frequency and phases (squared coefficient of variation roughly
  2/K^2) are read from the table in :mod:`powruin._cmetable`.  This module
  alone knows the CME's layout: it builds, once per K, the mean-one CME's
  e_1-basis pieces that a profile's segment solve reads, and :func:`cme`
  places them, scaled to the requested mean, into a dense matrix.
  ``tools/make_cme_table.py`` regenerates the table by numerical search.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from ._cmetable import CME_UNIT

_EIG_TOL = 1e-8

__all__ = ["MEDistribution", "make_me", "erlang_me", "cme"]


class MEValidationError(ValueError):
    """Raised when (init, subgen) do not define a valid ME distribution."""


class MEDistribution:
    """A validated matrix-exponential distribution.

    Built from ``init`` and the dense ``subgen``; the constructor adds
    ``exit`` and ``order``.  Its attributes are read-only by convention:
    nothing assigns them after construction.  The solver of T and the mean
    are cached on first use (``functools.cached_property``), and instances
    compare and hash by identity.  Use :func:`make_me` rather than
    instantiating directly.
    """

    def __init__(self, init, subgen):
        self.init = init
        self.subgen = subgen
        self.exit = -(subgen @ np.ones(len(init)))
        self.order = len(init)

    # -- solves --------------------------------------------------------------

    def solver(self, s: float = 0.0):
        """The function b -> (T - sI)^{-1} b.

        Here the product with the dense inverse of ``subgen - sI``, one
        factorization per solver; a singular matrix raises ``ValueError``.
        """
        try:
            inv = np.linalg.inv(self.subgen - s * np.eye(self.order))
        except np.linalg.LinAlgError:
            raise ValueError(f"T - sI singular at s={s}") from None
        return inv.dot

    @cached_property
    def _solve_T(self):
        """Solve T x = b: the solver of T, made once and cached."""
        return self.solver()

    def _phi_masses(self, beta: float, k: int) -> np.ndarray:
        """The first k masses of the Poisson(beta) count over this
        distribution, by forward solves (see :mod:`powruin.phi`): from
        y_0 = h, x_n = (T - beta I)^{-1} y_n, p(n) = -v x_n and
        y_{n+1} = -beta x_n."""
        solve, y, masses = self.solver(beta), self.exit, np.empty(k)
        for n in range(k):
            x = solve(y)
            masses[n], y = -(self.init @ x), -beta * x
        return masses

    # -- evaluation --------------------------------------------------------

    def pdf(self, x: float) -> float:
        """Density -v expm(Tx) T 1 at x >= 0."""
        return float(self._stepped([x])[0])

    def cdf(self, x: float) -> float:
        """Distribution function 1 - v expm(Tx) 1 at x >= 0, clamped to [0,1]."""
        return float(self._stepped([x], cdf=True)[0])

    def pdf_grid(self, xs: np.ndarray) -> np.ndarray:
        """Density on an equispaced ascending grid of two or more x >= 0."""
        if np.ndim(xs) != 1 or len(xs) < 2:
            raise ValueError("need a 1-d grid with at least two points")
        return self._stepped(xs)

    def _stepped(self, xs, cdf: bool = False) -> np.ndarray:
        """The density, or with ``cdf`` the distribution function, on an
        equispaced ascending grid of finite x >= 0.

        v expm(T x) takes one expm at the first point and steps by one expm
        of the spacing.  A density below -1e-9, or a distribution function
        more than 1e-9 outside [0, 1], raises :class:`MEValidationError`;
        nearer values are clamped.
        """
        xs = np.asarray(xs, dtype=float)
        steps = np.diff(xs)
        if not (np.all(np.isfinite(xs)) and xs[0] >= 0 and np.all(steps > 0)
                and np.allclose(steps, steps[:1], rtol=1e-9)):
            raise ValueError(
                f"need finite x >= 0 on an equispaced ascending grid, got {xs}")
        w = self.init @ _expm(self.subgen * xs[0])
        step = _expm(self.subgen * steps[0]) if len(steps) else None
        out = np.empty(len(xs))
        for i in range(len(xs)):
            out[i] = 1.0 - w.sum() if cdf else w @ self.exit
            w = w @ step if i < len(steps) else w
        bad = (out < -1e-9) | (out > (1 + 1e-9 if cdf else np.inf))
        if bad.any():
            val, x = out[bad][0], xs[bad][0]
            raise MEValidationError(f"cdf value {val} out of range at x={x}"
                                    if cdf else
                                    f"negative density {val} at x={x}")
        return np.clip(out, 0.0, 1.0) if cdf else np.maximum(out, 0.0)

    def mgf(self, s: float) -> float:
        """Moment generating function -v (sI + T)^{-1} h.

        The caller must supply ``s`` inside the convergence region (to the
        left of the spectral abscissa of -T).
        """
        return -float(self.init @ self.solver(-s)(self.exit))

    @cached_property
    def _mean(self) -> float:
        return -float(self.init @ self._solve_T(np.ones(self.order)))

    def mean(self) -> float:
        """First moment -v T^{-1} 1, solved once and cached (a profile's
        theta stores its closed-form mean when it is built)."""
        return self._mean

    def scv(self) -> float:
        """Squared coefficient of variation, var/mean^2.

        Second moment is 2 v T^{-2} 1, obtained with two linear solves.
        """
        x = self._solve_T(np.ones(self.order))
        m2 = 2.0 * float(self.init @ self._solve_T(x))
        m1 = self.mean()
        return m2 / m1**2 - 1.0


def _expm(a):
    """``scipy.linalg.expm``, imported on first use: the solves need no SciPy."""
    from scipy.linalg import expm
    return expm(a)


def _validated(d: MEDistribution) -> MEDistribution:
    """Check the initial mass, the mean and mgf(0) of ``d``.

    Unless stored already, the mean solves through the one cached solver of
    T, as mgf(0) = -v T^{-1} h does, and stays cached.  The Erlang and the
    unit CME, nonnegative by construction, and models derived from
    validated ones (chained, shifted or rescaled) come here directly: their
    spectra are stable by construction, so none is computed.  Outside input
    goes through :func:`make_me`, which computes its spectrum.
    """
    mass = float(d.init.sum())
    if abs(mass - 1.0) > 1e-10:
        raise MEValidationError(f"init mass {mass} != 1")
    mu = d.mean()
    if not (mu > 0 and math.isfinite(mu)):
        raise MEValidationError(f"mean {mu} not strictly positive and finite")
    if abs(-float(d.init @ d._solve_T(d.exit)) - 1.0) > 1e-10:
        raise MEValidationError("mgf(0) != 1")
    return d


def make_me(init, subgen) -> MEDistribution:
    """Validate (init, subgen) and build an :class:`MEDistribution`.

    The spectrum is computed by a dense eigensolver, here only.  Raises
    :class:`MEValidationError` on dimension mismatch, initial mass different
    from one, a subgenerator eigenvalue with nonnegative real part, a
    nonpositive mean, mgf(0) different from one, or a distribution function
    that decreases on a grid up to five means.
    """
    v = np.array(init, dtype=float, ndmin=1).ravel()
    T = np.array(subgen, dtype=float, ndmin=2)
    m = len(v)
    if T.shape != (m, m):
        raise MEValidationError(
            f"dimension mismatch: init has length {m}, subgen is {T.shape}")
    worst = float(np.max(np.linalg.eigvals(T).real))
    if worst >= -_EIG_TOL:
        raise MEValidationError(
            f"subgenerator eigenvalue with real part {worst} >= -{_EIG_TOL}")
    d = _validated(MEDistribution(v, T))
    F = d._stepped(np.linspace(0.0, 5.0 * d.mean(), 16), cdf=True)
    if np.any(np.diff(F) < -1e-9):
        raise MEValidationError("cdf not nondecreasing on check grid")
    return d


def erlang_me(K: int, delta: float) -> MEDistribution:
    """Erlang-K approximation of the deterministic value ``delta``.

    Mean is exactly ``delta``; the squared coefficient of variation is 1/K.
    """
    if K < 1 or K != int(K):
        raise ValueError(f"K must be a positive integer, got {K}")
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    K = int(K)
    T = K / delta * (np.diag(-np.ones(K)) + np.diag(np.ones(K - 1), 1))
    v = np.zeros(K)
    v[0] = 1.0
    return _validated(MEDistribution(v, T))


# -- concentrated ME construction ------------------------------------------


def _cosine_harmonics(phases):
    """Laurent coefficients of prod_i (1 + cos(w x - phi_i)) in e^{iwx}."""
    coeffs = np.array([1.0 + 0j])
    for phi in phases:
        factor = np.array([np.exp(1j * phi) / 2, 1.0, np.exp(-1j * phi) / 2])
        coeffs = np.convolve(coeffs, factor)
    return coeffs  # coeffs[j + n] multiplies e^{i j w x}


def _cme_pieces(omega, phases):
    """The mean-one concentrated ME of order 2 len(phases) + 1, as pieces.

    In the basis where its initial vector is e_1 the subgenerator U has a
    dense first row (U[0, 0] = d, U[0, 1:] = rho) and, below it, n =
    len(phases) independent rotation blocks [[a_j, b_j], [-b_j, a_j]] on
    rows and columns 2j - 1, 2j, whose eigenvalues a_j +- i b_j, with d,
    are U's spectrum.  Returns (d, rho, a, b): the unit-rate pieces times
    their mean, which :func:`_entry_means` gives at delta = 1 and r = 0,
    the formula a profile's mean reads.  A chain of CME blocks in this
    basis hands its exit mass on through one column, not a dense exit-init
    product, whose rounding left the Phi masses of the criterion-10 model
    6e-11 off a long-double solve.
    """
    n = len(phases)
    c = _cosine_harmonics(phases)[n:] / 2**n
    w = omega * np.arange(1, n + 1)
    # At unit rate f(x) = e^{-x} (c_0 + sum_j 2 Re(c_j e^{ijwx})).  Over the
    # rotation blocks [[-1, w_j], [-w_j, -1]] the initial vector has v_0 =
    # c_0 and, read as one complex number, the pair v_{2j-1} + i v_{2j} =
    # (1 + i) c_j / (1 - i w_j).  Moving v, normalized, to e_1 keeps the
    # blocks and turns row 0 into (-1, ..., i w_j (v_{2j-1} + i v_{2j}), ...).
    pairs = (1 + 1j) * c[1:] / (1 - 1j * w)
    mass = c[0].real + pairs.real.sum() + pairs.imag.sum()
    rho = (1j * w * pairs / mass).view(float)
    unit_rate = (-1.0, rho, np.full(n, -1.0), w)
    mean = _entry_means(unit_rate, np.ones(1), np.zeros(1))[0]
    return tuple(piece * mean for piece in unit_rate)


def _entry_means(pieces, delta, rates):
    """tau_i = e_1^T (r_i I - delta_i U)^{-1} 1, the mean time in the block
    delta_i U - r_i I entered in e_1, from U's pieces (d, rho, a, b).

    One complex division per rotation block, then row 0; at delta = 1 and
    r = 0 it is the mean of U itself.
    """
    d, rho, a, b = pieces
    pairs = (1 + 1j) / (rates[:, None] - delta[:, None] * (a - 1j * b))
    row0 = pairs.view(float) @ rho  # Re sum_j conj(rho_j) pair_j
    return (1.0 + delta * row0) / (rates - delta * d)


def _placed(pieces, delta) -> MEDistribution:
    """The dense CME with subgenerator U / delta from its e_1-basis pieces."""
    d, rho, a, b = pieces
    K = len(rho) + 1
    U = np.zeros((K, K))
    U[0, 0], U[0, 1:] = d, rho
    i = np.arange(1, K, 2)
    U[i, i] = U[i + 1, i + 1] = a
    U[i, i + 1], U[i + 1, i] = b, -b
    return MEDistribution(np.eye(1, K)[0], U / delta)


def _cme_from_params(omega, phases) -> MEDistribution:
    """The dense mean-one concentrated ME of order 2 len(phases) + 1."""
    return _placed(_cme_pieces(omega, phases), 1.0)


@lru_cache(maxsize=None)
def _cme_unit(K: int):
    """The mean-one CME[K]'s pieces, checked once; refuses an untabled K."""
    _check_cme_order(K)
    pieces = _cme_pieces(*CME_UNIT[K])
    _validated(_placed(pieces, 1.0))
    return pieces


def _check_cme_order(K) -> None:
    """Refuse an order K that has no row in the CME table."""
    if K not in CME_UNIT:
        raise ValueError(f"K must be an odd integer from 1 to "
                         f"{max(CME_UNIT)}, got {K!r}")


def cme(K: int, delta: float) -> MEDistribution:
    """Concentrated ME approximation of the deterministic value ``delta``.

    ``K`` must be one of the tabulated orders, an odd integer from 1 to
    51; the order-K family achieves scv on the order of 2/K^2, and K=1 is
    the exponential distribution.  The result places the cached mean-one
    pieces, divided by ``delta``, into a dense matrix; rescaling time
    changes neither the mass, the sign of an eigenvalue nor monotonicity,
    so it needs no second validation.
    """
    unit = _cme_unit(K)
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    return _placed(unit, delta)
