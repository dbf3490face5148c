"""Honest inter-mining time models under time-varying hashrate.

The effective honest mining rate after a block is a piecewise-constant
function of elapsed time: fraction ``fractions[i]`` of the full rate on
``[thresholds[i], thresholds[i+1])`` and the full rate beyond the last
threshold.  Zero delay is the profile with no segment and a fixed delay d
the profile with one segment [0, d) that does not mine.  The inter-mining
time is an ME distribution with a block-bidiagonal subgenerator: each
segment length is replaced by a concentrated ME approximation shifted by
the segment's mining rate, chained into a final exponential phase at full
rate.  A profile's distribution solves ``T - sI`` segment by segment, with
no factorization, on the e_1-basis pieces of the mean-one CME that
:mod:`powruin.medist` owns (order 1 for the zero profile), and builds its
dense ``T`` only when the density or distribution function asks for it.
A random ME delay is chained into the full-rate phase as a general ME and
solves by its dense inverse.

A profile's theta computes its mean in closed form, in O(N K) from the
same pieces, when it is built.  Calibration rescales the single full-rate
scalar, by one fixed-point step on the mean time after the profile's dead
time and then secant steps, until that mean equals the protocol block
interval; the iterates rise monotonically to the root, so no bracketing
fallback is needed.  Each iterate builds the profile at its rate and that
profile's theta, and the last iterate's theta, validated once, is the
calibrated one.  A
profile builds its inverse segment lengths and rate fractions as arrays
once, and its copies at other full rates carry them.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .medist import MEDistribution, _cme_unit, _entry_means, _validated, cme

__all__ = [
    "HashrateProfile", "CalibrationResult", "assemble_theta",
    "zero_delay_theta", "fixed_delay_theta", "random_delay_theta",
    "calibrate_alpha",
]

_MAX_ITER = 200  # calibrate_alpha gives up after this many iterates


def _check_fullrate(rate) -> None:
    if not 0 < rate < np.inf:
        raise ValueError("fullrate must be positive and finite")


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
        _check_fullrate(self.fullrate)

    @property
    def n_segments(self) -> int:
        return len(self.fractions)

    @property
    def segment_lengths(self) -> tuple:
        return tuple(b - a for a, b in zip(self.thresholds, self.thresholds[1:]))

    @property
    def max_delay(self) -> float:
        return self.thresholds[-1]

    @cached_property
    def _segment_arrays(self):
        """The inverse segment lengths delta_i and the rate fractions, as
        read-only arrays built once; :meth:`with_fullrate`'s copy carries
        them."""
        delta, fractions = 1.0 / np.diff(self.thresholds), np.array(self.fractions)
        delta.flags.writeable = fractions.flags.writeable = False
        return delta, fractions

    def with_fullrate(self, rate: float) -> "HashrateProfile":
        """This profile at full rate ``rate``; only the new rate is checked."""
        _check_fullrate(rate)
        profile = copy(self)
        object.__setattr__(profile, "fullrate", rate)
        return profile

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

        def number(token):
            try:
                return float(token)
            except ValueError:
                raise ValueError(f"line {lineno}: cannot parse number "
                                 f"{token.strip()!r}") from None

        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "fullrate_bps" in line:
                    fullrate = number(line.partition("=")[2])
                continue
            if line.startswith("threshold_s"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'threshold,fraction'")
            thresholds.append(number(parts[0]))
            fractions.append(number(parts[1]))
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
    T = np.block([[delay_dist.subgen, delay_dist.exit[:, None]],
                  [np.zeros(delay_dist.order), -alpha]])
    v = np.append(delay_dist.init, 0.0)
    return _validated(MEDistribution(v, T))


class _ProfileTheta(MEDistribution):
    """Inter-mining time of a profile, solved segment by segment.

    Segment i has the diagonal block M_i = delta_i U - r_i I, with U the
    mean-one CME subgenerator, delta_i the inverse segment length and r_i
    the segment's mining rate; its exit column delta_i h_U feeds the first
    entry of segment i + 1, or the final phase at full rate alpha.  U is
    read as medist's e_1-basis pieces (d, rho, a, b).  Block i's eigenvalues
    are delta_i lambda_U - r_i, with Re lambda_U < 0, and the last phase's is
    -alpha, so the spectrum is stable by construction and not stored.  Every
    solve with T - sI is exact substitution in O(N K): 2x2 rotation solves
    (one complex division per pair), one matrix-vector product for the
    dense first rows of all blocks, and a scalar recurrence over the
    segments through the coupling column.  That block algebra is written
    once (:meth:`_shifted`); :meth:`solver` and Phi's stepping
    (:meth:`_phi_masses`) share it, and Phi is stepped in the same layout
    (first entries, rotation pairs, full-rate phase) without forming a
    whole solution vector per mass.

    The constructor computes the mean in closed form, in O(N K) from the
    same pieces, and stores it, shadowing the cached mean, so that
    :meth:`MEDistribution.mean` returns it.  Once entered, segment i takes
    a mean time tau_i = e_1^T (r_i I - delta_i U)^{-1} 1 of theta
    (:func:`powruin.medist._entry_means`, the formula that also scales U
    to mean one) and is left without mining with probability 1 - r_i
    tau_i, so with S_1 = 1 and S_{i+1} = S_i (1 - r_i tau_i) the mean is
    sum_i S_i tau_i + S_{N+1} / alpha.  It reads the profile's segment
    arrays and the cached unit CME and computes nothing else that is
    costly: calibration builds one theta per iterate.  The constructor
    assigns the attributes directly and, unlike
    :class:`MEDistribution`'s, builds no ``T``: the dense ``subgen`` is a
    ``cached_property``, placed block by block on first access only.
    """

    def __init__(self, profile: HashrateProfile, K: int):
        alpha = profile.fullrate
        unit = _cme_unit(K if profile.n_segments else 1)
        delta, fractions = profile._segment_arrays
        K = len(unit[1]) + 1
        rates = fractions * alpha
        self.order = len(delta) * K + 1
        self.init = np.eye(1, self.order)[0]
        self.exit = np.append(np.repeat(rates, K), alpha)
        self._K, self._delta, self._rates, self._alpha, self._unit = (
            K, delta, rates, alpha, unit)
        tau = _entry_means(unit, delta, rates)
        passed = np.cumprod(np.append(1.0, 1.0 - rates * tau))
        self._mean = float(passed[:-1] @ tau + passed[-1] / alpha)

    @cached_property
    def subgen(self):
        """The e_1-basis subgenerator, block-bidiagonal."""
        K, n = self._K, len(self._delta) * self._K
        T = np.zeros((self.order, self.order))
        T[n, n] = -self._alpha
        if n:
            unit = cme(K, 1.0)
            for i, (delta, rate) in enumerate(zip(self._delta, self._rates)):
                rows = slice(i * K, (i + 1) * K)
                T[rows, rows] = delta * unit.subgen - rate * np.eye(K)
                # the exit column feeds the next entry: the first of the
                # next segment, since the CME starts in e_1, or the last phase
                T[rows, (i + 1) * K] = delta * unit.exit
        return T

    def _shifted(self, s: float):
        """The block algebra of T - sI, shared by every solve: p0, the
        inverse rotations, pf and ``couple``; ``ValueError`` when T - sI is
        singular.

        Per segment, with c = r + s, p0 = delta d - c is the first diagonal
        entry and each rotation pair, read as one complex number, is
        divided by (delta a_j - c) - i delta b_j; pf = -alpha - s is the
        full-rate phase.  A right-hand side y enters ``couple`` as head =
        y_i[0] / p0_i and up, its pairs times the inverse rotations, with
        the full-rate phase's entry ``last``.  Block i's solution is
        u_i - t_{i+1} w_i, with u_i = M_i^{-1} y_i, w_i = delta_i M_i^{-1}
        h_U and t_{i+1} the first entry of the next block, so the first
        entries follow t_i = u_i[0] - g_i t_{i+1} with g_i = w_i[0],
        backwards from t_N = ``last``.  ``couple`` returns t_0..t_N and
        leaves the solution's pairs in ``up``.
        """
        d, rho, a, b = self._unit
        delta = self._delta[:, None]
        c = self._rates[:, None] + s
        p0 = delta[:, 0] * d - c[:, 0]
        rot = delta * (a - 1j * b) - c
        pf = -self._alpha - s
        if pf == 0 or not (p0.all() and rot.all()):
            raise ValueError(f"T - sI singular at s={s}")
        inv, e = 1.0 / rot, delta[:, 0] / p0
        # delta h_U = -delta U 1 = -(M + cI) 1, so w = M^{-1} delta h_U is
        # -1 - c M^{-1} 1: no cancellation in the exit column
        ones = (1 + 1j) * inv
        g = (-1.0 - c[:, 0] * (1.0 / p0 - e * (ones.view(float) @ rho))
             ).tolist()
        w = -(1 + 1j) - c * ones

        def couple(head, up, last):
            u = (head - e * (up.view(float) @ rho)).tolist()
            t = np.empty(len(u) + 1)
            out = memoryview(t)
            out[-1] = x = last
            # multiplies only, so it stays finite where the product of the
            # g_i underflows; on Python floats, as NumPy scalars are slower,
            # written into t through a memoryview
            for i in range(len(u) - 1, -1, -1):
                out[i] = x = u[i] - g[i] * x
            up -= t[1:, None] * w
            return t
        return p0, inv, pf, couple

    def solver(self, s: float = 0.0):
        """The function b -> (T - sI)^{-1} b, by substitution over segments
        (see :meth:`_shifted`)."""
        p0, inv, pf, couple = self._shifted(s)
        N, K = len(p0), self._K

        def solve(rhs):
            rhs = np.ascontiguousarray(rhs, dtype=float)
            out = np.empty(N * K + 1)
            x, y = out[:-1].reshape(N, K), rhs[:-1].reshape(N, K)
            up = x[:, 1:].view(complex)
            np.multiply(y[:, 1:].view(complex), inv, out=up)
            t = couple(y[:, 0] / p0, up, float(rhs[-1] / pf))
            x[:, 0], out[-1] = t[:-1], t[-1]
            return out
        return solve

    def _phi_masses(self, beta: float, k: int) -> np.ndarray:
        """Phi's first k masses, stepping x_{n+1} = -beta (T - beta I)^{-1}
        x_n from x_0 = (T - beta I)^{-1} h in the segment layout.

        The state is x_n's first entries t, its rotation pairs as one
        complex (N, (K - 1)/2) array and its full-rate phase, whose x_n =
        (alpha / pf)(-beta / pf)^n is closed form; p(n) = -t_0.  h is r_i
        on every entry of segment i.  -beta is folded into the multipliers
        that divide the next right-hand side by the diagonal: -beta / p0
        for the first entries and -beta times the inverse rotations for
        the pairs.
        """
        p0, inv, pf, couple = self._shifted(beta)
        last = (self._alpha / pf * (-beta / pf) ** np.arange(k)).tolist()
        head = self._rates / p0
        up = (1 + 1j) * self._rates[:, None] * inv
        m0, mul, masses = -beta / p0, -beta * inv, np.empty(k)
        for n in range(k):
            t = couple(head, up, last[n])
            masses[n] = -t[0]
            head = m0 * t[:-1]
            up *= mul
        return masses


def assemble_theta(profile: HashrateProfile, K: int) -> MEDistribution:
    """Inter-mining time ME distribution of order N*K + 1 for a profile.

    With no segment (N = 0) it is the exponential at full rate, for any K.
    Each segment i contributes a CME[K, delta_i] block shifted by the
    segment mining rate; consecutive blocks couple through the CME's exit
    column, since its initial vector is e_1, and the final scalar phase
    mines at full rate.  The blocks come from the mean-one CME, whose
    time-rescaled copies they are.  The result solves segment by segment
    (see :class:`_ProfileTheta`) and is checked like any derived model:
    mass, mean and mgf(0).
    """
    return _validated(_ProfileTheta(profile, K))


def calibrate_alpha(profile: HashrateProfile, block_interval: float, K: int,
                    rel_tol: float = 1e-6) -> CalibrationResult:
    """Find the full rate making the model mean equal the block interval.

    The model mean exceeds the profile's dead time D (where its first
    mining segment starts) and tends to it as alpha grows, so a root exists
    exactly when D is below the block interval T; otherwise this raises
    ``ValueError``.  The first iterate, 1/(T - D), lies below the root and
    is a fixed delay's root 1/(T - d).  One fixed-point step on the time
    after the dead time, alpha <- alpha * (mean - D)/(T - D), follows; it
    stays below the root, since nondecreasing fractions make
    alpha * E[theta - D] nondecreasing in alpha.  Every later step follows
    the secant through the last two iterates.  The mean is decreasing and
    convex in alpha, so the secant's slope is at most the derivative at the
    newer iterate: the step is no longer than Newton's, which never
    overshoots from below, and the iterates rise with no bracketing
    fallback.  The loop stops within ``rel_tol`` of T (relative; every
    analysis uses the default).  It raises ``RuntimeError`` after
    ``_MAX_ITER`` iterates, or at once when a mean does not fall, as where
    rounding stalls the steps.  Each iterate builds the theta of the
    profile at its rate, whose constructor computes the closed-form mean
    and no solver; the result carries the last iterate's theta, validated
    once, and its mean.
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

    # the segment arrays are built here once, so that every copy carries them
    profile._segment_arrays
    alpha = 1.0 / (target - dead)
    trace = []
    for it in range(1, _MAX_ITER + 1):
        theta = _ProfileTheta(profile.with_fullrate(alpha), K)
        mean = theta.mean()
        trace.append((alpha, mean))
        if abs(mean - target) / target <= rel_tol:
            return CalibrationResult(alpha, mean, it, True, _validated(theta),
                                     tuple(trace))
        if it == 1:
            alpha = alpha * (mean - dead) / (target - dead)
        elif mean < trace[-2][1]:
            alpha0, mean0 = trace[-2]
            alpha += (target - mean) * (alpha - alpha0) / (mean - mean0)
        else:  # the mean did not fall, as where rounding stalls the steps
            break
    raise RuntimeError(
        f"calibration did not converge in {it} iterations; last "
        f"alpha={trace[-1][0]!r}, mean={trace[-1][1]!r}")
