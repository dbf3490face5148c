import numpy as np
import pytest
from numpy.testing import assert_allclose

from powruin import delaymodel
from powruin.delaymodel import (HashrateProfile, assemble_theta,
                                calibrate_alpha, fixed_delay_theta,
                                random_delay_theta, zero_delay_theta)
from powruin.medist import cme, erlang_me

ALPHA = 1 / 600


def test_profile_validation():
    with pytest.raises(ValueError):
        HashrateProfile((1.0, 2.0), (0.5,), ALPHA)  # must start at 0
    with pytest.raises(ValueError):
        HashrateProfile((0.0, 2.0, 1.0), (0.1, 0.2), ALPHA)
    with pytest.raises(ValueError):
        HashrateProfile((0.0, 1.0, 2.0), (0.5, 0.2), ALPHA)  # decreasing
    with pytest.raises(ValueError):
        HashrateProfile((0.0, 1.0), (1.5,), ALPHA)
    with pytest.raises(ValueError):
        HashrateProfile((0.0, 1.0), (0.5,), 0.0)
    with pytest.raises(ValueError, match="one fraction per segment"):
        HashrateProfile((0.0, 1.0, 2.0), (0.5,), ALPHA)


def test_with_fullrate_checks_only_the_new_rate(monkeypatch):
    p = HashrateProfile((0.0, 2.0, 5.0), (0.0, 0.4), ALPHA)
    expected = HashrateProfile(p.thresholds, p.fractions, 0.5)

    def no_checks(self):
        raise AssertionError("a validated profile is not checked again")
    monkeypatch.setattr(HashrateProfile, "__post_init__", no_checks)
    assert p.with_fullrate(0.5) == expected
    assert p.fullrate == ALPHA
    for rate in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="fullrate must be positive"):
            p.with_fullrate(rate)


@pytest.mark.parametrize("thresholds, fractions, fullrate, field", [
    ((0.0, np.nan), (0.5,), ALPHA, "thresholds"),
    ((0.0, 1.0, np.nan), (0.0, 0.5), ALPHA, "thresholds"),
    ((0.0, np.inf), (0.5,), ALPHA, "thresholds"),
    ((0.0, 1.0), (np.nan,), ALPHA, "fractions"),
    ((0.0, 1.0), (0.5,), np.inf, "fullrate"),
    ((0.0, 1.0), (0.5,), np.nan, "fullrate"),
])
def test_profile_rejects_non_finite(thresholds, fractions, fullrate, field):
    with pytest.raises(ValueError, match=field):
        HashrateProfile(thresholds, fractions, fullrate)


def test_zero_and_fixed_delay_profiles():
    zero = HashrateProfile.zero_delay(ALPHA)
    assert zero.thresholds == (0.0,) and zero.fractions == ()
    assert zero.n_segments == 0 and zero.max_delay == 0.0
    assert HashrateProfile.fixed_delay(0.0, ALPHA) == zero
    fixed = HashrateProfile.fixed_delay(10.0, ALPHA)
    assert fixed.thresholds == (0.0, 10.0) and fixed.fractions == (0.0,)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="delay"):
            HashrateProfile.fixed_delay(bad, ALPHA)


def test_zero_profile_table_roundtrip():
    p = HashrateProfile.zero_delay(ALPHA)
    assert HashrateProfile.from_table(p.to_table()) == p


def test_profile_table_roundtrip():
    p = HashrateProfile((0.0, 0.001, 1.5, 3.5), (0.0, 0.2, 0.6), ALPHA)
    q = HashrateProfile.from_table(p.to_table())
    assert q == p


@pytest.mark.parametrize("text, message", [
    ("# fullrate_bps = 1.0\n1.0,0.0\nfive,0.4\n",
     "line 3: cannot parse number 'five'"),
    ("# fullrate_bps = 1.0\nthreshold_s,cum_fraction\n1.0,0.x\n",
     "line 3: cannot parse number '0.x'"),
    ("# fullrate_bps = fast\n1.0,0.0\n", "line 1: cannot parse number 'fast'"),
    ("# fullrate_bps = 1.0\n1.0\n", "line 2: expected 'threshold,fraction'"),
])
def test_profile_table_names_the_bad_line(text, message):
    with pytest.raises(ValueError) as info:
        HashrateProfile.from_table(text)
    assert str(info.value) == message


def test_zero_delay_theta():
    d = zero_delay_theta(ALPHA)
    assert_allclose(d.mean(), 600.0)
    for s in (-0.01, -1e-3):
        assert_allclose(d.mgf(s), ALPHA / (ALPHA - s), rtol=1e-12)
    xs = np.linspace(0, 2000, 9)
    for x in xs:
        assert_allclose(d.cdf(x), 1 - np.exp(-ALPHA * x), atol=1e-10)
    with pytest.raises(ValueError):
        zero_delay_theta(-1.0)


def test_fixed_delay_theta_mean():
    d = fixed_delay_theta(10.0, 1 / 590, 27)
    assert d.order == 28
    assert_allclose(d.mean(), 600.0, rtol=1e-9)


@pytest.mark.parametrize("K", [1, 4, 27])
def test_assemble_zero_profile_is_zero_delay_theta(K, monkeypatch):
    def no_cme(*args):
        raise AssertionError("the zero profile builds no CME")
    orders = []
    unit = delaymodel._cme_unit
    monkeypatch.setattr("powruin.delaymodel.cme", no_cme)
    monkeypatch.setattr("powruin.delaymodel._cme_unit",
                        lambda K: orders.append(K) or unit(K))
    a = assemble_theta(HashrateProfile.zero_delay(ALPHA), K)
    b = zero_delay_theta(ALPHA)
    assert a.order == b.order == 1
    assert np.array_equal(a.init, b.init)
    assert np.array_equal(a.subgen, b.subgen)
    assert np.array_equal(a.exit, b.exit)
    assert set(orders) == {1}


def test_fixed_delay_theta_is_assembled_profile():
    a = fixed_delay_theta(10.0, 1 / 590, 9)
    b = assemble_theta(HashrateProfile.fixed_delay(10.0, 1 / 590), 9)
    assert np.array_equal(a.subgen, b.subgen)
    assert np.array_equal(a.init, b.init)


def test_fixed_delay_degenerate():
    d = fixed_delay_theta(0.0, ALPHA, 27)
    assert d.order == 1
    assert_allclose(d.mean(), 600.0)


def test_fixed_delay_mgf_against_shifted_exponential():
    delay, alpha = 10.0, 1 / 590
    d = fixed_delay_theta(delay, alpha, 27)
    for s in (-0.01, -0.001):
        exact = np.exp(delay * s) * alpha / (alpha - s)
        assert_allclose(d.mgf(s), exact, rtol=1e-3)


def test_random_delay_theta_mean():
    dd = erlang_me(2, 1.0)  # the E2(1) delay case
    d = random_delay_theta(dd, ALPHA)
    assert_allclose(d.mean(), 1.0 + 600.0, rtol=1e-10)


def test_assemble_matches_exponential_delay_reduction():
    # N=1, zero fraction, K=1, segment generator -mu reduces to the
    # exponentially-distributed-delay model chained into exp(alpha)
    mu = 0.1
    prof = HashrateProfile((0.0, 1 / mu), (0.0,), ALPHA)
    assembled = assemble_theta(prof, 1)
    direct = random_delay_theta(erlang_me(1, 1 / mu), ALPHA)
    for s in (-0.05, -0.01, -0.001):
        expect = mu * ALPHA / ((mu - s) * (ALPHA - s))
        assert_allclose(assembled.mgf(s), expect, rtol=1e-12)
        assert_allclose(direct.mgf(s), expect, rtol=1e-12)


def test_assemble_order_identity():
    prof = HashrateProfile((0.0, 1.0, 3.0, 7.0), (0.0, 0.3, 0.6), ALPHA)
    for K in (1, 3, 9):
        assert assemble_theta(prof, K).order == 3 * K + 1


def test_assemble_mean_consistency():
    prof = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), ALPHA)
    theta = assemble_theta(prof, 9)
    # independent check: mgf slope at 0 equals the mean
    h = 1e-7
    slope = (theta.mgf(h) - theta.mgf(-h)) / (2 * h)
    assert_allclose(slope, theta.mean(), rtol=1e-5)


def test_assemble_rejects_even_K():
    prof = HashrateProfile((0.0, 1.0), (0.0,), ALPHA)
    with pytest.raises(ValueError):
        assemble_theta(prof, 4)


def test_calibrate_zero_delay_immediate():
    prof = HashrateProfile.zero_delay(1.0)
    res = calibrate_alpha(prof, 600.0, 27)
    assert res.converged
    assert res.iterations <= 2
    assert_allclose(res.calibrated_rate, 1 / 600, rtol=1e-6)


def test_calibrate_fixed_delay():
    prof = HashrateProfile.fixed_delay(10.0, 1.0)
    res = calibrate_alpha(prof, 600.0, 27, rel_tol=1e-8)
    assert res.converged
    assert abs(res.achieved_mean - 600.0) / 600.0 <= 1e-8
    assert_allclose(res.calibrated_rate, 1 / 590, rtol=1e-6)


def test_calibrate_congested_profile_exceeds_nominal_rate():
    prof = HashrateProfile((0.0, 30.0, 90.0, 200.0), (0.0, 0.2, 0.5), 1.0)
    res = calibrate_alpha(prof, 600.0, 9)
    assert res.converged
    assert res.calibrated_rate > 1 / 600


def test_calibrate_monotone_in_thresholds():
    rates = []
    for scale in (1.0, 2.0, 4.0):
        prof = HashrateProfile((0.0, 5.0 * scale, 15.0 * scale),
                               (0.0, 0.5), 1.0)
        rates.append(calibrate_alpha(prof, 600.0, 9).calibrated_rate)
    assert rates[0] <= rates[1] <= rates[2]


@pytest.mark.parametrize("profile", [
    HashrateProfile.fixed_delay(700.0, 1.0),
    HashrateProfile.fixed_delay(600.0, 1.0),
    HashrateProfile((0.0, 700.0, 800.0), (0.0, 0.5), 1.0),
    HashrateProfile((0.0, 300.0, 650.0), (0.0, 0.0), 1.0),
])
def test_calibrate_rejects_dead_time_not_below_interval(profile):
    with pytest.raises(ValueError, match="not below the block interval"):
        calibrate_alpha(profile, 600.0, 5)


@pytest.mark.parametrize("first_mining", [550.0, 590.0])
def test_calibrate_just_below_dead_time_limit(first_mining):
    # the first mining segment starts close below T = 600 s: the root lies
    # above 10/T, outside any bracket around 1/T
    prof = HashrateProfile((0.0, first_mining, first_mining + 5.0), (0.0, 0.5),
                           1.0)
    res = calibrate_alpha(prof, 600.0, 5, rel_tol=1e-6)
    assert res.converged
    assert abs(res.achieved_mean - 600.0) / 600.0 <= 1e-6
    assert res.calibrated_rate > 10 / 600
    assert res.iterations <= 20


@pytest.mark.parametrize("delay", [10.0, 300.0, 559.0, 590.0, 599.0])
def test_calibrate_fixed_delay_lands_on_closed_form(delay):
    # E[theta] = d + 1/alpha, so the first iterate 1/(T - d) is the root
    res = calibrate_alpha(HashrateProfile.fixed_delay(delay, 1.0), 600.0, 5,
                          rel_tol=1e-10)
    assert res.iterations == 1
    assert res.calibrated_rate == 1 / (600.0 - delay)


def test_calibrate_default_tolerance_is_the_analysis_tolerance():
    # every command and analyze calibrate to 1e-6 on the relative mean error
    prof = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), 1.0)
    default = calibrate_alpha(prof, 600.0, 9)
    explicit = calibrate_alpha(prof, 600.0, 9, rel_tol=1e-6)
    assert default.calibrated_rate == explicit.calibrated_rate
    assert default.iterations == explicit.iterations


def test_calibrate_iterates_rise_monotonically():
    prof = HashrateProfile((0.0, 30.0, 90.0, 200.0), (0.0, 0.2, 0.5), 1.0)
    res = calibrate_alpha(prof, 600.0, 9, rel_tol=1e-10)
    alphas = [a for a, _ in res.trace]
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))


def test_calibrate_failure_reports_last_iterate(monkeypatch):
    monkeypatch.setattr(delaymodel, "_MAX_ITER", 3)
    prof = HashrateProfile((0.0, 30.0, 90.0, 200.0), (0.0, 0.2, 0.5), 1.0)
    with pytest.raises(RuntimeError, match="did not converge in 3") as info:
        calibrate_alpha(prof, 600.0, 5, rel_tol=1e-15)
    assert "last alpha" in str(info.value)
    assert "trace" not in str(info.value)


def test_calibrate_refuses_a_tolerance_of_zero():
    prof = HashrateProfile((0.0, 30.0, 90.0, 200.0), (0.0, 0.2, 0.5), 1.0)
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        calibrate_alpha(prof, 600.0, 5, rel_tol=0)


def test_calibrate_solves_each_iterate_mean_once(monkeypatch):
    # the iterates read the closed-form mean and build no solver; only the
    # returned theta is validated, whose mgf(0) is the one solve, and its
    # cached mean is the last iterate's
    cme(9, 1.0)  # the unit CME, validated once per K
    solves, solvers = [], []
    solver = delaymodel._ProfileTheta.solver

    def spy(self, s=0.0):
        # the solver, and the solves of the one that is cached as _solve_T
        solvers.append(s)
        solve = solver(self, s)
        return lambda b: solves.append(self) or solve(b)
    monkeypatch.setattr(delaymodel._ProfileTheta, "solver", spy)
    prof = HashrateProfile((0.0, 30.0, 90.0, 200.0), (0.0, 0.2, 0.5), 1.0)
    res = calibrate_alpha(prof, 600.0, 9)
    assert res.iterations > 1
    assert len(solves) == 1 and solvers == [0.0]
    assert res.theta.mean() == res.achieved_mean == res.trace[-1][1]
    assert len(solves) == 1 and solvers == [0.0]


def test_random_delay_theta_refuses_a_zero_rate():
    with pytest.raises(ValueError, match="alpha must be positive"):
        random_delay_theta(erlang_me(2, 1.0), 0.0)


def test_calibration_repr_leaves_the_dense_subgen_unbuilt():
    # a profile theta's repr names the object only; printing the
    # calibration must not place the order-(N K + 1) dense T
    prof = HashrateProfile((0.0, 30.0, 90.0, 200.0), (0.0, 0.2, 0.5), 1.0)
    cal = calibrate_alpha(prof, 600.0, 9)
    assert "_ProfileTheta object" in repr(cal)
    assert "subgen" not in vars(cal.theta)
