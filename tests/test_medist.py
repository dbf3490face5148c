import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse.linalg
from numpy.testing import assert_allclose

from powruin._cmetable import CME_UNIT
from powruin.delaymodel import HashrateProfile, assemble_theta
from powruin.medist import (MEValidationError, _cme_from_params, _cme_unit,
                            cme, erlang_me, make_me)


def test_make_me_exponential():
    d = make_me([1.0], [[-1 / 600]])
    assert d.order == 1
    assert_allclose(d.mean(), 600.0)
    assert_allclose(d.exit, [1 / 600])


def test_make_me_erlang2_mean():
    delta = 3.0
    rate = 2 / delta
    d = make_me([1, 0], [[-rate, rate], [0, -rate]])
    assert_allclose(d.mean(), delta, rtol=1e-12)


def test_make_me_rejects_positive_eigenvalue():
    with pytest.raises(MEValidationError):
        make_me([0.5, 0.5], [[1.0, 0.0], [0.0, -1.0]])


def test_make_me_rejects_positive_eigenvalue_at_high_order():
    # no spectrum given: make_me computes it at every order
    m = 1201
    T = -np.eye(m)
    T[5, 5] = 0.5
    with pytest.raises(MEValidationError, match="eigenvalue"):
        make_me(np.full(m, 1.0 / m), T)


def test_make_me_rejects_decreasing_cdf_at_high_order():
    # density e^{-x} (a0 + a1 cos 3x) with a1 > a0 dips below zero; the
    # padding phases carry no initial mass
    m = 201
    T = -np.eye(m)
    T[1:3, 1:3] = [[-1.0, 3.0], [-3.0, -1.0]]
    v = np.zeros(m)
    v[:3] = [0.8, -0.2, 0.4]
    with pytest.raises(MEValidationError, match="cdf not nondecreasing"):
        make_me(v, T)


def test_make_me_rejects_bad_mass():
    with pytest.raises(MEValidationError):
        make_me([0.5, 0.4], [[-1, 0], [0, -1]])


def test_make_me_rejects_dim_mismatch():
    with pytest.raises(MEValidationError):
        make_me([1.0], [[-1, 1], [0, -1]])


def test_erlang_pdf_at_zero():
    d = erlang_me(1, 600)
    assert_allclose(d.pdf(0.0), 1 / 600)


@pytest.mark.parametrize("K", [1, 4, 16])
def test_erlang_scv(K):
    d = erlang_me(K, 7.5)
    assert_allclose(d.scv(), 1 / K, atol=1e-10)
    assert_allclose(d.mean(), 7.5, rtol=1e-12)


def test_erlang_mean_exact():
    assert_allclose(erlang_me(27, 2).mean(), 2.0, rtol=1e-12)


@pytest.mark.parametrize("K, delta", [(1, 2e8), (3, 1e9)])
def test_erlang_builds_on_long_time_scales(K, delta):
    # its eigenvalues -K/delta are above -1e-8 here: a derived model's
    # spectrum is stable by construction and meets no absolute bound
    assert_allclose(erlang_me(K, delta).mean(), delta, rtol=1e-12)


def test_erlang_rejects_bad_args():
    with pytest.raises(ValueError):
        erlang_me(0, 1.0)
    for delta in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="delta must be positive"):
            erlang_me(3, delta)


def test_cme_mean():
    assert_allclose(cme(27, 2).mean(), 2.0, rtol=1e-9)


@pytest.mark.parametrize("K", [5, 11, 27])
def test_cme_scv_bound(K):
    assert cme(K, 3.0).scv() <= 2.5 / K**2


def test_cme_rejects_even_order():
    with pytest.raises(ValueError):
        cme(4, 1.0)
    for delta in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="delta must be positive"):
            cme(27, delta)


@pytest.mark.parametrize("K", [4, 0, -1, 2.5, 53, 201])
def test_cme_refuses_untabled_order(K):
    with pytest.raises(ValueError, match="odd integer from 1 to 51"):
        cme(K, 1.0)


@pytest.mark.parametrize("K", range(1, 52, 2))
def test_cme_table_meets_criterion_06(K):
    d = cme(K, 600.0)
    assert abs(d.mean() - 600.0) / 600.0 <= 1e-9
    assert d.scv() <= 2.5 / K**2
    make_me(d.init, d.subgen)


@pytest.mark.parametrize("K", [3, 5])
def test_table_generator_reproduces_rows(K):
    path = Path(__file__).resolve().parents[1] / "tools" / "make_cme_table.py"
    spec = importlib.util.spec_from_file_location("make_cme_table", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.search(K) == CME_UNIT[K]


@pytest.mark.parametrize("K", sorted(CME_UNIT))
def test_cme_pieces_have_mean_one_in_exact_arithmetic(K):
    # -x_0 of U x = 1, solved in rationals on the cached float pieces:
    # each rotation block [[a, b], [-b, a]] maps (a - b, a + b)/(a^2 + b^2)
    # to (1, 1), then row 0 gives x_0
    d, rho, a, b = ([Fraction(x) for x in np.ravel(p)]
                    for p in _cme_unit(K)[:4])
    x = [x for aj, bj in zip(a, b) for x in ((aj - bj) / (aj**2 + bj**2),
                                              (aj + bj) / (aj**2 + bj**2))]
    mean = -(1 - sum(r * xj for r, xj in zip(rho, x))) / d[0]
    assert abs(float(mean - 1)) < 5e-14


@pytest.mark.parametrize("K, delta", [(1, 5.0), (9, 0.3), (51, 600.0)])
def test_cme_places_the_pieces_divided_by_delta(K, delta):
    d, rho, a, b = _cme_unit(K)
    me = cme(K, delta)
    T, i = me.subgen, np.arange(1, K, 2)
    assert T[0, 0] == d / delta
    assert np.array_equal(T[0, 1:], rho / delta)
    assert np.array_equal(T[i, i], a / delta)
    assert np.array_equal(T[i + 1, i + 1], a / delta)
    assert np.array_equal(T[i, i + 1], b / delta)
    assert np.array_equal(T[i + 1, i], -b / delta)
    placed = np.zeros((K, K), dtype=bool)
    placed[0] = placed[i, i] = placed[i + 1, i + 1] = True
    placed[i, i + 1] = placed[i + 1, i] = True
    assert not T[~placed].any()
    assert np.array_equal(me.init, np.eye(K)[0])


@pytest.mark.parametrize("K", sorted(CME_UNIT))
def test_every_tabled_cme_passes_make_me(K):
    # no CME carries its spectrum, so the table is checked here once, as
    # outside input is: computed spectrum, mass, mean, mgf(0), CDF grid
    d, _, a, b = _cme_unit(K)
    unit = _cme_from_params(*CME_UNIT[K])
    assert_allclose(make_me(unit.init, unit.subgen).mean(), 1.0, rtol=1e-12)
    # U is block upper triangular: its spectrum is d and a_j +- i b_j
    spectrum = np.linalg.eigvals(unit.subgen)
    expected = np.concatenate([[d], a + 1j * b, a - 1j * b])
    assert_allclose(spectrum[np.argsort(spectrum.imag)],
                    expected[np.argsort(expected.imag)], rtol=1e-12)


@pytest.mark.parametrize("K", [3, 5, 9])
def test_generator_candidate_passes_make_me_with_the_closed_form_scv(K):
    # the path tools/make_cme_table.supported_rows takes for each row; the
    # closed-form scv is ill-conditioned above K of about 27
    path = Path(__file__).resolve().parents[1] / "tools" / "make_cme_table.py"
    spec = importlib.util.spec_from_file_location("make_cme_table", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    omega, phases = CME_UNIT[K]
    d = _cme_from_params(omega, phases)
    assert_allclose(make_me(d.init, d.subgen).scv(),
                    generator.cosine_scv(np.r_[omega, phases], len(phases)),
                    rtol=1e-9)


def test_make_me_keeps_its_own_copy_of_the_input():
    init, T = np.array([0.5, 0.5]), np.array([[-1.0, 0.0], [0.0, -2.0]])
    d = make_me(init, T)
    init[0], T[0, 0] = 5.0, 3.0
    assert np.array_equal(d.init, [0.5, 0.5])
    assert d.subgen[0, 0] == -1.0


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_solver_refuses_a_singular_shift():
    d = erlang_me(2, 1.0)  # T = 2 [[-1, 1], [0, -1]]
    with pytest.raises(ValueError, match="singular"):
        d.solver(-2.0)


def test_cme_order_one_is_exponential():
    d = cme(1, 5.0)
    assert d.order == 1
    assert_allclose(d.scv(), 1.0, atol=1e-12)
    e = erlang_me(1, 5.0)
    assert np.array_equal(d.subgen, e.subgen)
    assert np.array_equal(d.init, e.init)


def test_cme_concentration():
    d = cme(27, 2.0)
    assert d.cdf(1.0) < 0.05
    assert d.cdf(3.0) > 0.95


def test_cme_beats_erlang():
    assert cme(27, 2.0).scv() < erlang_me(27, 2.0).scv()


def test_cme_pdf_peaks_near_delta():
    d = cme(27, 2.0)
    xs = np.linspace(0.05, 4.0, 200)
    fs = np.array([d.pdf(x) for x in xs])
    assert abs(xs[np.argmax(fs)] - 2.0) < 0.2


def test_pdf_normalization_by_quadrature():
    for d in (erlang_me(3, 2.0), cme(5, 2.0)):
        total, err = scipy.integrate.quad(d.pdf, 0, 40, limit=200)
        assert abs(total - 1.0) < 1e-6


def test_cdf_at_zero_and_median():
    d = erlang_me(1, 600)
    assert d.cdf(0.0) == 0.0
    assert_allclose(d.cdf(600 * np.log(2)), 0.5, rtol=1e-10)


def test_cdf_monotone():
    d = cme(11, 2.0)
    grid = np.linspace(0, 10, 60)
    F = np.array([d.cdf(x) for x in grid])
    assert np.all(np.diff(F) >= -1e-12)
    assert np.all((F >= 0) & (F <= 1))


def test_negative_argument_rejected():
    d = erlang_me(2, 1.0)
    with pytest.raises(ValueError):
        d.pdf(-0.1)
    with pytest.raises(ValueError):
        d.cdf(-0.1)


@pytest.mark.parametrize("method", ["pdf", "cdf"])
@pytest.mark.parametrize("x", [np.nan, np.inf])
def test_non_finite_argument_rejected(method, x):
    with pytest.raises(ValueError, match="finite"):
        getattr(erlang_me(2, 1.0), method)(x)


def test_mgf_at_zero_is_one():
    for d in (erlang_me(4, 3.0), cme(11, 2.0)):
        assert_allclose(d.mgf(0.0), 1.0, atol=1e-10)


def test_mgf_derivative_matches_mean():
    d = cme(5, 2.0)
    h = 1e-6
    deriv = (d.mgf(h) - d.mgf(-h)) / (2 * h)
    assert_allclose(deriv, d.mean(), rtol=1e-6)


def test_mgf_exponential_closed_form():
    alpha = 1 / 600
    d = erlang_me(1, 600)
    for s in (-0.01, -1e-4, 1e-4):
        assert_allclose(d.mgf(s), alpha / (alpha - s), rtol=1e-12)


def test_cdf_pdf_consistency_finite_differences():
    d = cme(11, 2.0)
    h = 1e-4 * 2.0
    for x in np.linspace(0.5, 4.0, 8):
        approx = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
        assert_allclose(approx, d.pdf(x), rtol=1e-4, atol=1e-9)


def test_pdf_grid_matches_pointwise():
    d = cme(11, 2.0)
    xs = np.linspace(0.0, 6.0, 25)
    grid = d.pdf_grid(xs)
    pointwise = np.array([d.pdf(x) for x in xs])
    assert_allclose(grid, pointwise, rtol=1e-8, atol=1e-12)


def test_pdf_grid_refuses_a_negative_density_as_pdf_does():
    # cme(51) dips to -1.43e-5 near x = 0.02, inside this grid
    d = cme(51, 1.0)
    with pytest.raises(MEValidationError, match="negative density"):
        d.pdf(0.02)
    with pytest.raises(MEValidationError, match="negative density"):
        d.pdf_grid(np.linspace(0.0, 10.0, 2000))


@pytest.mark.parametrize("xs", [[1.0], [0.0, 1.0, 3.0], [2.0, 1.0, 0.0],
                                [-1.0, 0.0, 1.0]])
def test_pdf_grid_refuses_a_bad_grid(xs):
    with pytest.raises(ValueError, match="grid"):
        cme(11, 2.0).pdf_grid(xs)


def test_pdf_grid_steps_a_dense_expm_above_order_200(monkeypatch):
    # one route at every order: the action-of-expm route did not finish on
    # an order-487 theta
    def no_expm_multiply(*args, **kwargs):
        raise AssertionError("pdf_grid steps a dense expm at every order")
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply",
                        no_expm_multiply)
    profile = HashrateProfile(np.linspace(0.0, 50.0, 26),
                              np.linspace(0.0, 0.9, 25), 1 / 600)
    theta = assemble_theta(profile, 9)
    assert theta.order == 226
    xs = np.linspace(0.0, 3000.0, 11)
    pointwise = np.array([theta.pdf(x) for x in xs])
    assert_allclose(theta.pdf_grid(xs), pointwise, rtol=1e-8, atol=1e-12)
