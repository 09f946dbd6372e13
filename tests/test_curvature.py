"""Tests for cross-asset consistency diagnostics."""

import numpy as np
import pytest

from curvarb.curvature import (
    covariation_rates,
    curvature_components,
    kernel_check,
    novikov_sharpe,
    zc_residual,
)
from curvarb.errors import ConfigurationError, NumericalError
from curvarb.gauges import Gauge, flat_term_structure
from curvarb.paths import ItoSpec, PathEnsemble, TimeGrid, simulate_brownian, simulate_ito

OFFSETS = 0.25 * np.arange(9)


def _flat_gauge(grid, rate, deflator, label=""):
    return Gauge(PathEnsemble(grid, deflator), flat_term_structure(grid, rate, OFFSETS), label)


def test_two_rate_flat_deflator_spread():
    grid = TimeGrid.regular(5.0, 20)
    ones = np.ones((1, grid.n_times))
    report = curvature_components(
        [_flat_gauge(grid, 0.02, ones, "a"), _flat_gauge(grid, 0.05, ones, "b")]
    )
    # frozen deflators contribute no quotient: components are the short rates
    assert report.components[0] == pytest.approx(0.02, abs=1e-14)
    assert report.components[1] == pytest.approx(0.05, abs=1e-14)
    assert report.norm == pytest.approx(0.03, abs=1e-14)
    assert np.all(report.norm_se == 0.0)
    assert report.weighted_std == pytest.approx(0.015, abs=1e-14)
    assert report.max_norm == pytest.approx(0.03, abs=1e-14)


def test_consistent_deterministic_gauge_is_flat():
    grid = TimeGrid.regular(5.0, 20)
    h = 0.25
    deflator = np.exp(-0.05 * grid.times)[None, :]
    report = curvature_components([_flat_gauge(grid, 0.05, deflator)])
    # symmetric quotient of e^{-rt} leaves the exact sinh defect
    expected = 0.05 - np.sinh(0.05 * h) / h
    assert report.components[0] == pytest.approx(expected, abs=1e-14)
    assert report.norm == pytest.approx(0.0, abs=1e-15)


def test_flat_stochastic_market_spread_within_noise():
    grid = TimeGrid.regular(5.0, 20)
    n = 4000
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.2, form="geometric")
    gauges = []
    for j in range(2):
        driver = simulate_brownian(grid, n, 1, seed=40 + j)
        d = simulate_ito(spec, driver)
        gauges.append(Gauge(d, flat_term_structure(grid, 0.0, OFFSETS), f"g{j}"))
    report = curvature_components(gauges)
    assert np.all(report.norm <= 4.0 * report.norm_se)
    assert np.mean(report.norm <= 3.0 * report.norm_se) >= 0.8
    assert np.all(report.norm_se < 1e-2)


def test_curvature_input_validation():
    with pytest.raises(ConfigurationError):
        curvature_components([])
    g1 = TimeGrid.regular(1.0, 4)
    g2 = TimeGrid.regular(2.0, 4)
    a = _flat_gauge(g1, 0.0, np.ones((1, g1.n_times)))
    b = _flat_gauge(g2, 0.0, np.ones((1, g2.n_times)))
    with pytest.raises(ConfigurationError):
        curvature_components([a, b])


def test_curvature_names_asset_and_time_of_a_degenerate_deflator():
    grid = TimeGrid.regular(5.0, 20)
    ones = np.ones((1, grid.n_times))
    gone = ones.copy()
    gone[0, 3:] = 0.0
    with pytest.raises(NumericalError, match=r"deflator of asset 'b' reaches 0 at t = 0\.75"):
        curvature_components(
            [_flat_gauge(grid, 0.0, ones, "a"), _flat_gauge(grid, 0.0, gone, "b")]
        )
    # a subnormal deflator overflows the quotient
    tiny = ones.copy()
    tiny[0, 2:4] = 1e-310, 2.0
    with pytest.raises(NumericalError, match=r"of asset 'b' is non-finite at t = 0\.5"):
        curvature_components(
            [_flat_gauge(grid, 0.0, ones, "a"), _flat_gauge(grid, 0.0, tiny, "b")]
        )


def test_zc_residual_two_asset_example():
    sigma = np.array([[1.0], [1.0]])
    report = zc_residual(np.array([0.05, 0.03]), sigma)
    assert report.residual[0] == pytest.approx(0.0141421356, abs=1e-6)
    assert report.residual[0] == pytest.approx(np.hypot(0.01, 0.01), rel=1e-12)
    assert report.mpr[0, 0] == pytest.approx(0.04, rel=1e-12)
    assert not report.all_passed
    aligned = zc_residual(np.array([0.04, 0.04]), sigma)
    assert aligned.residual[0] < 1e-15
    assert aligned.all_passed


def test_zc_residual_orthogonal_invariance():
    rng = np.random.default_rng(3)
    sigma = rng.normal(size=(5, 4, 3))
    alpha = rng.normal(size=(5, 4)) * 0.1
    base = zc_residual(alpha, sigma)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = zc_residual(alpha, np.einsum("tnk,km->tnm", sigma, q))
    # right-rotating the volatility leaves the span, hence the distance
    assert rotated.residual == pytest.approx(base.residual, rel=1e-10)


def test_zc_residual_shapes_and_rates():
    alpha = np.zeros((3, 2))
    sigma = np.broadcast_to(np.array([[1.0], [2.0]]), (3, 2, 1)).copy()
    report = zc_residual(alpha, sigma, rates=np.array([0.01, 0.02]), times=[0.0, 0.5, 1.0])
    assert report.residual.shape == (3,)
    assert report.mpr.shape == (3, 1)
    assert report.times[2] == 1.0
    v = np.array([0.01, 0.02])
    theta = (sigma[0, :, 0] @ v) / (sigma[0, :, 0] @ sigma[0, :, 0])
    assert report.mpr[0, 0] == pytest.approx(theta, rel=1e-12)
    with pytest.raises(ConfigurationError):
        zc_residual(alpha, sigma, times=[0.0, 1.0])


def test_covariation_estimated_consistency():
    grid = TimeGrid.regular(1.0, 100)
    n = 2000
    driver = simulate_brownian(grid, n, 1, seed=77)
    sigma_paths = 0.1 * driver.values[:, :, :, None]  # vol row = 0.1 W
    rate, se = covariation_rates(sigma_paths, driver)
    assert rate.shape == (100, 1)
    c_bar = float(rate.mean())
    c_se = float(np.sqrt(np.sum(se**2)) / rate.size)
    assert abs(c_bar - 0.1) < 3 * c_se
    # overdetermined slice: one asset uses the estimated covariation, its twin
    # the exact value; only the noise-aware gate absorbs the difference
    alpha = np.array([0.07, 0.07])
    sigma = np.array([[1.0], [1.0]])
    report = zc_residual(
        alpha,
        sigma,
        covariation=np.array([[c_bar, 0.1]]),
        covariation_se=np.array([[c_se, 0.0]]),
    )
    assert report.all_passed
    strict = zc_residual(alpha, sigma, covariation=np.array([[c_bar, 0.1]]))
    assert not strict.all_passed


def test_covariation_shape_validation():
    grid = TimeGrid.regular(1.0, 10)
    driver = simulate_brownian(grid, 50, 2, seed=1)
    with pytest.raises(ConfigurationError):
        covariation_rates(np.zeros((50, 11, 1, 1)), driver)
    with pytest.raises(ConfigurationError):
        covariation_rates(np.zeros((50, 11)), driver)


def test_sharpe_integral_constant_coefficients():
    spec = ItoSpec(x0=1.0, drift=0.06, sigma=0.2, form="geometric")
    est = novikov_sharpe(spec, [1.0], horizon=1.0)
    assert est.estimate == pytest.approx(np.exp(0.045), rel=1e-12)
    assert est.se == 0.0
    assert est.verdict == "finite_evidence"


def test_sharpe_integral_time_varying_ratio():
    # drift 0.06 t over vol 0.2 gives the ratio 0.3 t
    spec = ItoSpec(
        x0=1.0,
        drift=lambda t, x: 0.06 * t * np.ones_like(x),
        sigma=0.2,
        form="geometric",
    )
    est = novikov_sharpe(spec, [1.0], horizon=1.0, steps=512)
    assert est.estimate == pytest.approx(np.exp(0.015), rel=1e-6)


def test_sharpe_integral_ensemble_and_tail():
    spec = ItoSpec(
        x0=1.0,
        drift=0.06,
        sigma=lambda t, x: np.full(x.shape + (1,), 0.2),
        form="geometric",
    )
    est = novikov_sharpe(spec, [1.0], horizon=1.0, n_paths=50, seed=4)
    assert est.estimate == pytest.approx(np.exp(0.045), rel=1e-12)
    assert est.tail is not None
    assert est.verdict == "finite_evidence"


def test_sharpe_integral_vanishing_volatility():
    # both assets load the first factor only: x = (1, -2) kills the row span
    two = ItoSpec(
        x0=np.array([1.0, 1.0]),
        drift=0.02,
        sigma=np.array([[0.2, 0.0], [0.1, 0.0]]),
        form="geometric",
    )
    with pytest.raises(NumericalError) as err:
        novikov_sharpe(two, [1.0, -2.0], horizon=1.0)
    assert "time_index" in err.value.diagnostics
    with pytest.raises(ConfigurationError):
        novikov_sharpe(two, [1.0], horizon=1.0)


def test_kernel_check_flat_market_passes():
    grid = TimeGrid.regular(5.0, 20)
    gauge = _flat_gauge(grid, 0.02, np.ones((1, grid.n_times)), "flat")
    beta = np.exp(-0.02 * grid.times)
    report = kernel_check([gauge], beta, [(0.0, 1.0), (1.0, 3.0), (2.0, 4.0)])
    assert report.all_passed
    assert abs(report.worst["residual"]) < 1e-12


def test_kernel_check_wrong_kernel_detected():
    grid = TimeGrid.regular(5.0, 20)
    gauge = _flat_gauge(grid, 0.02, np.ones((1, grid.n_times)), "flat")
    report = kernel_check([gauge], np.ones(grid.n_times), [(1.0, 2.0)])
    row = report.rows[0]
    assert not row["passed"]
    assert row["z"] == np.inf
    assert row["residual"] == pytest.approx(-np.expm1(-0.02), abs=1e-12)


def test_kernel_check_martingale_deflator_passes():
    grid = TimeGrid.regular(2.0, 8)
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="geometric")
    d = simulate_ito(spec, simulate_brownian(grid, 4000, 1, seed=15))
    gauge = Gauge(d, flat_term_structure(grid, 0.0, OFFSETS), "mart")
    report = kernel_check([gauge], np.ones(grid.n_times), [(0.5, 1.0), (1.0, 1.5)])
    assert report.all_passed
    for row in report.rows:
        assert row["se"] > 0


def test_kernel_check_validation():
    grid = TimeGrid.regular(1.0, 4)
    gauge = _flat_gauge(grid, 0.0, np.ones((1, grid.n_times)))
    with pytest.raises(ConfigurationError):
        kernel_check([], np.ones(grid.n_times), [(0.0, 1.0)])
    with pytest.raises(ConfigurationError):
        kernel_check([gauge], np.ones(3), [(0.0, 1.0)])
    with pytest.raises(ConfigurationError):
        kernel_check([gauge], np.zeros(grid.n_times), [(0.0, 1.0)])
