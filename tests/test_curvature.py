"""Tests for cross-asset consistency diagnostics."""

import tracemalloc
import warnings

import numpy as np
import pytest
from bin_reference import assert_columns_equal_rows, reference_bins

import curvarb.curvature
import curvarb.paths
from curvarb.curvature import (
    curvature_components,
    kernel_check,
    novikov_sharpe,
    zc_residual,
)
from curvarb.errors import ConfigurationError, NumericalError
from curvarb.gauges import Gauge, TermStructureSurface, flat_term_structure, short_rate
from curvarb.novikov import NovikovEstimate, _exp_moment
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


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _simulated_gauges(grid, n, rates):
    """One geometric deflator per flat rate, each on its own seed."""
    spec = ItoSpec(x0=1.0, drift=0.01, sigma=0.3, form="geometric")
    gauges = []
    for j, rate in enumerate(rates):
        d = simulate_ito(spec, simulate_brownian(grid, n, 1, seed=60 + j))
        gauges.append(_flat_gauge(grid, rate, d.values, f"g{j}"))
    return gauges


def _reference_components(gauges):
    """curvature_components' statistics from whole (n_paths, interior) arrays."""
    grid = gauges[0].grid
    h = grid.steps
    comps, ses, weights = [], [], []
    for g in gauges:
        d = g.deflator.series
        n = d.shape[0]
        fwd = (d[:, 2:] - d[:, 1:-1]) / h[1:]
        bwd = (d[:, 1:-1] - d[:, :-2]) / h[:-1]
        quot = 0.5 * (fwd + bwd) / d[:, 1:-1]
        a = quot + np.broadcast_to(short_rate(g.curve), (n, grid.n_times))[:, 1:-1]
        comps.append(a.mean(axis=0))
        ses.append(a.std(axis=0, ddof=1) / np.sqrt(n))
        weights.append(np.abs(d).mean(axis=0)[1:-1])
    components, component_se = np.stack(comps), np.stack(ses)
    hi, lo = np.argmax(components, axis=0), np.argmin(components, axis=0)
    cols = np.arange(components.shape[1])
    norm = components[hi, cols] - components[lo, cols]
    norm_se = np.sqrt(component_se[hi, cols] ** 2 + component_se[lo, cols] ** 2)
    w = np.stack(weights)
    w = w / w.sum(axis=0, keepdims=True)
    mean_w = (w * components).sum(axis=0)
    weighted_std = np.sqrt((w * (components - mean_w) ** 2).sum(axis=0))
    return components, component_se, norm, norm_se, weighted_std


@pytest.mark.parametrize("column_block", [2, curvarb.curvature._COLUMN_BLOCK])
@pytest.mark.parametrize("interior", [1, 17, 33, 49])
def test_curvature_blocks_match_whole_array_reference(monkeypatch, interior, column_block):
    monkeypatch.setattr(curvarb.curvature, "_COLUMN_BLOCK", column_block)
    grid = TimeGrid.regular(5.0, interior + 1)
    n = 3001
    gauges = _simulated_gauges(grid, n, [0.0, 0.02, 0.05])
    # a per-path curve: the last short rate varies by path and time
    path_rates = np.random.default_rng(7).uniform(0.0, 0.1, (n, grid.n_times))
    curve = TermStructureSurface(grid, OFFSETS, np.exp(-path_rates[:, :, None] * OFFSETS))
    gauges[-1] = Gauge(gauges[-1].deflator, curve, gauges[-1].label)
    report = curvature_components(gauges)
    got = (report.components, report.component_se, report.norm, report.norm_se)
    for a, b in zip(got + (report.weighted_std,), _reference_components(gauges)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.bitexact
@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, curvarb.paths._PATH_BLOCK])
@pytest.mark.parametrize("steps", [2, 6])  # 2 steps: one interior column
def test_curvature_path_blocks_match_whole_array_reference(monkeypatch, block, steps):
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", block)
    grid = TimeGrid.regular(5.0, steps)
    # path counts below, at and straddling one and several blocks
    for n in sorted({max(2, block - 1), max(2, block), block + 1, 2 * block + 1, 3 * block + 2}):
        gauges = _simulated_gauges(grid, n, [0.0, 0.02, 0.05])
        path_rates = np.random.default_rng(n).uniform(0.0, 0.1, (n, grid.n_times))
        curve = TermStructureSurface(grid, OFFSETS, np.exp(-path_rates[:, :, None] * OFFSETS))
        gauges[-1] = Gauge(gauges[-1].deflator, curve, gauges[-1].label)
        report = curvature_components(gauges)
        got = (report.components, report.component_se, report.norm, report.norm_se)
        for a, b in zip(got + (report.weighted_std,), _reference_components(gauges)):
            assert a.tobytes() == b.tobytes(), n


def test_curvature_holds_a_block_of_columns():
    grid = TimeGrid.regular(5.0, 200)
    n = 4000
    gauges = _simulated_gauges(grid, n, [0.0, 0.03])
    curvature_components(gauges[:1])  # first-call allocations stay outside the count
    peak = _traced_peak(lambda: curvature_components(gauges))
    # one (n, n_times) deflator is 6.4 MB; whole-array statistics took about three
    assert peak < 0.5 * n * grid.n_times * 8


def test_curvature_holds_one_quotient_block():
    grid = TimeGrid.regular(5.0, 200)
    n = 4000
    gauges = _simulated_gauges(grid, n, [0.0, 0.03])
    curvature_components(gauges[:1])  # first-call allocations stay outside the count
    peak = _traced_peak(lambda: curvature_components(gauges))
    m = grid.n_times - 2
    widest = max(stop - start for start, stop in curvarb.curvature._column_blocks(m))
    block = curvarb.paths._PATH_BLOCK
    # the widest quotient block, two |D| arrays of one path block while one
    # replaces the other, and 256 KiB for numpy's iteration buffers; a block
    # kept alive into the next would add a second quotient block
    assert peak < 8 * (n * widest + 2 * block * (widest + 2)) + 256 * 1024


@pytest.mark.bitexact
def test_curvature_se_of_one_path_is_zero():
    grid = TimeGrid.regular(5.0, 40)  # 39 interior columns: one block
    gauges = _simulated_gauges(grid, 1, [0.0, 0.02])
    report = curvature_components(gauges)
    assert np.all(report.component_se == 0.0) and np.all(report.norm_se == 0.0)
    h = grid.steps
    for row, g in zip(report.components, gauges):
        d = g.deflator.series
        quot = 0.5 * ((d[:, 2:] - d[:, 1:-1]) / h[1:] + (d[:, 1:-1] - d[:, :-2]) / h[:-1])
        expected = quot / d[:, 1:-1] + short_rate(g.curve)[:, 1:-1]
        assert row.tobytes() == expected[0].tobytes()


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
    assert not report.passed.all()
    aligned = zc_residual(np.array([0.04, 0.04]), sigma)
    assert aligned.residual[0] < 1e-15
    assert aligned.passed.all()


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


def test_zc_residual_that_overflows_is_a_numerical_error():
    # the norms of [1e300, -1e300] overflow: residual and threshold are inf
    alpha = np.array([[0.0, 0.0], [1e300, -1e300]])
    with pytest.raises(NumericalError, match="non-finite at t = 0.5") as err:
        zc_residual(alpha, np.array([[1.0], [1.0]]), times=[0.0, 0.5])
    assert err.value.diagnostics == {"t": 0.5}


def test_covariation_estimated_consistency():
    grid = TimeGrid.regular(1.0, 100)
    n = 2000
    w = simulate_brownian(grid, n, 1, seed=77).series
    # realized covariation rate of the vol row 0.1 W with the driver W, per interval
    prod = np.diff(0.1 * w, axis=1) * np.diff(w, axis=1) / grid.steps
    rate = prod.mean(axis=0)
    se = prod.std(axis=0, ddof=1) / np.sqrt(n)
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
    assert report.passed.all()
    strict = zc_residual(alpha, sigma, covariation=np.array([[c_bar, 0.1]]))
    assert not strict.passed.all()


def test_covariation_shape_validation():
    alpha, sigma = np.zeros((11, 2)), np.ones((11, 2, 1))
    with pytest.raises(ConfigurationError, match=r"covariation of shape \(11, 3\)"):
        zc_residual(alpha, sigma, covariation=np.zeros((11, 3)))
    with pytest.raises(ConfigurationError, match=r"covariation_se of shape \(5,\)"):
        zc_residual(alpha, sigma, covariation=np.zeros(2), covariation_se=np.zeros(5))
    with pytest.raises(ConfigurationError, match=r"rates of shape \(4,\)"):
        zc_residual(alpha, sigma, rates=np.zeros(4))
    # one value per asset, or one per time and asset, broadcasts
    report = zc_residual(alpha, sigma, covariation=np.zeros(2), covariation_se=np.ones((11, 2)))
    assert report.passed.all()


def test_sharpe_integral_constant_coefficients():
    spec = ItoSpec(x0=1.0, drift=0.06, sigma=0.2, form="geometric")
    est = novikov_sharpe(spec, [1.0], horizon=1.0)
    assert est.estimate == pytest.approx(np.exp(0.045), rel=1e-12)
    assert est.se == 0.0
    assert est.verdict == "finite_evidence"


@pytest.mark.parametrize("n_paths", [1, 40])
def test_sharpe_integral_overflow_is_divergence_evidence(n_paths):
    # drift 1 over vol 0.02 gives the exponent 1250, far past float range
    spec = ItoSpec(1.0, 1.0, 0.02, "geometric")
    est = novikov_sharpe(spec, [1.0], 1.0, n_paths=n_paths)
    assert isinstance(est, NovikovEstimate)
    assert est.estimate == np.inf
    assert est.se == np.inf
    assert est.verdict == "divergence_evidence"
    assert est.n_used == n_paths
    assert est.censored_fraction == 0.0
    assert (est.tail is None) == (n_paths < 20)


def _reference_sharpe_exponents(spec, x, horizon, n_paths, steps):
    """The integrand at every node of n_paths paths, read off the
    coefficients as a simulated route would read them on each path."""
    grid = TimeGrid.regular(horizon, steps)
    a = np.broadcast_to(spec.drift, (n_paths, spec.dim))
    s = np.broadcast_to(spec.sigma, (n_paths, spec.dim, spec.driver_dim()))
    ratio_sq = np.empty((n_paths, grid.n_times))
    for i in range(grid.n_times):
        sx = np.einsum("pnk,n->pk", s, x)
        ratio_sq[:, i] = (a @ x) ** 2 / np.sum(sx * sx, axis=1)
    return 0.5 * np.trapezoid(ratio_sq, grid.times, axis=1)


@pytest.mark.parametrize(
    "spec, x, n_paths, steps",
    [
        (ItoSpec(1.0, 0.06, 0.2, "geometric"), [1.0], 2000, 1024),
        (ItoSpec(0.5, 0.03, 0.25, "arithmetic"), [1.0], 500, 256),
        (
            ItoSpec(np.array([1.0, 2.0]), np.array([0.05, 0.02]),
                    np.array([[0.2, 0.05], [0.1, 0.3]]), "geometric"),
            [1.0, -0.5],
            700,
            300,
        ),
    ],
)
def test_sharpe_constant_fields_match_the_simulated_route(spec, x, n_paths, steps):
    x = np.asarray(x)
    est = novikov_sharpe(spec, x, 1.0, n_paths=n_paths, steps=steps)
    exponents = _reference_sharpe_exponents(spec, x, 1.0, n_paths, steps)
    estimate, se, tail, verdict = _exp_moment(exponents)
    assert est.exponents.tobytes() == exponents.tobytes()
    assert (est.estimate, est.se, est.verdict) == (estimate, se, verdict)
    assert vars(est.tail) == vars(tail)


def test_sharpe_exponents_do_not_depend_on_the_scale_of_x():
    # (x alpha)^2 / |x sigma|^2 is scale free: a one-asset x is divided by
    # |x| to exactly +-1 before it can overflow or underflow the ratio
    spec = ItoSpec(1.0, 0.06, 0.2, "geometric")
    unit = novikov_sharpe(spec, [1.0], 1.0)
    assert unit.estimate == 1.046027859908717
    for x in (3.0, -7.5, 1e300, 1e-170, 1e-300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = novikov_sharpe(spec, [x], 1.0)
        assert est.exponents.tobytes() == unit.exponents.tobytes(), x
    with pytest.raises(NumericalError, match="vanishes"):
        novikov_sharpe(spec, [0.0], 1.0)


@pytest.mark.parametrize("scale", [2.0**900, 2.0**-900])
def test_sharpe_exponents_do_not_depend_on_the_scale_of_drift_and_sigma(scale):
    # the ratio of drift and volatility scaled alike by a power of two; at
    # these scales |x sigma|^2 alone overflows or underflows
    unit = novikov_sharpe(ItoSpec(1.0, 0.06, 0.2, "geometric"), [1.0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = novikov_sharpe(ItoSpec(1.0, 0.06 * scale, 0.2 * scale, "geometric"), [1.0], 1.0)
    assert est.exponents.tobytes() == unit.exponents.tobytes()


def test_sharpe_ratio_that_overflows_is_divergence_evidence_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = novikov_sharpe(ItoSpec(1.0, 1e300, 0.2, "geometric"), [1.0], 1.0)
    assert (est.estimate, est.se, est.verdict) == (np.inf, np.inf, "divergence_evidence")


def test_sharpe_constant_fields_simulate_nothing():
    spec = ItoSpec(1.0, 0.06, 0.2, "geometric")
    novikov_sharpe(spec, [1.0], 1.0, n_paths=20, steps=8)  # first-call allocations
    peak = _traced_peak(lambda: novikov_sharpe(spec, [1.0], 1.0, n_paths=2000, steps=1024))
    # simulating the 2000 x 1025 state and its driver took 62.7 MiB
    assert peak < 2**20


def test_sharpe_draws_nothing_and_takes_no_seed(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("novikov_sharpe drew from a keyed stream")

    monkeypatch.setattr(curvarb.paths, "_keyed_rows", no_draw)
    est = novikov_sharpe(ItoSpec(1.0, 0.06, 0.2, "geometric"), [1.0], 1.0, n_paths=50, steps=64)
    assert est.n_used == 50 and est.exponents.shape == (50,)
    with pytest.raises(TypeError, match="seed"):
        novikov_sharpe(ItoSpec(1.0, 0.06, 0.2, "geometric"), [1.0], 1.0, seed=5)


def test_sharpe_constant_fields_never_read_the_state():
    # drift 800 overflows a simulated geometric state, but the integrand
    # (0.5 * 800^2 = 320000 per unit time) never reads it
    spec = ItoSpec(1.0, 800.0, 1.0, "geometric")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = novikov_sharpe(spec, [1.0], 1.0, n_paths=40)
    assert (est.estimate, est.se, est.verdict) == (np.inf, np.inf, "divergence_evidence")


def test_sharpe_vanishing_volatility_counts_every_path():
    spec = ItoSpec(1.0, 0.06, 0.2, "geometric")
    with pytest.raises(NumericalError) as err:
        novikov_sharpe(spec, [0.0], 1.0, n_paths=40)
    assert err.value.diagnostics == {"time_index": 0, "paths": 40}


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
    assert report.table["passed"].all()
    assert abs(report.table["residual"][report.worst]) < 1e-12


def test_kernel_check_wrong_kernel_detected():
    grid = TimeGrid.regular(5.0, 20)
    gauge = _flat_gauge(grid, 0.02, np.ones((1, grid.n_times)), "flat")
    report = kernel_check([gauge], np.ones(grid.n_times), [(1.0, 2.0)])
    row = {name: column[0] for name, column in report.table.items()}
    assert not row["passed"]
    assert row["z"] == np.inf
    assert row["residual"] == pytest.approx(-np.expm1(-0.02), abs=1e-12)


@pytest.mark.parametrize("factor, passed", [(0.99, True), (1.01, False)])
@pytest.mark.parametrize("se, width", [(0.01, 0.03), (0.0, 1e-10)], ids=["three-se", "zero-se"])
def test_kernel_check_gate_width(monkeypatch, se, width, factor, passed):
    # the worst bin passes within 3 standard errors, or 1e-10 at zero SE
    bins = {"mean": np.array([0.5 * width, -factor * width]), "se": np.array([se, se])}
    monkeypatch.setattr(curvarb.curvature, "conditional_bin_table", lambda states, y: bins)
    grid = TimeGrid.regular(5.0, 20)
    gauge = _flat_gauge(grid, 0.02, np.ones((1, grid.n_times)), "flat")
    table = kernel_check([gauge], np.exp(-0.02 * grid.times), [(1.0, 2.0)]).table
    row = {name: column[0] for name, column in table.items()}
    assert row["residual"] == -factor * width
    assert row["passed"] == passed
    assert row["z"] == (pytest.approx(3 * factor) if se else (0.0 if passed else np.inf))


def test_kernel_check_without_pairs_is_empty_and_passes():
    # all([]) is True: no pair, no failure
    grid = TimeGrid.regular(5.0, 20)
    gauge = _flat_gauge(grid, 0.02, np.ones((1, grid.n_times)), "flat")
    report = kernel_check([gauge], np.exp(-0.02 * grid.times), [])
    assert list(report.table) == ["label", "t", "s", "residual", "se", "z", "passed"]
    assert [len(column) for column in report.table.values()] == [0] * 7
    assert report.bins == []
    assert report.table["passed"].all()


def _reference_kernel_rows(gauges, beta, pairs):
    """kernel_check's rows and bin tables one (gauge, pair) at a time: the
    reference bins, the bin of largest |mean| as max picks it (the first of
    equals) and the gate written for one scalar residual."""
    grid, b = gauges[0].grid, np.atleast_2d(beta)
    rows, bins = [], []
    for g in gauges:
        d = g.deflator.series
        for t, s in pairs:
            i_t, i_s = grid.index_of(t), grid.index_of(s)
            m_t = b[:, i_t] * d[:, i_t]
            y = b[:, i_s] * d[:, i_s] - g.curve.price(t, s) * m_t
            table = reference_bins(m_t, y / float(np.abs(m_t).mean()))
            worst = max(table, key=lambda row: abs(row["mean"]))
            r, se = abs(worst["mean"]), worst["se"]
            z = r / se if se > 0 else (np.inf if r > 1e-10 else 0.0)
            row = {"label": g.label, "t": float(t), "s": float(s), "residual": worst["mean"]}
            rows.append({**row, "se": se, "z": z, "passed": r <= max(3.0 * se, 1e-10)})
            bins.append(table)
    return rows, bins


@pytest.mark.bitexact
@pytest.mark.parametrize("case", ["sampled", "deterministic"])
def test_kernel_check_columns_equal_the_per_row_reference(case):
    grid = TimeGrid.regular(2.0, 8)
    pairs = [(0.0, 1.0), (0.5, 1.0), (1.0, 1.5), (0.25, 2.0)]
    if case == "sampled":
        # martingale deflators under a kernel sampled per path
        driver = simulate_brownian(grid, 3000, 1, seed=15)
        gauges = [
            Gauge(
                simulate_ito(ItoSpec(x0=1.0, drift=0.0, sigma=sigma, form="geometric"), driver),
                flat_term_structure(grid, 0.0, OFFSETS),
                label,
            )
            for label, sigma in (("a", 0.3), ("bb", 0.1))
        ]
        rng = np.random.default_rng(6)
        beta = np.exp(-0.01 * grid.times + 0.05 * rng.normal(size=(3000, 1)))
    else:
        # one frozen path: a kernel that prices one asset and misprices the other
        ones = np.ones((1, grid.n_times))
        gauges = [_flat_gauge(grid, 0.02, ones, "right"), _flat_gauge(grid, 0.03, ones, "wrong")]
        beta = np.exp(-0.02 * grid.times)
    report = kernel_check(gauges, beta, pairs)
    rows, bins = _reference_kernel_rows(gauges, beta, pairs)
    assert_columns_equal_rows(report.table, rows)
    assert len(report.bins) == len(bins)
    for got, want in zip(report.bins, bins):
        assert_columns_equal_rows(got, want)


def test_kernel_check_martingale_deflator_passes():
    grid = TimeGrid.regular(2.0, 8)
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="geometric")
    d = simulate_ito(spec, simulate_brownian(grid, 4000, 1, seed=15))
    gauge = Gauge(d, flat_term_structure(grid, 0.0, OFFSETS), "mart")
    report = kernel_check([gauge], np.ones(grid.n_times), [(0.5, 1.0), (1.0, 1.5)])
    assert report.table["passed"].all()
    assert (report.table["se"] > 0).all()


def test_kernel_check_overflowing_state_names_the_asset_and_pair():
    # beta_t D_t = 1e400 overflows: the discounted state is not finite
    grid = TimeGrid.regular(1.0, 4)
    d = np.full((200, grid.n_times), 1e200)
    d[:, 1] *= np.linspace(1.0, 2.0, 200)
    gauge = _flat_gauge(grid, 0.0, d, "big")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        match = r"asset 'big' is non-finite for pair \(0\.25, 0\.5\)"
        with pytest.raises(NumericalError, match=match):
            kernel_check([gauge], np.full(grid.n_times, 1e200), [(0.25, 0.5)])


def test_kernel_check_nonfinite_bin_is_a_numerical_error():
    # a -340 flat rate prices the 2-year offset near 1e295: the bin variances overflow
    grid = TimeGrid.regular(5.0, 20)
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.2, form="geometric")
    d = simulate_ito(spec, simulate_brownian(grid, 64, 1, seed=42))
    gauge = _flat_gauge(grid, -340.0, d.values, "hot")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite") as err:
            kernel_check([gauge], np.ones(grid.n_times), [(0.5, 2.5)])
    assert err.value.diagnostics == {"label": "hot", "t": 0.5, "s": 2.5}


def test_kernel_check_validation():
    grid = TimeGrid.regular(1.0, 4)
    gauge = _flat_gauge(grid, 0.0, np.ones((1, grid.n_times)))
    with pytest.raises(ConfigurationError):
        kernel_check([], np.ones(grid.n_times), [(0.0, 1.0)])
    with pytest.raises(ConfigurationError):
        kernel_check([gauge], np.ones(3), [(0.0, 1.0)])
    with pytest.raises(ConfigurationError):
        kernel_check([gauge], np.zeros(grid.n_times), [(0.0, 1.0)])
    with pytest.raises(ConfigurationError, match="finite and positive"):
        kernel_check([gauge], np.full(grid.n_times, np.inf), [(0.0, 1.0)])
    # a per-path kernel of two paths for a deflator of one
    with pytest.raises(ConfigurationError, match="one row per deflator path"):
        kernel_check([gauge], np.ones((2, grid.n_times)), [(0.0, 1.0)])
