"""Gauge algebra checks: rate extraction, cashflow transforms, portfolios.

The semigroup law (acting by two cashflow vectors equals acting by their
convolution) must hold to near machine precision on a common lattice; tests
exercise it with randomized positive cashflows.  Rate extraction oracles are
exponential and quadratic log-price surfaces with hand-computed derivatives.
"""

import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curvarb import (
    CashflowVector,
    ConfigurationError,
    DomainError,
    Gauge,
    ItoSpec,
    NumeraireError,
    PathEnsemble,
    SingularTransformError,
    TimeGrid,
    convolve,
    flat_term_structure,
    forward_rates,
    gauge_transform,
    numeraire_change,
    portfolio_gauge,
    read_term_structure_csv,
    self_financing_residual,
    short_rate,
    simulate_brownian,
    simulate_ito,
    term_structure_from_forwards,
    write_term_structure_csv,
)
from curvarb.gauges import TermStructureSurface
import curvarb.paths


def unit_deflator(grid, n_paths=1, value=1.0):
    return PathEnsemble(grid, np.full((n_paths, grid.n_times, 1), value))


def random_gauge(rng, grid, n_offsets=20, spacing=0.25):
    offsets = spacing * np.arange(n_offsets)
    rates = rng.uniform(0.0, 0.10, size=(grid.n_times, n_offsets - 1))
    logp = np.concatenate(
        [np.zeros((grid.n_times, 1)), np.cumsum(rates * spacing, axis=1)], axis=1
    )
    curve = TermStructureSurface(grid, offsets, np.exp(-logp)[None, :, :])
    defl = PathEnsemble(grid, rng.uniform(0.5, 2.0, size=(1, grid.n_times, 1)))
    return Gauge(defl, curve)


def test_surface_validation():
    grid = TimeGrid.regular(1.0, 2)
    with pytest.raises(ConfigurationError):
        TermStructureSurface(grid, np.array([0.0]), np.ones((1, 3, 1)))
    with pytest.raises(ConfigurationError):
        TermStructureSurface(grid, np.array([0.5, 1.0]), np.ones((1, 3, 2)))
    bad = np.ones((1, 3, 2))
    bad[0, 1, 0] = 0.99  # P(t,t) != 1
    with pytest.raises(ConfigurationError):
        TermStructureSurface(grid, np.array([0.0, 1.0]), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5])
def test_surface_rejects_a_price_that_is_not_finite_and_positive(bad):
    grid = TimeGrid.regular(1.0, 2)
    values = np.full((2, 3, 3), 0.9)
    values[:, :, 0] = 1.0
    values[1, 2, 1] = bad
    with pytest.raises(ConfigurationError, match="prices must be finite and positive"):
        TermStructureSurface(grid, np.array([0.0, 0.5, 1.0]), values)


def test_forward_rates_exact_for_flat_exponential():
    grid = TimeGrid.regular(1.0, 3)
    offsets = np.array([0.0, 0.3, 0.7, 1.2, 2.0])  # irregular on purpose
    curve = TermStructureSurface(
        grid, offsets, np.exp(-0.04 * offsets)[None, None, :] * np.ones((1, 4, 1))
    )
    f = forward_rates(curve)
    assert np.allclose(f, 0.04, rtol=0, atol=1e-14)
    assert np.allclose(short_rate(curve), 0.04, rtol=0, atol=1e-14)


def test_forward_rates_quadratic_log_surface():
    # log P = -(a h + b h^2): f = a + 2 b h; central differences are exact,
    # the one-sided ends are off by exactly b * dh
    a, b, dh = 0.03, 0.01, 0.5
    grid = TimeGrid.regular(1.0, 1)
    offsets = dh * np.arange(8)
    curve = TermStructureSurface(
        grid,
        offsets,
        np.exp(-(a * offsets + b * offsets**2))[None, None, :] * np.ones((1, 2, 1)),
    )
    f = forward_rates(curve)
    truth = a + 2 * b * offsets
    assert np.allclose(f[0, 0, 1:-1], truth[1:-1], rtol=0, atol=1e-13)
    assert abs(f[0, 0, 0] - (truth[0] + b * dh)) < 1e-13
    assert abs(f[0, 0, -1] - (truth[-1] - b * dh)) < 1e-13


def test_round_trip_from_forwards_is_second_order():
    grid = TimeGrid.regular(1.0, 1)

    def max_err(n):
        offsets = np.linspace(0.0, 2.0, n + 1)
        p = np.exp(-(0.02 * offsets + 0.015 * offsets**2 + 0.002 * offsets**3))
        curve = TermStructureSurface(
            grid, offsets, p[None, None, :] * np.ones((1, 2, 1))
        )
        back = term_structure_from_forwards(grid, offsets, forward_rates(curve))
        return np.max(np.abs(back.values - curve.values))

    e1, e2 = max_err(16), max_err(32)
    assert e1 < 1e-3
    assert e1 / e2 > 3.0  # O(dh^2) convergence


def test_convolution_examples():
    delta = CashflowVector(0.5, np.array([0]), np.array([1.0]))  # one unit at offset 0
    b = CashflowVector(0.5, np.array([0, 1, 3]), np.array([0.7, -0.2, 1.1]))
    for out in (convolve(delta, b), convolve(b, delta)):  # the identity on either side
        assert np.array_equal(out.offsets, b.offsets)
        assert np.array_equal(out.weights, b.weights)
    ann = CashflowVector(0.5, np.array([0, 1]), np.array([1.0, 1.0]))
    diff = CashflowVector(0.5, np.array([0, 1]), np.array([1.0, -1.0]))
    prod = convolve(ann, diff)
    dense = prod.dense()
    assert np.allclose(dense, [1.0, 0.0, -1.0])
    with pytest.raises(ConfigurationError):
        convolve(ann, CashflowVector(0.3, np.array([0]), np.array([1.0])))


def test_convolution_that_underflows_to_zero_is_rejected():
    a = CashflowVector(0.5, np.array([0]), np.array([1e-200]))
    b = CashflowVector(0.5, np.array([1]), np.array([1e-200]))
    with pytest.raises(ConfigurationError, match="convolution underflows to zero"):
        convolve(a, b)


def test_transform_scales_deflator_by_cashflow_value():
    grid = TimeGrid.regular(1.0, 2)
    offsets = 0.5 * np.arange(6)
    curve = flat_term_structure(grid, 0.0, offsets)  # P identically 1
    g = Gauge(unit_deflator(grid, value=1.3), curve)
    pi = CashflowVector(0.5, np.array([0, 1, 2]), np.array([0.2, 0.3, 0.5]))
    out = gauge_transform(g, pi)
    assert np.allclose(out.deflator.series, 1.3 * 1.0, rtol=0, atol=1e-15)
    assert np.allclose(out.curve.values, 1.0, rtol=0, atol=1e-15)


def test_transform_single_future_cashflow_shifts_curve():
    grid = TimeGrid.regular(1.0, 1)
    offsets = 0.5 * np.arange(8)
    curve = flat_term_structure(grid, 0.06, offsets)
    g = Gauge(unit_deflator(grid), curve)
    pi = CashflowVector(0.5, np.array([2]), np.array([1.0]))  # one unit at h0 = 1.0
    out = gauge_transform(g, pi)
    # P^pi(t, t+g) = P(t, t+g+h0) / P(t, t+h0)
    expect = np.exp(-0.06 * (out.curve.offsets + 1.0)) / np.exp(-0.06 * 1.0)
    assert np.allclose(out.curve.values[0, 0], expect, rtol=1e-14)
    assert np.allclose(out.deflator.series, np.exp(-0.06), rtol=1e-14)


def test_transform_errors():
    grid = TimeGrid.regular(1.0, 1)
    offsets = 0.5 * np.arange(4)
    g = Gauge(unit_deflator(grid), flat_term_structure(grid, 0.0, offsets))
    with pytest.raises(ConfigurationError):
        gauge_transform(g, CashflowVector(0.4, np.array([0, 1]), np.array([1.0, 1.0])))
    with pytest.raises(DomainError):
        gauge_transform(g, CashflowVector(0.5, np.array([0, 3]), np.array([1.0, 1.0])))
    with pytest.raises(SingularTransformError):
        gauge_transform(g, CashflowVector(0.5, np.array([0, 1]), np.array([1.0, -1.0])))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_semigroup_law_exact_on_lattice(seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid.regular(1.0, 3)
    g = random_gauge(rng, grid)

    def rand_cashflow():
        k = rng.integers(1, 4)
        offsets = np.sort(rng.choice(5, size=k, replace=False))
        return CashflowVector(0.25, offsets, rng.uniform(0.1, 1.0, size=k))

    pi, nu = rand_cashflow(), rand_cashflow()
    lhs = gauge_transform(gauge_transform(g, pi), nu)
    rhs = gauge_transform(g, convolve(pi, nu))
    np.testing.assert_allclose(lhs.deflator.series, rhs.deflator.series, rtol=1e-12)
    np.testing.assert_allclose(
        lhs.curve.values, rhs.curve.values[:, :, : lhs.curve.n_offsets], rtol=1e-12
    )


def test_portfolio_weighted_short_rate_and_identity():
    grid = TimeGrid.regular(1.0, 4)
    offsets = 0.25 * np.arange(8)
    g1 = Gauge(unit_deflator(grid), flat_term_structure(grid, 0.02, offsets))
    g2 = Gauge(unit_deflator(grid), flat_term_structure(grid, 0.05, offsets))
    port = portfolio_gauge([g1, g2], np.array([0.25, 0.75]))
    r = short_rate(port.curve)
    assert np.allclose(r, 0.25 * 0.02 + 0.75 * 0.05, rtol=1e-12)
    assert np.allclose(port.deflator.series, 1.0)
    same = portfolio_gauge([g1, g1], np.array([0.5, 0.5]))
    assert np.allclose(same.curve.values, g1.curve.values, rtol=1e-12)
    assert np.allclose(same.deflator.series, g1.deflator.series, rtol=1e-15)


def _traced_portfolio(curve_paths):
    """A portfolio of 3 gauges with per-path weights on curves of curve_paths
    paths, and the tracemalloc peak of building it: the portfolio curve is
    4000 x 51 x 21 doubles (32.7 MiB), exponentiated where it is built."""
    grid = TimeGrid.regular(5.0, 50)
    offsets = 0.25 * np.arange(21)
    rng = np.random.default_rng(5)
    gauges = []
    for j in range(3):
        forwards = 0.02 + 0.04 * rng.random((curve_paths, grid.n_times, offsets.size))
        curve = term_structure_from_forwards(grid, offsets, forwards)
        spec = ItoSpec(x0=1.0, drift=0.01 * j, sigma=0.1 + 0.05 * j, form="geometric")
        driver = simulate_brownian(grid, 4000, 1, seed=5, tag=50 + j)
        gauges.append(Gauge(simulate_ito(spec, driver), curve, f"g{j}"))
    tracemalloc.start()
    try:
        port = portfolio_gauge(gauges, np.array([0.5, 0.3, 0.2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert port.curve.values.shape == (4000, grid.n_times, offsets.size)
    return port, peak


def test_portfolio_gauge_holds_little_beyond_its_curve():
    # one shared curve per asset: its log-prices are one broadcast row
    port, peak = _traced_portfolio(1)
    assert peak < 1.75 * port.curve.values.nbytes


def test_portfolio_gauge_takes_per_path_log_prices_one_block_at_a_time():
    # stacking every asset's whole log-price curve traced 202 MiB at these sizes
    port, peak = _traced_portfolio(4000)
    assert peak < 3.0 * port.curve.values.nbytes


def test_portfolio_with_vanishing_deflator_is_singular():
    grid = TimeGrid.regular(1.0, 2)
    offsets = 0.5 * np.arange(4)
    g = Gauge(unit_deflator(grid), flat_term_structure(grid, 0.01, offsets))
    with pytest.raises(SingularTransformError):
        portfolio_gauge([g, g], np.array([1.0, -1.0]))


def _one_shot_portfolio(gauges, x):
    """Portfolio deflator and curve with every path in one einsum: the
    reference the blocked portfolio_gauge must equal bit for bit."""
    grid, offsets = gauges[0].grid, gauges[0].curve.offsets
    x = np.broadcast_to(np.asarray(x, dtype=np.float64), (grid.n_times, len(gauges)))
    n_paths = max(g.n_paths for g in gauges)
    d = np.stack([np.broadcast_to(g.deflator.series, (n_paths, grid.n_times)) for g in gauges])
    dx = np.einsum("tj,jpt->pt", x, d)
    w = x.T[:, None, :] * d / dx[None, :, :]
    curve_paths = max(g.curve.n_paths for g in gauges)
    shape = (curve_paths, grid.n_times, offsets.size)
    logp = np.stack([np.broadcast_to(np.log(g.curve.values), shape) for g in gauges])
    full = np.broadcast_to(logp, (len(gauges), n_paths, grid.n_times, offsets.size))
    logpx = np.einsum("jpt,jpth->pth", w, full)
    values = np.exp(logpx)
    values[:, :, 0] = 1.0
    return dx, values


def _portfolio_case(case):
    grid = TimeGrid.regular(2.0, 6)
    offsets = 0.25 * np.arange(5)
    rng = np.random.default_rng(9)
    n_paths = 10

    def curve(paths):
        forwards = 0.01 + 0.05 * rng.random((paths, grid.n_times, offsets.size))
        return term_structure_from_forwards(grid, offsets, forwards)

    def deflator(constant):
        d = rng.uniform(0.5, 2.0, size=(1 if constant else n_paths, grid.n_times, 1))
        return PathEnsemble(grid, np.broadcast_to(d, (n_paths, grid.n_times, 1)))

    if case == "shared-curves":
        return [Gauge(deflator(False), curve(1)) for _ in range(3)], np.array([0.5, 1.5, -0.3])
    if case == "time-varying-nominals":
        nominals = rng.uniform(0.2, 1.0, size=(grid.n_times, 3))
        return [Gauge(deflator(False), curve(n_paths)) for _ in range(3)], nominals
    if case == "mixed-curves":
        gauges = [Gauge(deflator(False), curve(n_paths)), Gauge(deflator(True), curve(1))]
        return gauges + [Gauge(deflator(False), curve(n_paths))], np.array([0.7, -0.2, 0.5])
    # path-constant weights on shared curves take the shared-curve route too
    return [Gauge(deflator(True), curve(1)) for _ in range(3)], np.array([0.4, 0.6, 1.0])


@pytest.mark.bitexact
@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize(
    "case", ["shared-curves", "time-varying-nominals", "mixed-curves", "path-constant"]
)
def test_portfolio_blocks_equal_the_one_shot_einsum(monkeypatch, case, block):
    gauges, nominals = _portfolio_case(case)
    dx, values = _one_shot_portfolio(gauges, nominals)
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", block)
    port = portfolio_gauge(gauges, nominals)
    assert port.curve.values.shape == values.shape
    assert port.curve.values.shape[0] == 10
    assert port.curve.values.tobytes() == values.tobytes()
    assert port.deflator.series.tobytes() == dx.tobytes()


@pytest.mark.parametrize("block", [1, 3, 7])
def test_blocked_portfolio_with_vanishing_deflator_is_singular(monkeypatch, block):
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", block)
    grid = TimeGrid.regular(1.0, 2)
    g = Gauge(unit_deflator(grid, n_paths=10), flat_term_structure(grid, 0.01, 0.5 * np.arange(4)))
    with pytest.raises(SingularTransformError):
        portfolio_gauge([g, g], np.array([1.0, -1.0]))


def test_numeraire_change_and_round_trip():
    grid = TimeGrid.regular(1.0, 4)
    offsets = 0.25 * np.arange(5)
    d1 = PathEnsemble(grid, np.exp(0.03 * grid.times)[None, :, None])
    d2 = PathEnsemble(grid, np.exp(0.07 * grid.times)[None, :, None])
    g1 = Gauge(d1, flat_term_structure(grid, 0.03, offsets))
    g2 = Gauge(d2, flat_term_structure(grid, 0.07, offsets))
    changed = numeraire_change([g1, g2], 0)
    assert np.allclose(changed[0].deflator.series, 1.0, rtol=0, atol=1e-15)
    assert np.allclose(
        changed[1].deflator.series, np.exp(0.04 * grid.times), rtol=1e-13
    )
    # curves are untouched by the change of units
    assert np.array_equal(changed[1].curve.values, g2.curve.values)
    back = changed[1].deflator.series * d1.series
    assert np.allclose(back, d2.series, rtol=1e-13)
    neg = Gauge(
        PathEnsemble(grid, np.linspace(1.0, -0.5, grid.n_times)[None, :, None]),
        flat_term_structure(grid, 0.0, offsets),
    )
    with pytest.raises(NumeraireError):
        numeraire_change([g1, neg], 1)


def test_numeraire_own_deflator_is_a_read_only_one():
    grid = TimeGrid.regular(5.0, 50)
    offsets = 0.25 * np.arange(5)
    gauges = []
    for j in range(2):
        spec = ItoSpec(x0=1.0, drift=0.01 * j, sigma=0.2, form="geometric")
        driver = simulate_brownian(grid, 2000, 1, seed=5, tag=50 + j)
        gauges.append(Gauge(simulate_ito(spec, driver), flat_term_structure(grid, 0.0, offsets)))
    d0, d1 = gauges[0].deflator.series, gauges[1].deflator.series
    changed = numeraire_change(gauges, 0)
    own = changed[0].deflator.series
    assert own.tobytes() == (d0 / d0).tobytes()
    assert changed[1].deflator.series.tobytes() == (d1 / d0).tobytes()
    assert not own.flags.writeable
    # alone, the numeraire costs only its sign check: no n_paths x n_times float64 array
    tracemalloc.start()
    try:
        numeraire_change(gauges[:1], 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d0.nbytes / 4


def test_self_financing_constant_strategy_is_exact():
    grid = TimeGrid.regular(1.0, 20)
    offsets = 0.25 * np.arange(3)
    d1 = PathEnsemble(grid, np.exp(0.03 * grid.times)[None, :, None])
    d2 = PathEnsemble(grid, (1.0 + 0.5 * grid.times**2)[None, :, None])
    g1 = Gauge(d1, flat_term_structure(grid, 0.03, offsets))
    g2 = Gauge(d2, flat_term_structure(grid, 0.0, offsets))
    rep = self_financing_residual([g1, g2], np.array([2.0, -1.0]))
    assert rep.worst < 1e-12


def test_self_financing_detects_rebalancing_jump():
    grid = TimeGrid.regular(1.0, 20)
    offsets = 0.25 * np.arange(3)
    d = PathEnsemble(grid, np.exp(0.05 * grid.times)[None, :, None])
    g = Gauge(d, flat_term_structure(grid, 0.05, offsets))
    x = np.ones((grid.n_times, 1))
    jump_at = 10
    x[jump_at:, 0] = 2.0  # double the holding mid-path without funding it
    rep = self_financing_residual([g], x)
    spike = np.argmax(np.abs(rep.residual))
    assert rep.times[spike] == pytest.approx(grid.times[jump_at], abs=0.051)
    assert np.abs(rep.residual[spike]) > 100 * np.median(np.abs(rep.residual))


def test_self_financing_rebalanced_residual_vanishes_with_refinement():
    # cash D1 = 1 and a bond D2 = e^{0.03 t}; holding x2 = e^{-0.03 t} keeps
    # x2 D2 = 1, funded by x1 = 0.03 t: V = 1 + 0.03 t and dV = x . dD exactly
    def worst(steps):
        grid = TimeGrid.regular(1.0, steps)
        offsets = 0.25 * np.arange(3)
        d1 = PathEnsemble(grid, np.ones((1, grid.n_times, 1)))
        d2 = PathEnsemble(grid, np.exp(0.03 * grid.times)[None, :, None])
        g1 = Gauge(d1, flat_term_structure(grid, 0.0, offsets))
        g2 = Gauge(d2, flat_term_structure(grid, 0.03, offsets))
        x = np.stack([0.03 * grid.times, np.exp(-0.03 * grid.times)], axis=1)
        return self_financing_residual([g1, g2], x).worst

    w50, w100 = worst(50), worst(100)
    assert w50 < 1e-4
    assert 1.6 < w50 / w100 < 2.4  # first-order shrink


def _whole_array_self_financing(gauges, x):
    """self_financing_residual's mean and SE from whole (n_paths, ...) arrays:
    the reference its blocked form must equal bit for bit."""
    grid = gauges[0].grid
    x = np.broadcast_to(np.asarray(x, dtype=np.float64), (grid.n_times, len(gauges)))
    n_paths = max(g.n_paths for g in gauges)
    d = np.stack(
        [np.broadcast_to(g.deflator.series, (n_paths, grid.n_times)) for g in gauges], axis=2
    )
    t, h = grid.times, grid.steps
    hp, hm = h[1:][None, :], h[:-1][None, :]
    v = np.einsum("tj,ptj->pt", x, d)
    dv = 0.5 * ((v[:, 2:] - v[:, 1:-1]) / hp + (v[:, 1:-1] - v[:, :-2]) / hm)
    dd = 0.5 * (
        (d[:, 2:] - d[:, 1:-1]) / hp[:, :, None] + (d[:, 1:-1] - d[:, :-2]) / hm[:, :, None]
    )
    xd = np.einsum("tj,ptj->pt", x[1:-1], dd)
    cov_rate = 0.5 * (
        np.einsum("ptj,ptj->pt", (x[2:] - x[1:-1])[None], d[:, 2:] - d[:, 1:-1]) / hp
        + np.einsum("ptj,ptj->pt", (x[1:-1] - x[:-2])[None], d[:, 1:-1] - d[:, :-2]) / hm
    )
    resid = dv - xd + 0.5 * cov_rate
    se = resid.std(axis=0, ddof=1) / np.sqrt(n_paths)
    return t[1:-1], resid.mean(axis=0), se


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("steps", [2, 6])  # 2 steps: one interior column
@pytest.mark.parametrize("strategy", ["constant", "per-time"])
def test_self_financing_path_blocks_match_whole_array_reference(
    monkeypatch, block, steps, strategy
):
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", block)
    grid = TimeGrid.regular(2.0, steps)
    offsets = 0.25 * np.arange(3)
    rng = np.random.default_rng(block * 10 + steps)
    x = rng.uniform(-1.0, 2.0, (grid.n_times, 3))
    if strategy == "constant":
        x = x[0]
    # path counts below, at and straddling one and several blocks
    for n in sorted({max(2, block - 1), max(2, block), block + 1, 2 * block + 1, 3 * block + 2}):
        d = rng.uniform(0.5, 2.0, (n, grid.n_times, 1))
        gauges = [
            Gauge(PathEnsemble(grid, d), flat_term_structure(grid, 0.01, offsets)),
            Gauge(PathEnsemble(grid, d[:1] ** 2), flat_term_structure(grid, 0.02, offsets)),
            Gauge(PathEnsemble(grid, 1.0 / d), flat_term_structure(grid, 0.03, offsets)),
        ]
        rep = self_financing_residual(gauges, x)
        for a, b in zip((rep.times, rep.residual, rep.se), _whole_array_self_financing(gauges, x)):
            assert a.tobytes() == b.tobytes(), n


def test_term_structure_csv_round_trip(tmp_path):
    grid = TimeGrid(np.array([0.0, 0.3, 0.55]))
    offsets = np.array([0.0, 0.25, 0.5, 1.0])
    rng = np.random.default_rng(5)
    vals = np.exp(-np.cumsum(rng.uniform(0.0, 0.05, size=(2, 3, 4)), axis=2))
    vals[:, :, 0] = 1.0
    curve = TermStructureSurface(grid, offsets, vals)
    target = tmp_path / "curve.csv"
    write_term_structure_csv(target, curve)
    back = read_term_structure_csv(target)
    assert np.array_equal(back.offsets, offsets)
    assert np.array_equal(back.values, curve.values)


def _distinct_positive(max_size):
    return st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=max_size, unique=True)


@st.composite
def _term_structures(draw):
    grid = TimeGrid(np.array([0.0, *sorted(draw(_distinct_positive(4)))]))
    offsets = np.array([0.0, *sorted(draw(_distinct_positive(5)))])
    # the file stores s = t + h: two offsets that meet in one s at some t
    # cannot be told apart
    assume(np.all(np.diff(grid.times[:, None] + offsets, axis=1) > 0))
    shape = (draw(st.integers(1, 3)), grid.n_times, offsets.size)
    values = draw(arrays(np.float64, shape, elements=st.floats(1e-300, 1e300)))
    values[:, :, 0] = 1.0
    return TermStructureSurface(grid, offsets, values)


@settings(max_examples=60, deadline=None)
@given(_term_structures())
def test_term_structure_csv_round_trips_bit_for_bit(curve):
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "curve.csv")
        write_term_structure_csv(target, curve)
        back = read_term_structure_csv(target)
    assert back.grid.times.tobytes() == curve.grid.times.tobytes()
    assert back.offsets.tobytes() == curve.offsets.tobytes()
    assert back.values.tobytes() == curve.values.tobytes()


def test_term_structure_reader_names_a_row_off_the_lattice(tmp_path):
    target = tmp_path / "curve.csv"
    rows = ["0,0.0,0.0,1.0", "0,0.0,0.5,0.9", "0,1.0,1.0,1.0", "0,1.0,1.4,0.9"]
    target.write_text("path,t,s,P\n" + "".join(f"{row}\n" for row in rows))
    message = "line 5: s - t is none of the offsets"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        read_term_structure_csv(target)


def test_price_lookup_interpolates_log_linearly():
    grid = TimeGrid.regular(1.0, 1)
    offsets = np.array([0.0, 1.0, 2.0])
    curve = flat_term_structure(grid, 0.04, offsets)
    assert np.allclose(curve.price(0.0, 1.0), np.exp(-0.04))
    assert np.allclose(curve.price(0.0, 1.5), np.exp(-0.06), rtol=1e-12)
    with pytest.raises(DomainError):
        curve.price(0.0, 5.0)


@pytest.mark.parametrize(
    "other", [TimeGrid.regular(10.0, 50), TimeGrid.regular(5.0, 25)], ids=["times", "nodes"]
)
def test_functions_combining_gauges_require_one_time_grid(other):
    # equal node counts at other times, or other node counts: each function
    # would read the second gauge at the first gauge's indices
    from curvarb.curvature import curvature_components, kernel_check

    def gauge(grid):
        d = PathEnsemble(grid, np.exp(0.03 * grid.times)[None, :, None])
        return Gauge(d, flat_term_structure(grid, 0.03, 0.25 * np.arange(5)))

    grid = TimeGrid.regular(5.0, 50)
    g1, g2 = gauge(grid), gauge(other)
    calls = {
        "curvature_components": lambda: curvature_components([g1, g2]),
        "kernel_check": lambda: kernel_check([g1, g2], np.exp(-0.03 * grid.times), [(1.0, 2.0)]),
        "portfolio_gauge": lambda: portfolio_gauge([g1, g2], [1.0, 1.0]),
        "self_financing_residual": lambda: self_financing_residual([g1, g2], [1.0, 1.0]),
        "numeraire_change": lambda: numeraire_change([g1, g2], 0),
        "numeraire_change, numeraire gauge": lambda: numeraire_change([g1], g2),
    }
    for name, call in calls.items():
        with pytest.raises(ConfigurationError, match="gauges must share one time grid"):
            call()
            pytest.fail(name)
    # one gauge, or none, has nothing to disagree with
    assert len(numeraire_change([g1], g1)) == 1
    with pytest.raises(ConfigurationError, match="at least one gauge"):
        portfolio_gauge([], [])
