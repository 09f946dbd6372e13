"""Tests for default models, bond pricing, and the credit gauge."""

import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from scipy import stats

import curvarb.credit
from curvarb.credit import (
    TAG_DRIVER,
    BondPrice,
    IntensityModel,
    LGDProcess,
    StructuralModel,
    build_thm1_market,
    corporate_bond_price,
    cox_uniformity,
    credit_gauge,
    default_probability,
    implied_intensity,
    nelson_default_derivative,
    realized_lgd_at_default,
    simulate_default,
    thm1_residuals,
)
from curvarb.credit import _interp_rows
from curvarb.errors import ConfigurationError, EstimationError
from curvarb.paths import ItoSpec, TimeGrid, simulate_brownian, simulate_ito

STANDARD_TWO_SIDED_EXIT = 2 * stats.norm.cdf(-1.0)  # 0.3173105078629141


def test_cox_constant_hazard_law():
    grid = TimeGrid.regular(30.0, 240)
    sample = simulate_default(IntensityModel(0.02), grid, 20_000, seed=7)
    stat, pvalue, n_def = cox_uniformity(sample)
    assert pvalue > 0.01
    # defaulted count matches 1 - exp(-0.6) within 3 binomial SE
    p = -np.expm1(-0.02 * 30.0)
    se = np.sqrt(p * (1 - p) / 20_000)
    assert abs(n_def / 20_000 - p) < 3 * se


def test_cox_time_varying_hazard_law():
    lam = lambda t: 0.01 + 0.002 * t  # noqa: E731
    grid = TimeGrid.regular(20.0, 400)
    sample = simulate_default(IntensityModel(lam), grid, 20_000, seed=12)
    stat, pvalue, _ = cox_uniformity(sample)
    assert pvalue > 0.01
    # P[tau <= 10] = 1 - exp(-(0.01*10 + 0.001*100)) = 1 - e^{-0.2}
    p = -np.expm1(-0.2)
    p_hat = (sample.tau <= 10.0).mean()
    se = np.sqrt(p * (1 - p) / 20_000)
    assert abs(p_hat - p) < 3 * se


def test_default_time_grid_atoms():
    grid = TimeGrid.regular(10.0, 40)
    cox = simulate_default(IntensityModel(0.1), grid, 5_000, seed=3)
    finite = cox.tau[np.isfinite(cox.tau)]
    # interpolated crossings of a continuous threshold never sit on a node
    gaps = np.min(np.abs(finite[:, None] - grid.times[None, :]), axis=1)
    assert gaps.min() > 0.0
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.4, form="arithmetic")
    struct = simulate_default(StructuralModel(spec, 0.6), grid, 2_000, seed=3)
    finite = struct.tau[np.isfinite(struct.tau)]
    assert finite.size > 100
    # grid monitoring puts every structural default on a node
    assert np.all(np.isin(finite, grid.times))


def test_default_probability_deterministic_intensity():
    p = default_probability(IntensityModel(0.02), 0.0, 5.0)
    assert p.se == 0.0
    assert p.value == pytest.approx(0.09516258196404048, abs=1e-15)
    lam = lambda t: 0.01 + 0.002 * t  # noqa: E731
    p2 = default_probability(IntensityModel(lam), 2.0, 4.0)
    assert p2.value == pytest.approx(-np.expm1(-(0.02 + 0.001 * (16 - 4))), rel=1e-10)


def test_default_probability_stochastic_intensity():
    spec = ItoSpec(x0=0.02, drift=0.0, sigma=0.001, form="arithmetic")
    est = default_probability(
        IntensityModel(spec), 1.0, 3.0, n_paths=40_000, seed=5, steps=300
    )
    # nearly deterministic hazard: conditional probability about 1 - e^{-0.04}
    assert est.se > 0
    assert abs(est.value - -np.expm1(-0.04)) < 3 * est.se + 2e-4


def test_first_passage_probability_bridge():
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="arithmetic")
    model = StructuralModel(spec, barrier=0.7)
    est = default_probability(
        model, 0.0, 1.0, n_paths=40_000, seed=3, steps=250, bridge=True
    )
    assert abs(est.value - STANDARD_TWO_SIDED_EXIT) < 3 * est.se


def test_first_passage_monotone_under_refinement():
    # common paths: coarser monitoring sees a subset of the fine nodes, so the
    # estimated exit probability can only go up under refinement
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="geometric")
    grid = TimeGrid.regular(1.0, 1024)
    # the equity simulate_default(StructuralModel(spec, 0.75), grid, 50_000, seed=9) reads
    e = simulate_ito(spec, simulate_brownian(grid, 50_000, 1, 9, tag=TAG_DRIVER)).series
    p_coarse = (np.min(e[:, ::4], axis=1) <= 0.75).mean()
    p_mid = (np.min(e[:, ::2], axis=1) <= 0.75).mean()
    p_fine = (np.min(e, axis=1) <= 0.75).mean()
    assert p_coarse < p_mid < p_fine


def test_implied_intensity_recovers_constant_hazard():
    est = implied_intensity(
        IntensityModel(0.05),
        t=1.0,
        dt_seq=[0.25, 0.5, 1.0],
        n_paths=100_000,
        seed=21,
        steps_per_unit=4,
    )
    assert not est.degenerate
    # constant hazard makes the log-survival transform exact at every dt
    assert abs(est.lambda0 - 0.05) < 3 * est.se + 1e-3
    assert np.all(np.abs(est.lambda_dt - 0.05) < 5 * est.lambda_dt_se + 1e-3)


def test_implied_intensity_structural_fully_observed_degenerates():
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.1, form="arithmetic")
    est = implied_intensity(
        StructuralModel(spec, 0.5),
        t=0.5,
        dt_seq=[0.125, 0.25],
        n_paths=20_000,
        seed=4,
        steps_per_unit=16,
    )
    # far above the barrier the announced default arrives slower than any power
    assert est.degenerate
    assert est.lambda0 == 0.0


def test_structural_implied_intensity_draws_no_default_times(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate_default called")

    monkeypatch.setattr(curvarb.credit, "simulate_default", refuse)
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.1, form="arithmetic")
    est = implied_intensity(
        StructuralModel(spec, 0.5), t=0.5, dt_seq=[0.125, 0.25], n_paths=2000, seed=4,
        steps_per_unit=16,
    )
    assert est.degenerate


def test_structural_sample_holds_only_default_times():
    model = StructuralModel(ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="geometric"), 0.75)
    grid = TimeGrid.regular(1.0, 200)
    simulate_default(model, grid, 10, seed=9)  # lazy imports happen outside the count
    tracemalloc.start()
    try:
        sample = simulate_default(model, grid, 10_000, seed=9)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # about tau's 80 kB, not the 16 MB of the (n, n_times) equity paths
    assert held < 1.5 * sample.tau.nbytes


def test_implied_intensity_coarse_observation_positive():
    # observed only at time 0, the default state at t carries fresh mass and
    # the implied hazard is the positive rate q'(s)/(1 - q(s)) of the level law
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=1.0, form="arithmetic")
    t = 0.5
    est = implied_intensity(
        StructuralModel(spec, 0.2),
        t=t,
        dt_seq=[0.0625, 0.125, 0.25],
        n_paths=200_000,
        seed=17,
        steps_per_unit=16,
        observation_times=np.array([0.0]),
    )
    assert not est.degenerate
    z = (0.2 - 1.0) / np.sqrt(t)
    q = stats.norm.cdf(z)
    rate = stats.norm.pdf(z) * (1.0 - 0.2) / (2.0 * t**1.5) / (1.0 - q)
    assert est.lambda0 > 0.15
    assert abs(est.lambda0 - rate) < 3 * est.se + 0.02


def _interp_loop(x, xp, fp):
    """The reference: one np.interp call per row."""
    return np.array([np.interp(x[i], xp, fp[i]) for i in range(x.size)])


@pytest.mark.parametrize("case", ["interior", "nodes", "right_end", "outside", "empty"])
def test_interp_rows_matches_np_interp_bit_for_bit(case):
    rng = np.random.default_rng(3)
    xp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.7, 40))])
    x = {
        "interior": rng.uniform(xp[0], xp[-1], 500),
        "nodes": xp[rng.integers(0, xp.size, 500)],
        "right_end": np.full(500, xp[-1]),
        "outside": np.concatenate([xp[0] - rng.random(250), xp[-1] + rng.random(250)]),
        "empty": np.empty(0),
    }[case]
    fp = np.cumsum(rng.uniform(0.0, 0.3, (x.size, xp.size)), axis=1)
    assert _interp_rows(x, xp, fp).tobytes() == _interp_loop(x, xp, fp).tobytes()


def test_interp_rows_matches_np_interp_at_default_times():
    grid = TimeGrid.regular(10.0, 40)
    spec = ItoSpec(x0=0.05, drift=0.0, sigma=0.03, form="arithmetic")
    sample = simulate_default(IntensityModel(spec), grid, 20_000, seed=5)
    rows = np.nonzero(sample.defaulted())[0]
    assert rows.size > 1000
    x, fp = sample.tau[rows], sample.cumulative_hazard[rows]
    assert _interp_rows(x, grid.times, fp).tobytes() == _interp_loop(x, grid.times, fp).tobytes()


def test_nelson_default_derivative_matches_hazard():
    est, se = nelson_default_derivative(
        IntensityModel(0.05), t=1.0, h=0.05, n_paths=200_000, seed=8
    )
    assert abs(est - 0.05) < 3 * se + 1e-3
    assert se < 0.004


def test_nelson_default_derivative_above_barrier_vanishes():
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.05, form="arithmetic")
    est, se = nelson_default_derivative(
        StructuralModel(spec, 0.5), t=0.25, h=0.05, n_paths=20_000, seed=8
    )
    assert est == 0.0 and se == 0.0


def test_constructed_market_bond_price():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=29)
    bond = corporate_bond_price(market, 0.0, 5.0)
    exact = 1.0 - 0.4 * -np.expm1(-0.1)
    assert exact == pytest.approx(0.9619349672143838, abs=1e-15)
    assert abs(bond.value - exact) < 3 * bond.se
    assert bond.se < 1e-3
    with pytest.raises(ConfigurationError):
        corporate_bond_price(market, 0.0, 5.0, normalization="forward")


def test_constructed_market_holds_one_deflator_array():
    tracemalloc.start()
    try:
        market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    defl = market.corp.deflator.series
    assert peak < 1.5 * defl.nbytes
    expected = 1.0 - 0.4 * market.defaults.indicator
    assert defl.tobytes() == expected.tobytes()


def test_constructed_market_deflator_form_agrees():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=50_000, seed=29)
    a = corporate_bond_price(market, 0.0, 5.0, normalization="terminal")
    b = corporate_bond_price(market, 0.0, 5.0, normalization="deflator")
    # unit initial deflator makes both normalizations identical path by path
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_thm1_spread_identity_exact():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=50_000, seed=11)
    report = thm1_residuals(market, [(0.0, 5.0)], lambda_source="model")
    worst = max(abs(r["residual"]) for r in report.rows_ii)
    assert worst <= 1e-14
    assert not any(r["detected"] for r in report.rows_ii)


def test_thm1_bond_difference_variants():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=11)
    row = thm1_residuals(market, [(0.0, 5.0)], lambda_source="model").rows_iii[0]
    assert abs(row["general"]) < 3 * row["se"]
    assert abs(row["numeraire_rederived"]) < 3 * row["se"]
    # the printed companions miss by the full survival mass
    assert row["general_printed"] > 0.3
    assert row["numeraire_printed"] > 0.9
    assert row["general"] == pytest.approx(-row["numeraire_rederived"], abs=1e-15)


def test_thm1_perturbed_spread_detected():
    market = build_thm1_market(
        0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=31, spread_shift=0.001
    )
    exact = thm1_residuals(market, [(0.0, 5.0)], lambda_source="model")
    assert all(abs(r["residual"] - 0.001) < 1e-14 for r in exact.rows_ii)
    assert all(r["detected"] for r in exact.rows_ii)
    sim = thm1_residuals(market, [(0.0, 5.0)], lambda_source="simulated", window=1.0)
    first = sim.rows_ii[0]
    assert first["se"] > 0
    assert first["detected"] and first["z"] > 3
    detected = np.mean([r["detected"] for r in sim.rows_ii])
    assert detected > 0.9


def test_thm1_unperturbed_simulated_source_quiet():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=37)
    sim = thm1_residuals(market, [(0.0, 5.0)], lambda_source="simulated", window=1.0)
    assert abs(sim.rows_ii[0]["z"]) < 4


def test_thm1_simulated_window_must_fit_the_horizon():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=3)
    for window in (0.0, -1.0, 10.5, np.nan):
        with pytest.raises(ConfigurationError, match="window"):
            thm1_residuals(market, [], lambda_source="simulated", window=window)
    # the whole horizon still leaves the row at t = 0
    full = thm1_residuals(market, [], lambda_source="simulated", window=10.0)
    assert [r["t"] for r in full.rows_ii] == [0.0]
    # the model hazard never reads the window
    model = thm1_residuals(market, [], lambda_source="model", window=10.5)
    assert len(model.rows_ii) == 41


def test_credit_gauge_bookkeeping():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=20_000, seed=2)
    gauge = credit_gauge(market)
    assert gauge.ratio_deviation <= 1e-12
    assert gauge.jump_deviation <= 1e-12
    # short-rate spread of the stored surfaces at the 0.25 lattice step
    expected = -np.log(1.0 - 0.4 * -np.expm1(-0.02 * 0.25)) / 0.25
    assert gauge.short[:, 0] == pytest.approx(expected, abs=1e-12)
    assert market.corp_rates[0] == pytest.approx(0.008, abs=1e-15)
    # credit deflator starts at zero and drops to -LGD after a default
    defaulted = market.defaults.defaulted()
    assert np.all(gauge.deflator.series[:, 0] == 0.0)
    assert np.all(gauge.deflator.series[defaulted, -1] == -0.4)


def test_realized_lgd_deterministic_rule():
    market = build_thm1_market(0.05, 0.4, horizon=10.0, steps=40, n_paths=5_000, seed=13)
    rule = lambda t: 0.2 + 0.01 * t  # noqa: E731
    varied = replace(market, lgd=LGDProcess("deterministic", fn=rule))
    lgd = realized_lgd_at_default(varied)
    mask = market.defaults.defaulted()
    assert np.all(np.isnan(lgd[~mask]))
    assert lgd[mask] == pytest.approx(rule(market.defaults.tau[mask]), abs=1e-12)


def test_stochastic_lgd_paths_clipped():
    spec = ItoSpec(x0=0.4, drift=0.0, sigma=0.8, form="arithmetic")
    proc = LGDProcess("stochastic", spec=spec)
    grid = TimeGrid.regular(2.0, 16)
    paths = proc.sample_paths(grid, 500, seed=3)
    assert paths.min() >= 0.0 and paths.max() <= 1.0
    assert paths[:, 0] == pytest.approx(0.4)


def test_lgd_validation():
    with pytest.raises(ConfigurationError):
        LGDProcess("constant", value=1.2)
    with pytest.raises(ConfigurationError):
        LGDProcess("deterministic")
    with pytest.raises(ConfigurationError):
        LGDProcess("sometimes")


def test_error_paths():
    with pytest.raises(ConfigurationError):
        default_probability(IntensityModel(0.02), 3.0, 2.0)
    with pytest.raises(ConfigurationError):
        thm1_residuals(
            build_thm1_market(0.02, 0.4, steps=10, n_paths=200, seed=1),
            [],
            lambda_source="guessed",
        )
    grid = TimeGrid.regular(5.0, 20)
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="arithmetic")
    structural = simulate_default(StructuralModel(spec, 0.7), grid, 500, seed=0)
    with pytest.raises(ConfigurationError):
        cox_uniformity(structural)
    with pytest.raises(ConfigurationError):
        implied_intensity(IntensityModel(0.02), 1.0, [0.5], n_paths=1000)
    with pytest.raises(ConfigurationError):
        StructuralModel(spec, barrier=1.5)
    with pytest.raises(EstimationError):
        nelson_default_derivative(
            IntensityModel(5.0), t=4.0, h=0.25, n_paths=500, seed=0, steps_per_unit=20
        )


def test_bond_price_reports_sample_size():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=3_000, seed=5)
    bond = corporate_bond_price(market, 2.0, 7.0)
    assert isinstance(bond, BondPrice)
    alive = int(market.defaults.survivors_at(2.0).sum())
    assert bond.n_used == alive < 3_000
