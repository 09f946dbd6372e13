"""Tests for default models, bond pricing, and the credit gauge."""

import tracemalloc

import numpy as np
import pytest
from curvarb import replace
from bin_reference import assert_columns_equal_rows
from block_reference import reference_rows
from scipy import integrate, stats

import curvarb.paths
from curvarb import _laws
from curvarb.credit import (
    BondPrice,
    IntensityModel,
    StructuralModel,
    build_thm1_market,
    corporate_bond_price,
    cox_uniformity,
    credit_gauge,
    default_probability,
    simulate_default,
    thm1_residuals,
)
from curvarb.credit import _corp_deflator, _intensity_default_times
from curvarb.errors import ConfigurationError, DomainError, EstimationError
from curvarb.paths import (
    TAG_BRIDGE,
    TAG_DRIVER,
    TAG_EXP,
    ItoSpec,
    TimeGrid,
    _cumulative_trapezoid,
    _ito_blocks,
    simulate_brownian,
    simulate_ito,
)

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
    hits = np.zeros(3, dtype=np.int64)
    for _, e in _ito_blocks(spec, grid, 50_000, 9, TAG_DRIVER):
        hits += [int((np.min(e[:, ::stride, 0], axis=1) <= 0.75).sum()) for stride in (4, 2, 1)]
    p_coarse, p_mid, p_fine = hits / 50_000
    assert p_coarse < p_mid < p_fine


def _implied_intensity(tau, t, dt_seq):
    """-log(1 - p)/dt for p the share of the paths alive at t that default by
    t + dt, with its delta-method SE; constant hazard makes it exact at every dt."""
    alive = tau[tau > t]
    p = np.array([(alive <= t + dt).mean() for dt in dt_seq])
    dt = np.asarray(dt_seq)
    se_p = np.sqrt(p * (1 - p) / alive.size)
    return -np.log1p(-p) / dt, se_p / ((1 - p) * dt)


def test_implied_intensity_recovers_constant_hazard():
    grid = TimeGrid.regular(2.0, 8)
    tau = simulate_default(IntensityModel(0.05), grid, 100_000, seed=21).tau
    lam, se = _implied_intensity(tau, 1.0, [0.25, 0.5, 1.0])
    assert np.all(se > 0)
    assert np.all(np.abs(lam - 0.05) < 5 * se + 1e-3)


def test_implied_intensity_structural_fully_observed_degenerates():
    # far above the barrier the announced default arrives slower than any power
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.1, form="arithmetic")
    model = StructuralModel(spec, 0.5)
    for dt in (0.125, 0.25):
        est = default_probability(model, 0.5, 0.5 + dt, n_paths=20_000, seed=4, steps=12)
        assert est.value == 0.0 and est.se == 0.0
        assert est.n_used == 20_000


def test_structural_default_probability_is_the_first_passage_share():
    model = StructuralModel(ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="geometric"), 0.75)
    t, s, n = 0.5, 1.0, 5000
    est = default_probability(model, t, s, n_paths=n, seed=6, steps=40)
    tau = simulate_default(model, TimeGrid.regular(s, 40), n, seed=6).tau
    alive = tau > t
    assert est.n_used == int(alive.sum()) < n
    assert est.value == float((tau[alive] <= s).mean()) > 0


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


EQUITY = {
    "geometric": ItoSpec(x0=1.0, drift=0.02, sigma=0.3, form="geometric"),
    "arithmetic": ItoSpec(x0=1.0, drift=0.0, sigma=0.4, form="arithmetic"),
}
# the equities above and one whose sigma is given as an array
_STRUCTURAL_EQUITY = {
    **EQUITY,
    "array": ItoSpec(x0=1.0, drift=0.01, sigma=np.array([0.35]), form="geometric"),
}


def _small_and_whole_blocks(monkeypatch, n_paths, run):
    """run() with blocks of 97 paths, then with one block holding all n_paths."""
    out = []
    for block in (97, n_paths):
        monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", block)
        out.append(run())
    return out


@pytest.mark.parametrize("bridge", [False, True])
@pytest.mark.parametrize("equity", sorted(_STRUCTURAL_EQUITY))
def test_structural_default_times_do_not_depend_on_the_block_size(monkeypatch, equity, bridge):
    model = StructuralModel(_STRUCTURAL_EQUITY[equity], 0.7)
    grid = TimeGrid.regular(2.0, 50)
    n = 1000  # ten blocks of 97 and a short one
    small, whole = _small_and_whole_blocks(
        monkeypatch, n, lambda: simulate_default(model, grid, n, seed=13, bridge=bridge).tau
    )
    assert np.isfinite(small).sum() > 100
    assert small.tobytes() == whole.tobytes()


def _reference_structural_tau(model, grid, n, seed, bridge):
    """simulate_default's structural tau from whole-ensemble equity, bridge
    uniforms read from whole stream blocks and sigma^2 dt step by step."""
    e = simulate_ito(model.equity, simulate_brownian(grid, n, 1, seed, TAG_DRIVER)).series
    a, c, b, dt = e[:, :-1], e[:, 1:], model.barrier, grid.steps
    crossed = c <= b
    if bridge:
        u = reference_rows(seed, TAG_BRIDGE, range(n), (dt.size,), "random")
        sig = np.full(u.shape, model.equity.sigma[0, 0])
        valid = (a > b) & (c > b)
        if model.equity.form == "geometric":
            with np.errstate(invalid="ignore", divide="ignore"):
                expo = -2.0 * np.log(a / b) * np.log(c / b) / (sig**2 * dt)
        else:
            expo = -2.0 * (a - b) * (c - b) / (sig**2 * dt)
        crossed |= valid & (u < np.exp(np.where(valid, expo, -np.inf)))
    hit = crossed.any(axis=1)
    tau = np.full(n, np.inf)
    tau[hit] = grid.times[np.argmax(crossed[hit], axis=1) + 1]
    return tau


@pytest.mark.parametrize("bridge", [False, True])
@pytest.mark.parametrize("equity", sorted(_STRUCTURAL_EQUITY))
def test_structural_default_times_match_a_step_by_step_reference(monkeypatch, equity, bridge):
    model = StructuralModel(_STRUCTURAL_EQUITY[equity], 0.7)
    grid = TimeGrid.regular(2.0, 50)
    n = 1000
    reference = _reference_structural_tau(model, grid, n, 13, bridge)
    assert np.isfinite(reference).sum() > 100
    for block in (97, n):
        monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", block)
        tau = simulate_default(model, grid, n, seed=13, bridge=bridge).tau
        assert tau.tobytes() == reference.tobytes()


def test_intensity_thresholds_are_the_keyed_exponentials():
    sample = simulate_default(IntensityModel(0.05), TimeGrid.regular(5.0, 20), 3000, seed=21)
    reference = reference_rows(21, TAG_EXP, range(3000), (), "standard_exponential")
    assert sample.thresholds.tobytes() == reference.tobytes()


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bridged_structural_defaults_hold_one_block_of_equity():
    model = StructuralModel(EQUITY["geometric"], 0.75)
    grid = TimeGrid.regular(1.0, 400)
    n = 40_000
    simulate_default(model, grid, 10, seed=9, bridge=True)  # lazy imports happen outside the count
    peak = _traced_peak(lambda: simulate_default(model, grid, n, seed=9, bridge=True))
    # the whole (n, n_times) equity array would be 122 MiB
    assert peak < 0.5 * n * grid.n_times * 8


def test_nelson_default_derivative_matches_hazard():
    # the default derivative P[default by t + h | alive at t] / h of a constant hazard
    h = 0.05
    est = default_probability(IntensityModel(0.05), 1.0, 1.0 + h)
    assert est.se == 0.0
    assert est.value / h == pytest.approx(-np.expm1(-0.05 * h) / h, rel=1e-12)
    assert abs(est.value / h - 0.05) < 1e-3


def test_nelson_default_derivative_above_barrier_vanishes():
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.05, form="arithmetic")
    est = default_probability(StructuralModel(spec, 0.5), 0.25, 0.3, n_paths=20_000, seed=8)
    assert est.value / 0.05 == 0.0 and est.se == 0.0


def test_constructed_market_bond_price():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=29)
    bond = corporate_bond_price(market, 0.0, 5.0)
    exact = 1.0 - 0.4 * -np.expm1(-0.1)
    assert exact == pytest.approx(0.9619349672143838, abs=1e-15)
    assert abs(bond.value - exact) < 3 * bond.se
    assert bond.se < 1e-3


@pytest.mark.parametrize(
    "gov_rate, spread_shift, message",
    [(-100.0, 0.0, "pricing kernel"), (0.0, 400.0, "term-structure prices")],
)
def test_constructed_market_rejects_prices_that_leave_float_range(gov_rate, spread_shift, message):
    # e^{1000} overflows the kernel at the horizon; e^{-2000} underflows the corporate price
    with pytest.raises(ConfigurationError, match=message):
        build_thm1_market(0.02, 0.4, gov_rate=gov_rate, spread_shift=spread_shift, n_paths=10)


def test_constructed_market_holds_one_deflator_array():
    tracemalloc.start()
    try:
        market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    defl = market.corp.deflator.series
    assert peak < 1.5 * defl.nbytes
    times, tau = market.grid.times, market.defaults.tau
    expected = 1.0 - 0.4 * (times[None, :] >= tau[:, None])
    assert defl.tobytes() == expected.tobytes()


def test_thm1_spread_identity_exact():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=50_000, seed=11)
    report = thm1_residuals(market, [(0.0, 5.0)], lambda_source="model")
    worst = np.abs(report.spread["residual"]).max()
    assert worst <= 1e-14
    assert not report.spread["detected"].any()


def test_thm1_bond_difference_variants():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=11)
    bond = thm1_residuals(market, [(0.0, 5.0)], lambda_source="model").bond
    row = {name: column[0] for name, column in bond.items()}
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
    assert (np.abs(exact.spread["residual"] - 0.001) < 1e-14).all()
    assert exact.spread["detected"].all()
    sim = thm1_residuals(market, [(0.0, 5.0)], lambda_source="simulated", window=1.0)
    first = {name: column[0] for name, column in sim.spread.items()}
    assert first["se"] > 0
    assert first["detected"] and first["z"] > 3
    detected = np.mean(sim.spread["detected"])
    assert detected > 0.9


def test_thm1_unperturbed_simulated_source_quiet():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=37)
    sim = thm1_residuals(market, [(0.0, 5.0)], lambda_source="simulated", window=1.0)
    assert abs(sim.spread["z"][0]) < 4


def test_thm1_simulated_hazard_counts_the_paths_alive_after_t():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=3)
    grid = market.grid
    rng = np.random.default_rng(8)
    # defaults on grid nodes tie with t and t + window; inf and NaN are never
    # at or before either, and NaN is never alive
    tau = np.where(rng.random(2000) < 0.6, rng.choice(grid.times, 2000), np.inf)
    tau[:3] = np.nan
    tied = replace(market, defaults=replace(market.defaults, tau=tau))
    columns = thm1_residuals(tied, [], lambda_source="simulated", window=1.0).spread
    assert columns["t"].tolist() == grid.times[grid.times <= 9.0].tolist()
    spread = np.asarray(market.corp_rates) - np.asarray(market.gov_rates)
    beta = market.beta
    for i, (t, residual, se) in enumerate(zip(columns["t"], columns["residual"], columns["se"])):
        n_t, n_s = int(np.sum(tau > t)), int(np.sum(tau > t + 1.0))
        lam = float(-np.log(n_s / n_t) / 1.0)
        assert residual == float(spread[i] - beta[i] * 0.4 * lam)
        assert se == float(beta[i] * 0.4 * np.sqrt(max(1.0 / n_s - 1.0 / n_t, 0.0)))


def test_thm1_simulated_window_must_fit_the_horizon():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=3)
    for window in (0.0, -1.0, 10.5, np.nan):
        with pytest.raises(ConfigurationError, match="window"):
            thm1_residuals(market, [], lambda_source="simulated", window=window)
    # the whole horizon still leaves the row at t = 0
    full = thm1_residuals(market, [], lambda_source="simulated", window=10.0)
    assert full.spread["t"].tolist() == [0.0]
    # the model hazard never reads the window
    model = thm1_residuals(market, [], lambda_source="model", window=10.5)
    assert len(model.spread["t"]) == 41


def test_thm1_without_pairs_has_empty_bond_columns():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=3)
    bond = thm1_residuals(market, []).bond
    names = ["t", "s", "general_printed", "general", "numeraire_printed", "numeraire_rederived"]
    assert list(bond) == names + ["se", "n_alive"]
    assert [len(column) for column in bond.values()] == [0] * 8
    assert [column.dtype for column in bond.values()] == [np.float64] * 7 + [np.int64]


def _reference_spread_rows(market, lambda_source, window):
    """thm1_residuals' spread rows computed one grid time at a time."""
    grid = market.grid
    spread = np.asarray(market.corp_rates) - np.asarray(market.gov_rates)
    beta = market.beta
    tau = market.defaults.tau
    ordered = np.sort(tau[~np.isnan(tau)])
    rows = []
    for i, t in enumerate(grid.times):
        if lambda_source == "model":
            lam_hat, lam_se = float(market.defaults.hazard[i]), 0.0
        else:
            if t + window > grid.horizon + 1e-12:
                continue
            alive = ordered.size - np.searchsorted(ordered, [t, t + window], side="right")
            n_t, n_s = (int(c) for c in alive)
            if n_s < 10:
                raise EstimationError(
                    "too few survivors for a hazard estimate",
                    diagnostics={"at_t": n_t, "at_t_plus": n_s},
                )
            lam_hat = float(-np.log(n_s / n_t) / window)
            lam_se = float(np.sqrt(max(1.0 / n_s - 1.0 / n_t, 0.0)) / window)
        lgd_t = market.lgd
        residual = float(spread[i] - beta[i] * lgd_t * lam_hat)
        se = float(beta[i] * lgd_t * lam_se)
        r = abs(residual)
        z = r / se if se > 0 else (np.inf if r > 1e-14 else 0.0)
        detected = not r <= max(3.0 * se, 1e-14)
        rows.append({"t": float(t), "residual": residual, "se": se, "z": z, "detected": detected})
    return rows


# an LGD given as the int 0 or 1 must not make the spread rows integral
REPLACED_LGD = {"replaced": 0.25, "int-0": 0, "int-1": 1}


@pytest.mark.bitexact
@pytest.mark.parametrize("window", [1.0, 2.5])
@pytest.mark.parametrize("lgd", ["constant", *REPLACED_LGD])
@pytest.mark.parametrize("lambda_source", ["model", "simulated"])
def test_thm1_spread_rows_equal_the_per_time_reference(lambda_source, lgd, window):
    market = build_thm1_market(
        0.05, 0.4, horizon=10.0, steps=40, n_paths=5000, seed=19, gov_rate=0.01
    )
    if lgd in REPLACED_LGD:
        market = replace(market, lgd=REPLACED_LGD[lgd])
    columns = thm1_residuals(market, [], lambda_source=lambda_source, window=window).spread
    reference = _reference_spread_rows(market, lambda_source, window)
    assert_columns_equal_rows(columns, reference)
    kept = 41 if lambda_source == "model" else int(40 - 4 * window) + 1
    assert len(columns["t"]) == kept


def test_thm1_simulated_hazard_raises_at_the_first_starved_window():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=3)
    # 1991 defaults at 6.1 leave 9 paths alive after it: every window that
    # reaches past 6.1 is starved, the first one at t = 5.25 with 2000 alive
    tau = np.full(2000, np.inf)
    tau[:1991] = 6.1
    starved = replace(market, defaults=replace(market.defaults, tau=tau))
    with pytest.raises(EstimationError, match="too few survivors") as err:
        thm1_residuals(starved, [], lambda_source="simulated", window=1.0)
    with pytest.raises(EstimationError) as ref:
        _reference_spread_rows(starved, "simulated", 1.0)
    assert err.value.diagnostics == ref.value.diagnostics == {"at_t": 2000, "at_t_plus": 9}


@pytest.mark.parametrize("factor, detected", [(0.99, False), (1.01, True)])
def test_thm1_spread_detection_width(factor, detected):
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=20_000, seed=5)
    i = 8
    # the model hazard has zero SE: a residual is detected beyond 1e-14
    rates = np.array(market.corp_rates)
    rates[i] += factor * 1e-14
    spread = thm1_residuals(replace(market, corp_rates=rates), [], lambda_source="model").spread
    assert spread["residual"][i] == pytest.approx(factor * 1e-14, rel=1e-3)
    n = len(spread["detected"])
    assert spread["detected"].tolist() == [detected and j == i for j in range(n)]
    # the simulated hazard is detected beyond 3 standard errors
    base = thm1_residuals(market, [], lambda_source="simulated").spread
    assert base["se"][i] > 0
    rates = np.array(market.corp_rates)
    rates[i] += factor * 3 * base["se"][i] - base["residual"][i]
    spread = thm1_residuals(replace(market, corp_rates=rates), [], lambda_source="simulated").spread
    assert spread["z"][i] == pytest.approx(3 * factor, rel=1e-6)
    assert spread["detected"][i] == detected


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


def test_credit_gauge_reads_the_node_where_the_deflator_jumps():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=3)
    times = market.grid.times
    tau = market.defaults.tau.copy()
    tau[np.argmax(market.defaults.defaulted())] = times[8] + 1e-13  # just after a node
    # the corporate deflator, derived from the moved tau, jumps at times >= tau
    moved = replace(market, defaults=replace(market.defaults, tau=tau))
    assert credit_gauge(moved).jump_deviation <= 1e-12


def _stored_deflator(market, lgd_value):
    """The (n, n_times) corporate deflator as build_thm1_market once stored it."""
    times, tau = market.grid.times, market.defaults.tau
    return np.where(times[None, :] >= tau[:, None], 1.0 - lgd_value, 1.0)


def _market_with_edge_defaults(lgd_value):
    """A small market with one default exactly on a node, one just after it
    and one path that never defaults."""
    market = build_thm1_market(0.05, lgd_value, horizon=10.0, steps=40, n_paths=2000, seed=3)
    times = market.grid.times
    tau = market.defaults.tau.copy()
    tau[:3] = times[8], times[8] + 1e-13, np.inf
    return replace(market, defaults=replace(market.defaults, tau=tau))


@pytest.mark.parametrize("lgd_value", [0.0, 0.4, 1.0])
def test_derived_corp_deflator_equals_the_stored_array(lgd_value):
    market = _market_with_edge_defaults(lgd_value)
    stored = _stored_deflator(market, lgd_value)
    assert np.isfinite(market.defaults.tau).sum() > 100
    for i in range(market.grid.n_times):
        assert _corp_deflator(market, i).tobytes() == stored[:, i].tobytes()
    assert market.corp.deflator.series.tobytes() == stored.tobytes()
    assert market.corp is market.corp  # built once, then kept
    assert market.corp.curve is market.corp_curve


def test_replacing_the_lgd_moves_the_deflator():
    # a market has one LGD: the corporate deflator follows it
    market = build_thm1_market(0.05, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=3)
    replaced = replace(market, lgd=0.2)
    stored = _stored_deflator(market, 0.2)
    assert replaced.corp.deflator.series.tobytes() == stored.tobytes()
    assert _corp_deflator(replaced, 40).tobytes() == stored[:, 40].tobytes()
    assert market.corp.deflator.series.tobytes() == _stored_deflator(market, 0.4).tobytes()


@pytest.mark.parametrize("lgd_value", [0.0, 0.4, 1.0])
def test_column_readers_match_the_stored_deflator_route(lgd_value):
    market = _market_with_edge_defaults(lgd_value)
    stored = _stored_deflator(market, lgd_value)
    grid, tau = market.grid, market.defaults.tau
    d_gov = np.broadcast_to(market.gov.deflator.series, stored.shape)
    beta = market.beta
    pairs = [(0.0, 5.0), (2.0, 4.0), (2.5, 5.0)]  # t = 2.0 is the node of the edge defaults
    reports = [thm1_residuals(market, pairs, lambda_source=source) for source in ("model", "simulated")]
    for k, (t, s) in enumerate(pairs):
        alive, i_t, i_s = tau > t, grid.index_of(t), grid.index_of(s)
        # the bond-difference row, by thm1_residuals' arithmetic, off the stored deflator
        p_corp = float(market.corp_curve.price(t, s).mean())
        p_gov = float(market.gov.curve.price(t, s).mean())
        lhs = p_corp * float(stored[alive, i_t].mean()) - p_gov * float(d_gov[alive, i_t].mean())
        scale = float(beta[i_t]) * float(market.lgd)
        general = lhs + scale * float((tau[alive] <= s).mean())
        assert [report.bond["general"][k] for report in reports] == [general, general]
        price = corporate_bond_price(market, t, s)
        vals = stored[alive, i_s] / stored[alive, i_t]
        assert (price.value, price.n_used) == (float(vals.mean()), int(alive.sum()))
        assert price.se == float(vals.std(ddof=1) / np.sqrt(vals.size))


def test_column_readers_hold_less_than_one_deflator_array():
    n = 100_000
    flow_pairs = [(0.0, 5.0), (1.0, 3.0), (2.0, 7.0)]

    def flow(n_paths):
        market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=n_paths, seed=11)
        thm1_residuals(market, flow_pairs, lambda_source="simulated", window=1.0)
        corporate_bond_price(market, 0.0, 5.0)
        corporate_bond_price(market, 1.0, 4.0)

    flow(100)  # lazy imports happen outside the count
    # one (n, n_times) float64 corporate deflator is 32.8 MB
    assert _traced_peak(lambda: flow(n)) < n * 41 * 8 / 3


def _broadcast_default_times(cum, times, thresholds):
    """The first crossing by a full (n, n_times) compare, as for per-path hazards."""
    c = np.broadcast_to(cum, (thresholds.size, times.size))
    crossed = c >= thresholds[:, None]
    has = crossed.any(axis=1)
    idx = np.argmax(crossed, axis=1)
    tau = np.full(thresholds.size, np.inf)
    i1 = idx[has]
    i0 = i1 - 1
    rows = np.nonzero(has)[0]
    c0 = c[rows, i0]
    dc = c[rows, i1] - c0
    frac = np.where(dc > 0, (thresholds[has] - c0) / np.where(dc > 0, dc, 1.0), 1.0)
    tau[has] = times[i0] + frac * (times[i1] - times[i0])
    return tau


@pytest.mark.parametrize(
    "lam",
    [
        lambda t: 0.3 * (t < 2.0) + 0.5 * (t > 3.0),  # a zero-hazard stretch: dc = 0 there
        lambda t: 0.0,
        lambda t: 0.02 + 0.01 * t,
    ],
    ids=["zero_stretch", "all_zero", "linear"],
)
def test_one_row_default_times_equal_the_broadcast_route(lam):
    grid = TimeGrid.regular(5.0, 20)
    sample = simulate_default(IntensityModel(lam), grid, 1, seed=0)
    lam_row = sample.hazard
    cum = _cumulative_trapezoid(lam_row, grid.steps)
    assert lam_row.shape == cum.shape == (grid.n_times,)
    thresholds = np.concatenate(
        [
            cum,  # every node's cumulative hazard, the first crossing exactly on it
            cum[-1] + np.array([1e-12, 0.5, 40.0]),  # past the last node: no default
            reference_rows(7, TAG_EXP, range(2000), (), "standard_exponential"),
        ]
    )
    one_row = _intensity_default_times(cum, grid.times, thresholds)
    broadcast = _broadcast_default_times(cum, grid.times, thresholds)
    assert one_row.tobytes() == broadcast.tobytes()
    assert np.isinf(one_row[grid.n_times : grid.n_times + 3]).all()
    if not lam_row.any():
        assert np.isinf(one_row[grid.n_times :]).all()


def _scan_default_times(cum, times, thresholds):
    """The reference: one scalar scan of the cumulative hazard per threshold."""
    tau = np.full(thresholds.size, np.inf)
    for k, x in enumerate(thresholds.tolist()):
        i1 = next((i for i, c in enumerate(cum.tolist()) if c >= x), None)
        if i1 is None:
            continue
        c0, c1 = cum[i1 - 1], cum[i1]
        frac = (x - c0) / (c1 - c0) if c1 - c0 > 0 else 1.0
        tau[k] = times[i1 - 1] + frac * (times[i1] - times[i1 - 1])
    return tau


@pytest.mark.parametrize("case", ["interior", "nodes", "right_end", "outside", "empty"])
def test_default_times_equal_a_per_threshold_scan(case):
    grid = TimeGrid.regular(5.0, 20)
    # a zero-hazard stretch puts repeated values, and so ties, in the row
    lam = lambda t: 0.3 * (t < 2.0) + 0.5 * (t > 3.0)  # noqa: E731
    hazard = simulate_default(IntensityModel(lam), grid, 1, seed=0).hazard
    cum = _cumulative_trapezoid(hazard, grid.steps)
    rng = np.random.default_rng(3)
    thresholds = {
        "interior": rng.uniform(0.0, cum[-1], 500),
        "nodes": cum[rng.integers(0, grid.n_times, 500)],
        "right_end": np.full(500, cum[-1]),
        "outside": np.concatenate([np.zeros(5), cum[-1] + rng.random(250)]),
        "empty": np.empty(0),
    }[case]
    tau = _intensity_default_times(cum, grid.times, thresholds)
    assert tau.shape == thresholds.shape
    assert tau.tobytes() == _scan_default_times(cum, grid.times, thresholds).tobytes()
    if case == "outside":
        assert (tau[:5] == 0.0).all() and np.isinf(tau[5:]).all()
    if case == "right_end":
        assert tau == pytest.approx(grid.times[-1], rel=1e-15)


def test_intensity_default_times_hit_their_thresholds():
    # the crossing is interpolated on the piecewise-linear cumulative hazard,
    # so reading it back at tau returns each defaulted path's own threshold
    grid = TimeGrid.regular(10.0, 40)
    sample = simulate_default(IntensityModel(lambda t: 0.05 + 0.01 * t), grid, 20_000, seed=5)
    mask = sample.defaulted()
    assert 1000 < mask.sum() < mask.size
    cum = _cumulative_trapezoid(sample.hazard, grid.steps)
    hit = np.interp(sample.tau[mask], grid.times, cum)
    assert hit == pytest.approx(sample.thresholds[mask], rel=1e-12)
    assert (sample.thresholds[~mask] > cum[-1]).all()


def test_only_structural_probabilities_need_paths():
    exact = default_probability(IntensityModel(0.02), 1.0, 3.0, n_paths=0)
    assert (exact.value, exact.se, exact.n_used) == (-np.expm1(-0.04), 0.0, 0)
    spec = ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="arithmetic")
    for n_paths in (0, 1):
        with pytest.raises(ConfigurationError, match="n_paths >= 2"):
            default_probability(StructuralModel(spec, 0.7), 0.0, 1.0, n_paths=n_paths)
    with pytest.raises(ConfigurationError, match="unknown default model"):
        default_probability(ItoSpec(x0=0.02, drift=0.0, sigma=0.01), 0.0, 1.0, n_paths=10)


def test_a_hazard_that_is_not_a_number_is_rejected():
    with pytest.raises(ConfigurationError, match="nonnegative"):
        IntensityModel(lambda t: np.nan).hazard_values(np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize(
    "lam", [ItoSpec(x0=0.05, drift=0.0, sigma=0.01), "0.02", None, np.array([0.02])]
)
def test_a_hazard_that_is_not_a_number_or_a_callable_is_rejected(lam):
    # hazards are deterministic: a hazard process is refused at construction
    with pytest.raises(ConfigurationError, match="real number or a callable"):
        IntensityModel(lam)


def test_structural_equity_has_one_driver():
    two_factor = ItoSpec(x0=1.0, sigma=np.array([[0.2, 0.1]]))
    with pytest.raises(ConfigurationError, match="one driver"):
        StructuralModel(two_factor, 0.5)


def test_bond_price_and_thm1_reject_s_past_the_sample_horizon():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=2000, seed=7)
    with pytest.raises(DomainError, match="past the sample horizon"):
        corporate_bond_price(market, 8.0, 13.0)
    with pytest.raises(DomainError, match="past the sample horizon"):
        thm1_residuals(market, [(0.0, 5.0), (8.0, 13.0)])
    assert corporate_bond_price(market, 8.0, 10.0).n_used > 0  # the horizon itself is sampled


@pytest.mark.xfail(
    strict=True,
    reason="D13: with gov_rate r != 0 the spread residual is LGD * lambda * (1 - exp(-r t)): "
    "the construction's spread carries no beta, but the identity multiplies by beta_t",
)
def test_thm1_holds_on_a_consistent_market_with_a_government_rate():
    market = build_thm1_market(
        0.05, 0.4, horizon=10, steps=40, n_paths=5000, seed=19, gov_rate=0.05
    )
    spread = thm1_residuals(market, [(0.0, 5.0)], lambda_source="model").spread
    assert not spread["detected"].any()


def test_lgd_validation():
    # a market's LGD is a real number in [0, 1], however the market is made
    market = build_thm1_market(0.02, 0.4, steps=10, n_paths=200, seed=1)
    for v in (1.2, -0.1, np.nan, "0.4"):
        with pytest.raises(ConfigurationError, match="real number in \\[0, 1\\]"):
            replace(market, lgd=v)
        with pytest.raises(ConfigurationError, match="real number in \\[0, 1\\]"):
            build_thm1_market(0.02, v, steps=10, n_paths=200, seed=1)
    for v in (0.0, 1.0, np.float64(0.25)):
        assert replace(market, lgd=v).lgd == v


def test_a_scalar_lgd_is_one_number_not_a_list_or_an_array():
    # the range rule takes a stress rule's array of losses, but a market's
    # LGD and a density's lgd_value are one number each
    from curvarb.novikov import DensitySpec

    market = build_thm1_market(0.02, 0.4, steps=10, n_paths=200, seed=1)
    pdf = lambda t: np.full(np.shape(t), 1.0 / 50.0)  # noqa: E731
    for v in ([0.4], [], np.full(200, 0.4)):
        with pytest.raises(ConfigurationError, match="real number in \\[0, 1\\]"):
            replace(market, lgd=v)
        with pytest.raises(ConfigurationError, match="real number in \\[0, 1\\]"):
            build_thm1_market(0.02, v, steps=10, n_paths=200, seed=1)
        with pytest.raises(ConfigurationError, match="real number in \\[0, 1\\]"):
            DensitySpec(k=4, tau_pdf=pdf, t_max=50.0, lgd_value=v)


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
        StructuralModel(spec, barrier=1.5)
    falling = StructuralModel(ItoSpec(x0=1.0, drift=-1.0, sigma=0.3, form="arithmetic"), 0.7)
    with pytest.raises(EstimationError, match="no survivors"):  # all default before t
        default_probability(falling, 4.0, 4.5, n_paths=50, steps=90)


def test_bond_price_reports_sample_size():
    market = build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=3_000, seed=5)
    bond = corporate_bond_price(market, 2.0, 7.0)
    assert isinstance(bond, BondPrice)
    alive = int(market.defaults.survivors_at(2.0).sum())
    assert bond.n_used == alive < 3_000


# ---------------------------------------------------------------------------
# SciPy as an oracle for the KS law and the hazard quadrature

SMOOTH_HAZARD = lambda t: 0.02 + 0.01 * np.sin(t) + 0.005 * np.exp(-0.3 * t)  # noqa: E731


def test_ks_statistic_bit_equal_to_scipy():
    grid = TimeGrid.regular(20.0, 400)
    lam = lambda t: 0.01 + 0.002 * t  # noqa: E731
    for seed in (12, 13):
        sample = simulate_default(IntensityModel(lam), grid, 5_000, seed=seed)
        stat, pvalue, n_def = cox_uniformity(sample)
        rows = np.nonzero(sample.defaulted())[0]
        cum = _cumulative_trapezoid(sample.hazard, grid.steps)
        lam_tau = np.array([np.interp(tau, grid.times, cum) for tau in sample.tau[rows]])
        u = -np.expm1(-lam_tau) / -np.expm1(-cum[-1])
        reference = stats.kstest(u, "uniform")
        assert stat == reference.statistic
        assert n_def == rows.size
        assert pvalue == pytest.approx(reference.pvalue, abs=1e-6)


@pytest.mark.parametrize("n", [10, 140, 141, 1000, 7000, 60000])
def test_kolmogorov_sf_matches_scipy_in_every_regime(n):
    # n d^2 from deep in the bulk to far in the tail, plus both Ruben-Gambino
    # ends (n d <= 1 and n d >= n - 1) and the d >= 1/2 Smirnov range
    d = np.sqrt(np.geomspace(0.01, 40.0, 80) / n)
    d = np.concatenate([d, np.array([0.6, 0.9, 1.0, 1.5, n - 1.0, n - 0.5]) / n, [0.5, 0.7]])
    checked = 0
    for x in d[(d > 0) & (d < 1)]:
        expected = float(stats.kstwo.sf(x, n))
        got = _laws.kolmogorov_sf(n, float(x))
        assert 0.0 <= got <= 1.0
        if expected >= 1e-6:
            assert abs(got - expected) <= 1e-6, (n, x)
            checked += 1
    assert checked > 40


@pytest.mark.parametrize(
    "lam",
    [lambda t: 0.01 + 0.002 * t, lambda t: 0.05 + 0.03 * t, SMOOTH_HAZARD],
    ids=["linear_slow", "linear_fast", "smooth"],
)
def test_integrated_hazard_matches_quad(lam):
    model = IntensityModel(lam)
    for t, s in ((0.0, 1.0), (2.0, 4.0), (0.0, 30.0), (3.3, 17.9)):
        expected, _ = integrate.quad(lam, t, s, limit=200)
        assert model.integrated_hazard(t, s) == pytest.approx(expected, rel=1e-13)


def test_integrated_hazard_takes_scalar_only_callables():
    def scalar_only(t):
        assert isinstance(t, float)
        return 0.02 + 0.001 * t

    assert IntensityModel(scalar_only).integrated_hazard(1.0, 3.0) == pytest.approx(0.044, rel=1e-14)


def test_thm1_market_callable_hazard_matches_quad():
    market = build_thm1_market(SMOOTH_HAZARD, 0.4, horizon=10.0, steps=40, n_paths=500, seed=1)
    times, offsets = market.corp.curve.grid.times, market.corp.curve.offsets
    ih = np.array([[integrate.quad(SMOOTH_HAZARD, t, t + h)[0] for h in offsets] for t in times])
    expected = 1.0 - 0.4 * -np.expm1(-ih)
    assert market.corp.curve.values[0] == pytest.approx(expected, rel=1e-13)
