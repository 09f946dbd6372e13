"""End-to-end acceptance checks, one numbered criterion per test group.

Every expected number here is either closed form (reflection principle,
chi-square moments, exponential survival) or an independent oracle computed
with numpy/scipy primitives.  Tolerances are part of the contract and are
asserted, not logged.  The conftest hook prints one pass/fail line per
criterion at the end of the run.

Criterion 6 carries a strict xfail: discrete barrier monitoring has a
Theta(sqrt(dt)) bias, so doubling the step count shrinks the bias by sqrt(2).
The literal factor-of-two clause is unattainable for any estimator that only
looks at grid nodes; the surrounding tests pin down what refinement actually
delivers, and the bridge-corrected estimator removes the bias entirely.
"""

import functools
import os
import time

import numpy as np
import pytest
from scipy import stats

from curvarb.cli import bundled_scenarios, main
from curvarb.credit import (
    IntensityModel,
    StructuralModel,
    build_thm1_market,
    corporate_bond_price,
    cox_uniformity,
    default_probability,
    simulate_default,
    thm1_residuals,
)
from curvarb.curvature import curvature_components, zc_residual
from curvarb.gauges import (
    CashflowVector,
    Gauge,
    convolve,
    flat_term_structure,
    gauge_transform,
    term_structure_from_forwards,
)
from curvarb.novikov import (
    DensitySpec,
    capped_lgd_driver,
    capped_lgd_tq,
    novikov_mc,
    novikov_quadrature,
    q2_statistic,
)
from curvarb.paths import (
    _PATH_BLOCK,
    ItoSpec,
    TimeGrid,
    _brownian_rows,
    nelson_derivative,
    simulate_brownian,
    simulate_ito,
)

TWO_SIDED_EXIT = 2.0 * stats.norm.cdf(-1.0)      # 0.3173... reflection principle
BOND_ORACLE = 0.9619349672143838                 # 1 - 0.4 * (1 - exp(-0.02 * 5))


@pytest.fixture(scope="module")
def thm1_market():
    # shared by criteria 7, 8, and 12
    return build_thm1_market(0.02, 0.4, horizon=10.0, steps=40, n_paths=100_000, seed=11)


@pytest.fixture(scope="module")
def novikov_market():
    # shared by criteria 10 and 11
    return build_thm1_market(0.02, 0.4, horizon=30.0, steps=120, n_paths=40_000, seed=3)


@pytest.mark.acceptance(criterion=1, label="gauge-transform semigroup")
def test_01_gauge_transform_semigroup():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = TimeGrid.regular(5.0, 20)
    offsets = 0.25 * np.arange(41)
    forwards = 0.02 + 0.08 * rng.random((1, grid.n_times, offsets.size))
    curve = term_structure_from_forwards(grid, offsets, forwards)
    driver = simulate_brownian(grid, 50, 1, 3, tag=1)
    deflator = simulate_ito(ItoSpec(x0=1.0, drift=0.01, sigma=0.2), driver)
    gauge = Gauge(deflator, curve, "random")

    def draw():
        size = int(rng.integers(1, 6))
        support = np.sort(rng.choice(20, size=size, replace=False))
        # positive weights keep every present value away from zero
        return CashflowVector(0.25, support, rng.uniform(0.1, 2.0, size))

    worst = 0.0
    for _ in range(100):
        pi, nu = draw(), draw()
        composed = gauge_transform(gauge_transform(gauge, pi), nu)
        direct = gauge_transform(gauge, convolve(pi, nu))
        dev_d = np.max(
            np.abs(composed.deflator.series - direct.deflator.series)
            / np.abs(direct.deflator.series)
        )
        dev_c = np.max(
            np.abs(composed.curve.values - direct.curve.values) / np.abs(direct.curve.values)
        )
        worst = max(worst, float(dev_d), float(dev_c))
    assert worst <= 1e-12, f"semigroup deviation {worst:.3e}"
    assert time.perf_counter() - start < 5.0


@pytest.mark.acceptance(criterion=2, label="curvature nullity on flat markets")
def test_02_flat_market_curvature():
    start = time.perf_counter()
    grid = TimeGrid.regular(5.0, 20)
    offsets = 0.25 * np.arange(9)
    # constant deflators: the components vanish identically
    flat = []
    for j, label in enumerate(["a", "b"]):
        driver = simulate_brownian(grid, 2, 1, 0, tag=j)
        deflator = simulate_ito(ItoSpec(x0=1.0, drift=0.0, sigma=0.0), driver)
        flat.append(Gauge(deflator, flat_term_structure(grid, 0.0, offsets), label))
    exact = curvature_components(flat)
    assert exact.max_norm <= 1e-12
    # stochastic flat market: zero within estimator noise at n = 1e4
    noisy = []
    for j, label in enumerate(["a", "b"]):
        driver = simulate_brownian(grid, 10_000, 1, 7, tag=16 + j)
        deflator = simulate_ito(ItoSpec(x0=1.0, drift=0.0, sigma=0.2, form="geometric"), driver)
        noisy.append(Gauge(deflator, flat_term_structure(grid, 0.0, offsets), label))
    report = curvature_components(noisy)
    assert float(report.norm_se.max()) <= 1e-2, "estimator noise above 1e-2 per year"
    assert np.all(report.norm <= 3.0 * report.norm_se + 1e-12), (
        f"max z = {float((report.norm / report.norm_se).max()):.2f}"
    )
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(criterion=3, label="drift-in-volatility-span residual oracle")
def test_03_zc_residual_oracle():
    start = time.perf_counter()
    # pinned two-asset case: distance of (0.05, 0.03) from span{(1, 1)}
    report = zc_residual([0.05, 0.03], [[1.0], [1.0]])
    assert abs(report.residual[0] - 0.01 * np.sqrt(2.0)) <= 1e-6
    assert abs(report.mpr[0, 0] - 0.04) <= 1e-12
    # random deterministic systems against a direct least-squares oracle
    rng = np.random.default_rng(8)
    alpha = rng.normal(0.0, 0.05, (5, 3))
    sigma = rng.normal(0.0, 0.3, (5, 3, 2))
    report = zc_residual(alpha, sigma, times=np.linspace(0.0, 1.0, 5))
    for i in range(5):
        x, *_ = np.linalg.lstsq(sigma[i], alpha[i], rcond=None)
        oracle = np.linalg.norm(alpha[i] - sigma[i] @ x)
        assert abs(report.residual[i] - oracle) <= 1e-10
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(criterion=4, label="mean-derivative law for Brownian motion")
def test_04_nelson_brownian_law():
    start = time.perf_counter()
    grid = TimeGrid.regular(2.0, 2)
    w = simulate_brownian(grid, 100_000, 1, 5, tag=0)
    estimator = nelson_derivative(w, 1.0, mode="mean")
    points = np.linspace(-2.0, 2.0, 10)[:, None]
    values, _, n_eff = estimator.evaluate(points)
    # the mean derivative of W at t given W_t = q is q / (2t); here t = 1
    errors = np.abs(values[:, 0] - points[:, 0] / 2.0)
    assert errors.max() <= 0.05, f"max error {errors.max():.4f}"
    assert n_eff.min() >= 100
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(criterion=5, label="hazard-construction law")
def test_05_cox_hazard_law():
    start = time.perf_counter()
    grid = TimeGrid.regular(5.0, 100)
    sample = simulate_default(IntensityModel(0.2), grid, 100_000, seed=21)
    _, p_const, n_const = cox_uniformity(sample)
    sample = simulate_default(IntensityModel(lambda t: 0.05 + 0.03 * t), grid, 100_000, seed=21)
    _, p_linear, n_linear = cox_uniformity(sample)
    assert p_const > 0.01, f"constant hazard KS p = {p_const:.4f}"
    assert p_linear > 0.01, f"linear hazard KS p = {p_linear:.4f}"
    assert n_const > 50_000 and n_linear > 40_000
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(criterion=6, label="first-passage oracle")
def test_06_first_passage_oracle():
    start = time.perf_counter()
    # barrier one sigma below the start: P[tau <= 1] = 2 Phi(-1) exactly
    model = StructuralModel(ItoSpec(x0=1.0, drift=0.0, sigma=0.3, form="arithmetic"), 0.7)
    estimate = default_probability(
        model, 0.0, 1.0, n_paths=100_000, seed=31, steps=400, bridge=True
    )
    deviation = abs(estimate.value - TWO_SIDED_EXIT)
    assert deviation <= 3.0 * estimate.se, (
        f"bridge estimate off by {deviation:.5f} vs 3 se = {3 * estimate.se:.5f}"
    )
    assert estimate.se <= 2e-3
    assert time.perf_counter() - start < 60.0


@functools.cache
def _nested_monitoring_biases():
    """Plain node-monitoring default probabilities on nested grids.

    One 2000-step Brownian sample, monitored on every node and on every
    second node.  Common paths make the refinement comparison pathwise
    monotone; chunked simulation keeps memory bounded.  Both criterion-6
    tests read it, so it is computed once per session.
    """
    grid = TimeGrid.regular(1.0, 2000)
    hits_coarse = 0
    hits_fine = 0
    n_chunk, n_chunks = 50_000, 2
    for c in range(n_chunks):
        for lo in range(0, n_chunk, _PATH_BLOCK):
            rows = range(lo, min(lo + _PATH_BLOCK, n_chunk))
            # the levels at nodes 1, 2, ..., 2000; node 0 sits at 0, above the barrier
            levels = np.cumsum(_brownian_rows(grid, rows, 1, 31, 64 + c)[:, :, 0], axis=1)
            hits_fine += int((levels.min(axis=1) <= -1.0).sum())
            hits_coarse += int((levels[:, 1::2].min(axis=1) <= -1.0).sum())
    n = n_chunk * n_chunks
    p_coarse, p_fine = hits_coarse / n, hits_fine / n
    return TWO_SIDED_EXIT - p_coarse, TWO_SIDED_EXIT - p_fine


@pytest.mark.acceptance(criterion=6, label="first-passage oracle")
def test_06_monitoring_bias_shrinks_with_refinement():
    start = time.perf_counter()
    bias_1000, bias_2000 = _nested_monitoring_biases()
    assert bias_1000 > bias_2000 > 0, "bias must shrink monotonically under refinement"
    # sqrt(dt) scaling: doubling the steps divides the bias by about sqrt(2)
    ratio = bias_1000 / bias_2000
    assert 1.2 <= ratio <= 1.8, f"observed shrink factor {ratio:.3f}"
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(
    criterion=6,
    label="first-passage oracle",
    note="monitoring bias is Theta(sqrt(dt)); doubling steps shrinks it by sqrt(2), not 2x",
)
@pytest.mark.xfail(
    strict=True,
    reason=(
        "discrete barrier monitoring has a Theta(sqrt(dt)) bias; doubling the "
        "step count from 1e3 to 2e3 shrinks it by sqrt(2), so a factor-2 "
        "reduction per doubling is unattainable for node-monitored estimators"
    ),
)
def test_06_bias_halves_when_steps_double():
    bias_1000, bias_2000 = _nested_monitoring_biases()
    assert bias_1000 >= 2.0 * bias_2000


@pytest.mark.acceptance(criterion=7, label="credit-spread identity and detection")
def test_07_spread_identity_and_detection(thm1_market):
    start = time.perf_counter()
    report = thm1_residuals(thm1_market, [(0.0, 5.0)], lambda_source="model")
    worst = np.abs(report.spread["residual"]).max()
    assert worst <= 1e-14, f"spread residual {worst:.2e}"
    assert not report.spread["detected"].any()
    # a 10 bp shift must be flagged at 3 standard errors from the sample alone
    shifted = build_thm1_market(
        0.02, 0.4, horizon=10.0, steps=40, spread_shift=0.001, n_paths=100_000, seed=11
    )
    flagged = thm1_residuals(shifted, [(0.0, 5.0)], lambda_source="simulated", window=1.0)
    detected = flagged.spread["detected"].tolist()
    assert np.abs(flagged.spread["z"]).max() >= 3.0
    assert sum(detected) >= 0.5 * len(detected), (
        f"only {sum(detected)}/{len(detected)} rows detected the shift"
    )
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(criterion=8, label="bond-difference identity variants")
def test_08_bond_difference_variants(thm1_market):
    start = time.perf_counter()
    report = thm1_residuals(thm1_market, [(0.0, 5.0)], lambda_source="model")
    row = {name: column[0] for name, column in report.bond.items()}
    assert abs(row["numeraire_rederived"]) <= 3.0 * row["se"]
    assert abs(row["general"]) <= 3.0 * row["se"]
    # the printed companions are reported but do not vanish on this market
    assert abs(row["general_printed"]) > 0.25
    assert abs(row["numeraire_printed"]) > 0.9
    assert "default-probability" in report.resolution
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(criterion=9, label="chi-square law of the driver statistic")
def test_09_chi_square_law():
    start = time.perf_counter()
    grid = TimeGrid.regular(2.0, 2)
    for k in (1, 4, 16):
        driver = simulate_brownian(grid, 100_000, k, 29, tag=k)
        q = q2_statistic(driver, 1.0)
        n = q.size
        z_mean = (q.mean() - k) / (q.std(ddof=1) / np.sqrt(n))
        # fourth central moment of chi-square(k) is 12 k (k + 4)
        se_var = np.sqrt((12.0 * k * (k + 4.0) - 4.0 * k * k) / n)
        z_var = (q.var(ddof=1) - 2.0 * k) / se_var
        ks = stats.kstest(q, "chi2", args=(k,))
        assert abs(z_mean) <= 3.0, f"K={k}: mean z = {z_mean:.2f}"
        assert abs(z_var) <= 3.0, f"K={k}: variance z = {z_var:.2f}"
        assert ks.pvalue > 0.01, f"K={k}: KS p = {ks.pvalue:.4f}"
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(criterion=10, label="integrability divergence for constant LGD")
def test_10_novikov_divergence(novikov_market):
    start = time.perf_counter()
    estimate = novikov_mc(novikov_market, 4)
    assert estimate.verdict == "divergence_evidence"
    assert estimate.tail.ci_high < 1.0, "tail index CI must sit below 1"
    density = DensitySpec.truncated_exponential(0.02, horizon=30.0, k=4, lgd_value=0.4)
    quad = novikov_quadrature(density)
    assert quad.diverged and not quad.converged
    assert len(quad.trace) >= 20, "certificate needs the full halving ladder"
    assert quad.growth > np.log(1e6), f"growth {quad.growth:.2f} below certificate"
    assert not np.isfinite(quad.value)
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance(criterion=11, label="integrability cross-validation, capped LGD")
def test_11_novikov_cross_validation(novikov_market):
    start = time.perf_counter()
    mc = novikov_mc(novikov_market, 4, lgd_rule=capped_lgd_driver(0.1))
    density = DensitySpec.truncated_exponential(
        0.02, horizon=30.0, k=4, lgd_given_tq=capped_lgd_tq(0.1)
    )
    quad = novikov_quadrature(density)
    assert quad.converged
    assert mc.verdict == "finite_evidence"
    assert mc.estimate < np.exp(0.1), "capped exponent bounds the summand by e^0.1"
    gap = abs(mc.estimate - quad.value)
    assert gap <= 3.0 * mc.se, f"routes disagree: gap {gap:.2e} vs 3 se {3 * mc.se:.2e}"
    assert time.perf_counter() - start < 120.0


@pytest.mark.acceptance(criterion=12, label="corporate bond price oracle")
def test_12_corporate_bond_oracle(thm1_market):
    start = time.perf_counter()
    price = corporate_bond_price(thm1_market, 0.0, 5.0)
    deviation = abs(price.value - BOND_ORACLE)
    assert deviation <= 3.0 * price.se, (
        f"price {price.value:.6f} off oracle by {deviation:.2e} vs 3 se {3 * price.se:.2e}"
    )
    assert price.se <= 1e-3
    assert price.n_used == 100_000
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(criterion=13, label="bundled scenario reproducibility")
def test_13_cli_reproducibility(tmp_path):
    start = time.perf_counter()
    names = bundled_scenarios()
    assert {"flat_market", "thm1_constructed", "novikov_capped"} <= set(names)
    for name in names:
        first = tmp_path / f"{name}_1"
        second = tmp_path / f"{name}_2"
        assert main(["run", name, "--out", str(first)]) == 0
        assert main(["run", name, "--out", str(second)]) == 0
        files = sorted(os.listdir(first))
        assert files == sorted(os.listdir(second))
        for fname in files:
            a = (first / fname).read_bytes()
            b = (second / fname).read_bytes()
            assert a == b, f"{name}/{fname} differs between runs"
    assert time.perf_counter() - start < 600.0
