"""Tests for the market-price-of-risk integrability module."""

import tracemalloc

import numpy as np
import pytest
from block_reference import reference_rows
from curvarb import replace
from scipy import stats

from curvarb import _laws, novikov
from curvarb.credit import build_thm1_market
from curvarb.errors import ConfigurationError, DomainError, EstimationError
from curvarb.novikov import (
    DensitySpec,
    capped_lgd_driver,
    capped_lgd_tq,
    novikov_mc,
    novikov_quadrature,
    q2_statistic,
    tail_diagnostics,
)
from curvarb.paths import TAG_NOVIKOV_DRIVER, TimeGrid, simulate_brownian


@pytest.fixture(scope="module")
def base_market():
    return build_thm1_market(0.02, 0.4, horizon=30.0, steps=120, n_paths=30_000, seed=3)


@pytest.fixture(scope="module")
def small_market():
    return build_thm1_market(0.02, 0.4, horizon=30.0, steps=120, n_paths=2000, seed=5)


def test_q2_statistic_chi_square_law():
    grid = TimeGrid.regular(2.0, 8)
    n = 50_000
    for k in (1, 4, 16):
        driver = simulate_brownian(grid, n, k, seed=5)
        q = q2_statistic(driver, 2.0)
        se_mean = np.sqrt(2.0 * k / n)
        # fourth central moment of a chi-square is 12k(k+4)
        se_var = np.sqrt((12.0 * k * (k + 4) - (2.0 * k) ** 2) / n)
        assert abs(q.mean() - k) < 3 * se_mean
        assert abs(q.var(ddof=1) - 2.0 * k) < 3 * se_var
        ks = stats.kstest(q, lambda x: stats.chi2.cdf(x, k))
        assert ks.pvalue > 0.01


def test_q2_statistic_forms():
    grid = TimeGrid.regular(1.0, 4)
    driver = simulate_brownian(grid, 100, 3, seed=1)
    with pytest.raises(DomainError):
        q2_statistic(driver, 0.0)


def test_tail_diagnostics_pareto():
    rng = np.random.default_rng(7)
    u = rng.random(20_000)
    heavy = u ** (-2.0)  # survival x^{-1/2}: no finite mean
    diag = tail_diagnostics(np.log(heavy))
    assert diag.verdict == "divergence_evidence"
    assert abs(diag.tail_index - 0.5) < 0.1
    light = u ** (-1.0 / 3.0)  # survival x^{-3}
    diag2 = tail_diagnostics(np.log(light))
    assert diag2.verdict == "finite_evidence"
    assert diag2.ci_low > 1


def test_tail_diagnostics_treats_rounding_ties_as_bounded():
    # exponents held at a cap of 0.1 differ from it in the last bits only;
    # the top 1% spans four such levels, as in the capped bundled scenario
    ulps = np.repeat([0, 1, 2, 3, 4], [17_000, 100, 60, 40, 20])
    capped = 0.1 + ulps * np.spacing(0.1)
    diag = tail_diagnostics(log_samples=capped)
    assert diag.verdict == "finite_evidence"
    assert np.isinf(diag.tail_index) and diag.k_used == 0
    # a continuous tail just above the cap is still a tail
    tail = 0.1 + np.random.default_rng(3).pareto(2.0, size=400) * 1e-3
    diag = tail_diagnostics(log_samples=np.concatenate([capped, tail]))
    assert np.isfinite(diag.tail_index) and diag.k_used > 100


def test_tail_diagnostics_degenerate_and_errors():
    flat = tail_diagnostics(np.log(np.ones(1000)))
    assert flat.verdict == "finite_evidence"
    assert np.isinf(flat.tail_index)
    with pytest.raises(EstimationError, match="too few summands"):
        tail_diagnostics(np.zeros(19))


def test_novikov_mc_constant_lgd_diverges(base_market):
    est = novikov_mc(base_market, k=4)
    assert est.verdict == "divergence_evidence"
    assert est.tail.ci_high < 1
    assert est.estimate > 1e6
    # censoring matches the horizon default mass 1 - e^{-0.6}
    assert abs(est.censored_fraction - np.exp(-0.6)) < 0.01


def _reference_exponents(market, k, cap=None):
    """One defaulted row at a time: the driver at default is read from the
    whole fill of the row's stream block, scaled by sqrt(tau), and a
    driver-linked rule is called on that row alone, through np.dot."""
    sample = market.defaults
    rows = np.nonzero(sample.defaulted())[0]
    tau = sample.tau[rows]
    z = reference_rows(market.seed, TAG_NOVIKOV_DRIVER, rows, (k,), "standard_normal")
    w_tau = np.array([np.sqrt(t) * zr for zr, t in zip(z, tau)])
    q = np.sum(w_tau * w_tau, axis=1) / tau
    if cap is None:
        l = np.full(tau.size, market.lgd)
    else:
        rule = capped_lgd_tq(cap)
        l = np.array([float(rule(t, float(np.dot(w, w)) / t)) for t, w in zip(tau, w_tau)])
    return (2.0 * l / (2.0 - l)) ** 2 * tau / q


def _capped(cap):
    return None if cap is None else capped_lgd_driver(cap)


@pytest.mark.parametrize(
    "cap, k", [(None, 4), (0.1, 1), (0.1, 2), (0.1, 4), (0.1, 7), (0.1, 16)]
)
def test_novikov_mc_matches_keyed_per_row_reference(small_market, cap, k):
    est = novikov_mc(small_market, k, lgd_rule=_capped(cap))
    ref = _reference_exponents(small_market, k, cap)
    assert np.array_equal(est.exponents, ref)
    assert est.estimate == np.exp(ref).mean()


def test_novikov_mc_draws_every_row_in_one_fill_per_block(small_market, monkeypatch):
    sample, k = small_market.defaults, 4
    rows = np.nonzero(sample.defaulted())[0]
    reference = reference_rows(small_market.seed, TAG_NOVIKOV_DRIVER, rows, (k,), "standard_normal")
    fills = []  # the output of every block fill

    class Recording(np.random.Generator):
        def standard_normal(self, *, out):
            fills.append(out)
            return super().standard_normal(out=out)

    monkeypatch.setattr(np.random, "Generator", Recording)
    novikov_mc(small_market, k)
    # one fill per stream block of the n_paths rows, each from its block's row 0
    assert len(fills) == -(-sample.n_paths // 256)
    drawn = np.concatenate(fills)
    assert drawn.shape == (sample.n_paths, k)
    assert drawn[rows].tobytes() == reference.tobytes()


@pytest.mark.parametrize("cap", [None, 0.1])
def test_novikov_mc_rows_do_not_depend_on_other_defaults(small_market, cap):
    sample = small_market.defaults
    rows = np.nonzero(sample.defaulted())[0]
    censored = rows[::2]
    tau = sample.tau.copy()
    tau[censored] = np.inf
    thinned = replace(small_market, defaults=replace(sample, tau=tau))
    full = novikov_mc(small_market, 4, lgd_rule=_capped(cap))
    kept = novikov_mc(thinned, 4, lgd_rule=_capped(cap))
    assert kept.n_used == rows.size - censored.size
    assert np.array_equal(kept.exponents, full.exponents[1::2])


def test_novikov_mc_holds_less_than_the_full_driver():
    market = build_thm1_market(0.02, 0.4, horizon=30.0, steps=120, n_paths=20_000, seed=9)
    k = 4
    n_def = int(market.defaults.defaulted().sum())
    tracemalloc.start()
    try:
        novikov_mc(market, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few arrays of n_def doubles; one driver path per row would be 121 * k
    assert peak < 32 * 8 * n_def


def test_driver_linked_rule_must_return_one_loss_per_path(small_market):
    with pytest.raises(ConfigurationError, match="n values"):
        novikov_mc(small_market, 4, lgd_rule=lambda t, w: 0.1)


# one LGD domain, [0, 1], for the market, lgd_value and every stress rule's
# output in both routes; nothing is clipped, and NaN is rejected
@pytest.mark.parametrize("value", [np.nan, 1.5, -0.5])
def test_novikov_mc_rejects_a_stress_rule_outside_the_lgd_domain(small_market, value):
    rule = lambda t, w: np.full(t.shape, value)  # noqa: E731
    with pytest.raises(ConfigurationError, match="real number in \\[0, 1\\]"):
        novikov_mc(small_market, 4, lgd_rule=rule)


@pytest.mark.parametrize("value", [2.5, -0.5, np.nan, 1.5])
def test_novikov_quadrature_rejects_a_stress_rule_outside_the_lgd_domain(value):
    rule = lambda t, q: np.full(np.broadcast_shapes(t.shape, q.shape), value)  # noqa: E731
    dens = DensitySpec.truncated_exponential(0.02, horizon=30.0, k=4, lgd_given_tq=rule)
    with pytest.raises(ConfigurationError, match="real number in \\[0, 1\\]"):
        novikov_quadrature(dens)


def test_novikov_mc_zero_lgd_is_unit(base_market):
    market = replace(base_market, lgd=0.0)
    est = novikov_mc(market, k=4)
    assert est.estimate == 1.0
    assert est.se == 0.0
    assert est.verdict == "finite_evidence"


def test_novikov_mc_monotone_in_lgd(base_market):
    lo = novikov_mc(replace(base_market, lgd=0.2), k=4)
    hi = novikov_mc(base_market, k=4)
    # same paths, larger loss: every exponent moves up
    assert np.all(hi.exponents >= lo.exponents)
    assert hi.estimate >= lo.estimate


def test_capped_family_mc_quadrature_cross_check():
    market = build_thm1_market(0.02, 0.4, horizon=30.0, steps=120, n_paths=60_000, seed=9)
    mc = novikov_mc(market, k=4, lgd_rule=capped_lgd_driver(0.1))
    assert mc.verdict == "finite_evidence"
    assert mc.estimate < np.exp(0.1) + 1e-12
    dens = DensitySpec.truncated_exponential(
        0.02, horizon=30.0, k=4, lgd_given_tq=capped_lgd_tq(0.1)
    )
    quad = novikov_quadrature(dens)
    assert quad.converged and not quad.diverged
    assert abs(mc.estimate - quad.value) < 3 * mc.se


def test_quadrature_divergence_certificate():
    dens = DensitySpec.truncated_exponential(0.02, horizon=30.0, k=4, lgd_value=0.4)
    result = novikov_quadrature(dens)
    assert result.diverged and not result.converged
    assert result.value == np.inf
    assert result.growth > np.log(1e6)
    levels = [v for _, v in result.trace]
    assert all(b >= a for a, b in zip(levels, levels[1:]))


def test_quadrature_zero_lgd_recovers_unit_mass():
    dens = DensitySpec.truncated_exponential(0.02, horizon=30.0, k=4, lgd_value=0.0)
    result = novikov_quadrature(dens)
    assert result.converged
    assert abs(result.value - 1.0) < 1e-3


def test_density_spec_validation():
    bad_pdf = lambda t: 0.5 * np.exp(-t)  # noqa: E731  integrates to 1/2
    with pytest.raises(ConfigurationError):
        DensitySpec(k=4, tau_pdf=bad_pdf, t_max=50.0, lgd_value=0.4)
    ok_pdf = lambda t: np.exp(-t) / -np.expm1(-50.0)  # noqa: E731
    with pytest.raises(ConfigurationError):
        DensitySpec(k=4, tau_pdf=ok_pdf, t_max=50.0)
    with pytest.raises(ConfigurationError):
        DensitySpec(
            k=4, tau_pdf=ok_pdf, t_max=50.0, lgd_value=0.4, lgd_given_tq=capped_lgd_tq(0.1)
        )
    with pytest.raises(ConfigurationError):
        DensitySpec(k=0, tau_pdf=ok_pdf, t_max=50.0, lgd_value=0.4)
    spec = DensitySpec(k=4, tau_pdf=ok_pdf, t_max=50.0, lgd_value=0.4)
    assert spec.t_max == 50.0
    # lgd_value has the market's domain, [0, 1]: 1 is the top (u = 2)
    for value in (1.5, -0.1, np.nan):
        with pytest.raises(ConfigurationError, match="real number in \\[0, 1\\]"):
            DensitySpec(k=4, tau_pdf=ok_pdf, t_max=50.0, lgd_value=value)
    assert DensitySpec(k=4, tau_pdf=ok_pdf, t_max=50.0, lgd_value=1.0).lgd_value == 1.0
    # the loss is a point mass or a function of (t, q), never a density
    with pytest.raises(TypeError, match="no field 'lgd_pdf'"):
        DensitySpec(k=4, tau_pdf=ok_pdf, t_max=50.0, lgd_pdf=lambda v: 2.5 + 0 * v)


def test_capped_rule_shapes():
    rule = capped_lgd_tq(0.1)
    t = np.array([1.0, 2.0])[:, None]
    q = np.array([0.5, 5.0, 500.0])[None, :]
    l = rule(t, q)
    assert l.shape == (2, 3)
    u = 2.0 * l / (2.0 - l)
    expo = u**2 * (t / q)
    assert np.all(expo <= 0.1 + 1e-12)
    fn = capped_lgd_driver(0.1)
    t = np.array([2.0, 0.5])
    w = np.array([[0.3, -0.4], [1.0, 2.0]])
    l = fn(t, w)
    assert l.shape == (2,)
    assert l == pytest.approx(rule(t, np.sum(w * w, axis=1) / t))


# ---------------------------------------------------------------------------
# SciPy as an oracle for the closed-form chi-square law


@pytest.mark.parametrize("k", range(1, 13))
def test_chi2_quantiles_match_scipy(k):
    for p in (1e-12, 0.01, 0.5, 1.0 - 1e-8):
        expected = stats.chi2.ppf(p, k)
        assert _laws.chi2_ppf(k, p) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_chi2_logpdf_matches_scipy():
    x = np.geomspace(1e-8, 300.0, 400)
    for k in range(1, 13):
        assert _laws.chi2_logpdf(k, x) == pytest.approx(
            stats.chi2.logpdf(x, k), rel=1e-14, abs=1e-14
        )


def test_chi2_tails_match_scipy():
    # the quantiles invert these; both stay relatively exact deep in their tails
    for k in range(1, 13):
        for x in np.geomspace(1e-6, 120.0, 60):
            assert _laws.chi2_cdf(k, x) == pytest.approx(stats.chi2.cdf(x, k), rel=1e-12)
            assert _laws.chi2_sf(k, x) == pytest.approx(stats.chi2.sf(x, k), rel=1e-12)


def test_logsumexp_is_shifted_by_the_maximum():
    a = np.array([1000.0, 1000.0, -np.inf])
    assert novikov._logsumexp(a) == pytest.approx(1000.0 + np.log(2.0), rel=1e-15)
