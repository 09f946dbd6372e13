"""Cross-asset consistency diagnostics.

A family of gauges is arbitrage-consistent when every asset shows the same
instantaneous deflator acceleration once its own short rate is added back:
the per-asset quantity a_j(t) = mean d/dt log-ish deflator quotient + r_j(t)
must not depend on j.  The spread between the largest and smallest component
(curvature_norm) is the scalar obstruction; zero within noise means a common
market price of risk can absorb all drifts.

zc_residual checks the same thing at the level of coefficients: the vector
alpha + r - c/2 must lie in the column span of the volatility matrix.  The
least-squares residual is reported per time together with the market price of
risk that attains it.

kernel_check verifies a candidate pricing kernel beta against the stored term
structures by the conditional moment E[beta_s D_s | state at t] =
P(t,s) beta_t D_t, binned on the time-t state.

novikov_sharpe exponentiates half the integrated squared Sharpe ratio of a
portfolio, the quantity whose finiteness licenses the measure change behind
all of the above; it reuses the heavy-tail diagnostics of the integrability
module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .gauges import Gauge, short_rate
from .novikov import TailDiagnostics, tail_diagnostics
from .paths import (
    ItoSpec,
    PathEnsemble,
    TimeGrid,
    _mean_se,
    _se_gate,
    _symmetric_quotient,
    _worst_bin,
    simulate_brownian,
    simulate_ito,
)

__all__ = [
    "CurvatureReport",
    "curvature_components",
    "ZCReport",
    "zc_residual",
    "covariation_rates",
    "SharpeIntegralEstimate",
    "novikov_sharpe",
    "KernelCheckReport",
    "kernel_check",
]

# pass levels: zc_residual's relative tolerance, and kernel_check's absolute
# one for a deterministic scenery (zero standard error)
_ZC_RTOL = 1e-8
_KERNEL_ATOL = 1e-10


# ---------------------------------------------------------------------------
# Deflator acceleration spread


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Per-asset acceleration components on interior grid times.

    norm is the max-min spread across assets per time; norm_se combines the
    standard errors of the two extremal components.  weighted_std is the
    deflator-weighted dispersion, a smoother scalar summary of the same
    obstruction.
    """

    times: np.ndarray            # (m,) interior times
    labels: list
    components: np.ndarray       # (n_assets, m)
    component_se: np.ndarray     # (n_assets, m)
    norm: np.ndarray             # (m,)
    norm_se: np.ndarray          # (m,)
    weighted_std: np.ndarray     # (m,)

    @property
    def max_norm(self) -> float:
        return float(self.norm.max())


# a non-finite statistic is reported as a NumericalError, not warned about
@np.errstate(all="ignore")
def curvature_components(gauges) -> CurvatureReport:
    """Mean deflator difference quotients plus short rates, per asset.

    The symmetric quotient (forward plus backward difference, each over its
    own step) divided by the current deflator estimates the mean derivative
    of log D; adding the asset's short rate removes the financing drift.  On
    a consistent market all assets share the resulting profile.
    """
    gauges = list(gauges)
    if not gauges:
        raise ConfigurationError("need at least one gauge")
    grid = gauges[0].grid
    for g in gauges[1:]:
        if g.grid.n_times != grid.n_times or not np.array_equal(
            g.grid.times, grid.times
        ):
            raise ConfigurationError("gauges must share one time grid")
    times = grid.times
    if times.size < 3:
        raise ConfigurationError("need at least three grid times")
    interior = times[1:-1]
    labels = [g.label for g in gauges]
    comps, ses, weights = [], [], []
    for g in gauges:
        d = g.deflator.series
        n = d.shape[0]
        gone = np.any(d == 0, axis=0)
        if gone.any():
            t = float(times[np.argmax(gone)])
            raise NumericalError(
                f"deflator of asset {g.label!r} reaches 0 at t = {t!r}",
                diagnostics={"label": g.label, "t": t},
            )
        quot = _symmetric_quotient(d, grid) / d[:, 1:-1]
        r = short_rate(g.curve)
        a = quot + np.broadcast_to(r, (n, times.size))[:, 1:-1]
        comps.append(a.mean(axis=0))
        ses.append(_mean_se(a))
        weights.append(np.abs(d).mean(axis=0)[1:-1])
    components = np.stack(comps)
    component_se = np.stack(ses)
    hi = np.argmax(components, axis=0)
    lo = np.argmin(components, axis=0)
    cols = np.arange(interior.size)
    norm = components[hi, cols] - components[lo, cols]
    norm_se = np.sqrt(component_se[hi, cols] ** 2 + component_se[lo, cols] ** 2)
    w = np.stack(weights)
    w = w / w.sum(axis=0, keepdims=True)
    mean_w = (w * components).sum(axis=0)
    weighted_std = np.sqrt((w * (components - mean_w) ** 2).sum(axis=0))
    # rows: each asset's component, each asset's SE, then the cross-asset spreads
    stats = np.vstack([components, component_se, norm, norm_se, weighted_std])
    bad = np.argwhere(~np.isfinite(stats.T))  # by time, then row
    if bad.size:
        i, j = bad[0]
        t = float(interior[i])
        of = f"asset {labels[j % len(labels)]!r}" if j < 2 * len(labels) else "the spread"
        raise NumericalError(
            f"curvature statistic of {of} is non-finite at t = {t!r}", diagnostics={"t": t}
        )
    return CurvatureReport(
        interior,
        labels,
        components,
        component_se,
        norm,
        norm_se,
        weighted_std,
    )


# ---------------------------------------------------------------------------
# Coefficient-level consistency


def _coerce_zc_inputs(alpha, sigma, rates, covariation):
    alpha = np.asarray(alpha, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if alpha.ndim == 1:
        alpha = alpha[None, :]
    if sigma.ndim == 2:
        sigma = sigma[None, :, :]
    if alpha.ndim != 2 or sigma.ndim != 3:
        raise ConfigurationError("alpha must be (t, n); sigma must be (t, n, k)")
    n_t = max(alpha.shape[0], sigma.shape[0])
    alpha = np.broadcast_to(alpha, (n_t, alpha.shape[1]))
    sigma = np.broadcast_to(sigma, (n_t,) + sigma.shape[1:])
    if sigma.shape[1] != alpha.shape[1]:
        raise ConfigurationError("alpha and sigma disagree on the asset count")
    r = np.asarray(rates, dtype=np.float64)
    if r.ndim == 0:
        r = np.full_like(alpha, float(r))
    elif r.ndim == 1:
        r = np.broadcast_to(r[None, :], alpha.shape)
    else:
        r = np.broadcast_to(r, alpha.shape)
    if covariation is None:
        c = np.zeros_like(alpha)
    else:
        c = np.broadcast_to(np.asarray(covariation, dtype=np.float64), alpha.shape)
    return alpha, sigma, r, c


@dataclass(frozen=True, eq=False)
class ZCReport:
    times: np.ndarray
    residual: np.ndarray        # (t,) distance of alpha + r - c/2 from span(sigma)
    threshold: np.ndarray       # (t,) pass level actually applied
    mpr: np.ndarray             # (t, k) least-squares market price of risk
    passed: np.ndarray          # (t,) bool

    @property
    def max_residual(self) -> float:
        return float(self.residual.max())

    @property
    def all_passed(self) -> bool:
        return bool(self.passed.all())


def zc_residual(
    alpha,
    sigma,
    rates=0.0,
    covariation=None,
    covariation_se=None,
    times=None,
) -> ZCReport:
    """Distance of the drift vector from the volatility span, per time.

    The tested vector is v = alpha + rates - covariation/2 (covariation
    defaults to zero for deterministic checks).  Each time slice solves the
    least-squares system sigma theta = v; the Euclidean residual passes below
    _ZC_RTOL * (1 + |v|), widened to three propagated standard errors when the
    covariation carries estimation noise.
    """
    alpha, sigma, r, c = _coerce_zc_inputs(alpha, sigma, rates, covariation)
    n_t, n_assets, _ = sigma.shape
    if times is None:
        times = np.arange(n_t, dtype=np.float64)
    else:
        times = np.asarray(times, dtype=np.float64)
        if times.size != n_t:
            raise ConfigurationError("times length must match the slice count")
    if covariation_se is not None:
        cse = np.broadcast_to(
            np.asarray(covariation_se, dtype=np.float64), alpha.shape
        )
    else:
        cse = None
    v = alpha + r - 0.5 * c
    residual = np.empty(n_t)
    threshold = np.empty(n_t)
    mpr = np.empty((n_t, sigma.shape[2]))
    for i in range(n_t):
        theta, _, _, _ = np.linalg.lstsq(sigma[i], v[i], rcond=None)
        mpr[i] = theta
        residual[i] = float(np.linalg.norm(sigma[i] @ theta - v[i]))
        tol = _ZC_RTOL * (1.0 + float(np.linalg.norm(v[i])))
        if cse is not None:
            tol = max(tol, 3.0 * 0.5 * float(np.linalg.norm(cse[i])))
        threshold[i] = tol
    passed = residual <= threshold
    return ZCReport(times, residual, threshold, mpr, passed)


def covariation_rates(
    sigma_paths: np.ndarray, driver: PathEnsemble
) -> tuple[np.ndarray, np.ndarray]:
    """Realized covariation rate of volatility rows with the driver.

    sigma_paths has shape (n_paths, n_times, n_assets, k) holding the
    volatility actually realized along each path; the returned per-interval
    rates (n_times - 1, n_assets) estimate sum_k d<sigma_jk, W_k>/dt with
    their cross-path standard errors.
    """
    sig = np.asarray(sigma_paths, dtype=np.float64)
    if sig.ndim != 4:
        raise ConfigurationError("sigma_paths must be (paths, times, assets, k)")
    n, t, _, k = sig.shape
    if driver.n_paths != n or driver.n_times != t or driver.dim != k:
        raise ConfigurationError("driver shape does not match sigma_paths")
    dw = np.diff(driver.values, axis=1)
    ds = np.diff(sig, axis=1)
    h = driver.grid.steps
    prod = np.einsum("pink,pik->pin", ds, dw) / h[None, :, None]
    rate = prod.mean(axis=0)
    se = _mean_se(prod)
    return rate, se


# ---------------------------------------------------------------------------
# Integrated squared Sharpe ratio


@dataclass(frozen=True, eq=False)
class SharpeIntegralEstimate:
    estimate: float
    se: float
    exponents: np.ndarray
    tail: TailDiagnostics | None
    verdict: str


def novikov_sharpe(
    spec: ItoSpec,
    x,
    horizon: float,
    n_paths: int = 1,
    steps: int = 256,
    seed: int = 0,
) -> SharpeIntegralEstimate:
    """E[exp(1/2 int (x alpha)^2 / |x sigma|^2 dt)] along simulated paths.

    The short rate is zero, so the spec's drift alpha is the excess return.
    Deterministic coefficient fields need a single path (the integrand is the
    same on all of them); state-dependent fields average over the ensemble.
    A vanishing portfolio volatility anywhere is a hard error: the Sharpe
    ratio is undefined there, not merely large.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != spec.dim:
        raise ConfigurationError("x must be a vector with one weight per asset")
    grid = TimeGrid.regular(horizon, steps)
    k = spec.driver_dim()
    state = simulate_ito(spec, simulate_brownian(grid, n_paths, k, seed))
    times = grid.times
    ratio_sq = np.empty((n_paths, times.size))
    for i, t in enumerate(times):
        st = state.values[:, i, :]
        a = spec.eval_drift(t, st)
        s = spec.eval_sigma(t, st, k)
        num = a @ x
        sx = np.einsum("pnk,n->pk", s, x)
        den = np.sum(sx * sx, axis=1)
        bad = den <= 0
        if np.any(bad):
            raise NumericalError(
                "portfolio volatility vanishes",
                diagnostics={"time_index": i, "paths": int(bad.sum())},
            )
        ratio_sq[:, i] = num * num / den
    exponents = 0.5 * np.trapezoid(ratio_sq, times, axis=1)
    summands = np.exp(exponents)
    estimate = float(summands.mean())
    se = float(_mean_se(summands))
    tail = tail_diagnostics(log_samples=exponents) if n_paths >= 20 else None
    verdict = tail.verdict if tail is not None else "finite_evidence"
    return SharpeIntegralEstimate(estimate, se, exponents, tail, verdict)


# ---------------------------------------------------------------------------
# Pricing-kernel check


@dataclass(frozen=True, eq=False)
class KernelCheckReport:
    rows: list

    @property
    def all_passed(self) -> bool:
        return all(r["passed"] for r in self.rows)

    @property
    def worst(self) -> dict:
        return max(self.rows, key=lambda r: abs(r["residual"]))


def kernel_check(gauges, beta, pairs) -> KernelCheckReport:
    """Conditional pricing-kernel residuals for each gauge and (t, s) pair.

    For each path the discounted claim beta_s D_s is compared with its stored
    price P(t, s) beta_t D_t; residuals are averaged within equal-count bins
    of the time-t discounted state and scaled by the mean discounted state,
    and the worst bin is reported.  A pair passes when that residual is
    within three standard errors (or _KERNEL_ATOL for deterministic sceneries).
    """
    gauges = list(gauges)
    if not gauges:
        raise ConfigurationError("need at least one gauge")
    grid = gauges[0].grid
    if isinstance(beta, PathEnsemble):
        b = beta.series
    else:
        b = np.asarray(beta, dtype=np.float64)
        if b.ndim == 1:
            b = b[None, :]
    if b.shape[-1] != grid.n_times:
        raise ConfigurationError("beta must be sampled on the gauge grid")
    if np.any(b <= 0):
        raise ConfigurationError("the pricing kernel must stay positive")
    rows = []
    for g in gauges:
        d = g.deflator.series
        n = d.shape[0]
        bb = np.broadcast_to(b, (n, grid.n_times))
        for t, s in pairs:
            i_t, i_s = grid.index_of(t), grid.index_of(s)
            price = g.curve.price(t, s)
            price = np.broadcast_to(price, (n,))
            m_t = bb[:, i_t] * d[:, i_t]
            y = bb[:, i_s] * d[:, i_s] - price * m_t
            scale = float(np.abs(m_t).mean())
            if scale <= 0:
                raise NumericalError(
                    "discounted state collapsed to zero",
                    diagnostics={"label": g.label, "t": t},
                )
            worst = _worst_bin(m_t, y / scale)
            z, passed = _se_gate(worst.residual, worst.se, atol=_KERNEL_ATOL)
            rows.append(
                {
                    "label": g.label,
                    "t": float(t),
                    "s": float(s),
                    "residual": worst.residual,
                    "se": worst.se,
                    "z": z,
                    "passed": passed,
                    "bins": worst.bins,
                }
            )
    return KernelCheckReport(rows)
