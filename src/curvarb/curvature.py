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
all of the above; it shares novikov_mc's estimate of E[exp(X)], with
overflow as divergence evidence, and returns a NovikovEstimate.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, NumericalError
from .gauges import Gauge, _common_grid, short_rate
from .novikov import NovikovEstimate, _exp_moment
from .paths import (
    _GATE_SE,
    ItoSpec,
    TimeGrid,
    _Record,
    _kernel_on_grid,
    _mean_se,
    _path_slices,
    _se_gate,
    _symmetric_quotient,
    conditional_bin_table,
)

__all__ = [
    "CurvatureReport",
    "curvature_components",
    "ZCReport",
    "zc_residual",
    "novikov_sharpe",
    "KernelCheckReport",
    "kernel_check",
]

# pass levels: zc_residual's relative tolerance, and kernel_check's absolute
# one for a deterministic scenery (zero standard error)
_ZC_RTOL = 1e-8
_KERNEL_ATOL = 1e-10

# curvature_components works on blocks of this many to twice as many interior
# time columns of one deflator at a time
_COLUMN_BLOCK = 24


# ---------------------------------------------------------------------------
# Deflator acceleration spread


class CurvatureReport(_Record):
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


def _column_blocks(m: int):
    """Balanced [start, stop) blocks of m columns, each _COLUMN_BLOCK to
    2 * _COLUMN_BLOCK - 1 wide, or one block when m is narrower.

    No block is one column wide unless m is 1: numpy sums a single column
    over axis 0 pairwise but wider arrays row by row, so blocks of two or more
    columns reproduce the sums over all m columns bit for bit."""
    nb = max(1, m // _COLUMN_BLOCK)
    edges = [i * m // nb for i in range(nb + 1)]
    return zip(edges[:-1], edges[1:])


def _quotient_block(x: np.ndarray, steps: np.ndarray, rates: np.ndarray):
    """(a, least, total) for the columns of x, read one block of paths at a
    time: a holds the symmetric quotient over the current value plus rates at
    the interior columns, least and total the smallest and the summed |x| of
    every column.  a is returned as its only reference, so it is freed as
    soon as the caller drops it."""
    n = x.shape[0]
    a = np.empty((n, x.shape[1] - 2))
    least = np.full(x.shape[1], np.inf)
    total = np.zeros(x.shape[1])
    for b in _path_slices(n):
        xb = x[b]
        size = np.abs(xb)
        np.minimum(least, size.min(axis=0), out=least)
        # numpy sums axis 0 row by row: carry the sum into the next rows
        size[0] += total
        total = size.sum(axis=0)
        q = _symmetric_quotient(xb, steps, out=a[b])
        q /= xb[:, 1:-1]
        q += rates[b] if rates.shape[0] > 1 else rates
    return a, least, total


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
    grid = _common_grid(gauges)
    times = grid.times
    if times.size < 3:
        raise ConfigurationError("need at least three grid times")
    interior = times[1:-1]
    labels = [g.label for g in gauges]
    components = np.empty((len(gauges), interior.size))
    component_se = np.empty_like(components)
    w = np.empty_like(components)
    for j, g in enumerate(gauges):
        d = g.deflator.series
        n = d.shape[0]
        r = short_rate(g.curve)
        for start, stop in _column_blocks(interior.size):
            # interior columns start..stop-1 with their two neighbours
            a, least, total = _quotient_block(
                d[:, start : stop + 2], grid.steps[start : stop + 1], r[:, start + 1 : stop + 1]
            )
            gone = least == 0
            if gone.any():
                t = float(times[start + np.argmax(gone)])
                raise NumericalError(
                    f"deflator of asset {g.label!r} reaches 0 at t = {t!r}",
                    diagnostics={"label": g.label, "t": t},
                )
            w[j, start:stop] = (total / n)[1:-1]
            components[j, start:stop], component_se[j, start:stop] = _mean_se(a)
            del a  # before the next block allocates its own
    hi = np.argmax(components, axis=0)
    lo = np.argmin(components, axis=0)
    cols = np.arange(interior.size)
    norm = components[hi, cols] - components[lo, cols]
    norm_se = np.sqrt(component_se[hi, cols] ** 2 + component_se[lo, cols] ** 2)
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


def _per_asset(name, value, shape):
    """value broadcast to the (t, n) shape of alpha, or ConfigurationError."""
    try:
        return np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
    except ValueError:
        raise ConfigurationError(
            f"{name} of shape {np.shape(value)} does not broadcast to alpha's {shape}"
        ) from None


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
    r = _per_asset("rates", rates, alpha.shape)
    c = _per_asset("covariation", 0.0 if covariation is None else covariation, alpha.shape)
    return alpha, sigma, r, c


class ZCReport(_Record):
    times: np.ndarray
    residual: np.ndarray        # (t,) distance of alpha + r - c/2 from span(sigma)
    threshold: np.ndarray       # (t,) pass level actually applied
    mpr: np.ndarray             # (t, k) least-squares market price of risk
    passed: np.ndarray          # (t,) bool

    @property
    def max_residual(self) -> float:
        return float(self.residual.max())


# a non-finite residual or threshold is reported as a NumericalError, not warned about
@np.errstate(all="ignore")
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
    _ZC_RTOL * (1 + |v|), widened to _GATE_SE propagated standard errors when
    the covariation carries estimation noise.  A residual or threshold that is
    not finite raises NumericalError naming the first such time.
    """
    alpha, sigma, r, c = _coerce_zc_inputs(alpha, sigma, rates, covariation)
    n_t, n_assets, _ = sigma.shape
    if times is None:
        times = np.arange(n_t, dtype=np.float64)
    else:
        times = np.asarray(times, dtype=np.float64)
        if times.size != n_t:
            raise ConfigurationError("times length must match the slice count")
    cse = None
    if covariation_se is not None:
        cse = _per_asset("covariation_se", covariation_se, alpha.shape)
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
            tol = max(tol, _GATE_SE * 0.5 * float(np.linalg.norm(cse[i])))
        threshold[i] = tol
    bad = ~(np.isfinite(residual) & np.isfinite(threshold))
    if bad.any():
        t = float(times[np.argmax(bad)])
        raise NumericalError(
            f"zc residual or threshold is non-finite at t = {t!r}", diagnostics={"t": t}
        )
    passed = residual <= threshold
    return ZCReport(times, residual, threshold, mpr, passed)


# ---------------------------------------------------------------------------
# Integrated squared Sharpe ratio


def novikov_sharpe(
    spec: ItoSpec,
    x,
    horizon: float,
    n_paths: int = 1,
    steps: int = 256,
) -> NovikovEstimate:
    """E[exp(1/2 int (x alpha)^2 / |x sigma|^2 dt)] for the portfolio x.

    The short rate is zero, so the spec's drift alpha is the excess return.
    The coefficients read no time and no state, so nothing is simulated: the
    integrand is evaluated once, on one row, integrated by the trapezoid rule
    on the regular grid of steps steps, and that exponent is repeated for
    each of the n_paths; n_used is n_paths.  A vanishing portfolio
    volatility is a hard error: the Sharpe ratio is undefined there, not
    merely large.  The ratio does not change when x is scaled, so x is first
    divided by its largest |entry| (a one-asset x becomes exactly +-1), and
    x alpha and x sigma are scaled by a power of two, exactly, so that the
    ratio neither overflows nor underflows on the way.  A ratio that
    overflows all the same is read as infinite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != spec.dim:
        raise ConfigurationError("x must be a vector with one weight per asset")
    top = np.max(np.abs(x))
    if top > 0:
        x = x / top
    if n_paths < 1:
        raise ConfigurationError("need n_paths >= 1")
    times = TimeGrid.regular(horizon, steps).times
    sx = np.einsum("nk,n->k", spec.sigma, x)
    # the power of two that brings the largest |x sigma| into [0.5, 1) keeps
    # |x sigma|^2 in float range
    e = -np.frexp(np.max(np.abs(sx)))[1]
    sx = np.ldexp(sx, e)
    den = np.sum(sx * sx)
    if den <= 0:
        raise NumericalError(
            "portfolio volatility vanishes", diagnostics={"time_index": 0, "paths": n_paths}
        )
    with np.errstate(over="ignore"):  # a ratio or an integral past float range reads inf
        num = np.ldexp(spec.drift @ x, e)
        ratio_sq = np.full(times.size, num * num / den)
        exponents = np.full(n_paths, 0.5 * np.trapezoid(ratio_sq, times))
    estimate, se, tail, verdict = _exp_moment(exponents)
    return NovikovEstimate(estimate, se, n_paths, 0.0, exponents, tail, verdict)


# ---------------------------------------------------------------------------
# Pricing-kernel check


class KernelCheckReport(_Record):
    """Per (gauge, pair) row: table holds the columns label, t, s, residual,
    se, z and passed of the worst bin, in kernel.csv order; bins holds each
    row's conditional_bin_table."""

    table: dict
    bins: list

    @property
    def worst(self) -> int:
        """Row index of the largest |residual|, the first of equals."""
        return int(np.argmax(np.abs(self.table["residual"])))


# a non-finite bin statistic is reported as a NumericalError, not warned about
@np.errstate(all="ignore")
def kernel_check(gauges, beta, pairs) -> KernelCheckReport:
    """Conditional pricing-kernel residuals for each gauge and (t, s) pair.

    beta is the kernel on the gauges' common grid, finite and positive: an
    array shaped (n_times,) for a deterministic kernel or (n_paths, n_times)
    for one sampled per path.

    For each path the discounted claim beta_s D_s is compared with its stored
    price P(t, s) beta_t D_t; residuals are averaged within equal-count bins
    of the time-t discounted state and scaled by the mean discounted state,
    and the worst bin (the first of equal |mean|) is reported.  A pair passes
    when that residual is within three standard errors (or _KERNEL_ATOL for
    deterministic sceneries).  A scale, bin mean or bin SE that is not finite
    raises NumericalError.
    """
    gauges = list(gauges)
    grid = _common_grid(gauges)
    b = _kernel_on_grid(beta, grid)
    labels, rows, bins = [], [], []
    for g in gauges:
        d = g.deflator.series
        if b.shape[0] not in (1, d.shape[0]):
            raise ConfigurationError("beta must hold one row or one row per deflator path")
        for t, s in pairs:
            i_t, i_s = grid.index_of(t), grid.index_of(s)
            m_t = b[:, i_t] * d[:, i_t]
            y = b[:, i_s] * d[:, i_s] - g.curve.price(t, s) * m_t
            scale = float(np.abs(m_t).mean())
            if scale <= 0:
                raise NumericalError(
                    "discounted state collapsed to zero",
                    diagnostics={"label": g.label, "t": t},
                )
            # a finite scale means finite states, which the bins require
            table = conditional_bin_table(m_t, y / scale) if np.isfinite(scale) else None
            if table is None or not np.all(np.isfinite([table["mean"], table["se"]])):
                raise NumericalError(
                    f"kernel residual of asset {g.label!r} is non-finite for pair ({t!r}, {s!r})",
                    diagnostics={"label": g.label, "t": float(t), "s": float(s)},
                )
            w = np.argmax(np.abs(table["mean"]))
            labels.append(g.label)
            rows.append((t, s, table["mean"][w], table["se"][w]))
            bins.append(table)
    t, s, residual, se = np.array(rows, dtype=np.float64).reshape(-1, 4).T
    z, passed = _se_gate(residual, se, atol=_KERNEL_ATOL)
    columns = {"label": np.array(labels, dtype=str), "t": t, "s": s, "residual": residual}
    columns.update(se=se, z=z, passed=passed)
    return KernelCheckReport(columns, bins)
