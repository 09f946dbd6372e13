"""Default models, defaultable bonds, and credit gauge diagnostics.

Two default mechanisms are implemented.  Structural models default when an
equity-style state process first reaches a barrier: the default time is
announced by the approach to the barrier, and on a simulation grid it lands on
grid nodes.  Intensity (Cox) models default when the integrated hazard first
exceeds an independent unit-exponential threshold: the default time carries no
announcement and lands between nodes via linear interpolation of the
piecewise-linear cumulative hazard (exact for piecewise-constant hazards).

Test markets are built directly under the pricing measure, so plain ensemble
averages play the role of risk-neutral expectations and the pricing kernel of
a consistently built market is deterministic.

The holonomy residuals (spread identity and bond-difference identity) are
evaluated in several printed and re-derived algebraic variants; consistently
built markets discriminate between them, and the report records which variant
vanishes.  See thm1_residuals for the details.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, EstimationError
from .gauges import Gauge, TermStructureSurface, forward_rates, short_rate
from .paths import (
    ItoSpec,
    PathEnsemble,
    TimeGrid,
    _cumulative_trapezoid,
    _keyed_rows,
    _mean_se,
    _se_gate,
    simulate_brownian,
    simulate_ito,
)

__all__ = [
    "IntensityModel",
    "StructuralModel",
    "LGDProcess",
    "DefaultSample",
    "CreditMarket",
    "CreditGauge",
    "ProbabilityEstimate",
    "ImpliedIntensity",
    "BondPrice",
    "Thm1Report",
    "simulate_default",
    "cox_uniformity",
    "default_probability",
    "implied_intensity",
    "nelson_default_derivative",
    "corporate_bond_price",
    "credit_gauge",
    "thm1_residuals",
    "build_thm1_market",
    "realized_lgd_at_default",
]

# stream tags: keep every random purpose on its own keyed family
TAG_DRIVER = 1
TAG_LAMBDA = 2
TAG_EXP = 3
TAG_BRIDGE = 4
TAG_LGD = 5


# ---------------------------------------------------------------------------
# Model types


@dataclass(frozen=True, eq=False)
class IntensityModel:
    """Cox default model with hazard lam: constant, deterministic t -> rate,
    or an ItoSpec for a stochastic hazard path (clipped at zero)."""

    lam: float | Callable | ItoSpec

    def is_deterministic(self) -> bool:
        return not isinstance(self.lam, ItoSpec)

    def hazard_values(self, times: np.ndarray) -> np.ndarray:
        """Deterministic hazard sampled on a grid; shape (1, n_times)."""
        if isinstance(self.lam, ItoSpec):
            raise ConfigurationError("stochastic hazard has no deterministic values")
        if callable(self.lam):
            vals = np.array([float(self.lam(t)) for t in times])
        else:
            vals = np.full(times.size, float(self.lam))
        if np.any(vals < 0):
            raise ConfigurationError("hazard rates must be nonnegative")
        return vals[None, :]

    def integrated_hazard(self, t: float, s: float) -> float:
        """Exact integral of a deterministic hazard over [t, s]."""
        if isinstance(self.lam, ItoSpec):
            raise ConfigurationError("stochastic hazard needs simulation")
        if callable(self.lam):
            from scipy import integrate

            val, _ = integrate.quad(self.lam, t, s, limit=200)
            return float(val)
        return float(self.lam) * (s - t)


@dataclass(frozen=True, eq=False)
class StructuralModel:
    """First-passage default: the equity state hitting the barrier from above."""

    equity: ItoSpec
    barrier: float

    def __post_init__(self):
        if self.equity.dim != 1:
            raise ConfigurationError("structural equity must be one-dimensional")
        if float(self.equity.x0[0]) <= self.barrier:
            raise ConfigurationError("equity must start strictly above the barrier")


@dataclass(frozen=True, eq=False)
class LGDProcess:
    """Loss given default in [0, 1].

    kind "constant" uses value; "deterministic" uses fn(t); "stochastic"
    samples an ItoSpec clipped into [0, 1] and reads it at the default time by
    linear interpolation; "driver_linked" evaluates fn(t, w) on the driving
    Brownian state at default (used by stress families in the integrability
    module).
    """

    kind: str = "constant"
    value: float = 0.0
    fn: Callable | None = None
    spec: ItoSpec | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "deterministic", "stochastic", "driver_linked"):
            raise ConfigurationError(f"unknown LGD kind {self.kind!r}")
        if self.kind == "constant" and not 0.0 <= self.value <= 1.0:
            raise ConfigurationError("constant LGD must lie in [0, 1]")
        if self.kind in ("deterministic", "driver_linked") and self.fn is None:
            raise ConfigurationError("deterministic/driver_linked LGD needs fn")
        if self.kind == "stochastic" and self.spec is None:
            raise ConfigurationError("stochastic LGD needs an ItoSpec")

    def deterministic_at(self, t: float | np.ndarray):
        if self.kind == "constant":
            return np.broadcast_to(self.value, np.shape(t)) if np.ndim(t) else self.value
        if self.kind == "deterministic":
            return np.clip(np.vectorize(self.fn)(t), 0.0, 1.0)
        raise ConfigurationError(f"LGD kind {self.kind!r} is not deterministic")

    def sample_paths(self, grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
        """(n_paths, n_times) LGD paths for the stochastic kind."""
        if self.kind != "stochastic":
            raise ConfigurationError("sample_paths applies to stochastic LGD only")
        driver = simulate_brownian(grid, n_paths, self.spec.driver_dim(), seed, TAG_LGD)
        raw = simulate_ito(self.spec, driver)
        return np.clip(raw.series, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class DefaultSample:
    """Default times; an intensity sample also keeps its hazard scenery."""

    grid: TimeGrid
    tau: np.ndarray                       # (n,) defaults; inf if none in horizon
    cumulative_hazard: np.ndarray | None  # (m, n_times), m in {1, n}
    thresholds: np.ndarray | None         # (n,) unit-exponential draws
    lambda_paths: np.ndarray | None       # (m, n_times)

    @property
    def n_paths(self) -> int:
        return self.tau.size

    @property
    def indicator(self) -> np.ndarray:
        """(n, n_times) 0/1 default state at the grid nodes, derived from tau."""
        return (self.grid.times[None, :] >= self.tau[:, None]).astype(np.float64)

    def defaulted(self) -> np.ndarray:
        return np.isfinite(self.tau)

    def survivors_at(self, t: float) -> np.ndarray:
        return self.tau > t


def _survivors(sample: DefaultSample, at: float, minimum: int, message: str, **diagnostics):
    """Paths alive at a time and their count; fewer than minimum is an EstimationError."""
    alive = sample.survivors_at(at)
    n_alive = int(alive.sum())
    if n_alive < minimum:
        raise EstimationError(message, diagnostics={"alive": n_alive, **diagnostics})
    return alive, n_alive


def _share(hit: np.ndarray):
    """Share of the paths in hit (a boolean array) and its binomial SE; the SE stays a numpy
    scalar, since implied_intensity squares it and Python's float ** 2 may round otherwise."""
    p = float(hit.mean())
    return p, np.sqrt(p * (1 - p) / hit.size)


# ---------------------------------------------------------------------------
# Simulation


def _hazard_paths(model: IntensityModel, grid: TimeGrid, n_paths: int, seed: int):
    """(lam, cum): the hazard on the grid, clipped at zero and one row when
    deterministic, and its trapezoidal cumulative hazard."""
    if model.is_deterministic():
        lam = model.hazard_values(grid.times)
    else:
        driver = simulate_brownian(grid, n_paths, model.lam.driver_dim(), seed, TAG_LAMBDA)
        lam = np.maximum(simulate_ito(model.lam, driver).series, 0.0)
    return lam, _cumulative_trapezoid(lam, grid.steps)


def _equity_paths(model: StructuralModel, grid: TimeGrid, n_paths: int, seed: int):
    """(n_paths, n_times) equity of a structural model, driven by TAG_DRIVER."""
    driver = simulate_brownian(grid, n_paths, 1, seed, TAG_DRIVER)
    return simulate_ito(model.equity, driver).series


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Entry i is np.interp(x[i], xp, fp[i]) bit for bit (x without NaN):
    the same bracketing node and formula, for all rows at once."""
    rows = np.arange(x.size)
    j = np.searchsorted(xp, x, side="right") - 1  # xp[j] <= x < xp[j + 1]
    k = np.clip(j, 0, xp.size - 2)
    slope = (fp[rows, k + 1] - fp[rows, k]) / (xp[k + 1] - xp[k])
    at_node = (j < 0) | (j == xp.size - 1) | (xp[k] == x)
    node = fp[rows, np.clip(j, 0, xp.size - 1)]
    return np.where(at_node, node, slope * (x - xp[k]) + fp[rows, k])


def _intensity_default_times(
    cum: np.ndarray, times: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
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


def simulate_default(
    model,
    grid: TimeGrid,
    n_paths: int,
    seed: int = 0,
    bridge: bool = False,
) -> DefaultSample:
    """Draw default times for a structural or intensity model.

    Intensity: the cumulative hazard is trapezoidal between nodes and the
    exponential threshold crossing is linearly interpolated, so hitting levels
    reproduce the thresholds exactly and default times carry no grid atoms.

    Structural: default is the first grid node at or below the barrier;
    bridge=True additionally samples interval crossings from the conditional
    two-point crossing probability and reports the interval right endpoint.
    """
    if n_paths < 1:
        raise ConfigurationError("need n_paths >= 1")
    times = grid.times
    if isinstance(model, IntensityModel):
        lam, cum = _hazard_paths(model, grid, n_paths, seed)
        thresholds = _keyed_rows(
            seed, TAG_EXP, np.arange(n_paths), (), lambda gen: gen.standard_exponential()
        )
        tau = _intensity_default_times(cum, times, thresholds)
        return DefaultSample(grid, tau, cum, thresholds, lam)
    if isinstance(model, StructuralModel):
        e = _equity_paths(model, grid, n_paths, seed)
        b = model.barrier
        below = e <= b
        hit = below.any(axis=1)
        node = np.argmax(below, axis=1)
        tau = np.where(hit, times[np.minimum(node, times.size - 1)], np.inf)
        if bridge:
            geometric = model.equity.form == "geometric"
            if geometric and b <= 0:
                raise ConfigurationError("geometric bridge needs a positive barrier")
            dt = grid.steps
            m = dt.size
            u = _keyed_rows(seed, TAG_BRIDGE, np.arange(n_paths), (m,), lambda gen: gen.random(m))
            sig = np.empty((n_paths, m))
            for i in range(m):
                sig[:, i] = model.equity.eval_sigma(times[i], e[:, i : i + 1], 1)[:, 0, 0]
            a, c = e[:, :-1], e[:, 1:]
            valid = (a > b) & (c > b)
            if geometric:
                with np.errstate(invalid="ignore", divide="ignore"):
                    expo = -2.0 * np.log(a / b) * np.log(c / b) / (sig**2 * dt[None, :])
            else:
                expo = -2.0 * (a - b) * (c - b) / (sig**2 * dt[None, :])
            crossed = valid & (u < np.exp(np.where(valid, expo, -np.inf)))
            any_cross = crossed.any(axis=1)
            first = np.argmax(crossed, axis=1)
            tau_bridge = np.where(any_cross, times[np.minimum(first + 1, times.size - 1)], np.inf)
            tau = np.minimum(tau, tau_bridge)
        return DefaultSample(grid, tau, None, None, None)
    raise ConfigurationError(f"unknown default model {type(model).__name__}")


def cox_uniformity(sample: DefaultSample) -> tuple[float, float, int]:
    """KS check that hitting levels of the cumulative hazard are Exp(1).

    Default times are mapped back through the piecewise-linear cumulative
    hazard; conditioned on defaulting inside the horizon these levels follow a
    truncated Exp(1), so their truncated CDF values are uniform.  Returns the
    KS statistic, p-value, and the number of defaulted paths.
    """
    if sample.cumulative_hazard is None:
        raise ConfigurationError("hazard-law check applies to intensity samples")
    times = sample.grid.times
    cum = np.broadcast_to(
        sample.cumulative_hazard, (sample.n_paths, times.size)
    )
    mask = sample.defaulted()
    if mask.sum() < 10:
        raise EstimationError(
            "too few defaults for a distribution test",
            diagnostics={"defaulted": int(mask.sum())},
        )
    rows = np.nonzero(mask)[0]
    lam_tau = _interp_rows(sample.tau[rows], times, cum[rows])
    total = cum[rows, -1]
    u = -np.expm1(-lam_tau) / -np.expm1(-total)
    from scipy import stats

    stat, pvalue = stats.kstest(u, "uniform")
    return float(stat), float(pvalue), int(mask.sum())


# ---------------------------------------------------------------------------
# Default probabilities and hazard recovery


@dataclass(frozen=True, eq=False)
class ProbabilityEstimate:
    value: float
    se: float
    method: str
    n_used: int = 0


def default_probability(
    model,
    t: float,
    s: float,
    n_paths: int = 0,
    seed: int = 0,
    steps: int = 200,
    bridge: bool = False,
) -> ProbabilityEstimate:
    """P[default by s | alive at t] for either model family.

    Deterministic intensities integrate exactly; stochastic intensities use
    the survival-ratio estimator E[exp(-H_s)] / E[exp(-H_t)]; structural
    models count barrier states among paths that survived to t.
    """
    if not s > t >= 0:
        raise ConfigurationError("need 0 <= t < s")
    if isinstance(model, IntensityModel) and model.is_deterministic():
        p = -np.expm1(-model.integrated_hazard(t, s))
        return ProbabilityEstimate(float(p), 0.0, "analytic")
    if n_paths < 2:
        raise ConfigurationError("simulation estimate needs n_paths >= 2")
    grid = TimeGrid.regular(s, steps)
    if isinstance(model, IntensityModel):
        _, cum = _hazard_paths(model, grid, n_paths, seed)
        it = grid.index_of(t) if t > 0 else 0
        st_ = grid.index_of(s)
        a = np.exp(-cum[:, st_])
        bvals = np.exp(-cum[:, it]) if t > 0 else np.ones(n_paths)
        ratio = a.mean() / bvals.mean()
        n = n_paths
        var = (
            a.var(ddof=1) / n
            + ratio**2 * bvals.var(ddof=1) / n
            - 2 * ratio * np.cov(a, bvals, ddof=1)[0, 1] / n
        ) / bvals.mean() ** 2
        se = float(np.sqrt(max(var, 0.0)))
        return ProbabilityEstimate(float(1.0 - ratio), se, "survival_ratio", n)
    if isinstance(model, StructuralModel):
        sample = simulate_default(model, grid, n_paths, seed, bridge=bridge)
        alive, n_alive = _survivors(sample, t, 2, "no survivors to condition on")
        p, se = _share(sample.tau[alive] <= s)
        return ProbabilityEstimate(p, float(se), "first_passage", n_alive)
    raise ConfigurationError(f"unknown default model {type(model).__name__}")


@dataclass(frozen=True, eq=False)
class ImpliedIntensity:
    """Short-horizon hazard implied by conditional default probabilities."""

    lambda0: float
    se: float
    dt: np.ndarray
    lambda_dt: np.ndarray
    lambda_dt_se: np.ndarray
    degenerate: bool


def implied_intensity(
    model,
    t: float,
    dt_seq,
    n_paths: int = 100_000,
    seed: int = 0,
    steps_per_unit: int = 400,
    observation_times: np.ndarray | None = None,
) -> ImpliedIntensity:
    """Recover the hazard -d/ds log(1 - p(t, s)) at s -> t+.

    The conditional default probability is estimated at t + dt for each dt in
    dt_seq, converted to a per-dt hazard, and extrapolated linearly in dt to
    dt = 0 (first-order Richardson).  For structural models observed only at
    observation_times, conditioning uses the observed information: survival
    means "above the barrier at every observation node <= t", which leaves
    default-state uncertainty between observations and a strictly positive
    implied hazard there.

    A vanishing estimated probability at some dt marks the result degenerate
    (the hazard collapses to zero faster than any power, as for a fully
    observed structural model strictly above its barrier).
    """
    dt_seq = np.sort(np.asarray(dt_seq, dtype=np.float64))
    if dt_seq.size < 2 or np.any(dt_seq <= 0):
        raise ConfigurationError("need at least two positive dt values")
    horizon = t + float(dt_seq[-1])
    steps = max(8, int(round(horizon * steps_per_unit)))
    grid = TimeGrid.regular(horizon, steps)
    for x in np.concatenate([[t] if t > 0 else [], t + dt_seq]):
        grid.index_of(x)  # all query dates must be nodes
    if isinstance(model, StructuralModel):
        e = _equity_paths(model, grid, n_paths, seed)
        b = model.barrier
        if observation_times is None:
            upto = grid.index_of(t) if t > 0 else 0
            alive = np.all(e[:, : upto + 1] > b, axis=1)
        else:
            obs = [grid.index_of(x) for x in observation_times if x <= t + 1e-12]
            if not obs:
                raise ConfigurationError("no observation times at or before t")
            alive = np.all(e[:, obs] > b, axis=1)
        event = lambda s: e[:, grid.index_of(s)] <= b  # noqa: E731
    else:
        sample = simulate_default(model, grid, n_paths, seed)  # rejects unknown models
        alive = sample.survivors_at(t)
        event = lambda s: sample.tau <= s  # noqa: E731
    n_alive = int(alive.sum())
    if n_alive < 100:
        raise EstimationError(
            "too few conditioning paths", diagnostics={"alive": n_alive}
        )
    # baseline default-state mass at t itself; nonzero under coarse observation
    p0, p0_se = _share(event(t)[alive]) if t > 0 else (0.0, 0.0)
    lam_dt = np.empty(dt_seq.size)
    lam_se = np.empty(dt_seq.size)
    degenerate = False
    for j, dt in enumerate(dt_seq):
        p, pse = _share(event(t + dt)[alive])
        if p <= p0:
            degenerate = True
            lam_dt[j] = 0.0
            lam_se[j] = 0.0
            continue
        lam_dt[j] = -(np.log1p(-p) - np.log1p(-p0)) / dt
        lam_se[j] = np.sqrt((pse / (1 - p)) ** 2 + (p0_se / (1 - p0)) ** 2) / dt
    if degenerate:
        return ImpliedIntensity(0.0, 0.0, dt_seq, lam_dt, lam_se, True)
    # weighted linear fit lambda(dt) = lambda0 + c dt
    w = 1.0 / np.maximum(lam_se, 1e-300) ** 2
    x = np.stack([np.ones_like(dt_seq), dt_seq], axis=1)
    cov = np.linalg.inv(x.T @ (x * w[:, None]))
    coef = cov @ (x.T @ (w * lam_dt))
    return ImpliedIntensity(
        float(coef[0]), float(np.sqrt(cov[0, 0])), dt_seq, lam_dt, lam_se, False
    )


def nelson_default_derivative(
    model,
    t: float,
    h: float,
    n_paths: int = 100_000,
    seed: int = 0,
    steps_per_unit: int = 200,
) -> tuple[float, float]:
    """Forward difference quotient of the default indicator on survivors.

    Returns (estimate, standard error).  For intensity models the estimate
    approaches the hazard at t; far above a structural barrier it collapses
    to zero.  On the defaulted set the indicator is frozen at one, so the
    quotient there is identically zero and is not returned.
    """
    horizon = t + h
    steps = max(4, int(round(horizon * steps_per_unit)))
    grid = TimeGrid.regular(horizon, steps)
    if t > 0:
        grid.index_of(t)
    sample = simulate_default(model, grid, n_paths, seed)
    alive, _ = _survivors(sample, t, 100, "too few survivors at t")
    p, se = _share(sample.tau[alive] <= t + h)
    return p / h, float(se / h)


# ---------------------------------------------------------------------------
# Markets, bonds, credit gauge


@dataclass(frozen=True, eq=False)
class CreditMarket:
    """A government/corporate gauge pair with its default scenery.

    gov_rates / corp_rates hold the instantaneous short-rate curves the market
    was constructed with (when known analytically); diagnostics prefer them
    over finite differences of the stored surfaces.
    """

    gov: Gauge
    corp: Gauge
    lgd: LGDProcess
    beta: PathEnsemble
    defaults: DefaultSample
    corp_predefault: PathEnsemble
    gov_rates: np.ndarray | None = None
    corp_rates: np.ndarray | None = None
    seed: int = 0

    @property
    def grid(self) -> TimeGrid:
        return self.gov.grid


def realized_lgd_at_default(market: CreditMarket) -> np.ndarray:
    """Per-path loss given default read off at the default time (nan if none)."""
    sample = market.defaults
    tau = sample.tau
    out = np.full(tau.size, np.nan)
    mask = sample.defaulted()
    if market.lgd.kind in ("constant", "deterministic"):
        vals = market.lgd.deterministic_at(tau[mask])
        out[mask] = np.asarray(vals, dtype=np.float64)
        return out
    if market.lgd.kind == "stochastic":
        paths = market.lgd.sample_paths(sample.grid, tau.size, market.seed)
        out[mask] = _interp_rows(tau[mask], sample.grid.times, paths[mask])
        return out
    raise ConfigurationError("driver_linked LGD is realized by the caller")


@dataclass(frozen=True, eq=False)
class BondPrice:
    value: float
    se: float
    n_used: int


def corporate_bond_price(
    market: CreditMarket, t: float, s: float, normalization: str = "terminal"
) -> BondPrice:
    """Defaultable zero-coupon price by ensemble average.

    With terminal normalization the payoff is 1 - LGD_tau on default before s
    and 1 otherwise, averaged over paths alive at t.  With "deflator"
    normalization the payoff is the stored corporate deflator at s over its
    value at t, which prices the bond off the market's own bookkeeping; on a
    consistently built market the two agree path by path.
    """
    if normalization not in ("terminal", "deflator"):
        raise ConfigurationError(f"unknown normalization {normalization!r}")
    sample = market.defaults
    alive, n_alive = _survivors(sample, t, 2, "no survivors at t")
    if normalization == "terminal":
        lgd = realized_lgd_at_default(market)
        hit = (sample.tau > t) & (sample.tau <= s)
        payoff = np.ones(sample.n_paths)
        payoff[hit] = 1.0 - lgd[hit]
    else:
        d = market.corp.deflator.series
        d = np.broadcast_to(d, (sample.n_paths, market.grid.n_times))
        i_t, i_s = market.grid.index_of(t), market.grid.index_of(s)
        payoff = d[:, i_s] / d[:, i_t]
    vals = payoff[alive]
    return BondPrice(float(vals.mean()), float(_mean_se(vals)), n_alive)


@dataclass(frozen=True, eq=False)
class CreditGauge:
    """Difference gauge of a corporate/government pair.

    The deflator is signed (it starts at zero for equal initial deflators),
    the price surface is the exact corporate/government ratio, and forward and
    short rates subtract.  ratio_deviation and jump_deviation record how far
    the construction identities are from exact bookkeeping.
    """

    deflator: PathEnsemble
    curve: TermStructureSurface
    forward: np.ndarray
    short: np.ndarray
    ratio_deviation: float
    jump_deviation: float


def credit_gauge(market: CreditMarket) -> CreditGauge:
    gov, corp = market.gov, market.corp
    if not np.array_equal(gov.curve.offsets, corp.curve.offsets):
        raise ConfigurationError("gov and corp use different maturity lattices")
    n = max(gov.n_paths, corp.n_paths)
    d_gov = np.broadcast_to(gov.deflator.series, (n, market.grid.n_times))
    d_corp = np.broadcast_to(corp.deflator.series, (n, market.grid.n_times))
    deflator = PathEnsemble(market.grid, d_corp - d_gov, seed=market.seed)
    ratio = corp.curve.values / gov.curve.values
    ratio[:, :, 0] = 1.0
    curve = TermStructureSurface(market.grid, gov.curve.offsets, ratio)
    f = forward_rates(corp.curve) - forward_rates(gov.curve)
    r = short_rate(corp.curve) - short_rate(gov.curve)
    check = np.max(
        np.abs(ratio * gov.curve.values - corp.curve.values)
        / np.abs(corp.curve.values)
    )
    # bookkeeping at default nodes: the credit deflator right after default is
    # (1 - LGD) * pre-default corporate value minus the government deflator
    sample = market.defaults
    lgd = realized_lgd_at_default(market)
    pre = np.broadcast_to(
        market.corp_predefault.series, (n, market.grid.n_times)
    )
    times = market.grid.times
    p = np.nonzero(sample.defaulted())[0]
    i = np.minimum(np.searchsorted(times, sample.tau[p] - 1e-12), times.size - 1)
    expected = (1.0 - lgd[p]) * pre[p, i] - d_gov[p, i]
    jump_dev = np.max(np.abs(deflator.series[p, i] - expected), initial=0.0)
    return CreditGauge(deflator, curve, f, r, float(check), float(jump_dev))


# ---------------------------------------------------------------------------
# Constructed markets and holonomy residuals


def build_thm1_market(
    lam: float | Callable,
    lgd_value: float,
    horizon: float = 10.0,
    steps: int = 40,
    n_offsets: int = 21,
    offset_step: float = 0.25,
    gov_rate: float = 0.0,
    spread_shift: float = 0.0,
    n_paths: int = 10_000,
    seed: int = 0,
) -> CreditMarket:
    """Market constructed directly from the pricing-kernel representation.

    The government bond is default-free with flat rate gov_rate and unit
    deflator, so the kernel is beta_t = exp(-gov_rate t).  The corporate
    deflator is 1 - LGD X_t and the corporate surface is the kernel price

        P_Corp(t, t+h) = e^{-gov_rate h} (1 - LGD (1 - e^{-int lambda})),

    whose instantaneous spread over the government rate is exactly
    LGD * lambda(t).  spread_shift adds a flat perturbation e^{-shift h} to
    the corporate surface (and to the recorded corporate short rate), which
    breaks the construction on purpose.
    """
    if not 0.0 <= lgd_value <= 1.0:
        raise ConfigurationError("LGD must lie in [0, 1]")
    grid = TimeGrid.regular(horizon, steps)
    model = IntensityModel(lam)
    sample = simulate_default(model, grid, n_paths, seed)
    lgd = LGDProcess("constant", value=lgd_value)
    times = grid.times
    offsets = offset_step * np.arange(n_offsets)
    # integrated hazard over [t, t+h] for every node/offset pair
    if callable(lam):
        ih = np.empty((times.size, offsets.size))
        for i, t in enumerate(times):
            for j, h in enumerate(offsets):
                ih[i, j] = model.integrated_hazard(t, t + h)
    else:
        ih = np.broadcast_to(float(lam) * offsets[None, :], (times.size, offsets.size))
    surv = np.exp(-ih)
    p_corp = np.exp(-(gov_rate + spread_shift) * offsets)[None, :] * (
        1.0 - lgd_value * (1.0 - surv)
    )
    p_corp = p_corp[None, :, :].copy()
    p_corp[:, :, 0] = 1.0
    corp_curve = TermStructureSurface(grid, offsets, p_corp)
    gov_curve = TermStructureSurface(
        grid,
        offsets,
        np.broadcast_to(
            np.exp(-gov_rate * offsets)[None, None, :],
            (1, times.size, offsets.size),
        ).copy(),
    )
    ones = np.ones((1, times.size))
    gov = Gauge(PathEnsemble(grid, ones), gov_curve, label="gov")
    defl = np.where(times[None, :] >= sample.tau[:, None], 1.0 - lgd_value, 1.0)
    corp_defl = PathEnsemble(grid, defl, seed=seed)
    corp = Gauge(corp_defl, corp_curve, label="corp")
    beta = PathEnsemble(grid, np.exp(-gov_rate * times)[None, :])
    lam_t = model.hazard_values(times)[0]
    corp_rates = gov_rate + lgd_value * lam_t + spread_shift
    gov_rates = np.full(times.size, gov_rate)
    return CreditMarket(
        gov=gov,
        corp=corp,
        lgd=lgd,
        beta=beta,
        defaults=sample,
        corp_predefault=PathEnsemble(grid, ones),
        gov_rates=gov_rates,
        corp_rates=corp_rates,
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class Thm1Report:
    """Spread and bond-difference residuals of the holonomy identities.

    rows_ii: per grid time, residual of (corporate - government short rate)
    minus beta * LGD * lambda, with the standard error of the lambda source.

    rows_iii: per (t, s) pair, four residual variants:
      - general_printed: bond difference plus beta*LGD*(estimated survival)
      - general: bond difference plus beta*LGD*(estimated default probability)
      - numeraire_printed: 1 - (1 + P_Cred) D_Cred minus beta*LGD*p
      - numeraire_rederived: 1 - P_Cred (1 + D_Cred) minus beta*LGD*p
    On a consistently built market the "general" and "numeraire_rederived"
    variants vanish; the printed companions do not, which is recorded in
    resolution.
    """

    rows_ii: list
    rows_iii: list
    lambda_source: str
    resolution: str


_WINDOW_TOL = 1e-12
# a spread residual with zero standard error is detected beyond _SPREAD_ATOL
_SPREAD_ATOL = 1e-14


def _empirical_hazard(
    sample: DefaultSample, t: float, window: float
) -> tuple[float, float]:
    """Hazard over [t, t+window] from nested survival counts, with SE."""
    n_t = int(sample.survivors_at(t).sum())
    n_s = int(sample.survivors_at(t + window).sum())
    if n_s < 10:
        raise EstimationError(
            "too few survivors for a hazard estimate",
            diagnostics={"at_t": n_t, "at_t_plus": n_s},
        )
    lam_hat = -np.log(n_s / n_t) / window
    se = np.sqrt(max(1.0 / n_s - 1.0 / n_t, 0.0)) / window
    return float(lam_hat), float(se)


def thm1_residuals(
    market: CreditMarket,
    pairs: list[tuple[float, float]],
    lambda_source: str = "model",
    window: float = 1.0,
) -> Thm1Report:
    """Evaluate the no-arbitrage spread and bond-difference identities.

    lambda_source "model" uses the hazard paths of the market's default sample
    (one exact row for deterministic hazards, so residual standard errors are
    zero and a residual beyond _SPREAD_ATOL is a detection); "simulated"
    re-estimates the hazard from the market's own default sample over
    [t, t+window], which attaches Monte Carlo standard errors and gives the
    detection test statistical power.
    """
    if lambda_source not in ("model", "simulated"):
        raise ConfigurationError(f"unknown lambda_source {lambda_source!r}")
    grid = market.grid
    times = grid.times
    if lambda_source == "simulated" and not 0.0 < window <= grid.horizon + _WINDOW_TOL:
        raise ConfigurationError(
            f"window must lie in (0, {grid.horizon}] for the simulated hazard, got {window}"
        )
    if market.corp_rates is not None and market.gov_rates is not None:
        spread = np.asarray(market.corp_rates) - np.asarray(market.gov_rates)
    else:
        spread = (
            short_rate(market.corp.curve).mean(axis=0)
            - short_rate(market.gov.curve).mean(axis=0)
        )
    beta = market.beta.series.mean(axis=0)
    rows_ii = []
    for i, t in enumerate(times):
        if lambda_source == "model":
            if market.defaults.lambda_paths is None:
                raise ConfigurationError("market model carries no hazard")
            col = market.defaults.lambda_paths[:, i]
            lam_hat = float(col.mean())
            lam_se = float(_mean_se(col))
        else:
            if t + window > grid.horizon + _WINDOW_TOL:
                continue
            lam_hat, lam_se = _empirical_hazard(market.defaults, t, window)
        lgd_t = market.lgd.deterministic_at(t)
        residual = float(spread[i] - beta[i] * lgd_t * lam_hat)
        se = float(beta[i] * lgd_t * lam_se)
        z, within = _se_gate(residual, se, atol=_SPREAD_ATOL)
        rows_ii.append(
            {
                "t": float(t),
                "residual": residual,
                "se": se,
                "z": z,
                "detected": not within,
            }
        )
    sample = market.defaults
    shape = (sample.n_paths, times.size)
    rows_iii = []
    for t, s in pairs:
        alive, n_alive = _survivors(
            sample, t, 10, "too few survivors for the bond-difference residual", t=t
        )
        p_hat, p_se = _share((sample.tau[alive] > t) & (sample.tau[alive] <= s))
        surv_hat = 1.0 - p_hat
        i_t = grid.index_of(t)
        p_corp = float(market.corp.curve.price(t, s).mean())
        p_gov = float(market.gov.curve.price(t, s).mean())
        d_corp, d_gov = (
            float(np.broadcast_to(g.deflator.series, shape)[alive, i_t].mean())
            for g in (market.corp, market.gov)
        )
        lgd_t = float(market.lgd.deterministic_at(t))
        b_t = float(beta[i_t])
        lhs = p_corp * d_corp - p_gov * d_gov
        p_cred = p_corp / p_gov
        d_cred = d_corp - d_gov
        scale = b_t * lgd_t
        rows_iii.append(
            {
                "t": float(t),
                "s": float(s),
                "general_printed": lhs + scale * surv_hat,
                "general": lhs + scale * p_hat,
                "numeraire_printed": (1.0 - (1.0 + p_cred) * d_cred) - scale * p_hat,
                "numeraire_rederived": (1.0 - p_cred * (1.0 + d_cred)) - scale * p_hat,
                "se": scale * float(p_se),
                "n_alive": n_alive,
            }
        )
    resolution = (
        "bond-difference identity holds with the default-probability factor "
        "1 - E[exp(-int lambda)] (variant 'general'); in numeraire units the "
        "surviving algebraic form is 1 - P_Cred (1 + D_Cred) (variant "
        "'numeraire_rederived'); the printed companions are reported for "
        "comparison and do not vanish on consistently built markets"
    )
    return Thm1Report(rows_ii, rows_iii, lambda_source, resolution)
