"""Default models, defaultable bonds, and credit gauge diagnostics.

Two default mechanisms are implemented.  Structural models default when an
equity-style state process first reaches a barrier: the default time is
announced by the approach to the barrier, and on a simulation grid it lands on
grid nodes.  Intensity (Cox) models default when the integrated hazard first
exceeds an independent unit-exponential threshold: the default time carries no
announcement and lands between nodes via linear interpolation of the
piecewise-linear cumulative hazard (exact for piecewise-constant hazards).
The hazard is a deterministic function of time and the loss given default
is one number per market: the holonomy identities read the hazard at grid
times.

Test markets are built directly under the pricing measure, so plain ensemble
averages play the role of risk-neutral expectations and the pricing kernel of
a consistently built market is deterministic.

The holonomy residuals (spread identity and bond-difference identity) are
evaluated in several printed and re-derived algebraic variants; consistently
built markets discriminate between them, and the report records which variant
vanishes.  See thm1_residuals for the details.
"""

from __future__ import annotations

import numbers
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, EstimationError
from .gauges import (
    _OFFSET_LATTICE, Gauge, TermStructureSurface, flat_term_structure, forward_rates, short_rate,
)
from .paths import (
    TAG_BRIDGE,
    TAG_DRIVER,
    TAG_EXP,
    ItoSpec,
    PathEnsemble,
    TimeGrid,
    _Record,
    _check_lgd,
    _cumulative_trapezoid,
    _gauss_legendre,
    _ito_blocks,
    _kernel_on_grid,
    _keyed_rows,
    _mean_se,
    _se_gate,
)

__all__ = [
    "IntensityModel",
    "StructuralModel",
    "DefaultSample",
    "CreditMarket",
    "CreditGauge",
    "ProbabilityEstimate",
    "BondPrice",
    "Thm1Report",
    "simulate_default",
    "cox_uniformity",
    "default_probability",
    "corporate_bond_price",
    "credit_gauge",
    "thm1_residuals",
    "build_thm1_market",
]

# callable hazards are integrated on _HAZARD_PANELS equal panels of
# _HAZARD_NODES Gauss-Legendre nodes per interval
_HAZARD_PANELS = 8
_HAZARD_NODES = 8


# ---------------------------------------------------------------------------
# Model types


class IntensityModel(_Record):
    """Cox default model with a deterministic hazard lam: a constant rate or
    a callable t -> rate."""

    lam: float | Callable

    def __post_init__(self):
        if not (callable(self.lam) or isinstance(self.lam, numbers.Real)):
            raise ConfigurationError(
                f"a hazard is a real number or a callable, not {type(self.lam).__name__}"
            )

    def hazard_values(self, times: np.ndarray) -> np.ndarray:
        """The hazard sampled on a grid; shape (n_times,)."""
        if callable(self.lam):
            vals = np.array([float(self.lam(t)) for t in times])
        else:
            vals = np.full(times.size, float(self.lam))
        if not np.all(vals >= 0):  # NaN fails too
            raise ConfigurationError("hazard rates must be nonnegative")
        return vals

    def integrated_hazard(self, t: float, s: float) -> float:
        """Integral of the hazard over [t, s]: exact for a constant, the
        fixed rule of _hazard_integrals for a callable."""
        if callable(self.lam):
            return float(_hazard_integrals(self.lam, np.array([t, s]))[0])
        return float(self.lam) * (s - t)


def _hazard_integrals(lam: Callable, edges: np.ndarray) -> np.ndarray:
    """Integral of a callable hazard over each [edges[i], edges[i + 1]].

    Each interval is cut into _HAZARD_PANELS equal panels of
    _HAZARD_NODES Gauss-Legendre nodes, exact for a polynomial hazard of
    degree below 2 * _HAZARD_NODES.  lam is called on one scalar time at a
    time, as hazard_values calls it.
    """
    cuts = np.linspace(edges[:-1], edges[1:], _HAZARD_PANELS + 1, axis=-1)
    x, w = _gauss_legendre(cuts[:, :-1, None], cuts[:, 1:, None], _HAZARD_NODES)
    vals = np.array([float(lam(t)) for t in x.ravel()]).reshape(x.shape)
    return np.sum(vals * w, axis=(1, 2))


class StructuralModel(_Record):
    """First-passage default: the equity state hitting the barrier from above."""

    equity: ItoSpec
    barrier: float

    def __post_init__(self):
        if self.equity.dim != 1 or self.equity.driver_dim() != 1:
            raise ConfigurationError("structural equity must be one-dimensional with one driver")
        if float(self.equity.x0[0]) <= self.barrier:
            raise ConfigurationError("equity must start strictly above the barrier")


class DefaultSample(_Record):
    """Default times; an intensity sample also keeps its hazard scenery."""

    grid: TimeGrid
    tau: np.ndarray                 # (n,) defaults; inf if none in horizon
    thresholds: np.ndarray | None   # (n,) unit-exponential draws
    hazard: np.ndarray | None       # (n_times,) the hazard on the grid

    @property
    def n_paths(self) -> int:
        return self.tau.size

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


def _check_dates(t: float, s: float) -> None:
    """A default by s, given survival to t, needs 0 <= t < s; NaN fails."""
    if not s > t >= 0:
        raise ConfigurationError("need 0 <= t < s")


def _past_horizon(s, horizon: float) -> bool:
    """Whether defaults by s lie past a sample's horizon; validate reads it too."""
    return s > horizon


def _check_sampled(sample: DefaultSample, s: float) -> None:
    """Defaults by s are read off the sample only up to its horizon."""
    if _past_horizon(s, sample.grid.horizon):
        raise DomainError(f"s = {s} is past the sample horizon {sample.grid.horizon}")


def _share(hit: np.ndarray):
    """Share of the paths in hit (a boolean array) and its binomial SE."""
    p = float(hit.mean())
    return p, np.sqrt(p * (1 - p) / hit.size)


# ---------------------------------------------------------------------------
# Simulation


def _intensity_default_times(
    cum: np.ndarray, times: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Each path's first node i1 where the (n_times,) cumulative hazard cum
    reaches its threshold, interpolated back into [times[i1 - 1], times[i1]];
    inf if none.  cum is nondecreasing, since the hazard is nonnegative, so
    one searchsorted finds every first crossing.
    """
    i1 = np.searchsorted(cum, thresholds, side="left")
    has = i1 < times.size
    i1 = i1[has]
    i0 = i1 - 1
    c0, c1 = cum[i0], cum[i1]
    dc = c1 - c0
    frac = np.where(dc > 0, (thresholds[has] - c0) / np.where(dc > 0, dc, 1.0), 1.0)
    tau = np.full(thresholds.size, np.inf)
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

    Structural: default is the right end of the first grid step that crosses
    the barrier.  A step crosses when it ends on a node at or below the
    barrier or, with bridge=True, when its uniform draw falls under the
    conditional two-point crossing probability.  The equity is simulated one
    block of paths at a time.
    """
    if n_paths < 1:
        raise ConfigurationError("need n_paths >= 1")
    times = grid.times
    if isinstance(model, IntensityModel):
        lam = model.hazard_values(times)
        cum = _cumulative_trapezoid(lam, grid.steps)
        thresholds = _keyed_rows(seed, TAG_EXP, range(n_paths), (), "standard_exponential")
        tau = _intensity_default_times(cum, times, thresholds)
        return DefaultSample(grid, tau, thresholds, lam)
    if isinstance(model, StructuralModel):
        b = model.barrier
        geometric = model.equity.form == "geometric"
        if bridge and geometric and b <= 0:
            raise ConfigurationError("geometric bridge needs a positive barrier")
        dt = grid.steps
        m = dt.size
        # sigma^2 dt of every step, one row shared by all paths
        var = model.equity.sigma**2 * dt
        tau = np.full(n_paths, np.inf)
        for rows, e in _ito_blocks(model.equity, grid, n_paths, seed, TAG_DRIVER):
            a, c = e[:, :-1, 0], e[:, 1:, 0]
            crossed = c <= b
            if bridge:
                u = _keyed_rows(seed, TAG_BRIDGE, rows, (m,), "random")
                valid = (a > b) & (c > b)
                # -2 g(a) g(c) / (sigma^2 dt), built in place, with the gap g
                # to the barrier on the log scale for the geometric form
                if geometric:
                    with np.errstate(invalid="ignore", divide="ignore"):
                        # one log per node, read as both ends of its steps
                        gap = np.log(e[:, :, 0] / b)
                        expo = np.multiply(gap[:, :-1], -2.0)
                        expo *= gap[:, 1:]
                        expo /= var
                else:
                    expo = np.subtract(a, b)
                    expo *= -2.0
                    expo *= c - b
                    expo /= var
                # a valid step crosses when u < exp(expo)
                np.exp(expo, out=expo, where=valid)
                crossed |= np.less(u, expo, out=valid, where=valid)
            hit = crossed.any(axis=1)
            tau[rows.start : rows.stop][hit] = times[np.argmax(crossed[hit], axis=1) + 1]
        return DefaultSample(grid, tau, None, None)
    raise ConfigurationError(f"unknown default model {type(model).__name__}")


def cox_uniformity(sample: DefaultSample) -> tuple[float, float, int]:
    """KS check that hitting levels of the cumulative hazard are Exp(1).

    Default times are mapped back through the piecewise-linear cumulative
    hazard; conditioned on defaulting inside the horizon these levels follow a
    truncated Exp(1), so their truncated CDF values are uniform.  Returns the
    KS statistic, p-value, and the number of defaulted paths.
    """
    if sample.hazard is None:
        raise ConfigurationError("hazard-law check applies to intensity samples")
    cum = _cumulative_trapezoid(sample.hazard, sample.grid.steps)
    mask = sample.defaulted()
    if mask.sum() < 10:
        raise EstimationError(
            "too few defaults for a distribution test",
            diagnostics={"defaulted": int(mask.sum())},
        )
    lam_tau = np.interp(sample.tau[mask], sample.grid.times, cum)
    total = cum[-1]
    u = np.sort(-np.expm1(-lam_tau) / -np.expm1(-total))
    n = u.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - u)
    d_minus = np.max(u - np.arange(0.0, n) / n)
    stat = float(d_plus if d_plus > d_minus else d_minus)
    from ._laws import kolmogorov_sf

    return stat, kolmogorov_sf(n, stat), n


# ---------------------------------------------------------------------------
# Default probabilities


class ProbabilityEstimate(_Record):
    value: float
    se: float
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

    Intensity models integrate their hazard exactly; structural models count
    barrier states among n_paths simulated paths that survived to t.
    """
    _check_dates(t, s)
    if isinstance(model, IntensityModel):
        p = -np.expm1(-model.integrated_hazard(t, s))
        return ProbabilityEstimate(float(p), 0.0)
    if not isinstance(model, StructuralModel):
        raise ConfigurationError(f"unknown default model {type(model).__name__}")
    if n_paths < 2:
        raise ConfigurationError("simulation estimate needs n_paths >= 2")
    grid = TimeGrid.regular(s, steps)
    sample = simulate_default(model, grid, n_paths, seed, bridge=bridge)
    alive, n_alive = _survivors(sample, t, 2, "no survivors to condition on")
    p, se = _share(sample.tau[alive] <= s)
    return ProbabilityEstimate(p, float(se), n_alive)


# ---------------------------------------------------------------------------
# Markets, bonds, credit gauge


class CreditMarket(_Record):
    """A government/corporate gauge pair with its default scenery.

    gov_rates / corp_rates hold the instantaneous short-rate curves the market
    was constructed with; thm1_residuals reads its spread off them.

    beta is the deterministic pricing kernel on the grid, shape (n_times,).

    lgd is the loss given default, a real number in [0, 1].  The corporate
    gauge corp pairs corp_curve with the deflator 1 - lgd * 1{t >= tau} on
    the default times, built on the first read of corp and then kept.
    """

    gov: Gauge
    corp_curve: TermStructureSurface
    lgd: float
    beta: np.ndarray
    defaults: DefaultSample
    gov_rates: np.ndarray
    corp_rates: np.ndarray
    seed: int = 0

    def __post_init__(self):
        _check_lgd(self.lgd)

    @property
    def grid(self) -> TimeGrid:
        return self.gov.grid

    @cached_property
    def corp(self) -> Gauge:
        defl = _corp_deflator(self, slice(None))
        return Gauge(PathEnsemble(self.grid, defl), self.corp_curve, label="corp")


def _corp_deflator(market: CreditMarket, i: int | slice) -> np.ndarray:
    """The corporate deflator from tau at grid node(s) i: (n_paths,) at one
    node, (n_paths, k) at a slice of k."""
    at = np.less_equal.outer(market.defaults.tau, market.grid.times[i])
    return np.where(at, 1.0 - market.lgd, 1.0)


class BondPrice(_Record):
    value: float
    se: float
    n_used: int


def corporate_bond_price(market: CreditMarket, t: float, s: float) -> BondPrice:
    """Defaultable zero-coupon price by ensemble average.

    The payoff is 1 - LGD on default in (t, s] and 1 otherwise, averaged
    over the paths alive at t, for 0 <= t < s.  On the market's grid this
    is, path by path, the corporate deflator at s over its value at t.
    """
    _check_dates(t, s)
    sample = market.defaults
    _check_sampled(sample, s)
    alive, n_alive = _survivors(sample, t, 2, "no survivors at t")
    hit = (sample.tau > t) & (sample.tau <= s)
    payoff = np.ones(sample.n_paths)
    payoff[hit] = 1.0 - market.lgd
    mean, se = _mean_se(payoff[alive])
    return BondPrice(float(mean), float(se), n_alive)


class CreditGauge(_Record):
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
    deflator = PathEnsemble(market.grid, d_corp - d_gov)
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
    # (1 - LGD) times the unit pre-default corporate value, minus the government deflator
    sample = market.defaults
    p = np.nonzero(sample.defaulted())[0]
    i = np.searchsorted(market.grid.times, sample.tau[p])  # the deflator jumps at times >= tau
    expected = (1.0 - market.lgd) - d_gov[p, i]
    jump_dev = np.max(np.abs(deflator.series[p, i] - expected), initial=0.0)
    return CreditGauge(deflator, curve, f, r, float(check), float(jump_dev))


# ---------------------------------------------------------------------------
# Constructed markets and holonomy residuals


# a price or kernel that overflows is rejected, not warned about
@np.errstate(all="ignore")
def _thm1_curves(grid: TimeGrid, offsets, lam, lgd_value, gov_rate, spread_shift) -> tuple:
    """The government and corporate surfaces and the (n_times,) kernel of
    build_thm1_market; raises ConfigurationError unless all are finite and
    positive."""
    times = grid.times
    # integrated hazard over [t, t+h] for every node/offset pair
    if callable(lam):
        # Lambda(x), the hazard integrated from the first node, once at each
        # distinct point t + h, then differenced
        ends = times[:, None] + offsets[None, :]
        points, at = np.unique(ends, return_inverse=True)
        cum = np.concatenate(([0.0], np.cumsum(_hazard_integrals(lam, points))))
        at = at.reshape(ends.shape)
        ih = cum[at] - cum[at[:, :1]]  # offsets[0] is 0: column 0 is t itself
    else:
        ih = np.broadcast_to(float(lam) * offsets[None, :], (times.size, offsets.size))
    surv = np.exp(-ih)
    p_corp = np.exp(-(gov_rate + spread_shift) * offsets)[None, :] * (
        1.0 - lgd_value * (1.0 - surv)
    )
    p_corp = p_corp[None, :, :].copy()
    p_corp[:, :, 0] = 1.0
    corp_curve = TermStructureSurface(grid, offsets, p_corp)
    beta = _kernel_on_grid(np.exp(-gov_rate * times), grid)[0]
    return flat_term_structure(grid, gov_rate, offsets), corp_curve, beta


def build_thm1_market(
    lam: float | Callable,
    lgd_value: float,
    horizon: float = 10.0,
    steps: int = 40,
    n_offsets: int = _OFFSET_LATTICE[1],
    offset_step: float = _OFFSET_LATTICE[0],
    gov_rate: float = 0.0,
    spread_shift: float = 0.0,
    n_paths: int = 10_000,
    seed: int = 0,
) -> CreditMarket:
    """Market constructed directly from the pricing-kernel representation.

    The government bond is default-free with flat rate gov_rate and unit
    deflator, so the kernel is beta_t = exp(-gov_rate t).  The corporate
    deflator is 1 - LGD X_t, derived from the default times when read (see
    CreditMarket), and the corporate surface is the kernel price

        P_Corp(t, t+h) = e^{-gov_rate h} (1 - LGD (1 - e^{-int lambda})),

    whose instantaneous spread over the government rate is exactly
    LGD * lambda(t).  spread_shift adds a flat perturbation e^{-shift h} to
    the corporate surface (and to the recorded corporate short rate), which
    breaks the construction on purpose.
    """
    _check_lgd(lgd_value)
    grid = TimeGrid.regular(horizon, steps)
    sample = simulate_default(IntensityModel(lam), grid, n_paths, seed)
    times = grid.times
    offsets = offset_step * np.arange(n_offsets)
    gov_curve, corp_curve, beta = _thm1_curves(
        grid, offsets, lam, lgd_value, gov_rate, spread_shift
    )
    gov = Gauge(PathEnsemble(grid, np.ones((1, times.size))), gov_curve, label="gov")
    corp_rates = gov_rate + lgd_value * sample.hazard + spread_shift
    gov_rates = np.full(times.size, gov_rate)
    return CreditMarket(
        gov=gov,
        corp_curve=corp_curve,
        lgd=lgd_value,
        beta=beta,
        defaults=sample,
        gov_rates=gov_rates,
        corp_rates=corp_rates,
        seed=seed,
    )


class Thm1Report(_Record):
    """Spread and bond-difference residuals of the holonomy identities.

    spread: the columns t, residual, se, z and detected, per grid time: the
    residual of (corporate - government short rate) minus beta * LGD *
    lambda, with the standard error of the lambda source.

    bond: the columns t, s, the four residual variants below, se and n_alive
    (int64), per (t, s) pair:
      - general_printed: bond difference plus beta*LGD*(estimated survival)
      - general: bond difference plus beta*LGD*(estimated default probability)
      - numeraire_printed: 1 - (1 + P_Cred) D_Cred minus beta*LGD*p
      - numeraire_rederived: 1 - P_Cred (1 + D_Cred) minus beta*LGD*p
    On a consistently built market the "general" and "numeraire_rederived"
    variants vanish; the printed companions do not, which is recorded in
    resolution.
    """

    spread: dict
    bond: dict
    lambda_source: str
    resolution: str


_WINDOW_TOL = 1e-12


def _window_inside(end, horizon: float):
    """Whether hazard windows ending at end lie in the grid; validate reads it too."""
    return end <= horizon + _WINDOW_TOL


# a spread residual with zero standard error is detected beyond _SPREAD_ATOL
_SPREAD_ATOL = 1e-14


def _empirical_hazard(
    ordered_tau: np.ndarray, t: np.ndarray, window: float
) -> tuple[np.ndarray, np.ndarray]:
    """Hazard over [t, t+window] at each of the times t from nested survival
    counts, with SE; ordered_tau is the sample's np.sort(tau), without NaN,
    and the paths alive at a time are those whose default comes after it.
    The first time with fewer than 10 survivors at t+window raises."""
    n_t, n_s = ordered_tau.size - np.searchsorted(ordered_tau, [t, t + window], side="right")
    starved = n_s < 10
    if starved.any():
        i = int(np.argmax(starved))
        raise EstimationError(
            "too few survivors for a hazard estimate",
            diagnostics={"at_t": int(n_t[i]), "at_t_plus": int(n_s[i])},
        )
    lam_hat = -np.log(n_s / n_t) / window
    se = np.sqrt(np.maximum(1.0 / n_s - 1.0 / n_t, 0.0)) / window
    return lam_hat, se


def thm1_residuals(
    market: CreditMarket,
    pairs: list[tuple[float, float]],
    lambda_source: str = "model",
    window: float = 1.0,
) -> Thm1Report:
    """Evaluate the no-arbitrage spread and bond-difference identities.

    lambda_source "model" reads the exact hazard row of the market's default
    sample, so residual standard errors are zero and a residual beyond
    _SPREAD_ATOL is a detection; "simulated" re-estimates the hazard from the
    market's own default sample over [t, t+window], which attaches Monte Carlo
    standard errors and gives the detection test statistical power.
    """
    if lambda_source not in ("model", "simulated"):
        raise ConfigurationError(f"unknown lambda_source {lambda_source!r}")
    grid = market.grid
    times = grid.times
    if lambda_source == "simulated" and not (window > 0.0 and _window_inside(window, grid.horizon)):
        raise ConfigurationError(
            f"window must lie in (0, {grid.horizon}] for the simulated hazard, got {window}"
        )
    rate_gap = np.asarray(market.corp_rates) - np.asarray(market.gov_rates)
    beta = market.beta
    if lambda_source == "simulated":
        # the times whose window [t, t+window] lies inside the grid
        at = np.flatnonzero(_window_inside(times + window, grid.horizon))
        tau = market.defaults.tau
        lam_hat, lam_se = _empirical_hazard(np.sort(tau[~np.isnan(tau)]), times[at], window)
    elif market.defaults.hazard is None:
        raise ConfigurationError("market model carries no hazard")
    else:
        at = np.arange(times.size)
        lam_hat, lam_se = market.defaults.hazard, np.zeros(times.size)
    scale = beta[at] * market.lgd
    residual = rate_gap[at] - scale * lam_hat
    se = scale * lam_se
    z, within = _se_gate(residual, se, atol=_SPREAD_ATOL)
    spread = {"t": times[at], "residual": residual, "se": se, "z": z, "detected": ~within}
    sample = market.defaults
    shape = (sample.n_paths, times.size)
    rows = []
    for t, s in pairs:
        _check_sampled(sample, s)
        alive, n_alive = _survivors(
            sample, t, 10, "too few survivors for the bond-difference residual", t=t
        )
        p_hat, p_se = _share(sample.tau[alive] <= s)
        surv_hat = 1.0 - p_hat
        i_t = grid.index_of(t)
        p_corp = float(market.corp_curve.price(t, s).mean())
        p_gov = float(market.gov.curve.price(t, s).mean())
        d_corp = float(_corp_deflator(market, i_t)[alive].mean())
        d_gov = float(np.broadcast_to(market.gov.deflator.series, shape)[alive, i_t].mean())
        lgd_t = float(market.lgd)
        b_t = float(beta[i_t])
        lhs = p_corp * d_corp - p_gov * d_gov
        p_cred = p_corp / p_gov
        d_cred = d_corp - d_gov
        scale = b_t * lgd_t
        general = (lhs + scale * surv_hat, lhs + scale * p_hat)
        printed = (1.0 - (1.0 + p_cred) * d_cred) - scale * p_hat
        rederived = (1.0 - p_cred * (1.0 + d_cred)) - scale * p_hat
        rows.append((t, s, *general, printed, rederived, scale * float(p_se), n_alive))
    resolution = (
        "bond-difference identity holds with the default-probability factor "
        "1 - E[exp(-int lambda)] (variant 'general'); in numeraire units the "
        "surviving algebraic form is 1 - P_Cred (1 + D_Cred) (variant "
        "'numeraire_rederived'); the printed companions are reported for "
        "comparison and do not vanish on consistently built markets"
    )
    names = ("t", "s", "general_printed", "general", "numeraire_printed", "numeraire_rederived")
    bond = dict(zip(names + ("se", "n_alive"), np.array(rows, dtype=np.float64).reshape(-1, 8).T))
    bond["n_alive"] = bond["n_alive"].astype(np.int64)
    return Thm1Report(spread, bond, lambda_source, resolution)
