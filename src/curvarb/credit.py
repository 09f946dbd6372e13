"""Default models, defaultable bonds, and credit gauge diagnostics.

Two default mechanisms are implemented.  Structural models default when an
equity-style state process first reaches a barrier: the default time is
announced by the approach to the barrier, and on a simulation grid it lands on
grid nodes.  Intensity (Cox) models default when the integrated hazard first
exceeds an independent unit-exponential threshold: the default time carries no
announcement and lands between nodes via linear interpolation of the
piecewise-linear cumulative hazard (exact for piecewise-constant hazards).
The hazard is a deterministic function of time, and so is the loss given
default outside the integrability module's driver-linked stress rules: the
holonomy identities read both at grid times.

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
from .gauges import Gauge, TermStructureSurface, flat_term_structure, forward_rates, short_rate
from .paths import (
    TAG_BRIDGE,
    TAG_DRIVER,
    TAG_EXP,
    ItoSpec,
    PathEnsemble,
    TimeGrid,
    _Record,
    _cumulative_trapezoid,
    _first_row_if_shared,
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
    "LGDProcess",
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
    "realized_lgd_at_default",
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
        """The hazard sampled on a grid; shape (1, n_times)."""
        if callable(self.lam):
            vals = np.array([float(self.lam(t)) for t in times])
        else:
            vals = np.full(times.size, float(self.lam))
        if not np.all(vals >= 0):  # NaN fails too
            raise ConfigurationError("hazard rates must be nonnegative")
        return vals[None, :]

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


class LGDProcess(_Record):
    """Loss given default in [0, 1].

    kind "constant" uses value; "deterministic" uses fn(t); "driver_linked"
    evaluates fn(t, w) on the driving Brownian state at default (used by
    stress families in the integrability module).
    """

    kind: str = "constant"
    value: float = 0.0
    fn: Callable | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "deterministic", "driver_linked"):
            raise ConfigurationError(f"unknown LGD kind {self.kind!r}")
        if self.kind == "constant" and not 0.0 <= self.value <= 1.0:
            raise ConfigurationError("constant LGD must lie in [0, 1]")
        if self.kind in ("deterministic", "driver_linked") and self.fn is None:
            raise ConfigurationError("deterministic/driver_linked LGD needs fn")

    def deterministic_at(self, t: float | np.ndarray):
        if self.kind == "constant":
            return np.broadcast_to(self.value, np.shape(t)) if np.ndim(t) else self.value
        if self.kind == "deterministic":
            return np.clip(np.vectorize(self.fn, otypes=[np.float64])(t), 0.0, 1.0)
        raise ConfigurationError(f"LGD kind {self.kind!r} is not deterministic")


class DefaultSample(_Record):
    """Default times; an intensity sample also keeps its hazard scenery."""

    grid: TimeGrid
    tau: np.ndarray                       # (n,) defaults; inf if none in horizon
    cumulative_hazard: np.ndarray | None  # (1, n_times)
    thresholds: np.ndarray | None         # (n,) unit-exponential draws
    lambda_paths: np.ndarray | None       # (1, n_times): the hazard on the grid

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


def _check_sampled(sample: DefaultSample, s: float) -> None:
    """Defaults by s are read off the sample only up to its horizon."""
    if s > sample.grid.horizon:
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
    """Each path's first node i1 where the (1, n_times) cumulative hazard cum
    reaches its threshold, interpolated back into [times[i1 - 1], times[i1]];
    inf if none.  cum is nondecreasing, since the hazard is nonnegative, so
    one searchsorted finds every first crossing.
    """
    i1 = np.searchsorted(cum[0], thresholds, side="left")
    has = i1 < times.size
    i1 = i1[has]
    i0 = i1 - 1
    c0, c1 = cum[0, i0], cum[0, i1]
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
        return DefaultSample(grid, tau, cum, thresholds, lam)
    if isinstance(model, StructuralModel):
        b = model.barrier
        geometric = model.equity.form == "geometric"
        if bridge and geometric and b <= 0:
            raise ConfigurationError("geometric bridge needs a positive barrier")
        dt = grid.steps
        m = dt.size
        tau = np.full(n_paths, np.inf)
        for rows, e in _ito_blocks(model.equity, grid, n_paths, seed, TAG_DRIVER):
            a, c = e[:, :-1, 0], e[:, 1:, 0]
            crossed = c <= b
            if bridge:
                u = _keyed_rows(seed, TAG_BRIDGE, rows, (m,), "random")
                if model.equity.constant:
                    # sigma is the same at every step: sigma^2 dt is one row
                    # when every path shares sigma
                    sig = _first_row_if_shared(
                        model.equity.eval_sigma(times[0], e[:, 0], 1)[:, :, 0]
                    )
                else:
                    sig = np.empty(u.shape)
                    for i in range(m):
                        sig[:, i] = model.equity.eval_sigma(times[i], e[:, i], 1)[:, 0, 0]
                valid = (a > b) & (c > b)
                # -2 g(a) g(c) / (sigma^2 dt), built in place, with the gap g
                # to the barrier on the log scale for the geometric form
                if geometric:
                    with np.errstate(invalid="ignore", divide="ignore"):
                        # one log per node, read as both ends of its steps
                        gap = np.log(e[:, :, 0] / b)
                        expo = np.multiply(gap[:, :-1], -2.0)
                        expo *= gap[:, 1:]
                        expo /= sig**2 * dt
                else:
                    expo = np.subtract(a, b)
                    expo *= -2.0
                    expo *= c - b
                    expo /= sig**2 * dt
                # a valid step crosses when u < exp(expo)
                np.exp(expo, out=expo, where=valid)
                crossed |= np.less(u, expo, out=valid, where=valid)
            hit = crossed.any(axis=1)
            tau[rows.start : rows.stop][hit] = times[np.argmax(crossed[hit], axis=1) + 1]
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
    cum = sample.cumulative_hazard[0]
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
    if not s > t >= 0:
        raise ConfigurationError("need 0 <= t < s")
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

    The corporate gauge corp pairs corp_curve with the deflator
    1 - deflator_lgd * 1{t >= tau} on the default times, built on the first
    read of corp and then kept.  deflator_lgd is the LGD the market was
    built with; replacing lgd does not change it.
    """

    gov: Gauge
    corp_curve: TermStructureSurface
    lgd: LGDProcess
    deflator_lgd: float
    beta: PathEnsemble
    defaults: DefaultSample
    corp_predefault: PathEnsemble
    gov_rates: np.ndarray
    corp_rates: np.ndarray
    seed: int = 0

    @property
    def grid(self) -> TimeGrid:
        return self.gov.grid

    @cached_property
    def corp(self) -> Gauge:
        times, tau = self.grid.times, self.defaults.tau
        defl = np.where(times[None, :] >= tau[:, None], 1.0 - self.deflator_lgd, 1.0)
        return Gauge(PathEnsemble(self.grid, defl), self.corp_curve, label="corp")


def _corp_column(market: CreditMarket, i: int) -> np.ndarray:
    """(n_paths,) corporate deflator at grid node i: from tau, without the
    whole deflator."""
    tau = market.defaults.tau
    return np.where(market.grid.times[i] >= tau, 1.0 - market.deflator_lgd, 1.0)


def realized_lgd_at_default(market: CreditMarket) -> np.ndarray:
    """Per-path loss given default read off at the default time (nan if none)."""
    if market.lgd.kind == "driver_linked":
        raise ConfigurationError("driver_linked LGD is realized by the caller")
    tau = market.defaults.tau
    out = np.full(tau.size, np.nan)
    rows = np.nonzero(market.defaults.defaulted())[0]
    out[rows] = np.asarray(market.lgd.deterministic_at(tau[rows]), dtype=np.float64)
    return out


class BondPrice(_Record):
    value: float
    se: float
    n_used: int


def corporate_bond_price(
    market: CreditMarket, t: float, s: float, normalization: str = "terminal"
) -> BondPrice:
    """Defaultable zero-coupon price by ensemble average.

    With terminal normalization the payoff is 1 - LGD_tau on default before s
    and 1 otherwise, averaged over paths alive at t.  With "deflator"
    normalization the payoff is the corporate deflator at s over its
    value at t, which prices the bond off the market's own bookkeeping; on a
    consistently built market the two agree path by path.
    """
    if normalization not in ("terminal", "deflator"):
        raise ConfigurationError(f"unknown normalization {normalization!r}")
    sample = market.defaults
    _check_sampled(sample, s)
    alive, n_alive = _survivors(sample, t, 2, "no survivors at t")
    if normalization == "terminal":
        lgd = realized_lgd_at_default(market)
        hit = (sample.tau > t) & (sample.tau <= s)
        payoff = np.ones(sample.n_paths)
        payoff[hit] = 1.0 - lgd[hit]
        vals = payoff[alive]
    else:
        # alive paths only: a path dead at t holds a zero deflator under LGD 1
        i_t, i_s = market.grid.index_of(t), market.grid.index_of(s)
        vals = _corp_column(market, i_s)[alive] / _corp_column(market, i_t)[alive]
    return BondPrice(float(vals.mean()), float(_mean_se(vals)), n_alive)


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
    # (1 - LGD) * pre-default corporate value minus the government deflator
    sample = market.defaults
    lgd = realized_lgd_at_default(market)
    pre = np.broadcast_to(market.corp_predefault.series, (n, market.grid.n_times))
    p = np.nonzero(sample.defaulted())[0]
    i = np.searchsorted(market.grid.times, sample.tau[p])  # the deflator jumps at times >= tau
    expected = (1.0 - lgd[p]) * pre[p, i] - d_gov[p, i]
    jump_dev = np.max(np.abs(deflator.series[p, i] - expected), initial=0.0)
    return CreditGauge(deflator, curve, f, r, float(check), float(jump_dev))


# ---------------------------------------------------------------------------
# Constructed markets and holonomy residuals


# a price or kernel that overflows is rejected, not warned about
@np.errstate(all="ignore")
def _thm1_curves(grid: TimeGrid, offsets, lam, lgd_value, gov_rate, spread_shift) -> tuple:
    """The government and corporate surfaces and the (1, n_times) kernel of
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
    beta = _kernel_on_grid(np.exp(-gov_rate * times), grid)
    return flat_term_structure(grid, gov_rate, offsets), corp_curve, beta


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
    deflator is 1 - LGD X_t, derived from the default times when read (see
    CreditMarket), and the corporate surface is the kernel price

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
    gov_curve, corp_curve, beta = _thm1_curves(
        grid, offsets, lam, lgd_value, gov_rate, spread_shift
    )
    ones = np.ones((1, times.size))
    gov = Gauge(PathEnsemble(grid, ones), gov_curve, label="gov")
    beta = PathEnsemble(grid, beta)
    lam_t = model.hazard_values(times)[0]
    corp_rates = gov_rate + lgd_value * lam_t + spread_shift
    gov_rates = np.full(times.size, gov_rate)
    return CreditMarket(
        gov=gov,
        corp_curve=corp_curve,
        lgd=lgd,
        deflator_lgd=lgd_value,
        beta=beta,
        defaults=sample,
        corp_predefault=PathEnsemble(grid, ones),
        gov_rates=gov_rates,
        corp_rates=corp_rates,
        seed=seed,
    )


class Thm1Report(_Record):
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
    if lambda_source == "simulated" and not 0.0 < window <= grid.horizon + _WINDOW_TOL:
        raise ConfigurationError(
            f"window must lie in (0, {grid.horizon}] for the simulated hazard, got {window}"
        )
    spread = np.asarray(market.corp_rates) - np.asarray(market.gov_rates)
    beta = market.beta.series.mean(axis=0)
    if lambda_source == "simulated":
        # the times whose window [t, t+window] lies inside the grid
        at = np.flatnonzero(times + window <= grid.horizon + _WINDOW_TOL)
        tau = market.defaults.tau
        lam_hat, lam_se = _empirical_hazard(np.sort(tau[~np.isnan(tau)]), times[at], window)
    elif market.defaults.lambda_paths is None:
        raise ConfigurationError("market model carries no hazard")
    else:
        at = np.arange(times.size)
        lam_hat, lam_se = market.defaults.lambda_paths[0], np.zeros(times.size)
    scale = beta[at] * market.lgd.deterministic_at(times[at])
    residual = spread[at] - scale * lam_hat
    se = scale * lam_se
    z, within = _se_gate(residual, se, atol=_SPREAD_ATOL)
    columns = (times[at], residual, se, z, ~within)
    rows_ii = [
        dict(zip(("t", "residual", "se", "z", "detected"), row))
        for row in zip(*(c.tolist() for c in columns))
    ]
    sample = market.defaults
    shape = (sample.n_paths, times.size)
    rows_iii = []
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
        d_corp = float(_corp_column(market, i_t)[alive].mean())
        d_gov = float(np.broadcast_to(market.gov.deflator.series, shape)[alive, i_t].mean())
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
