"""Deflator/term-structure pairs and the transforms that act on them.

A gauge couples a deflator path family D_t with a term-structure surface
P(t, t+h) on a fixed maturity-offset lattice.  Cashflow vectors act on gauges
by lattice sums; the composition of two such transforms equals the transform
by the convolution of the vectors, exactly, as long as everything lives on one
lattice.  Incommensurable lattices are rejected rather than resampled
silently.

Term structures are stored against maturity offsets h >= 0 from the valuation
date, with P(t, t) = 1 pinned at offset zero.  Forward rates for reporting use
central log-differences on the offset lattice (one-sided at the ends); price
reconstruction from weighted combinations of gauges uses weighted log-prices,
which agrees with integrating interval forward rates and keeps degenerate
combinations exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    NumeraireError,
    SingularTransformError,
)
from .paths import (
    PathEnsemble,
    TimeGrid,
    _cumulative_trapezoid,
    _mean_se,
    _read_long_csv,
    _symmetric_quotient,
    _write_csv,
)

__all__ = [
    "TermStructureSurface",
    "Gauge",
    "CashflowVector",
    "SelfFinancingReport",
    "flat_term_structure",
    "term_structure_from_forwards",
    "forward_rates",
    "short_rate",
    "convolve",
    "gauge_transform",
    "portfolio_gauge",
    "numeraire_change",
    "self_financing_residual",
    "write_term_structure_csv",
    "read_term_structure_csv",
]

_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TermStructureSurface:
    """P(t, t+h) on a grid of valuation dates and maturity offsets.

    values has shape (n_paths, n_times, n_offsets); offsets start at 0 where
    the price is identically 1.  Prices must be strictly positive.
    """

    grid: TimeGrid
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=np.float64)
        if off.ndim != 1 or off.size < 2:
            raise ConfigurationError("need at least two maturity offsets")
        if off[0] != 0.0 or not np.all(np.diff(off) > 0):
            raise ConfigurationError("offsets must start at 0 and increase")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 2:
            v = v[None, :, :]
        if v.ndim != 3 or v.shape[1] != self.grid.n_times or v.shape[2] != off.size:
            raise ConfigurationError(
                "term-structure values must have shape (n_paths, n_times, n_offsets)"
            )
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ConfigurationError("term-structure prices must be finite and positive")
        if np.any(v[:, :, 0] != 1.0):
            raise ConfigurationError("P(t, t) must equal 1 at offset zero")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "values", v)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_offsets(self) -> int:
        return self.offsets.size

    def offset_spacing(self) -> float:
        """Common lattice spacing; raises if the offsets are irregular."""
        d = np.diff(self.offsets)
        if np.max(d) - np.min(d) > _REL_TOL * np.max(d):
            raise ConfigurationError("maturity offsets do not form a regular lattice")
        return float(d[0])

    def price(self, t: float, s: float) -> np.ndarray:
        """P(t, s) per path, log-linear in maturity between lattice offsets."""
        i = self.grid.index_of(t)
        h = s - t
        if h < -_REL_TOL or h > self.offsets[-1] * (1 + _REL_TOL) + _REL_TOL:
            raise DomainError(f"maturity offset {h} outside the lattice span")
        h = min(max(h, 0.0), float(self.offsets[-1]))
        j = int(np.searchsorted(self.offsets, h))
        for cand in (j - 1, j):
            if 0 <= cand < self.n_offsets and abs(self.offsets[cand] - h) <= _REL_TOL * (
                1 + h
            ):
                return self.values[:, i, cand]
        j = min(max(j, 1), self.n_offsets - 1)
        lo, hi = self.offsets[j - 1], self.offsets[j]
        w = (h - lo) / (hi - lo)
        logp = (1 - w) * np.log(self.values[:, i, j - 1]) + w * np.log(
            self.values[:, i, j]
        )
        return np.exp(logp)


@dataclass(frozen=True, eq=False)
class Gauge:
    """A deflator ensemble together with its term-structure surface."""

    deflator: PathEnsemble
    curve: TermStructureSurface
    label: str = ""

    def __post_init__(self):
        if self.deflator.dim != 1:
            raise ConfigurationError("gauge deflators must be one-dimensional")
        if not np.array_equal(self.deflator.grid.times, self.curve.grid.times):
            raise ConfigurationError("deflator and curve live on different grids")
        if self.curve.n_paths not in (1, self.deflator.n_paths):
            raise ConfigurationError(
                "curve paths must be 1 (deterministic) or match the deflator"
            )

    @property
    def grid(self) -> TimeGrid:
        return self.deflator.grid

    @property
    def n_paths(self) -> int:
        return self.deflator.n_paths


@dataclass(frozen=True, eq=False)
class CashflowVector:
    """Signed cashflow weights on an integer offset lattice with spacing step.

    offsets are lattice indices (>= 0, strictly increasing); physical maturity
    offsets are offsets * step.
    """

    step: float
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (self.step > 0 and np.isfinite(self.step)):
            raise ConfigurationError("cashflow lattice step must be positive")
        off = np.asarray(self.offsets, dtype=np.int64)
        wts = np.asarray(self.weights, dtype=np.float64)
        if off.ndim != 1 or wts.shape != off.shape or off.size == 0:
            raise ConfigurationError("offsets and weights must be matching 1-d arrays")
        if np.any(off < 0) or not np.all(np.diff(off) > 0):
            raise ConfigurationError("offsets must be nonnegative and increasing")
        if not np.all(np.isfinite(wts)) or not np.any(wts != 0):
            raise ConfigurationError("weights must be finite with at least one nonzero")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def unit(cls, step: float) -> "CashflowVector":
        """The identity of the convolution semigroup: one unit at offset 0."""
        return cls(step, np.array([0]), np.array([1.0]))

    def is_invertible(self) -> bool:
        """Leading-coefficient test: a nonzero weight at offset zero."""
        return bool(self.offsets[0] == 0 and self.weights[0] != 0.0)

    def dense(self) -> np.ndarray:
        out = np.zeros(int(self.offsets[-1]) + 1)
        out[self.offsets] = self.weights
        return out


def convolve(a: CashflowVector, b: CashflowVector) -> CashflowVector:
    """Convolution product of two cashflow vectors (Cauchy product on the
    lattice); the unit vector is its identity."""
    if abs(a.step - b.step) > _REL_TOL * max(a.step, b.step):
        raise ConfigurationError(
            f"incommensurable cashflow lattices (steps {a.step} and {b.step})"
        )
    dense = np.convolve(a.dense(), b.dense())
    offsets = np.nonzero(dense)[0]
    if offsets.size == 0:
        # exact cancellation; keep a single zero weight at the combined front
        offsets = np.array([int(a.offsets[0] + b.offsets[0])])
    return CashflowVector(a.step, offsets, dense[offsets])


def flat_term_structure(
    grid: TimeGrid, rate: float, offsets: np.ndarray
) -> TermStructureSurface:
    off = np.asarray(offsets, dtype=np.float64)
    values = np.exp(-rate * off)[None, None, :] * np.ones((1, grid.n_times, 1))
    return TermStructureSurface(grid, off, values)


def forward_rates(curve: TermStructureSurface) -> np.ndarray:
    """Instantaneous forwards f(t, t+h) = -d/dh log P on the offset lattice.

    Central differences at interior offsets, one-sided at the two ends.  Exact
    for exponential surfaces on any lattice, and exact at interior offsets for
    quadratic log-price surfaces.
    """
    logp = np.log(curve.values)
    h = curve.offsets
    f = np.empty_like(logp)
    f[:, :, 0] = -(logp[:, :, 1] - logp[:, :, 0]) / (h[1] - h[0])
    f[:, :, -1] = -(logp[:, :, -1] - logp[:, :, -2]) / (h[-1] - h[-2])
    if h.size > 2:
        f[:, :, 1:-1] = -(logp[:, :, 2:] - logp[:, :, :-2]) / (h[2:] - h[:-2])
    return f


def short_rate(curve: TermStructureSurface) -> np.ndarray:
    """r_t = f(t, t+): the first one-sided log-difference of the surface."""
    h1 = curve.offsets[1]
    return -np.log(curve.values[:, :, 1]) / h1


def term_structure_from_forwards(
    grid: TimeGrid, offsets: np.ndarray, f: np.ndarray
) -> TermStructureSurface:
    """Rebuild P = exp(-integral of f dh) with trapezoidal quadrature."""
    off = np.asarray(offsets, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if f.ndim == 2:
        f = f[None, :, :]
    values = np.exp(-_cumulative_trapezoid(f, np.diff(off)))
    values[:, :, 0] = 1.0
    return TermStructureSurface(grid, off, values)


# ---------------------------------------------------------------------------
# Gauge transforms


def _cashflow_curve_indices(
    pi: CashflowVector, curve: TermStructureSurface
) -> np.ndarray:
    """Map cashflow lattice indices onto curve offset indices."""
    spacing = curve.offset_spacing()
    ratio = pi.step / spacing
    m = round(ratio)
    if m < 1 or abs(ratio - m) > _REL_TOL:
        raise ConfigurationError(
            f"cashflow step {pi.step} is not a multiple of the maturity spacing {spacing}"
        )
    idx = pi.offsets * m
    if idx[-1] > curve.n_offsets - 1:
        raise DomainError(
            "cashflow support extends beyond the maturity lattice "
            f"(needs offset index {int(idx[-1])}, have {curve.n_offsets - 1})"
        )
    return idx.astype(np.int64)


def gauge_transform(gauge: Gauge, pi: CashflowVector) -> Gauge:
    """Act on a gauge by a cashflow vector.

    The deflator is scaled by the cashflow's present value on the curve,
    B_t = sum_h pi_h P(t, t+h), and the surface becomes the price of the
    shifted cashflow relative to B_t.  Composing two transforms equals the
    transform by their convolution, exactly on the lattice.
    """
    curve = gauge.curve
    idx = _cashflow_curve_indices(pi, curve)
    span = int(idx[-1])
    keep = curve.n_offsets - span
    if keep < 2:
        raise DomainError(
            "transformed surface would keep fewer than two maturity offsets"
        )
    # numerator[g] = sum_h pi_h P(t, t + g + h) for surviving offsets g
    p = curve.values
    num = np.zeros((p.shape[0], p.shape[1], keep))
    for j, w in zip(idx, pi.weights):
        num += w * p[:, :, j : j + keep]
    denom = num[:, :, 0]
    tiny = np.abs(denom) <= 1e-300
    if np.any(tiny):
        where = np.argwhere(tiny)[0]
        raise SingularTransformError(
            "cashflow present value vanishes on the curve",
            diagnostics={"path": int(where[0]), "time_index": int(where[1])},
        )
    new_curve = TermStructureSurface(
        curve.grid, curve.offsets[:keep], num / denom[:, :, None]
    )
    scale = denom if denom.shape[0] == gauge.n_paths else np.broadcast_to(
        denom, (gauge.n_paths, denom.shape[1])
    )
    new_deflator = PathEnsemble(
        gauge.grid,
        gauge.deflator.series * scale,
        seed=gauge.deflator.seed,
    )
    return Gauge(new_deflator, new_curve, label=gauge.label)


def _holdings(gauges: list[Gauge], x, name: str, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Holdings x as (n_times, N) from (N,) or (n_times, N), and the asset
    deflators stacked along axis with a common path count."""
    grid = gauges[0].grid
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = np.broadcast_to(x, (grid.n_times, len(gauges)))
    if x.shape != (grid.n_times, len(gauges)):
        raise ConfigurationError(f"{name} must have shape (N,) or (n_times, N)")
    shape = (max(g.n_paths for g in gauges), grid.n_times)
    return x, np.stack([np.broadcast_to(g.deflator.series, shape) for g in gauges], axis=axis)


def portfolio_gauge(gauges: list[Gauge], nominals) -> Gauge:
    """Aggregate assets into a portfolio gauge.

    The portfolio deflator is the nominal-weighted sum of deflators.  Forward
    rates average with weights x_j D^j / D^x, which here is applied to
    log-prices directly: log P^x = sum_j w_j log P^j.  For identical gauges
    any normalized nominal vector reproduces the input gauge exactly.

    nominals may be a constant vector (N,) or a path (n_times, N).
    """
    if not gauges:
        raise ConfigurationError("portfolio needs at least one gauge")
    grid = gauges[0].grid
    offsets = gauges[0].curve.offsets
    for g in gauges[1:]:
        if not np.array_equal(g.grid.times, grid.times):
            raise ConfigurationError("portfolio gauges live on different grids")
        if not np.array_equal(g.curve.offsets, offsets):
            raise ConfigurationError("portfolio gauges use different maturity lattices")
    x, deflators = _holdings(gauges, nominals, "nominals", axis=0)
    n_assets, n_paths = deflators.shape[:2]  # deflators: (N, n_paths, n_times)
    dx = np.einsum("tj,jpt->pt", x, deflators)
    if np.any(np.abs(dx) <= 1e-300):
        raise SingularTransformError("portfolio deflator vanishes somewhere")
    weights = x.T[:, None, :] * deflators / dx[None, :, :]  # (N, n_paths, n_times)
    curve_paths = max(g.curve.n_paths for g in gauges)
    if curve_paths not in (1, n_paths):
        raise ConfigurationError("curve path counts are incompatible")
    logp = np.stack(
        [
            np.broadcast_to(
                np.log(g.curve.values), (curve_paths, grid.n_times, offsets.size)
            )
            for g in gauges
        ]
    )
    w_spread = (
        float(np.max(np.abs(weights - weights[:, :1, :]))) if n_paths > 1 else 0.0
    )
    if curve_paths == 1 and w_spread <= 1e-14:
        logpx = np.einsum("jt,jth->th", weights[:, 0, :], logp[:, 0])[None, :, :]
    else:
        full = np.broadcast_to(
            logp, (n_assets, n_paths, grid.n_times, offsets.size)
        )
        logpx = np.einsum("jpt,jpth->pth", weights, full)
    values = np.exp(logpx)
    values[:, :, 0] = 1.0
    curve = TermStructureSurface(grid, offsets, values)
    deflator = PathEnsemble(grid, dx, seed=gauges[0].deflator.seed)
    return Gauge(deflator, curve, label="portfolio")


def numeraire_change(gauges: list[Gauge], numeraire: int | Gauge) -> list[Gauge]:
    """Express all deflators relative to one asset.

    The numeraire's own deflator becomes identically 1; every other deflator
    becomes the exchange ratio D^j / D^Num.  Term structures are untouched.
    A non-positive numeraire deflator anywhere on the ensemble is an error.
    """
    num = gauges[numeraire] if isinstance(numeraire, int) else numeraire
    d_num = num.deflator.series
    if np.any(d_num <= 0):
        where = np.argwhere(d_num <= 0)[0]
        raise NumeraireError(
            "numeraire deflator must be strictly positive",
            diagnostics={"path": int(where[0]), "time_index": int(where[1])},
        )
    out = []
    for g in gauges:
        ratio = np.broadcast_to(g.deflator.series, np.broadcast_shapes(
            g.deflator.series.shape, d_num.shape
        )) / d_num
        out.append(
            Gauge(
                PathEnsemble(g.grid, ratio, seed=g.deflator.seed),
                g.curve,
                label=g.label,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Self-financing diagnostics


@dataclass(frozen=True, eq=False)
class SelfFinancingReport:
    times: np.ndarray
    residual: np.ndarray
    se: np.ndarray

    @property
    def worst(self) -> float:
        return float(np.max(np.abs(self.residual)))


def self_financing_residual(gauges: list[Gauge], strategy) -> SelfFinancingReport:
    """Drift mismatch of the bookkeeping identity for a deterministic strategy.

    For V = x . D the residual at interior times is

        mean-derivative(V) - x . mean-derivative(D) + (1/2) d<x, D>/dt,

    estimated pathwise with symmetric difference quotients and averaged over
    the ensemble.  It vanishes identically for constant strategies, converges
    to zero under grid refinement when the strategy is rebalanced in a
    self-financing way, and spikes at discrete rebalancing jumps.
    """
    grid = gauges[0].grid
    x, d = _holdings(gauges, strategy, "strategy", axis=2)  # d: (n_paths, n_times, N)
    v = np.einsum("tj,ptj->pt", x, d)
    t = grid.times
    hp = (t[2:] - t[1:-1])[None, :]
    hm = (t[1:-1] - t[:-2])[None, :]
    dv = _symmetric_quotient(v, grid)
    dd = _symmetric_quotient(d, grid)  # (n_paths, interior, N)
    xd = np.einsum("tj,ptj->pt", x[1:-1], dd)
    dx_fwd = (x[2:] - x[1:-1])[None, :, :]
    dx_bwd = (x[1:-1] - x[:-2])[None, :, :]
    dD_fwd = d[:, 2:, :] - d[:, 1:-1, :]
    dD_bwd = d[:, 1:-1, :] - d[:, :-2, :]
    cov_rate = 0.5 * (
        np.einsum("ptj,ptj->pt", dx_fwd, dD_fwd) / hp
        + np.einsum("ptj,ptj->pt", dx_bwd, dD_bwd) / hm
    )
    resid = dv - xd + 0.5 * cov_rate
    mean = resid.mean(axis=0)
    se = _mean_se(resid)
    return SelfFinancingReport(t[1:-1], mean, se)


# ---------------------------------------------------------------------------
# CSV interchange


def write_term_structure_csv(path: str | os.PathLike, curve: TermStructureSurface) -> None:
    """Long format: path, t, s, P with shortest-round-trip floats."""
    times, offsets = curve.grid.times, curve.offsets
    rows = (
        [p, times[i], times[i] + offsets[j], v]
        for (p, i, j), v in np.ndenumerate(curve.values)
    )
    with open(path, "w", newline="\n") as fh:
        _write_csv(fh, ["path", "t", "s", "P"], rows)


def read_term_structure_csv(path: str | os.PathLike) -> TermStructureSurface:
    """Inverse of write_term_structure_csv, offsets bit for bit: the t = 0
    rows hold s = 0 + h = h exactly, and every row must hold s = t + h for one
    of those h; any other row is a ConfigurationError naming its line."""
    offsets = []

    def offset_indices(t: np.ndarray, s: np.ndarray) -> np.ndarray:
        offsets.append(np.unique(s[t == 0.0]))
        # (t, s) -> offset index, for every pair the writer can put down
        lattice = list(enumerate(offsets[0].tolist()))
        index = {(a, a + h): k for a in np.unique(t).tolist() for k, h in lattice}
        k = np.array([index.get(key, -1) for key in zip(t.tolist(), s.tolist())])
        if np.any(k < 0):
            raise ConfigurationError(
                f"term-structure CSV line {int(np.argmax(k < 0)) + 2}: "
                "s - t is none of the offsets of the t = 0 rows"
            )
        return k

    grid, values = _read_long_csv(
        path, ["path", "t", "s", "P"], "term-structure", (int, float, float, float),
        offset_indices,
    )
    return TermStructureSurface(grid, offsets[0], values)
