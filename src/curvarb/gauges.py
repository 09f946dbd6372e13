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
    _Record,
    _cells,
    _cumulative_trapezoid,
    _mean_se,
    _path_slices,
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

# the default maturity offset lattice, (step, count): build_thm1_market's,
# and a scenario's without an "offsets" section
_OFFSET_LATTICE = (0.25, 21)


def _in_span(h, span: float) -> bool:
    """Whether offset h lies on a lattice ending at span; validate reads it too."""
    return -_REL_TOL <= h <= span * (1 + _REL_TOL) + _REL_TOL


class TermStructureSurface(_Record):
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
        # NaN propagates through min, so it fails the first test
        if v.size and not (v.min() > 0 and v.max() < np.inf):
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
        if not _in_span(h, self.offsets[-1]):
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


class Gauge(_Record):
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


class CashflowVector(_Record):
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

    def dense(self) -> np.ndarray:
        out = np.zeros(int(self.offsets[-1]) + 1)
        out[self.offsets] = self.weights
        return out


def convolve(a: CashflowVector, b: CashflowVector) -> CashflowVector:
    """Convolution product of two cashflow vectors (Cauchy product on the
    lattice); one unit at offset 0 is its identity."""
    if abs(a.step - b.step) > _REL_TOL * max(a.step, b.step):
        raise ConfigurationError(
            f"incommensurable cashflow lattices (steps {a.step} and {b.step})"
        )
    dense = np.convolve(a.dense(), b.dense())
    offsets = np.nonzero(dense)[0]
    if offsets.size == 0:
        raise ConfigurationError(
            "the convolution underflows to zero: no weight of the product is nonzero"
        )
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
    new_deflator = PathEnsemble(gauge.grid, gauge.deflator.series * denom)
    return Gauge(new_deflator, new_curve, label=gauge.label)


def _common_grid(gauges: list[Gauge]) -> TimeGrid:
    """The time grid all of gauges live on; ConfigurationError for none or
    for gauges on different grids."""
    if not gauges:
        raise ConfigurationError("need at least one gauge")
    grid = gauges[0].grid
    if not all(np.array_equal(g.grid.times, grid.times) for g in gauges[1:]):
        raise ConfigurationError("gauges must share one time grid")
    return grid


def _interior_grid(gauges: list[Gauge]) -> TimeGrid:
    """The common grid of gauges, with an interior time for the symmetric
    difference quotients of curvature_components and self_financing_residual:
    ConfigurationError for fewer than three times."""
    grid = _common_grid(gauges)
    if grid.n_times < 3:
        raise ConfigurationError("need at least three grid times")
    return grid


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

    nominals may be a constant vector (N,) or a path (n_times, N).  The
    curves' layout alone picks the route; the curve has one row per path.
    """
    grid = _common_grid(gauges)
    offsets = gauges[0].curve.offsets
    if not all(np.array_equal(g.curve.offsets, offsets) for g in gauges[1:]):
        raise ConfigurationError("portfolio gauges use different maturity lattices")
    x, deflators = _holdings(gauges, nominals, "nominals", axis=0)
    n_assets, n_paths = deflators.shape[:2]  # deflators: (N, n_paths, n_times)
    dx = np.einsum("tj,jpt->pt", x, deflators)
    if np.any(np.abs(dx) <= 1e-300):
        raise SingularTransformError("portfolio deflator vanishes somewhere")
    curve_paths = max(g.curve.n_paths for g in gauges)
    if curve_paths not in (1, n_paths):
        raise ConfigurationError("curve path counts are incompatible")

    def weights(b: slice) -> np.ndarray:  # (N, paths of b, n_times)
        return x.T[:, None, :] * deflators[:, b] / dx[None, b]

    # weights, log-prices, weighted sums and exp one block of paths at a time
    blocks = _path_slices(n_paths)
    values = np.empty((n_paths, grid.n_times, offsets.size))
    if curve_paths == 1:
        logp = np.stack([np.log(g.curve.values) for g in gauges])  # (N, 1, n_times, H)
    else:
        logs = np.empty((n_assets,) + values[blocks[0]].shape)  # one block's log-prices
    for b in blocks:
        out = values[b]
        if curve_paths == 1:  # one shared curve per asset
            np.einsum("jpt,jth->pth", weights(b), logp[:, 0], out=out)
        else:
            logs_b = logs[:, : out.shape[0]]
            for j, g in enumerate(gauges):
                if g.curve.n_paths == 1:
                    logs_b[j] = np.log(g.curve.values)
                else:
                    np.log(g.curve.values[b], out=logs_b[j])
            np.einsum("jpt,jpth->pth", weights(b), logs_b, out=out)
        np.exp(out, out=out)
    values[:, :, 0] = 1.0
    curve = TermStructureSurface(grid, offsets, values)
    deflator = PathEnsemble(grid, dx)
    return Gauge(deflator, curve, label="portfolio")


def numeraire_change(gauges: list[Gauge], numeraire: int | Gauge) -> list[Gauge]:
    """Express all deflators relative to one asset.

    The numeraire's own deflator becomes identically 1; every other deflator
    becomes the exchange ratio D^j / D^Num.  Term structures are untouched.
    A non-positive numeraire deflator anywhere on the ensemble is an error,
    as are gauges and numeraire that do not share one time grid.
    """
    num = gauges[numeraire] if isinstance(numeraire, int) else numeraire
    _common_grid([*gauges, num])
    d_num = num.deflator.series
    if np.any(d_num <= 0):
        where = np.argwhere(d_num <= 0)[0]
        raise NumeraireError(
            "numeraire deflator must be strictly positive",
            diagnostics={"path": int(where[0]), "time_index": int(where[1])},
        )
    out = []
    for g in gauges:
        # D / D is exactly 1 for a finite positive D: the numeraire's own
        # deflator is a read-only view of one 1.0, not an array
        ratio = np.broadcast_to(1.0, d_num.shape) if g is num else g.deflator.series / d_num
        out.append(Gauge(PathEnsemble(g.grid, ratio), g.curve, label=g.label))
    return out


# ---------------------------------------------------------------------------
# Self-financing diagnostics


class SelfFinancingReport(_Record):
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
    self-financing way, and spikes at discrete rebalancing jumps.  The
    gauges must share one time grid of at least three times.
    """
    grid = _interior_grid(gauges)
    x, d = _holdings(gauges, strategy, "strategy", axis=2)  # d: (n_paths, n_times, N)
    t = grid.times
    hp = (t[2:] - t[1:-1])[None, :]
    hm = (t[1:-1] - t[:-2])[None, :]
    dx_fwd = (x[2:] - x[1:-1])[None, :, :]
    dx_bwd = (x[1:-1] - x[:-2])[None, :, :]
    resid = np.empty((d.shape[0], t.size - 2))
    # the per-path residual, one block of paths at a time
    for b in _path_slices(d.shape[0]):
        db = d[b]
        dv = _symmetric_quotient(np.einsum("tj,ptj->pt", x, db), grid.steps)
        dd = _symmetric_quotient(db, grid.steps)  # (paths of b, interior, N)
        xd = np.einsum("tj,ptj->pt", x[1:-1], dd)
        dD_fwd = db[:, 2:, :] - db[:, 1:-1, :]
        dD_bwd = db[:, 1:-1, :] - db[:, :-2, :]
        cov_rate = 0.5 * (
            np.einsum("ptj,ptj->pt", dx_fwd, dD_fwd) / hp
            + np.einsum("ptj,ptj->pt", dx_bwd, dD_bwd) / hm
        )
        resid[b] = dv - xd + 0.5 * cov_rate
    mean, se = _mean_se(resid)
    return SelfFinancingReport(t[1:-1], mean, se)


# ---------------------------------------------------------------------------
# CSV interchange


def write_term_structure_csv(path: str | os.PathLike, curve: TermStructureSurface) -> None:
    """Long format: path, t, s, P with shortest-round-trip floats."""
    times = curve.grid.times
    p, i, j = (ix.ravel() for ix in np.indices(curve.values.shape))
    s = times[:, None] + curve.offsets
    columns = [p, _cells(times)[i], _cells(s)[i, j], curve.values.ravel()]
    with open(path, "w", newline="\n") as fh:
        _write_csv(fh, ["path", "t", "s", "P"], columns)


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
