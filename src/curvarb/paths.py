"""Path ensembles, seeded simulation, and stochastic-derivative estimators.

Everything downstream (gauges, curvature diagnostics, credit analytics) runs on
the containers defined here.  Simulation is deterministic: every path draws
from its own counter-based stream keyed by ``(seed, stream tag, path index)``,
so results do not depend on execution order or on how work is split across
workers.

The derivative estimators implement forward, backward, and mean difference
quotients conditioned on the present state (valid for Markov processes), with
Gaussian-kernel local regression over the cross-section of paths.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EstimationError,
    NumericalError,
)

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "ItoSpec",
    "NelsonEstimator",
    "CovariationResult",
    "MartingaleResidual",
    "path_rng",
    "simulate_brownian",
    "simulate_ito",
    "realized_covariation",
    "nelson_derivative",
    "conditional_bin_table",
    "martingale_residual",
    "write_ensemble",
    "read_ensemble",
    "write_ensemble_csv",
    "read_ensemble_csv",
]

_NODE_ATOL = 1e-9

# conditional_bin_table: at most _N_BINS equal-count bins of about _MIN_BIN
# samples or more; NelsonEstimator: the fewest effective kernel samples
_N_BINS = 10
_MIN_BIN = 50
_MIN_EFFECTIVE = 30.0


def _mean_se(x: np.ndarray):
    """Standard error of the mean over the first axis; 0 with one sample."""
    n = x.shape[0]
    return x.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(x.shape[1:])


def _se_gate(residual: float, se: float, k: float = 3.0, atol: float = 0.0) -> tuple[float, bool]:
    """|z| of a residual and whether |residual| <= max(k * se, atol).

    With a zero standard error z is 0 for a residual within atol, else inf.
    """
    r = abs(residual)
    z = r / se if se > 0 else (np.inf if r > atol else 0.0)
    return float(z), bool(r <= max(k * se, atol))


def _cumulative_trapezoid(y: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y from the first node to every node along the
    last axis; steps holds the node spacings."""
    out = np.zeros(y.shape)
    np.cumsum(0.5 * (y[..., 1:] + y[..., :-1]) * steps, axis=-1, out=out[..., 1:])
    return out


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    return arr


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing observation times starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        t = _as_float_array(self.times, "times")
        if t.ndim != 1 or t.size < 2:
            raise ConfigurationError("a time grid needs at least two points")
        if abs(t[0]) > 0.0:
            raise ConfigurationError("time grids must start at t = 0")
        if not np.all(np.diff(t) > 0):
            raise ConfigurationError("time grid must be strictly increasing")
        if not np.all(np.isfinite(t)):
            raise ConfigurationError("time grid contains non-finite entries")
        object.__setattr__(self, "times", t)

    @classmethod
    def regular(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1 or horizon <= 0:
            raise ConfigurationError("need steps >= 1 and horizon > 0")
        return cls(np.linspace(0.0, float(horizon), steps + 1))

    @property
    def n_times(self) -> int:
        return self.times.size

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def steps(self) -> np.ndarray:
        """Interval lengths between consecutive grid times."""
        return np.diff(self.times)

    def index_of(self, t: float) -> int:
        """Index of the grid node equal to ``t`` (within a tight tolerance)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > _NODE_ATOL * (1.0 + abs(t)):
            raise DomainError(f"t = {t} is not a grid node")
        return idx


def _symmetric_quotient(x: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Mean of the forward and backward difference quotients along axis 1,
    each over its own step, at the interior grid times."""
    h = grid.steps.reshape(-1, *(1,) * (x.ndim - 2))
    fwd = (x[:, 2:] - x[:, 1:-1]) / h[1:]
    bwd = (x[:, 1:-1] - x[:, :-2]) / h[:-1]
    return 0.5 * (fwd + bwd)


def _check_finite(values: np.ndarray, what: str) -> None:
    if np.all(np.isfinite(values)):
        return
    bad = np.argwhere(~np.isfinite(values))
    path, step = int(bad[0][0]), int(bad[0][1])
    raise NumericalError(
        f"{what} contains non-finite values (first at path {path}, step {step})",
        diagnostics={"path": path, "step": step, "count": int(bad.shape[0])},
    )


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Immutable block of sampled paths on a common grid.

    values has shape (n_paths, n_times, dim).  driver_increments is set only
    on Brownian ensembles from simulate_brownian: the increments of the
    paths, shaped (n_paths, n_times - 1, k), which simulate_ito integrates.
    """

    grid: TimeGrid
    values: np.ndarray
    driver_increments: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim == 2:
            v = v[:, :, None]
        if v.ndim != 3:
            raise ConfigurationError("values must have shape (n_paths, n_times, dim)")
        if v.shape[1] != self.grid.n_times:
            raise ConfigurationError(
                f"values have {v.shape[1]} times but the grid has {self.grid.n_times}"
            )
        _check_finite(v, "ensemble values")
        object.__setattr__(self, "values", v)
        if self.driver_increments is not None:
            d = np.asarray(self.driver_increments, dtype=np.float64)
            if d.ndim != 3 or d.shape[0] != v.shape[0] or d.shape[1] != v.shape[1] - 1:
                raise ConfigurationError(
                    "driver_increments must have shape (n_paths, n_times - 1, k)"
                )
            _check_finite(d, "driver increments")
            object.__setattr__(self, "driver_increments", d)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_times(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    @property
    def series(self) -> np.ndarray:
        """(n_paths, n_times) view for one-dimensional ensembles."""
        if self.dim != 1:
            raise ConfigurationError("series is only defined for dim-1 ensembles")
        return self.values[:, :, 0]

    def at_time(self, t: float) -> np.ndarray:
        return self.values[:, self.grid.index_of(t), :]

    def component(self, j: int) -> "PathEnsemble":
        return PathEnsemble(self.grid, self.values[:, :, j : j + 1], seed=self.seed)


# ---------------------------------------------------------------------------
# Seeded streams


_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def _check_stream(tag: int, lowest_path: int, highest_path: int) -> None:
    if lowest_path < 0 or highest_path >= 1 << 48:
        raise ConfigurationError("path index out of range for stream keying")
    if tag < 0 or tag >= 1 << 16:
        raise ConfigurationError("stream tag out of range")


def path_rng(seed: int, path_index: int, tag: int = 0) -> np.random.Generator:
    """Counter-based generator for one path of one logical stream.

    The Philox key packs (seed, tag, path index), so any path of any stream can
    be regenerated in isolation and results are invariant under parallel
    scheduling.  Tags separate independent uses of the same scenario seed
    (driver noise, default thresholds, bridge noise, ...).
    """
    _check_stream(tag, path_index, path_index)
    key = ((seed & _SEED_MASK) << 64) | (tag << 48) | path_index
    return np.random.Generator(np.random.Philox(key=key))


def _keyed_rows(
    seed: int,
    tag: int,
    paths: np.ndarray,
    shape: tuple[int, ...],
    draw: Callable[[np.random.Generator], np.ndarray | float],
) -> np.ndarray:
    """Row i holds draw(gen) on the stream path_rng(seed, paths[i], tag).

    One Philox serves the whole batch: for each path its state is reset to the
    path's key, counter 0 and an empty buffer, which is exactly the state a
    fresh path_rng generator starts in, without building one per path.
    """
    paths = np.asarray(paths, dtype=np.int64)
    _check_stream(tag, int(paths.min()), int(paths.max()))
    # Python ints and lists: the state setter reads them element by element,
    # which is cheaper than reading numpy scalars out of arrays
    key = [0, seed & _SEED_MASK]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    high = tag << 48
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    out = np.empty((paths.size, *shape))
    for i, p in enumerate(paths):
        key[0] = high | int(p)
        bitgen.state = state
        out[i] = draw(gen)
    return out


def _brownian_rows(
    grid: TimeGrid, paths: np.ndarray, dim: int, seed: int, tag: int
) -> tuple[np.ndarray, np.ndarray]:
    """(values, increments) of the Brownian paths with the given indices.

    Row i is bit for bit row paths[i] of the full ensemble, so a caller that
    reads a few paths draws only those.
    """
    shape = (grid.n_times - 1, dim)
    dw = _keyed_rows(seed, tag, paths, shape, lambda gen: gen.standard_normal(shape))
    dw *= np.sqrt(grid.steps)[None, :, None]
    w = np.zeros((dw.shape[0], grid.n_times, dim))
    np.cumsum(dw, axis=1, out=w[:, 1:, :])
    return w, dw


def simulate_brownian(
    grid: TimeGrid, n_paths: int, dim: int = 1, seed: int = 0, tag: int = 0
) -> PathEnsemble:
    """Standard Brownian motion started at 0, increments scaled by sqrt(dt)."""
    if n_paths < 1 or dim < 1:
        raise ConfigurationError("need n_paths >= 1 and dim >= 1")
    w, dw = _brownian_rows(grid, np.arange(n_paths), dim, seed, tag)
    return PathEnsemble(grid, w, driver_increments=dw, seed=seed)


# ---------------------------------------------------------------------------
# Ito simulation


@dataclass(frozen=True, eq=False)
class ItoSpec:
    """Coefficient specification for an Ito process.

    drift and sigma may be constants, arrays, or callables of (t, state) where
    state has shape (n_paths, n).  form selects the integration scheme:
    "arithmetic" uses Euler on the level, "geometric" uses log-Euler with the
    coefficients read as proportional drift and volatility (exact in law for
    constant coefficients).
    """

    x0: float | np.ndarray
    drift: float | np.ndarray | Callable = 0.0
    sigma: float | np.ndarray | Callable = 0.0
    form: str = "arithmetic"

    def __post_init__(self):
        if self.form not in ("arithmetic", "geometric"):
            raise ConfigurationError(f"unknown Ito form {self.form!r}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=np.float64))
        if x0.ndim != 1:
            raise ConfigurationError("x0 must be a scalar or 1-d vector")
        if self.form == "geometric" and np.any(x0 <= 0):
            raise ConfigurationError("geometric dynamics need a positive start")
        object.__setattr__(self, "x0", x0)

    @property
    def dim(self) -> int:
        return self.x0.size

    def eval_drift(self, t: float, x: np.ndarray) -> np.ndarray:
        a = self.drift(t, x) if callable(self.drift) else self.drift
        return np.broadcast_to(np.asarray(a, dtype=np.float64), x.shape)

    def eval_sigma(self, t: float, x: np.ndarray, k: int) -> np.ndarray:
        s = self.sigma(t, x) if callable(self.sigma) else self.sigma
        s = np.asarray(s, dtype=np.float64)
        target = (x.shape[0], x.shape[1], k)
        if s.ndim == 0:
            if x.shape[1] != 1 or k != 1:
                raise ConfigurationError("scalar sigma needs dim = driver dim = 1")
            return np.broadcast_to(s[None, None, None], target)
        return np.broadcast_to(s, target)

    def driver_dim(self) -> int:
        s = self.sigma(0.0, self.x0[None, :]) if callable(self.sigma) else self.sigma
        s = np.asarray(s, dtype=np.float64)
        return 1 if s.ndim == 0 else s.shape[-1]


def simulate_ito(spec: ItoSpec, driver: PathEnsemble) -> PathEnsemble:
    """Integrate an ItoSpec against the given Brownian driver.

    The driver must carry its increments, as simulate_brownian's output does;
    any other ensemble, an Ito output among them, is rejected.  The output
    reuses the driver grid and seed but not its increments.
    """
    if driver.driver_increments is None:
        raise ConfigurationError("driver ensemble carries no increments")
    dw = driver.driver_increments
    n_paths, n_steps, k = dw.shape
    grid = driver.grid
    dt = grid.steps
    n = spec.dim
    x = np.empty((n_paths, grid.n_times, n))
    x[:, 0, :] = spec.x0[None, :]
    state = x[:, 0, :].copy()
    if spec.form == "geometric":
        log_state = np.log(state)
    for i in range(n_steps):
        t = float(grid.times[i])
        a = spec.eval_drift(t, state)
        s = spec.eval_sigma(t, state, k)
        noise = np.einsum("pnk,pk->pn", s, dw[:, i, :])
        if spec.form == "arithmetic":
            state = state + a * dt[i] + noise
        else:
            # proportional coefficients; Ito correction keeps the law exact
            # for constant (a, s)
            quad = np.einsum("pnk,pnk->pn", s, s)
            log_state = log_state + (a - 0.5 * quad) * dt[i] + noise
            state = np.exp(log_state)
        x[:, i + 1, :] = state
    _check_finite(x, "simulated paths")
    return PathEnsemble(grid, x, seed=driver.seed)


# ---------------------------------------------------------------------------
# Covariation


@dataclass(frozen=True, eq=False)
class CovariationResult:
    """Realized covariation between two scalar path families."""

    grid: TimeGrid
    cumulative: np.ndarray        # (n_paths, n_times)
    mean_rate: np.ndarray         # (n_times - 1,) ensemble average of d<a,b>/dt
    rate_se: np.ndarray           # (n_times - 1,)

    @property
    def total(self) -> np.ndarray:
        return self.cumulative[:, -1]


def realized_covariation(a: PathEnsemble, b: PathEnsemble) -> CovariationResult:
    """Quadratic covariation sum of products of increments, per path.

    Takes two dim-1 PathEnsembles on one grid.  The rate is the per-interval
    increment divided by dt, averaged across paths with a standard error.
    """
    if not (isinstance(a, PathEnsemble) and isinstance(b, PathEnsemble)):
        raise ConfigurationError("realized_covariation takes two dim-1 PathEnsembles")
    if a.n_paths != b.n_paths or not np.array_equal(a.grid.times, b.grid.times):
        raise ConfigurationError("the two ensembles differ in path count or grid")
    sa, sb = a.series, b.series
    prod = np.diff(sa, axis=1) * np.diff(sb, axis=1)
    cum = np.zeros_like(sa)
    np.cumsum(prod, axis=1, out=cum[:, 1:])
    rate = prod / a.grid.steps[None, :]
    return CovariationResult(a.grid, cum, rate.mean(axis=0), _mean_se(rate))


# ---------------------------------------------------------------------------
# Nelson-style derivative estimation


def _silverman_bandwidth(states: np.ndarray) -> np.ndarray:
    """Rule-of-thumb bandwidth per conditioning dimension."""
    n, d = states.shape
    out = np.empty(d)
    for j in range(d):
        col = states[:, j]
        sd = col.std(ddof=1) if n > 1 else 0.0
        iqr = np.subtract(*np.percentile(col, [75, 25]))
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        if d == 1:
            out[j] = 0.9 * spread * n ** (-0.2)
        else:
            out[j] = spread * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))
    return out


@dataclass(frozen=True, eq=False)
class NelsonEstimator:
    """Conditional difference-quotient estimator returned by nelson_derivative.

    Calling it with one state (d,) or a batch (m, d) yields the estimated
    derivative vectors.  evaluate() also returns standard errors and effective
    kernel sample sizes.
    """

    states: np.ndarray            # (n_paths, d) conditioning states
    quotients: np.ndarray         # (n_paths, out_dim)
    bandwidth: np.ndarray         # (d,) zero entries mean "uniform weights"
    conditioning: str

    def __call__(self, state) -> np.ndarray:
        return self.evaluate(state)[0]

    def evaluate(self, state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        q = np.atleast_2d(np.asarray(state, dtype=np.float64))
        if q.shape[1] != self.states.shape[1]:
            raise ConfigurationError(
                f"query states have dim {q.shape[1]}, expected {self.states.shape[1]}"
            )
        est = np.empty((q.shape[0], self.quotients.shape[1]))
        se = np.empty_like(est)
        neff = np.empty(q.shape[0])
        for i, point in enumerate(q):
            est[i], se[i], neff[i] = self._at(point)
        return est, se, neff

    def _at(self, point: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        x, y = self.states, self.quotients
        n = x.shape[0]
        if self.conditioning == "analytic" or np.all(self.bandwidth == 0):
            return y.mean(axis=0), _mean_se(y), float(n)
        u = (x - point[None, :]) / self.bandwidth[None, :]
        logw = -0.5 * np.einsum("ij,ij->i", u, u)
        w = np.exp(logw - logw.max())
        sw = w.sum()
        neff = sw * sw / np.dot(w, w)
        if neff < _MIN_EFFECTIVE:
            raise EstimationError(
                "kernel window too empty for a reliable conditional estimate",
                diagnostics={
                    "n_effective": float(neff),
                    "query": point.tolist(),
                    "bandwidth": self.bandwidth.tolist(),
                },
            )
        # local-linear fit; the intercept at the query point is the estimate
        z = np.concatenate([np.ones((n, 1)), x - point[None, :]], axis=1)
        zw = z * w[:, None]
        gram = z.T @ zw
        try:
            theta = np.linalg.solve(gram, zw.T @ y)        # (d+1, out_dim)
            smoother = np.linalg.solve(gram, zw.T)[0]      # (n,) intercept weights
            fitted = z @ theta
        except np.linalg.LinAlgError:
            smoother = w / sw
            fitted = np.broadcast_to(smoother @ y, y.shape)
        est = smoother @ y
        resid = y - fitted
        se = np.sqrt(np.maximum(0.0, (smoother**2) @ (resid**2)))
        return est, se, float(neff)


def nelson_derivative(
    ensemble: PathEnsemble,
    t: float,
    mode: str = "mean",
    conditioning: str = "present",
    markov: bool = True,
) -> NelsonEstimator:
    """Forward, backward, or mean stochastic derivative estimator at time t.

    The forward quotient looks one grid step ahead, the backward quotient one
    step back, and the mean averages the two.  Conditioning "present" builds a
    Gaussian-kernel local-linear regression on the time-t state, which is the
    valid replacement for past/future conditioning precisely in the Markov
    case; "analytic" uses the plain cross-path average (appropriate for
    deterministic or state-independent targets).  The kernel bandwidth is
    Silverman's, per conditioning dimension.

    Parameters
    ----------
    mode : {"forward", "backward", "mean"}
    conditioning : {"present", "analytic"}
    markov : callers must leave this True; passing False is an explicit
        declaration that present-state conditioning is invalid for the input.
    """
    if mode not in ("forward", "backward", "mean"):
        raise ConfigurationError(f"unknown derivative mode {mode!r}")
    if conditioning not in ("present", "analytic"):
        raise ConfigurationError(f"unknown conditioning {conditioning!r}")
    if not markov:
        raise ConfigurationError(
            "present-state conditioning is undefined for declared non-Markov input"
        )
    grid = ensemble.grid
    idx = grid.index_of(t)
    need_fwd = mode in ("forward", "mean")
    need_bwd = mode in ("backward", "mean")
    if need_fwd and idx >= grid.n_times - 1:
        raise DomainError("forward quotient needs a grid node after t")
    if need_bwd and idx == 0:
        raise DomainError("backward quotient needs a grid node before t")
    v = ensemble.values
    quot = None
    if need_fwd:
        h = grid.times[idx + 1] - grid.times[idx]
        quot = (v[:, idx + 1, :] - v[:, idx, :]) / h
    if need_bwd:
        h = grid.times[idx] - grid.times[idx - 1]
        back = (v[:, idx, :] - v[:, idx - 1, :]) / h
        quot = back if quot is None else 0.5 * (quot + back)
    states = v[:, idx, :]
    return NelsonEstimator(
        states=states,
        quotients=quot,
        bandwidth=_silverman_bandwidth(states),
        conditioning=conditioning,
    )


# ---------------------------------------------------------------------------
# Martingale diagnostics


@dataclass(frozen=True, eq=False)
class MartingaleResidual:
    residual: float
    se: float
    bins: list

    @property
    def z(self) -> float:
        if self.se == 0.0:
            return float("inf") if self.residual != 0.0 else 0.0
        return self.residual / self.se


def conditional_bin_table(states: np.ndarray, samples: np.ndarray) -> list:
    """Equal-count state bins with the per-bin sample mean and its SE.

    A degenerate state (all values equal within rounding) collapses to one
    unconditional bin.  Bins are always nonempty.
    """
    n = samples.size
    spread = states.max() - states.min()
    if spread <= 1e-12 * (1.0 + abs(states[0])):
        groups = [np.arange(n)]
        edges = [(float(states.min()), float(states.max()))]
    else:
        k = min(_N_BINS, max(1, n // _MIN_BIN))
        qs_edges = np.quantile(states, np.linspace(0, 1, k + 1))
        qs_edges[-1] = np.nextafter(qs_edges[-1], np.inf)
        which = np.clip(np.digitize(states, qs_edges) - 1, 0, k - 1)
        groups, edges = [], []
        for b in range(k):
            members = np.nonzero(which == b)[0]
            if members.size == 0:
                continue
            groups.append(members)
            edges.append((float(qs_edges[b]), float(qs_edges[b + 1])))
    table = []
    for (lo, hi), members in zip(edges, groups):
        d = samples[members]
        m = float(d.mean())
        se = float(_mean_se(d))
        table.append({"lo": lo, "hi": hi, "count": int(d.size), "mean": m, "se": se})
    return table


def _worst_bin(states: np.ndarray, samples: np.ndarray):
    """The conditional_bin_table bin whose mean is largest in magnitude, as a
    MartingaleResidual that also carries the whole table."""
    table = conditional_bin_table(states, samples)
    worst = max(table, key=lambda row: abs(row["mean"]))
    return MartingaleResidual(worst["mean"], worst["se"], table)


def martingale_residual(ensemble: PathEnsemble, t: float, s: float) -> MartingaleResidual:
    """Worst conditional drift E[Q_s - Q_t | Q_t in bin] across state bins.

    Bins are equal-count in the time-t state.  A degenerate state (all paths
    equal, e.g. t = 0) collapses to the unconditional mean.  Returns the
    largest-magnitude bin residual with its standard error.
    """
    if ensemble.dim != 1:
        raise ConfigurationError("martingale_residual expects a dim-1 ensemble")
    if not s > t:
        raise ConfigurationError("need s > t")
    qt = ensemble.at_time(t)[:, 0]
    qs = ensemble.at_time(s)[:, 0]
    return _worst_bin(qt, qs - qt)


# ---------------------------------------------------------------------------
# Interchange formats


def write_ensemble(path: str | os.PathLike, ensemble: PathEnsemble) -> None:
    """Flat binary layout: [n_paths, n_times, dim] + grid + row-major values,
    all 64-bit floats."""
    header = np.array(
        [ensemble.n_paths, ensemble.n_times, ensemble.dim], dtype=np.float64
    )
    with open(path, "wb") as fh:
        header.tofile(fh)
        ensemble.grid.times.tofile(fh)
        np.ascontiguousarray(ensemble.values).tofile(fh)


def read_ensemble(path: str | os.PathLike) -> PathEnsemble:
    raw = np.fromfile(path, dtype=np.float64)
    if raw.size < 5:
        raise ConfigurationError("ensemble file too short")
    n_paths, n_times, dim = (int(round(x)) for x in raw[:3])
    expected = 3 + n_times + n_paths * n_times * dim
    if n_paths < 1 or n_times < 2 or dim < 1 or raw.size != expected:
        raise ConfigurationError(
            f"ensemble file is inconsistent (header says {n_paths}x{n_times}x{dim})"
        )
    grid = TimeGrid(raw[3 : 3 + n_times])
    values = raw[3 + n_times :].reshape(n_paths, n_times, dim)
    return PathEnsemble(grid, values)


def _format_cell(x) -> str:
    """One CSV cell: shortest round-trip repr for floats, true/false for bools."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(fh, header: list, rows) -> None:
    """Header and rows as CSV with "\\n" line ends; cells go through
    _format_cell and are quoted, as in RFC 4180, only when they hold a
    comma, a quote or a line break."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_cell(x) for x in row] for row in rows)


def _read_long_csv(path, header: list, what: str, kinds: tuple, third: Callable):
    """Grid and (path, t, third) values of a long-format CSV with columns
    header = [path, t, <third>, value]; kinds holds each column's parser and
    third(t, c) maps the t and third columns to indices along the third axis.
    A malformed row is a ConfigurationError naming its line, a missing cell
    one naming the first such cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ConfigurationError(f"unrecognized {what} CSV header")
    if len(rows) == 1:
        raise ConfigurationError(f"{what} CSV has no data rows")
    parsed = []
    for line, r in enumerate(rows[1:], start=2):
        try:
            if len(r) != len(header):
                raise ValueError(f"{len(r)} cells, not {len(header)}")
            parsed.append([kind(x) for kind, x in zip(kinds, r)])
        except ValueError as err:
            raise ConfigurationError(f"{what} CSV line {line}: {err}") from None
    p, t, c, v = (np.array(col) for col in zip(*parsed))
    k = np.asarray(third(t, c))
    rank = np.unique(k, return_inverse=True)[1]
    for bad, problem in (
        (k < 0, f"negative {header[2]}"),
        (k != rank, f"gap in the {header[2]} numbers"),
        (~np.isfinite(v), "non-finite value"),
    ):
        if np.any(bad):
            raise ConfigurationError(f"{what} CSV line {int(np.argmax(bad)) + 2}: {problem}")
    paths, p_ix = np.unique(p, return_inverse=True)
    times, t_ix = np.unique(t, return_inverse=True)
    shape = (paths.size, times.size, int(k.max()) + 1)
    flat = np.ravel_multi_index((p_ix, t_ix, k), shape)
    cells, first = np.unique(flat, return_index=True)
    if cells.size < flat.size:
        line = int(np.setdiff1d(np.arange(flat.size), first)[0]) + 2
        raise ConfigurationError(f"{what} CSV line {line}: repeated (path, t, {header[2]}) cell")
    if cells.size < np.prod(shape):
        gap = np.argmax(np.append(cells, -1) != np.arange(cells.size + 1))
        i, j, m = np.unravel_index(gap, shape)
        raise ConfigurationError(
            f"{what} CSV is missing cells, first at path {paths[i]}, t {float(times[j])!r}, "
            f"{header[2]} index {m}"
        )
    values = np.empty(shape)
    values.flat[flat] = v
    return TimeGrid(times), values


def write_ensemble_csv(path: str | os.PathLike, ensemble: PathEnsemble) -> None:
    """Long-format CSV (path, t, component, value) for small ensembles."""
    times = ensemble.grid.times
    rows = ([p, times[i], j, v] for (p, i, j), v in np.ndenumerate(ensemble.values))
    with open(path, "w", newline="\n") as fh:
        _write_csv(fh, ["path", "t", "component", "value"], rows)


def read_ensemble_csv(path: str | os.PathLike) -> PathEnsemble:
    grid, values = _read_long_csv(
        path, ["path", "t", "component", "value"], "ensemble",
        (int, float, int, float), lambda t, c: c,
    )
    return PathEnsemble(grid, values)
