"""Path ensembles, seeded simulation, and stochastic-derivative estimators.

Everything downstream (gauges, curvature diagnostics, credit analytics) runs on
the containers defined here.  Simulation is deterministic: each block of
``_STREAM_BLOCK`` consecutive paths draws from one counter-based Philox stream
keyed by ``(seed, stream tag, stream block)``, and path p reads row
``p % _STREAM_BLOCK`` of that block's fill (RNG stream version 3).  Every
keyed request is a range of consecutive paths, and a fill is prefix-stable,
so any range is drawn bit for bit as in the whole ensemble, and results do
not depend on execution order, on the memory block size or on how work is
split.

The derivative estimators implement forward, backward, and mean difference
quotients conditioned on the one-dimensional present state (valid for Markov
processes), with closed-form Gaussian-kernel local-linear regression.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import operator
import os
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
    "simulate_brownian",
    "simulate_ito",
    "nelson_derivative",
    "conditional_bin_table",
    "write_ensemble",
    "read_ensemble",
    "write_ensemble_csv",
    "read_ensemble_csv",
    "replace",
]

_NODE_ATOL = 1e-9

# conditional_bin_table: at most _N_BINS equal-count bins of about _MIN_BIN
# samples or more; NelsonEstimator: the fewest effective kernel samples
_N_BINS = 10
_MIN_BIN = 50
_MIN_EFFECTIVE = 30.0

# every Ito path family (_ito_blocks), the portfolio curve and the CSV
# writer hold this many paths (rows) at a time: see _path_slices
_PATH_BLOCK = 2048

# _se_gate passes a residual within _GATE_SE standard errors by default
_GATE_SE = 3.0


def _mean_se(a: np.ndarray):
    """a.mean(axis=0) and a.std(axis=0, ddof=1) / sqrt(n) bit for bit (SE 0
    for one sample), in numpy's own order (sum / n, subtract, square,
    sum / (n - 1), sqrt); for n > 1, a is overwritten by its squared deviations."""
    n = a.shape[0]
    mean = a.sum(axis=0)
    mean /= n
    if n == 1:
        return mean, np.zeros_like(mean)
    a -= mean
    np.square(a, out=a)
    se = a.sum(axis=0)
    se /= n - 1
    # a 1-d a reduces to numpy scalars, which take no out=
    se = np.sqrt(se)
    se /= np.sqrt(n)
    return mean, se


def _se_gate(
    residual, se, k: float = _GATE_SE, atol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise |z| of residuals and whether |residual| <= max(k * se, atol).

    With a zero standard error z is 0 for a residual within atol, else inf;
    a NaN standard error is never within, and a z past float range is inf.
    """
    r, se = np.abs(residual), np.asarray(se, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = np.where(se > 0, r / se, np.where(r > atol, np.inf, 0.0))
        return z, r <= np.maximum(k * se, atol)


@np.errstate(over="ignore")
def _cumulative_trapezoid(y: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y from the first node to every node along the
    last axis; steps holds the node spacings.  An integral past float range
    reads inf, without a warning."""
    out = np.zeros(y.shape)
    # one temporary, scaled in place in the order of 0.5 * (y1 + y0) * steps
    area = y[..., 1:] + y[..., :-1]
    area *= 0.5
    area *= steps
    np.cumsum(area, axis=-1, out=out[..., 1:])
    return out


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only n-point Gauss-Legendre rule on [-1, 1], solved once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [a, b]; a and b may be
    arrays shaped to broadcast against the trailing node axis."""
    x, w = _legendre_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    return arr


def _check_lgd(lgd, scalar: bool = True) -> None:
    """The one range rule for a loss given default: a real number in [0, 1],
    or with scalar False an array of them, such as a stress rule's losses."""
    v = np.asarray(lgd)
    real = isinstance(lgd, numbers.Real) if scalar else v.dtype.kind in "biuf"
    if not (real and np.all((v >= 0.0) & (v <= 1.0))):  # NaN fails too
        raise ConfigurationError(f"LGD must be a real number in [0, 1], not {lgd!r}")


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields by class annotation, in order; a class
    attribute of the same name is that field's default.  Construction binds
    positional and keyword arguments to the fields, then calls __post_init__,
    which may check the fields and normalize one with object.__setattr__.
    Records refuse assignment and deletion, compare and hash by identity, and
    keep their fields in the instance __dict__, so functools.cached_property
    works on them.  No class is built with exec.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: vars(cls)[n] for n in cls._fields if n in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} fields, {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{type(self).__name__} got field {name!r} twice")
            values[name] = value
        state = self.__dict__
        for name in fields:
            if name in values:
                state[name] = values[name]
            elif name in self._defaults:
                state[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={self.__dict__[n]!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"


def replace(record: _Record, /, **changes) -> _Record:
    """A new record of the same type with the named fields changed, built
    through __init__, so __post_init__ checks and normalizes it again."""
    return type(record)(**{**{n: record.__dict__[n] for n in record._fields}, **changes})


class TimeGrid(_Record):
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
        # near float max the last time may overflow before linspace sets it
        # to the horizon
        with np.errstate(over="ignore"):
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


def _symmetric_quotient(x: np.ndarray, steps: np.ndarray, out=None) -> np.ndarray:
    """Mean of the forward and backward difference quotients along axis 1,
    each over its own step, at the interior nodes of x, into out if given;
    steps holds the x.shape[1] - 1 node spacings.  Holds two interior-sized
    arrays."""
    h = steps.reshape(-1, *(1,) * (x.ndim - 2))
    quot = np.subtract(x[:, 2:], x[:, 1:-1], out=out)
    quot /= h[1:]
    bwd = x[:, 1:-1] - x[:, :-2]
    bwd /= h[:-1]
    quot += bwd
    quot *= 0.5
    return quot


def _kernel_on_grid(beta, grid: TimeGrid) -> np.ndarray:
    """A pricing kernel beta as a 2-d array; raises unless it is sampled on
    ``grid`` and is finite and positive there."""
    b = np.atleast_2d(np.asarray(beta, dtype=np.float64))
    if b.shape[-1] != grid.n_times:
        raise ConfigurationError("beta must be sampled on the gauge grid")
    if not np.all(np.isfinite(b) & (b > 0)):
        raise ConfigurationError("the pricing kernel must stay finite and positive")
    return b


def _check_finite(values: np.ndarray, what: str, first: int = 0) -> None:
    """Raise a NumericalError naming the first non-finite value's step and
    path: first + its row."""
    # a finite sum has no inf or NaN term; a non-finite one, an overflow of
    # finite terms included, falls through to the exact scan
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.add.reduce(values, axis=None)) or np.all(np.isfinite(values)):
            return
    bad = np.argwhere(~np.isfinite(values))
    path, step = first + int(bad[0][0]), int(bad[0][1])
    raise NumericalError(
        f"{what} contains non-finite values (first at path {path}, step {step})",
        diagnostics={"path": path, "step": step, "count": int(bad.shape[0])},
    )


class PathEnsemble(_Record):
    """Immutable block of sampled paths on a common grid.

    values has shape (n_paths, n_times, dim).  driver_increments is set only
    on Brownian ensembles from simulate_brownian: the increments of the
    paths, shaped (n_paths, n_times - 1, k), which simulate_ito integrates.
    """

    grid: TimeGrid
    values: np.ndarray
    driver_increments: np.ndarray | None = None

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


# ---------------------------------------------------------------------------
# Seeded streams


# Version of the keyed draws behind the simulated outputs, written to
# summary.json: bump it with any change to the draws an output reads
RNG_STREAM_VERSION = 3

# Consecutive path indices that share one keyed stream: path p reads row
# p % _STREAM_BLOCK of its block's fill.  A constant of the stream version,
# not a knob: changing it changes every keyed draw (README "Determinism")
_STREAM_BLOCK = 256

# Stream tags, one keyed family per random purpose (README "Determinism");
# 6 is unused, and 2, 5 and 8 are retired (the stochastic hazard, the
# stochastic LGD, and version 1's bridged Novikov driver drew on them)
TAG_SHARPE = 0  # novikov_sharpe's state; the default tag of simulate_brownian
TAG_DRIVER = 1  # structural equity
TAG_EXP = 3  # default thresholds
TAG_BRIDGE = 4  # bridge uniforms
TAG_NOVIKOV_DRIVER = 7  # Novikov driver at the default time
TAG_ASSET_BASE = 16  # the CLI's asset j draws on TAG_ASSET_BASE + j


def _stream_keys(seed: int, tag: int, rows: range) -> tuple[list, int]:
    """(key0, key1): word 0 of the Philox key of each stream block that the
    range of paths rows touches on tag, tag << 48 | block in block order,
    and word 1, the seed.

    A seed, tag or path index the key cannot hold is a ConfigurationError.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ConfigurationError(f"seed {seed} is not a 64-bit stream key (0 <= seed < 2**64)")
    if rows and (rows.start < 0 or rows.stop > 1 << 48):
        raise ConfigurationError("path index out of range for stream keying")
    if tag < 0 or tag >= 1 << 16:
        raise ConfigurationError("stream tag out of range")
    blocks = range(rows.start // _STREAM_BLOCK, -(-rows.stop // _STREAM_BLOCK)) if rows else ()
    return [tag << 48 | b for b in blocks], seed


def _keyed_rows(
    seed: int, tag: int, rows: range, shape: tuple[int, ...], method: str, out=None
) -> np.ndarray:
    """Row i holds row rows[i] % _STREAM_BLOCK of numpy's float64
    Generator.<method>((_STREAM_BLOCK, *shape)) on the Philox stream keyed by
    _stream_keys for path rows[i], where rows is a range of consecutive
    paths; method is "random", "standard_normal" or "standard_exponential".
    The rows are written into out, a C-contiguous (len(rows), *shape) array,
    if given.

    A block's fill is prefix-stable, so each block the range touches is
    drawn by one numpy call straight into its own rows, up to the range's
    last row in it.  A range that starts inside a block draws that block's
    head into a small array and drops its leading rows.
    """
    key0s, key1 = _stream_keys(seed, tag, rows)
    # One Philox serves every block: its state is reset to the block's key,
    # counter 0 and an empty buffer, which is exactly the state of a fresh
    # Philox(key=key1 << 64 | key0), without building one per block.  Python
    # ints and lists: the state setter reads them element by element
    key = [0, key1]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bitgen = np.random.Philox(0)
    fill = getattr(np.random.Generator(bitgen), method)
    n = len(rows)
    out = np.empty((n, *shape)) if out is None else out
    # math.prod, not -1: reshape(0, -1) raises
    flat = out.reshape(n, math.prod(shape))
    # lo: the position in out of the block's row 0, before out for a
    # range that starts inside its first block
    lo = -(rows.start % _STREAM_BLOCK)
    for k in key0s:
        key[0] = k
        bitgen.state = state
        hi = min(lo + _STREAM_BLOCK, n)
        if lo < 0:
            head = np.empty((hi - lo, flat.shape[1]))
            fill(out=head)
            flat[:hi] = head[-lo:]
        else:
            fill(out=flat[lo:hi])
        lo += _STREAM_BLOCK
    return out


def _brownian_rows(
    grid: TimeGrid, rows: range, dim: int, seed: int, tag: int, out=None
) -> np.ndarray:
    """(len(rows), n_times - 1, dim) Brownian increments of the range of
    paths rows, scaled by sqrt(dt), into out if given.

    Row i is bit for bit row rows[i] of the full ensemble, so a caller that
    reads a block of paths draws only the stream blocks it touches.
    """
    shape = (grid.n_times - 1, dim)
    dw = _keyed_rows(seed, tag, rows, shape, "standard_normal", out)
    dw *= np.sqrt(grid.steps)[None, :, None]
    return dw


def simulate_brownian(
    grid: TimeGrid, n_paths: int, dim: int = 1, seed: int = 0, tag: int = 0
) -> PathEnsemble:
    """Standard Brownian motion started at 0, increments scaled by sqrt(dt)."""
    if n_paths < 1 or dim < 1:
        raise ConfigurationError("need n_paths >= 1 and dim >= 1")
    dw = _brownian_rows(grid, range(n_paths), dim, seed, tag)
    w = np.zeros((n_paths, grid.n_times, dim))
    np.cumsum(dw, axis=1, out=w[:, 1:, :])
    return PathEnsemble(grid, w, driver_increments=dw)


# ---------------------------------------------------------------------------
# Ito simulation


class ItoSpec(_Record):
    """Specification of an Ito process with constant coefficients.

    x0, drift and sigma are numbers or arrays, checked and normalized once,
    here: x0 to a vector of dim entries, drift broadcast to (dim,) and sigma
    to (dim, k), its last axis the k Brownian drivers (a scalar sigma needs
    dim 1 and gives k = 1).  A callable, a non-number, an empty or
    non-finite entry and a shape that does not broadcast are
    ConfigurationErrors naming the field.  form selects the integration
    scheme: "arithmetic" uses Euler on the level, "geometric" uses log-Euler
    with the coefficients read as proportional drift and volatility (exact
    in law).
    """

    x0: float | np.ndarray
    drift: float | np.ndarray = 0.0
    sigma: float | np.ndarray = 0.0
    form: str = "arithmetic"

    def __post_init__(self):
        if self.form not in ("arithmetic", "geometric"):
            raise ConfigurationError(f"unknown Ito form {self.form!r}")
        x0 = np.atleast_1d(_coefficient(self.x0, "x0"))
        if x0.ndim != 1:
            raise ConfigurationError("x0 must be a scalar or 1-d vector")
        if self.form == "geometric" and np.any(x0 <= 0):
            raise ConfigurationError("geometric dynamics need a positive start")
        object.__setattr__(self, "x0", x0)
        drift, sigma = _coefficient(self.drift, "drift"), _coefficient(self.sigma, "sigma")
        if sigma.ndim == 0 and x0.size != 1:
            raise ConfigurationError("scalar sigma needs dim = driver dim = 1")
        k = sigma.shape[-1] if sigma.ndim else 1
        for name, a, shape in (("drift", drift, (x0.size,)), ("sigma", sigma, (x0.size, k))):
            try:
                object.__setattr__(self, name, np.broadcast_to(a, shape))
            except ValueError:
                raise ConfigurationError(
                    f"{name} of shape {a.shape} does not broadcast to {shape}"
                ) from None

    @property
    def dim(self) -> int:
        return self.x0.size

    def driver_dim(self) -> int:
        return self.sigma.shape[1]


def _coefficient(value, name: str) -> np.ndarray:
    """An Ito start or coefficient as a non-empty, finite float64 array."""
    if callable(value):
        raise ConfigurationError(f"{name} must be a number or an array, not a callable")
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be real numbers, not {value!r}") from None
    if not (a.size and np.all(np.isfinite(a))):
        raise ConfigurationError(f"{name} must be non-empty and finite, not {value!r}")
    return a


@np.errstate(over="ignore", invalid="ignore")
def _integrate(spec: ItoSpec, grid: TimeGrid, dw: np.ndarray, out=None) -> np.ndarray:
    """(rows, n_times, dim) Ito paths of spec driven by the Brownian increments
    dw, shaped (rows, n_times - 1, spec.driver_dim()), into out if given; dw
    is only read.  An overflow leaves inf, or NaN where two overflows cancel,
    not a warning, for the caller's finiteness check to report.

    Each step is (level + a dt) + noise, on the level for the arithmetic form
    and on the log level for the geometric one, whose drift a carries the Ito
    correction.  One einsum writes every step's noise into the output, the
    recurrence adds the drift and the previous level in place, and the
    geometric form exponentiates the whole block at the end, bit for bit as
    step by step."""
    n_paths, n_steps, k = dw.shape
    if k != spec.driver_dim():
        raise ConfigurationError(
            f"sigma of shape {spec.sigma.shape} needs a driver of dim {spec.driver_dim()}, not {k}"
        )
    dt = grid.steps
    x = np.empty((n_paths, grid.n_times, spec.dim)) if out is None else out
    x[:, 0, :] = spec.x0[None, :]
    state = x[:, 0, :].copy()
    geometric = spec.form == "geometric"
    a = spec.drift
    if geometric:
        a = a - 0.5 * np.einsum("nk,nk->n", spec.sigma, spec.sigma)
    drift = dt[:, None] * a  # a dt for every step
    levels = x[:, 1:, :]
    np.einsum("nk,pik->pin", spec.sigma, dw, out=levels)
    level = np.log(state) if geometric else state
    for i in range(n_steps):
        # state takes level + a dt_i, which is added to the step's noise
        np.add(level, drift[i], out=state)
        level = levels[:, i]
        level += state
    if geometric:
        np.exp(levels, out=levels)
    return x


def _path_slices(n: int) -> list:
    """Slices of at most _PATH_BLOCK consecutive indices that cover range(n)."""
    return [slice(lo, lo + _PATH_BLOCK) for lo in range(0, n, _PATH_BLOCK)]


def _ito_blocks(
    spec: ItoSpec, grid: TimeGrid, n_paths: int, seed: int, tag: int, out=None
):
    """(rows, paths): each range of at most _PATH_BLOCK of the first n_paths
    paths and their Ito paths of spec on stream tag, bit for bit as in the
    whole ensemble.  With out, an (n_paths, n_times, dim) array, each block's
    paths are its slice of out; without, they are the head of one array that
    the next block overwrites.  Every block's increments are drawn into one
    array too."""
    k, size = spec.driver_dim(), min(n_paths, _PATH_BLOCK)
    dw = np.empty((size, grid.n_times - 1, k))
    paths = np.empty((size, grid.n_times, spec.dim)) if out is None else None
    for b in _path_slices(n_paths):
        rows = range(n_paths)[b]
        n = len(rows)
        x = _integrate(
            spec, grid, _brownian_rows(grid, rows, k, seed, tag, dw[:n]),
            paths[:n] if out is None else out[b],
        )
        _check_finite(x, "simulated paths", rows.start)  # names a path by its own index
        yield rows, x


def _ito_rows(spec: ItoSpec, grid: TimeGrid, n_paths: int, seed: int, tag: int):
    """(n_paths, n_times, dim) Ito paths of _ito_blocks, each block
    integrated in place into one array."""
    out = np.empty((n_paths, grid.n_times, spec.dim))
    for _ in _ito_blocks(spec, grid, n_paths, seed, tag, out):
        pass
    return out


def simulate_ito(spec: ItoSpec, driver: PathEnsemble) -> PathEnsemble:
    """Integrate an ItoSpec against the given Brownian driver.

    The driver must carry its increments, as simulate_brownian's output does;
    any other ensemble, an Ito output among them, is rejected.  The output
    reuses the driver grid but not its increments.
    """
    if driver.driver_increments is None:
        raise ConfigurationError("driver ensemble carries no increments")
    return PathEnsemble(driver.grid, _integrate(spec, driver.grid, driver.driver_increments))


# ---------------------------------------------------------------------------
# Nelson-style derivative estimation


def _silverman_bandwidth(states: np.ndarray) -> float:
    """Silverman's rule of thumb, 0.9 spread n^(-1/5), for an (n, 1) column."""
    col = states[:, 0]
    n = col.size
    with np.errstate(over="ignore"):  # a state past 1e154 makes sd inf; min takes the IQR
        sd = col.std(ddof=1) if n > 1 else 0.0
    iqr = np.subtract(*np.percentile(col, [75, 25]))
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if not np.isfinite(spread):  # the IQR is 0 and sd overflowed: no sound bandwidth
        raise EstimationError(
            "the states' spread overflows: no finite bandwidth", diagnostics={"iqr": float(iqr)}
        )
    return float(0.9 * spread * n ** (-0.2))


class NelsonEstimator(_Record):
    """Conditional difference-quotient estimator returned by nelson_derivative.

    evaluate() at one state (a scalar or (1,)) or a batch (m, 1) returns the
    (m, 1) estimated derivatives, their standard errors and the (m,)
    effective kernel sample sizes.
    """

    states: np.ndarray            # (n_paths, 1) conditioning states
    quotients: np.ndarray         # (n_paths, 1)
    bandwidth: float              # zero means uniform weights

    def evaluate(self, state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        q = np.atleast_2d(np.asarray(state, dtype=np.float64))
        if q.shape[1] != 1:
            raise ConfigurationError(f"query states have dim {q.shape[1]}, expected 1")
        bad = np.flatnonzero(~np.isfinite(q[:, 0]))
        if bad.size:
            raise ConfigurationError(f"query state {bad[0]} is {q[bad[0], 0]}, not finite")
        est = np.empty((q.shape[0], 1))
        se = np.empty_like(est)
        neff = np.empty(q.shape[0])
        for i, point in enumerate(q[:, 0]):
            est[i], se[i], neff[i] = self._at(float(point))
        return est, se, neff

    def _at(self, point: float) -> tuple:
        if self.bandwidth == 0:
            return (*_mean_se(self.quotients.copy()), float(len(self.quotients)))
        # a bandwidth far below the distance to every state overflows u * u:
        # every weight is then NaN, and NaN fails the effective-size test
        with np.errstate(over="ignore", invalid="ignore"):
            u = (self.states[:, 0] - point) / self.bandwidth
            logw = -0.5 * (u * u)
            w = np.exp(logw - logw.max())
            s0 = w.sum()
            neff = s0 * s0 / np.dot(w, w)
        if not neff >= _MIN_EFFECTIVE:
            raise EstimationError(
                "kernel window too empty for a reliable conditional estimate",
                diagnostics={
                    "n_effective": float(neff),
                    "query": point,
                    "bandwidth": self.bandwidth,
                },
            )
        # the local-linear intercept weights w (S2 - u S1) / (S0 S2 - S1^2),
        # Sk = sum w u^k, in u = (x - query) / bandwidth and centred on the
        # weighted mean m of u: w / S0 - m w c / sum w c^2 with c = u - m
        y = self.quotients[:, 0]
        smoother = w / s0
        m = np.dot(smoother, u)
        u -= m
        resid = y - np.dot(smoother, y)
        wc = w * u
        s2 = np.dot(wc, u)
        if s2 > 0:  # else every weighted state coincides: the Nadaraya-Watson mean
            wc /= s2
            resid -= u * np.dot(wc, y)
            wc *= m
            smoother -= wc
        resid *= smoother
        return np.dot(smoother, y), math.sqrt(np.dot(resid, resid)), float(neff)


def nelson_derivative(ensemble: PathEnsemble, t: float, mode: str = "mean") -> NelsonEstimator:
    """Forward, backward, or mean stochastic derivative estimator at time t.

    The forward quotient looks one grid step ahead, the backward quotient one
    step back, and the mean averages the two.  The estimator conditions on
    the present: a Gaussian-kernel local-linear regression on the time-t
    state, which is the valid replacement for past/future conditioning
    precisely in the Markov case; a multi-dimensional ensemble is a
    ConfigurationError.  The kernel bandwidth is Silverman's; where every
    state coincides (t = 0 of a fixed start, for one) it is zero and the
    estimate is the plain cross-path mean.  Where every state of non-zero
    weight coincides, so no slope can be fitted, it is the kernel-weighted
    (Nadaraya-Watson) mean.

    Parameters
    ----------
    mode : {"forward", "backward", "mean"}
    """
    if mode not in ("forward", "backward", "mean"):
        raise ConfigurationError(f"unknown derivative mode {mode!r}")
    if ensemble.dim != 1:
        raise ConfigurationError(f"nelson_derivative takes dim 1, not dim {ensemble.dim}")
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
    states = np.ascontiguousarray(v[:, idx, :])  # every query reads it whole
    return NelsonEstimator(states=states, quotients=quot, bandwidth=_silverman_bandwidth(states))


# ---------------------------------------------------------------------------
# Martingale diagnostics


def _sorted_quantiles(ordered: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(x, q) bit for bit, read off ordered = np.sort(x) (1-d,
    without NaN): numpy's "linear" rule, virtual index (n - 1) q between the
    floor and next order statistics (both the last one from n - 1 on), and
    numpy's lerp, which interpolates from the nearer end."""
    n = ordered.size
    v = (n - 1) * q
    prev = np.floor(v).astype(np.intp)
    nxt = prev + 1
    above = v >= n - 1
    prev[above] = nxt[above] = -1
    gamma = v - prev
    a, b = ordered[prev], ordered[nxt]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def conditional_bin_table(states: np.ndarray, samples: np.ndarray) -> dict:
    """Equal-count state bins with the per-bin sample mean and its SE, as the
    columns lo, hi, count (int64), mean and se, one entry per bin.

    states and samples are 1-d, of one nonzero length (else
    ConfigurationError), and the states finite (else NumericalError).  The
    k + 1 bin edges are the np.quantile of the states at k + 1 equally
    spaced levels, the last nudged up one ulp; a bin holds the states from
    its lower edge up to, not including, its upper edge.  A degenerate state
    (all values equal within rounding) collapses to one unconditional bin.
    Bins are always nonempty, and each bin's samples are reduced in index
    order.  One sort of the states yields the edges and every bin.
    """
    states = np.asarray(states, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    if states.ndim != 1 or samples.ndim != 1:
        raise ConfigurationError("bin states and samples must be 1-d")
    if states.size != samples.size:
        raise ConfigurationError(
            f"{states.size} bin states but {samples.size} samples: one sample per state"
        )
    if states.size == 0:
        raise ConfigurationError("bin states and samples must be non-empty")
    if not np.all(np.isfinite(states)):
        i = int(np.argmax(~np.isfinite(states)))
        raise NumericalError(f"bin state {i} is non-finite", diagnostics={"index": i})
    n = samples.size
    order = np.argsort(states)
    ordered = states[order]
    if ordered[-1] - ordered[0] <= 1e-12 * (1.0 + abs(states[0])):
        # min and max, not the sorted ends: the sort may put -0.0 or 0.0 first
        qs_edges = np.array([states.min(), states.max()])
        cuts = np.array([0, n])
    else:
        k = min(_N_BINS, max(1, n // _MIN_BIN))
        qs_edges = _sorted_quantiles(ordered, np.linspace(0, 1, k + 1))
        qs_edges[-1] = np.nextafter(qs_edges[-1], np.inf)
        # bin b holds the sorted states in [edge b, edge b + 1), and the
        # outer edges bracket them all
        cuts = np.concatenate(([0], np.searchsorted(ordered, qs_edges[1:-1]), [n]))
    full = np.flatnonzero(cuts[1:] > cuts[:-1])
    mean, se = np.empty(full.size), np.empty(full.size)
    for i, b in enumerate(full):
        d = samples[np.sort(order[cuts[b] : cuts[b + 1]])]
        mean[i], se[i] = _mean_se(d)
    count = (cuts[full + 1] - cuts[full]).astype(np.int64)
    return {"lo": qs_edges[full], "hi": qs_edges[full + 1], "count": count, "mean": mean, "se": se}


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
    head = raw[:3]  # three whole counts, none above the file's number of floats
    if not np.all((head >= 1) & (head <= raw.size) & (head == np.floor(head))):
        raise ConfigurationError(f"ensemble header {head.tolist()} is not three whole counts")
    n_paths, n_times, dim = (int(x) for x in head)
    expected, size = 8 * (3 + n_times + n_paths * n_times * dim), os.path.getsize(path)
    if n_times < 2 or size != expected:
        raise ConfigurationError(
            f"ensemble file is inconsistent: header says {n_paths}x{n_times}x{dim}, "
            f"which needs {expected} bytes; the file holds {size}"
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


def _format_column(column) -> list:
    """The cells of one CSV column as _format_cell writes them: a float64 or
    int64 array in one pass (the repr of a Python int is its str), an object
    array from _cells as it stands, any other sequence cell by cell."""
    if isinstance(column, np.ndarray):
        if column.dtype in (np.float64, np.int64):
            return list(map(repr, column.tolist()))
        if column.dtype == object:
            return column.tolist()
    return [_format_cell(x) for x in column]


def _cells(values: np.ndarray) -> np.ndarray:
    """values as formatted CSV cells, an object array of values' shape: a
    column that repeats few distinct values formats each once and gathers
    its cells from here."""
    return np.array(_format_column(values.ravel()), dtype=object).reshape(values.shape)


def _write_csv(fh, header: list, columns) -> None:
    """Header and columns as CSV with "\\n" line ends, _PATH_BLOCK rows at a
    time; cells are written as _format_cell writes them and are quoted, as in
    RFC 4180, only when they hold a comma, a quote or a line break."""
    columns = list(columns)
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for b in _path_slices(len(columns[0]) if columns else 0):
        writer.writerows(zip(*(_format_column(col[b]) for col in columns)))


def _first_bad_line(rows: list, kinds: tuple, what: str) -> ConfigurationError:
    """The error naming the first of rows (line 2 on) with the wrong number of
    cells or a cell that its column's kind does not parse."""
    for line, r in enumerate(rows, start=2):
        try:
            if len(r) != len(kinds):
                raise ValueError(f"{len(r)} cells, not {len(kinds)}")
            for kind, x in zip(kinds, r):
                kind(x)
        except ValueError as err:
            return ConfigurationError(f"{what} CSV line {line}: {err}")


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
    data = rows[1:]
    try:
        if set(map(len, data)) != {len(header)}:
            raise ValueError
        p, t, c, v = (np.array(list(map(kind, col))) for kind, col in zip(kinds, zip(*data)))
    except ValueError:
        raise _first_bad_line(data, kinds, what) from None
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
    p, i, j = (ix.ravel() for ix in np.indices(ensemble.values.shape))
    columns = [p, _cells(ensemble.grid.times)[i], j, ensemble.values.ravel()]
    with open(path, "w", newline="\n") as fh:
        _write_csv(fh, ["path", "t", "component", "value"], columns)


def read_ensemble_csv(path: str | os.PathLike) -> PathEnsemble:
    grid, values = _read_long_csv(
        path, ["path", "t", "component", "value"], "ensemble",
        (int, float, int, float), lambda t, c: c,
    )
    return PathEnsemble(grid, values)
