"""Distributional and exactness checks for path simulation and estimators.

Oracles used here are closed forms: Gaussian marginals for Brownian motion,
the lognormal solution for constant-coefficient geometric dynamics, and exact
conditional expectations for difference quotients of Brownian motion
(E[(W_t - W_{t-h})/h | W_t = q] = q/t for any step h).
"""

import csv
import hashlib
import io
import os
import re
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from bin_reference import MIN_BIN, N_BINS, assert_columns_equal_rows, reference_bins
from block_reference import STREAM_BLOCK, reference_rows
from hypothesis import example, given, settings, strategies as st
from ito_reference import reference_paths
from hypothesis.extra.numpy import arrays
from scipy import stats

from curvarb import (
    ConfigurationError,
    DomainError,
    EstimationError,
    ItoSpec,
    NumericalError,
    PathEnsemble,
    TermStructureSurface,
    TimeGrid,
    nelson_derivative,
    read_ensemble,
    read_ensemble_csv,
    read_term_structure_csv,
    simulate_brownian,
    simulate_ito,
    write_ensemble,
    write_ensemble_csv,
    write_term_structure_csv,
    replace,
)
from curvarb.credit import StructuralModel, build_thm1_market, simulate_default
import curvarb.cli
import curvarb.paths
from curvarb.paths import (
    RNG_STREAM_VERSION,
    TAG_ASSET_BASE,
    TAG_BRIDGE,
    TAG_DRIVER,
    TAG_EXP,
    TAG_NOVIKOV_DRIVER,
    TAG_SHARPE,
    _MIN_BIN,
    _N_BINS,
    _STREAM_BLOCK,
    _PATH_BLOCK,
    _brownian_rows,
    _check_finite,
    _cumulative_trapezoid,
    _format_cell,
    _gauss_legendre,
    _integrate,
    _ito_blocks,
    _ito_rows,
    _keyed_rows,
    _legendre_rule,
    _mean_se,
    _path_slices,
    _se_gate,
    _sorted_quantiles,
    conditional_bin_table,
)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        TimeGrid(np.array([0.5, 1.0]))  # must start at 0
    with pytest.raises(ConfigurationError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        TimeGrid(np.array([0.0]))
    g = TimeGrid.regular(2.0, 4)
    assert g.n_times == 5
    assert np.allclose(g.steps, 0.5)
    assert g.index_of(1.5) == 3
    with pytest.raises(DomainError):
        g.index_of(0.7)


def _sidak_z(family_level: float, comparisons: int) -> float:
    """Two-sided normal critical value at which independent comparisons all
    pass with probability 1 - family_level under their null law (Sidak)."""
    return float(stats.norm.isf((1.0 - (1.0 - family_level) ** (1.0 / comparisons)) / 2.0))


# design false-alarm rate of test_brownian_marginals_match_gaussian_law over
# all its comparisons; CHANGES.md logs its null rate and power over seeds
BROWNIAN_LAW_FAMILY_LEVEL = 0.01


def brownian_law_z(w: PathEnsemble) -> np.ndarray:
    """z-scores of a dim-2 Brownian ensemble on TimeGrid.regular(2.0, 8): the
    mean and variance of each dim at t = 0.5, 1 and 2 (SE sqrt(t / n) and
    t sqrt(2 / n)), and the correlation of two disjoint increments of dim 0
    (SE 1 / sqrt(n)); 13 comparisons."""
    n = w.n_paths
    z = []
    for t in (0.5, 1.0, 2.0):
        x = w.at_time(t)
        z.extend(x.mean(axis=0) / np.sqrt(t / n))
        z.extend((x.var(axis=0, ddof=1) - t) / (t * np.sqrt(2.0 / n)))
    a = w.at_time(1.0) - w.at_time(0.5)
    b = w.at_time(2.0) - w.at_time(1.5)
    z.append(np.corrcoef(a[:, 0], b[:, 0])[0, 1] * np.sqrt(n))
    return np.array(z)


def test_brownian_marginals_match_gaussian_law():
    w = simulate_brownian(TimeGrid.regular(2.0, 8), 20000, dim=2, seed=11)
    z = brownian_law_z(w)
    # the largest |z| of 13 comparisons, at a 1% family-wise level (3.36 SE)
    assert np.abs(z).max() < _sidak_z(BROWNIAN_LAW_FAMILY_LEVEL, z.size)


def test_per_path_streams_are_order_independent():
    grid = TimeGrid.regular(1.0, 4)
    full = simulate_brownian(grid, 50, dim=1, seed=99)
    # regenerate one path in isolation from its stream block
    z = reference_rows(99, 0, [37], (4, 1), "standard_normal")[0]
    w37 = np.concatenate([[0.0], np.cumsum(z[:, 0] * 0.5)])
    assert np.array_equal(full.series[37], w37)
    again = simulate_brownian(grid, 50, dim=1, seed=99)
    assert np.array_equal(full.values, again.values)
    other_tag = simulate_brownian(grid, 50, dim=1, seed=99, tag=3)
    assert not np.array_equal(full.values, other_tag.values)


KEYED_DRAWS = {
    "normal_block": (range(30), (6, 2), "standard_normal"),
    "exponential": (range(30), (), "standard_exponential"),
    "uniform_row": (range(30), (9,), "random"),
    # a short range far from path 0 that starts inside its block
    "normal_far_range": (range((1 << 40) + 3, (1 << 40) + 9), (3,), "standard_normal"),
    "exponential_row": (range(30), (7,), "standard_exponential"),
    # three stream blocks, the last one read only in part
    "normal_long_rows": (range(600), (12,), "standard_normal"),
    "long_rows_of_no_paths": (range(0), (2, 5), "standard_normal"),
}


@pytest.mark.parametrize("kind", sorted(KEYED_DRAWS))
@pytest.mark.parametrize("seed", [5, (1 << 63) + 11])
def test_batch_streams_match_the_block_reference_bit_for_bit(kind, seed):
    rows, shape, method = KEYED_DRAWS[kind]
    batch = _keyed_rows(seed, 6, rows, shape, method)
    assert batch.shape == (len(rows), *shape)
    assert batch.tobytes() == reference_rows(seed, 6, rows, shape, method).tobytes()


def test_batch_streams_check_ranges():
    for tag, rows in [(1 << 16, range(1)), (-1, range(1)), (0, range(-1, 3)), (0, range(2, (1 << 48) + 1))]:
        with pytest.raises(ConfigurationError):
            _keyed_rows(1, tag, rows, (), "random")
    # the last path a key can hold
    assert _keyed_rows(1, 0, range((1 << 48) - 1, 1 << 48), (), "random").shape == (1,)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seeds_are_64_bit_stream_keys(seed):
    # a seed outside [0, 2**64) would alias another seed's streams
    with pytest.raises(ConfigurationError, match="64-bit stream key"):
        _keyed_rows(seed, 0, range(3), (8,), "standard_normal")


# the draw method of each tabled stream (README "Determinism") and the
# SHA-256 of its first keyed rows at seed 0
STREAM_DIGESTS = {
    TAG_SHARPE: (
        "standard_normal",
        "9127bfa6f0ecbebea33fa022f922c4012223fc565a3dd7d4d61b3028e26e0944",
    ),
    TAG_DRIVER: (
        "standard_normal",
        "701c8c7f5a5df4650eebaeef0d946458196e1c7be1b2d4a9f30a93b338888054",
    ),
    TAG_EXP: (
        "standard_exponential",
        "fe336095b349403e667814fc8f834e7a2e2aeae87f91030ac750c3efb34334d8",
    ),
    TAG_BRIDGE: (
        "random",
        "5fc0d3747c506e20f5fd4240b9a199615a1b7495189bdc910bb6aee4cf39bffb",
    ),
    TAG_NOVIKOV_DRIVER: (
        "standard_normal",
        "d845fd18547b9fbb4525a8cb07271110bd33cf86ccfa843ddb8676f37f9467fa",
    ),
    TAG_ASSET_BASE: (
        "standard_normal",
        "6eb1e63b55b52a7303f280a23b414e97d9185f97a7049c5aef38b1cb7972c723",
    ),
    TAG_ASSET_BASE + 1: (
        "standard_normal",
        "9deb5e95d7e8ae22015f7b95ff14c113bcc1700508c0830665a51c80deaed387",
    ),
}


def test_stream_tags_are_distinct_and_below_the_asset_tags():
    tags = {n: v for n, v in vars(curvarb.paths).items() if n.startswith("TAG_")}
    assert len(set(tags.values())) == len(tags) == 6
    assert max(v for n, v in tags.items() if n != "TAG_ASSET_BASE") < TAG_ASSET_BASE
    assert set(tags.values()) <= set(STREAM_DIGESTS)


def test_tag_constants_digests_and_readme_table_name_the_same_tags():
    # a tag added, retired or renumbered in one place is so in all three
    constants = {n: v for n, v in vars(curvarb.paths).items() if n.startswith("TAG_")}
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Determinism", 1)[1]
    row = r"^\s*\| (\d+)(?: \+ j)? \| (?:`(TAG_\w+)`(?: \+ j)?)? \| [^|]* \| (?:`(\w+)`)? \|$"
    rows = re.findall(row, section, re.M)
    assert {name: int(tag) for tag, name, _ in rows if name} == constants
    # the unused and retired rows hold no constant, and no constant's tag
    assert {int(tag) for tag, name, _ in rows if not name}.isdisjoint(constants.values())
    # every constant's stream is pinned, with the tabled draw; the asset
    # base pins assets 0 and 1
    assert {min(tag, TAG_ASSET_BASE) for tag in STREAM_DIGESTS} == set(constants.values())
    draws = {int(tag): draw for tag, name, draw in rows if name}
    for tag, (method, _) in STREAM_DIGESTS.items():
        assert method == draws[min(tag, TAG_ASSET_BASE)]


@pytest.mark.parametrize("tag", sorted(STREAM_DIGESTS))
def test_first_keyed_rows_of_each_stream_are_pinned(tag):
    # a change to any digest is a change of stream: bump RNG_STREAM_VERSION
    assert RNG_STREAM_VERSION == 3
    assert _STREAM_BLOCK == STREAM_BLOCK
    method, digest = STREAM_DIGESTS[tag]
    # paths 0 and 1, then the last path a key can hold
    rows = np.concatenate(
        [_keyed_rows(0, tag, r, (8,), method) for r in (range(2), range((1 << 48) - 1, 1 << 48))]
    )
    # a block's fill is prefix-stable: the rows read from the head of a block
    # head the rows of the whole block
    whole = _keyed_rows(0, tag, range(STREAM_BLOCK), (8,), method)
    assert rows[:2].tobytes() == whole[:2].tobytes()
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


ROW_SHAPES = [
    *[("standard_normal", (k,)) for k in (1, 2, 3, 4, 5, 50)],
    ("standard_normal", (2, 2)),
    ("standard_exponential", ()),
    ("standard_exponential", (7,)),
    *[("random", (k,)) for k in (1, 2, 3, 4, 9)],
]
# ranges of paths: 600 paths cover two whole stream blocks and part of a
# third; one row inside a block; a range that starts inside a block and ends
# inside a later one; and the last path a key can hold
KEYED_RANGES = [range(600), range(7, 8), range(100, 700), range((1 << 48) - 1, 1 << 48)]


@pytest.mark.parametrize(
    "method, shape", ROW_SHAPES, ids=lambda v: v if isinstance(v, str) else str(v).replace(" ", "")
)
@pytest.mark.parametrize("tag", [0, 65535])
@pytest.mark.parametrize("seed", [0, 5, (1 << 63) + 11, (1 << 64) - 1])
def test_keyed_rows_match_the_block_reference_bit_for_bit(seed, tag, method, shape):
    for rows in KEYED_RANGES:
        batch = _keyed_rows(seed, tag, rows, shape, method)
        assert batch.shape == (len(rows), *shape)
        assert batch.tobytes() == reference_rows(seed, tag, rows, shape, method).tobytes()


def test_short_rows_of_no_paths():
    for shape in [(), (3,), (2, 5)]:
        for rows in [range(0), range(300, 300)]:
            empty = _keyed_rows(3, 9, rows, shape, "standard_normal")
            assert empty.shape == (0, *shape)


def test_subsets_read_the_rows_of_the_full_ensemble_bit_for_bit():
    # the whole first 5000 paths, past two _PATH_BLOCKs, and the last block
    full = _keyed_rows(7, 12, range(5000), (3,), "standard_normal")
    last_lo = (1 << 48) - STREAM_BLOCK
    last = _keyed_rows(7, 12, range(last_lo, 1 << 48), (3,), "standard_normal")
    # ranges across stream-block and path-block edges
    for lo, hi in [(255, 257), (2047, 2049), (4095, 4097), (300, 200), (0, 511), (4990, 5000)]:
        piece = _keyed_rows(7, 12, range(lo, hi), (3,), "standard_normal")
        assert piece.tobytes() == full[lo:hi].tobytes()
    for lo in [last_lo, last_lo + 1, (1 << 48) - 1]:
        piece = _keyed_rows(7, 12, range(lo, 1 << 48), (3,), "standard_normal")
        assert piece.tobytes() == last[lo - last_lo :].tobytes()
    # each block in isolation, as a caller that reads one path block does
    for lo in range(0, 5000, 97):
        hi = min(lo + 97, 5000)
        piece = _keyed_rows(7, 12, range(lo, hi), (3,), "standard_normal")
        assert piece.tobytes() == full[lo:hi].tobytes()


def test_a_path_draws_one_block_prefix(monkeypatch):
    # regenerating one path reads its block's fill up to its own row
    drawn = []

    class Counting(np.random.Generator):
        def standard_normal(self, *args, out=None, **kwargs):
            drawn.append(out.shape[0])
            return super().standard_normal(*args, out=out, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    _keyed_rows(1, 2, range(3 * STREAM_BLOCK + 9, 3 * STREAM_BLOCK + 10), (4,), "standard_normal")
    # a range fills each block it touches up to its own last row, from the
    # block's row 0 when it starts inside the block
    _keyed_rows(1, 2, range(600), (4,), "standard_normal")
    _keyed_rows(1, 2, range(100, 400), (4,), "standard_normal")
    assert drawn == [10, 256, 256, 88, 256, 144]


# ranges of paths: from a block's first row, each block is filled straight
# into its own rows; from inside a block, the first block's head is drawn
# apart and its leading rows dropped
KEYED_REQUESTS = {
    "whole-blocks": range(2 * STREAM_BLOCK),
    "partial-last-block": range(600),
    "from-a-later-block": range(STREAM_BLOCK, 1000),
    "one-path": range(3 * STREAM_BLOCK, 3 * STREAM_BLOCK + 1),
    "last-block-of-the-keys": range((1 << 48) - STREAM_BLOCK, 1 << 48),
    "mid-block-start": range(100, 700),
    "one-row-late": range(1, 600),
    "one-row-mid-block": range(STREAM_BLOCK + 40, STREAM_BLOCK + 41),
    "empty": range(STREAM_BLOCK + 40, STREAM_BLOCK + 40),
}


@pytest.mark.bitexact
@pytest.mark.parametrize(
    "method, shape",
    [("standard_normal", (50, 1)), ("random", (9,)), ("standard_exponential", ())],
    ids=["normal", "uniform", "exponential"],
)
@pytest.mark.parametrize("request_kind", sorted(KEYED_REQUESTS))
def test_range_requests_fill_in_place_like_the_block_reference(monkeypatch, request_kind, method, shape):
    rows = KEYED_REQUESTS[request_kind]
    n = len(rows)
    expected = reference_rows(23, 9, rows, shape, method).tobytes()
    # without out, the rows are the same
    assert _keyed_rows(23, 9, rows, shape, method).tobytes() == expected
    fills = []  # the address of every block fill's output

    class Recording(np.random.Generator):
        def _record(self, name, out):
            fills.append(out.__array_interface__["data"][0])
            return getattr(super(), name)(out=out)

        def standard_normal(self, *, out):
            return self._record("standard_normal", out)

        def random(self, *, out):
            return self._record("random", out)

        def standard_exponential(self, *, out):
            return self._record("standard_exponential", out)

    monkeypatch.setattr(np.random, "Generator", Recording)
    # the caller's rows head a longer buffer whose tail must stay untouched
    buffer = np.full((n + 3, *shape), np.nan)
    drawn = _keyed_rows(23, 9, rows, shape, method, out=buffer[:n])
    assert drawn.base is buffer and drawn.shape == (n, *shape)
    assert drawn.tobytes() == expected
    assert np.isnan(buffer[n:]).all()
    # every block is drawn straight into its own rows, but for the head of
    # a first block that the range starts inside
    start = buffer.__array_interface__["data"][0]
    row_bytes = buffer[0].nbytes
    skip = rows.start % STREAM_BLOCK
    heads = [start + lo * row_bytes for lo in range(-skip, n, STREAM_BLOCK)] if n else []
    assert len(fills) == len(heads)
    assert fills[1:] == heads[1:]
    if skip and n:
        # the head is drawn into an array of its own, outside the buffer
        assert not start <= fills[0] < start + buffer.nbytes
    else:
        assert fills[:1] == heads[:1]


def _reference_check(values, first):
    """The exact scan: (path, step, count) of the first non-finite value of a
    (paths, steps, ...) array whose row 0 is path first, or None."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size == 0:
        return None
    path = first + int(bad[0][0])
    return path, int(bad[0][1]), int(bad.shape[0])


def _non_finite(shape, cells):
    values = np.random.default_rng(2).standard_normal(shape)
    for at, v in cells:
        values[at] = v
    return values


FINITE_CHECKS = {
    "nan": _non_finite((40, 9, 2), [((7, 3, 1), np.nan)]),
    "+inf": _non_finite((40, 9, 2), [((12, 0, 0), np.inf)]),
    "-inf": _non_finite((40, 9, 2), [((39, 8, 1), -np.inf)]),
    # the sum is NaN, though no term is
    "+inf-and-inf": _non_finite((40, 9, 2), [((30, 2, 0), np.inf), ((5, 6, 1), -np.inf)]),
    "nan-and-inf": _non_finite((40, 9), [((3, 4), np.inf), ((3, 2), np.nan), ((0, 8), np.nan)]),
    # finite terms whose sum overflows to inf, and to -inf: no error
    "sum-overflows": np.full((40, 9, 2), 1e308),
    "sum-overflows-below": np.full((40, 9), -1e308),
    "finite": _non_finite((40, 9, 2), []),
    "no-paths": np.empty((0, 9, 2)),
    "no-steps": np.empty((40, 0)),
}


@pytest.mark.bitexact
@pytest.mark.parametrize("first", [0, 1000], ids=["own", "offset"])
@pytest.mark.parametrize("kind", sorted(FINITE_CHECKS))
def test_check_finite_matches_the_exact_scan(kind, first):
    values = FINITE_CHECKS[kind]
    expected = _reference_check(values, first)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing sum warns about nothing
        if expected is None:
            _check_finite(values, "paths", first)
            return
        with pytest.raises(NumericalError) as err:
            _check_finite(values, "paths", first)
    path, step, count = expected
    assert err.value.diagnostics == {"path": path, "step": step, "count": count}
    assert str(err.value) == f"paths contains non-finite values (first at path {path}, step {step})"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, (1 << 64) - 1),
    tag=st.integers(0, (1 << 16) - 1),
    start=st.integers(0, (1 << 48) - 1),
    length=st.integers(0, 3 * STREAM_BLOCK),
    k=st.integers(1, 6),
    method=st.sampled_from(["standard_normal", "standard_exponential", "random"]),
)
def test_keyed_rows_match_the_block_reference_property(seed, tag, start, length, k, method):
    rows = range(start, min(start + length, 1 << 48))
    batch = _keyed_rows(seed, tag, rows, (k,), method)
    assert batch.tobytes() == reference_rows(seed, tag, rows, (k,), method).tobytes()


def test_log_euler_matches_lognormal_closed_form_pathwise():
    grid = TimeGrid.regular(1.0, 64)
    driver = simulate_brownian(grid, 500, seed=7)
    spec = ItoSpec(x0=1.0, drift=0.05, sigma=0.2, form="geometric")
    paths = simulate_ito(spec, driver)
    t = grid.times[None, :]
    closed = np.exp((0.05 - 0.5 * 0.2**2) * t + 0.2 * driver.series)
    assert np.allclose(paths.series, closed, rtol=1e-10, atol=0)


def test_arithmetic_euler_exact_for_constant_coefficients():
    grid = TimeGrid.regular(2.0, 32)
    driver = simulate_brownian(grid, 200, seed=8)
    spec = ItoSpec(x0=0.3, drift=0.1, sigma=0.5, form="arithmetic")
    paths = simulate_ito(spec, driver)
    closed = 0.3 + 0.1 * grid.times[None, :] + 0.5 * driver.series
    assert np.allclose(paths.series, closed, rtol=0, atol=1e-12)


# constant coefficients, one and two drivers, both forms
_SIGMA_K2 = np.array([[0.2, 0.1], [0.0, 0.3]])
_CONSTANT_SPECS = {
    "arithmetic-k1": dict(x0=0.3, drift=0.1, sigma=0.5, form="arithmetic"),
    "geometric-k1": dict(x0=1.0, drift=0.05, sigma=0.2, form="geometric"),
    "arithmetic-k2": dict(x0=[0.3, 1.0], drift=[0.1, -0.2], sigma=_SIGMA_K2, form="arithmetic"),
    "geometric-k2": dict(x0=[1.0, 2.0], drift=[0.05, 0.0], sigma=_SIGMA_K2, form="geometric"),
}


@pytest.mark.bitexact
@pytest.mark.parametrize("name", sorted(_CONSTANT_SPECS))
@pytest.mark.parametrize("block", [97, 125, _PATH_BLOCK])
def test_ito_rows_match_the_reference_across_partial_blocks(monkeypatch, block, name):
    kw = _CONSTANT_SPECS[name]
    spec = ItoSpec(**kw)
    # 250 paths in blocks of 97 (the last block ends partway), in two whole
    # blocks of 125, and in one block longer than the ensemble
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", block)
    grid = TimeGrid.regular(2.0, 20)
    x = _ito_rows(spec, grid, 250, 3, 5)
    assert x.shape == (250, grid.n_times, spec.dim)
    dw = simulate_brownian(grid, 250, spec.driver_dim(), 3, 5).driver_increments
    assert x.tobytes() == reference_paths(**kw, steps=grid.steps, dw=dw).tobytes()


@pytest.mark.parametrize("sigma", [0.2, np.array(0.2)], ids=["constant", "0-d-array"])
def test_scalar_sigma_rejects_a_two_dim_driver(sigma):
    grid = TimeGrid.regular(1.0, 4)
    dw = simulate_brownian(grid, 5, dim=2, seed=1).driver_increments
    with pytest.raises(ConfigurationError, match=r"sigma of shape \(1, 1\) needs a driver of dim 1, not 2"):
        _integrate(ItoSpec(x0=1.0, sigma=sigma), grid, dw)


def test_a_driver_of_another_dim_than_sigma_is_rejected():
    # one sigma column against two Brownian components: sigma is not
    # applied to both of them
    grid = TimeGrid.regular(1.0, 4)
    driver = simulate_brownian(grid, 5, dim=2, seed=1)
    with pytest.raises(ConfigurationError, match=r"sigma of shape \(1, 1\) needs a driver of dim 1, not 2"):
        simulate_ito(ItoSpec(x0=0.0, sigma=[[0.2]]), driver)


@pytest.mark.parametrize("name", ["drift", "sigma"])
def test_a_callable_coefficient_is_rejected(name):
    with pytest.raises(ConfigurationError, match=f"{name} must be a number or an array, not a callable"):
        ItoSpec(x0=1.0, **{name: lambda t, x: 0.2})


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(x0=[1, 2], drift=[0.1, 0.2, 0.3], sigma=[[0.2], [0.1]]), r"drift of shape \(3,\) does not broadcast to \(2,\)"),
        (dict(x0=[1, 2], sigma=[[0.2], [0.1], [0.3]]), r"sigma of shape \(3, 1\) does not broadcast to \(2, 1\)"),
        # one drift per path is not a coefficient of the process
        (dict(x0=1.0, drift=np.full((40, 1), 0.1), sigma=0.2), r"drift of shape \(40, 1\) does not broadcast"),
        (dict(x0=1.0, drift="a"), "drift must be real numbers"),
        (dict(x0=1.0, sigma="a"), "sigma must be real numbers"),
        (dict(x0=1.0, drift=np.nan), "drift must be non-empty and finite"),
        (dict(x0=1.0, sigma=[[np.inf]]), "sigma must be non-empty and finite"),
        (dict(x0=1.0, sigma=np.zeros((1, 0))), "sigma must be non-empty and finite"),
        # a start the first step would carry into every path
        (dict(x0=np.nan, sigma=0.2), "x0 must be non-empty and finite"),
        (dict(x0=[], sigma=0.2), "x0 must be non-empty and finite"),
        (dict(x0=[1.0, -np.inf], sigma=0.2), "x0 must be non-empty and finite"),
        (dict(x0=[[1.0, 2.0]], sigma=0.2), "x0 must be a scalar or 1-d vector"),
        (dict(x0=0.0, sigma=0.2, form="geometric"), "geometric dynamics need a positive start"),
        # one volatility matrix per path, likewise
        (dict(x0=1.0, sigma=np.full((40, 1, 1), 0.2)), r"sigma of shape \(40, 1, 1\) does not broadcast"),
    ],
    ids=[
        "drift-shape", "sigma-shape", "drift-per-path", "drift-str", "sigma-str", "drift-nan",
        "sigma-inf", "sigma-empty", "x0-nan", "x0-empty", "x0-inf", "x0-matrix",
        "x0-geometric-zero", "sigma-per-path",
    ],
)
def test_ill_formed_coefficients_are_rejected_at_construction(kw, message):
    with pytest.raises(ConfigurationError, match=message):
        ItoSpec(**kw)


def test_coefficients_are_normalized_once():
    spec = ItoSpec(x0=[1.0, 2.0], drift=0.05, sigma=[0.2, 0.1, 0.3])
    assert spec.drift.shape == (2,) and spec.sigma.shape == (2, 3) and spec.driver_dim() == 3
    assert not spec.drift.flags.writeable and not spec.sigma.flags.writeable
    one = ItoSpec(x0=1.0, drift=0.05, sigma=0.2)
    assert one.drift.tolist() == [0.05] and one.sigma.tolist() == [[0.2]]
    # huge finite coefficients are legal: an overflow is the simulation's to report
    ItoSpec(x0=1.0, drift=1e308, sigma=1e308)


# constant coefficients by driver dim k: dim 1 with a scalar sigma, as the
# CLI's assets, and vector states with full volatility matrices
_REFERENCE_COEFFICIENTS = {
    1: dict(x0=1.2, drift=0.05, sigma=0.3),
    2: dict(x0=[0.8, 1.5], drift=[0.04, -0.02], sigma=[[0.2, 0.1], [-0.05, 0.3]]),
    4: dict(
        x0=[1.0, 0.5, 2.0],
        drift=[0.03, 0.0, -0.01],
        sigma=[[0.1, 0.0, 0.2, -0.1], [0.05, 0.15, 0.0, 0.1], [0.2, -0.1, 0.1, 0.05]],
    ),
}


@pytest.mark.bitexact
@pytest.mark.parametrize("steps", [1, 3, 50, 1024])
@pytest.mark.parametrize("k", sorted(_REFERENCE_COEFFICIENTS))
@pytest.mark.parametrize("form", ["arithmetic", "geometric"])
def test_integrate_matches_the_per_step_reference(form, k, steps):
    coefficients = _REFERENCE_COEFFICIENTS[k]
    grid = TimeGrid.regular(1.0, steps)
    driver = simulate_brownian(grid, 300, k, seed=steps, tag=k)
    dw = driver.driver_increments.copy()
    x = simulate_ito(ItoSpec(**coefficients, form=form), driver).values
    assert driver.driver_increments.tobytes() == dw.tobytes()  # the driver is only read
    assert x.tobytes() == reference_paths(**coefficients, form=form, steps=grid.steps, dw=dw).tobytes()


@pytest.mark.bitexact
def test_integrate_overflow_leaves_inf_without_a_warning():
    grid = TimeGrid.regular(1.0, 50)
    driver = simulate_brownian(grid, 20, 1, seed=4)
    spec = ItoSpec(x0=1.0, drift=800.0, sigma=1.0, form="geometric")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # an ensemble would reject the inf: the finiteness check is the caller's
        x = _integrate(spec, grid, driver.driver_increments)
    # the log level passes log(float max) ~ 709.8 before the horizon
    assert np.isinf(x[:, -1]).all() and np.isfinite(x[:, :2]).all()
    ref = reference_paths(1.0, 800.0, 1.0, "geometric", grid.steps, driver.driver_increments)
    assert x.tobytes() == ref.tobytes()


@pytest.mark.bitexact
@pytest.mark.parametrize("name", sorted(_CONSTANT_SPECS))
def test_ito_rows_equal_ito_blocks_block_by_block(monkeypatch, name):
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", 97)
    spec, grid, n = ItoSpec(**_CONSTANT_SPECS[name]), TimeGrid.regular(2.0, 20), 257
    out = _ito_rows(spec, grid, n, 3, 5)
    # without out, each block is read before the next one overwrites it
    blocks = [(rows, x.copy()) for rows, x in _ito_blocks(spec, grid, n, 3, 5)]
    assert len(blocks) == len(_path_slices(n)) == 3
    for b, (rows, x) in zip(_path_slices(n), blocks):
        assert rows == range(n)[b]
        assert x.tobytes() == out[b].tobytes()


def test_se_gate_pins_its_default_width_and_zero_se_rule():
    # |r| = 3 se is within; the next float above is not
    assert [float(x) for x in _se_gate(3.0, 1.0)] == [3.0, 1.0]
    assert not _se_gate(np.nextafter(3.0, np.inf), 1.0)[1]
    assert not _se_gate(-np.nextafter(3.0, np.inf), 1.0)[1]
    # zero SE: within atol is z 0, beyond it z inf; a NaN SE is never within
    assert [float(x) for x in _se_gate(1e-10, 0.0, atol=1e-10)] == [0.0, 1.0]
    assert [float(x) for x in _se_gate(np.nextafter(1e-10, 1.0), 0.0, atol=1e-10)] == [np.inf, 0.0]
    assert not _se_gate(0.0, np.nan)[1]
    # an explicit width
    assert _se_gate(4.0, 1.0, k=4.0)[1] and not _se_gate(np.nextafter(4.0, 5.0), 1.0, k=4.0)[1]


def test_se_gate_applies_the_same_rules_elementwise():
    above, atol = np.nextafter(3.0, np.inf), 1e-10
    r = np.array([3.0, -above, atol, -np.nextafter(atol, 1.0), 0.0, -6.0, 0.0])
    se = np.array([1.0, 1.0, 0.0, 0.0, np.nan, 2.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, within = _se_gate(r, se, atol=atol)
    np.testing.assert_array_equal(within, [True, False, True, False, False, True, True])
    np.testing.assert_array_equal(z, [3.0, above, 0.0, np.inf, 0.0, 3.0, 0.0])
    # each element as its own scalar call
    for i in range(r.size):
        assert [float(x) for x in _se_gate(r[i], se[i], atol=atol)] == [z[i], within[i]]


def test_cumulative_trapezoid_holds_one_temporary_and_is_bit_equal():
    y = np.random.default_rng(4).standard_normal((40_000, 101))
    steps = np.random.default_rng(5).uniform(0.01, 0.1, 100)
    tracemalloc.start()
    try:
        out = _cumulative_trapezoid(y, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two-temporary formula
    ref = np.zeros(y.shape)
    np.cumsum(0.5 * (y[:, 1:] + y[:, :-1]) * steps, axis=-1, out=ref[:, 1:])
    assert out.tobytes() == ref.tobytes()
    assert peak <= 2.2 * out.nbytes


@pytest.mark.parametrize("n", [1, 8, 24, 64])
def test_gauss_legendre_rule_is_solved_once_and_read_only(n):
    x, w = _legendre_rule(n)
    fresh_x, fresh_w = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == fresh_x.tobytes() and w.tobytes() == fresh_w.tobytes()
    assert _legendre_rule(n)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # callers get new, writable nodes and weights on their interval
    nodes, weights = _gauss_legendre(1.0, 3.0, n)
    assert nodes.tobytes() == (2.0 + 1.0 * fresh_x).tobytes()
    assert weights.tobytes() == (1.0 * fresh_w).tobytes()
    nodes[0] = weights[0] = 0.0


def test_ito_output_carries_no_increments_and_cannot_drive():
    grid = TimeGrid.regular(1.0, 8)
    driver = simulate_brownian(grid, 50, seed=3)
    assert driver.driver_increments is not None
    spec = ItoSpec(x0=1.0, sigma=0.2, form="geometric")
    paths = simulate_ito(spec, driver)
    assert paths.driver_increments is None
    with pytest.raises(ConfigurationError, match="carries no increments"):
        simulate_ito(spec, paths)


def test_covariation_of_brownian_recovers_time():
    grid = TimeGrid.regular(1.0, 50)
    w = simulate_brownian(grid, 4000, dim=2, seed=5).values
    dw0, dw1 = np.diff(w[:, :, 0], axis=1), np.diff(w[:, :, 1], axis=1)
    # <W,W>_1 = 1; the realized total per path has variance ~ 2 dt
    same = (dw0 * dw0).sum(axis=1)
    assert abs(same.mean() - 1.0) < 3 * same.std(ddof=1) / np.sqrt(same.size)
    cross = (dw0 * dw1).sum(axis=1)
    assert abs(cross.mean()) < 3 * cross.std(ddof=1) / np.sqrt(cross.size)


def test_derivative_modes_on_deterministic_path():
    grid = TimeGrid.regular(2.0, 200)
    t = grid.times
    values = np.tile((t**2)[None, :, None], (3, 1, 1))
    ens = PathEnsemble(grid, values)
    h = 0.01
    est_mean = nelson_derivative(ens, 1.0, mode="mean").evaluate(np.array([1.0]))[0]
    est_fwd = nelson_derivative(ens, 1.0, mode="forward").evaluate(np.array([1.0]))[0]
    est_bwd = nelson_derivative(ens, 1.0, mode="backward").evaluate(np.array([1.0]))[0]
    # central difference of t^2 is exact; one-sided are off by +-h
    assert abs(est_mean[0, 0] - 2.0) < 1e-10
    assert abs(est_fwd[0, 0] - (2.0 + h)) < 1e-10
    assert abs(est_bwd[0, 0] - (2.0 - h)) < 1e-10


def test_brownian_forward_backward_and_mean_derivatives():
    # E[forward quotient | W_t=q] = 0, E[backward | W_t=q] = q/t,
    # so the mean derivative is q/(2t); all exact in h for Brownian motion.
    grid = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5]))
    n = 40000
    w = simulate_brownian(grid, n, seed=13)
    states = np.array([[-1.0], [0.0], [1.0]])
    fwd, fwd_se, _ = nelson_derivative(w, 1.0, mode="forward").evaluate(states)
    bwd, bwd_se, _ = nelson_derivative(w, 1.0, mode="backward").evaluate(states)
    mean, mean_se, neff = nelson_derivative(w, 1.0, mode="mean").evaluate(states)
    assert np.all(neff > 100)
    for i, q in enumerate([-1.0, 0.0, 1.0]):
        assert abs(fwd[i, 0] - 0.0) < 3 * fwd_se[i, 0] + 0.02
        assert abs(bwd[i, 0] - q) < 3 * bwd_se[i, 0] + 0.02
        assert abs(mean[i, 0] - q / 2) < 3 * mean_se[i, 0] + 0.02


@pytest.mark.bitexact
def test_zero_bandwidth_is_cross_path_mean():
    # every path starts at 0: Silverman's bandwidth is zero and the weights uniform
    grid = TimeGrid.regular(1.0, 10)
    w = simulate_brownian(grid, 5000, seed=3)
    est = nelson_derivative(w, 0.0, mode="forward")
    assert np.all(est.bandwidth == 0)
    quotients = est.quotients.copy()
    val, se, neff = est.evaluate(np.array([[0.0]]))
    assert neff[0] == 5000
    mean, mean_se = _mean_se(quotients.copy())
    assert val[0].tobytes() == mean.tobytes()
    assert se[0].tobytes() == mean_se.tobytes()
    assert est.quotients.tobytes() == quotients.tobytes()  # the stored field is left intact


def _weighted_least_squares(states, quotients, bandwidth, point):
    """Intercept and its SE of the Gaussian-kernel local-linear fit at point,
    from the pseudo-inverse of the row-weighted design matrix."""
    u = (states - point) / bandwidth
    root_w = np.exp(-0.25 * np.sum(u * u, axis=1))
    z = np.column_stack([np.ones(states.shape[0]), states - point])
    pinv = np.linalg.pinv(z * root_w[:, None])
    theta = pinv @ (quotients * root_w[:, None])
    smoother = pinv[0] * root_w  # row 0 of (Z'WZ)^-1 Z'W
    resid = quotients - z @ theta
    return theta[0], np.sqrt(smoother**2 @ resid**2)


def test_nelson_estimate_and_se_equal_direct_weighted_least_squares():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5]))
    w = simulate_brownian(grid, 3000, seed=23)
    est = nelson_derivative(w, 1.0, mode="mean")
    states = w.at_time(1.0)
    n = states.shape[0]
    # Silverman's rule: 0.9 spread n^-1/5
    iqr = np.subtract(*np.percentile(states, [75, 25], axis=0))
    spread = np.minimum(states.std(axis=0, ddof=1), iqr / 1.34)
    assert isinstance(est.bandwidth, float)
    np.testing.assert_allclose(est.bandwidth, spread * 0.9 * n**-0.2, rtol=1e-14)
    queries = np.array([[-0.8], [0.0], [0.5]])
    values, ses, _ = est.evaluate(queries)
    for point, value, se in zip(queries, values, ses):
        ref_value, ref_se = _weighted_least_squares(states, est.quotients, est.bandwidth, point)
        np.testing.assert_allclose(value, ref_value, rtol=1e-12)
        np.testing.assert_allclose(se, ref_se, rtol=1e-12)


def test_nadaraya_watson_fallback_where_every_weighted_state_coincides():
    # 9900 states at 0 and 100 at 1: Silverman's bandwidth is about 0.0142, so
    # at query 0 the weights of the 100 underflow to exactly 0 and no slope
    # can be fitted; the estimate is the plain mean of the 9900 quotients
    rng = np.random.default_rng(4)
    values = np.zeros((10_000, 4, 1))
    values[9900:, 2, 0] = 1.0
    values[:, 3, 0] = values[:, 2, 0] + rng.normal(3.0, 1.0, 10_000)
    ensemble = PathEnsemble(TimeGrid(np.array([0.0, 0.5, 1.0, 1.5])), values)
    est = nelson_derivative(ensemble, 1.0, mode="forward")
    assert abs(est.bandwidth - 0.0142) < 1e-4
    assert np.exp(-0.5 / est.bandwidth**2) == 0.0
    y = est.quotients[:9900, 0]
    val, se, neff = est.evaluate(0.0)
    assert neff[0] == 9900
    np.testing.assert_allclose(val[0, 0], y.mean(), rtol=1e-12)
    np.testing.assert_allclose(se[0, 0], np.sqrt(np.sum((y - y.mean()) ** 2)) / 9900, rtol=1e-12)


@st.composite
def _nelson_inputs(draw):
    """A one-dimensional ensemble on [0, 0.5, 1] whose states at t = 0.5 hold
    ties, two-point clusters or one constant value, and queries inside the
    states' range."""
    n = draw(st.integers(30, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["ties", "clusters", "constant", "normal"]))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    if layout == "ties":  # a few distinct values, each repeated
        states = rng.choice(rng.normal(size=draw(st.integers(1, 6))), size=n)
    elif layout == "clusters":  # k states at a, the rest at b
        a, b = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
        states = np.where(np.arange(n) < draw(st.integers(0, n)), a, b)
    elif layout == "constant":
        states = np.full(n, draw(st.floats(-10, 10)))
    else:
        states = rng.normal(size=n)
    states = states * scale
    values = np.stack([states - rng.normal(size=n), states, states + rng.normal(size=n)], axis=1)
    lo, hi = states.min(), states.max()
    queries = [lo + f * (hi - lo) for f in draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))]
    return PathEnsemble(TimeGrid(np.array([0.0, 0.5, 1.0])), values[:, :, None]), queries


def _one_apart(n):
    """n - 1 states at 0 and one at 1, on the grid of _nelson_inputs."""
    values = np.zeros((n, 3, 1))
    values[0, 1:, 0] = 1.0
    values[:, 2, 0] += np.linspace(-1.0, 1.0, n)
    return PathEnsemble(TimeGrid(np.array([0.0, 0.5, 1.0])), values)


# at 155 paths the lone state's weight at query 0 is subnormal (about 4e-313)
@example((_one_apart(155), [0.0, 0.5, 1.0]))
@settings(max_examples=150, deadline=None)
@given(_nelson_inputs())
def test_nelson_evaluate_is_finite_or_starved_property(inputs):
    ensemble, queries = inputs
    n = ensemble.n_paths
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = nelson_derivative(ensemble, 0.5, mode="mean")
        for query in queries:
            try:
                val, se, neff = est.evaluate(query)
            except EstimationError:
                continue
            assert np.isfinite(val).all() and np.isfinite(se).all()
            assert se[0, 0] >= 0
            assert 1 <= neff[0] <= n


def test_multi_dimensional_ensemble_is_rejected():
    # a constant component once gave a zero bandwidth in that dimension alone,
    # and every estimate was NaN
    grid = TimeGrid.regular(1.0, 4)
    w = simulate_brownian(grid, 2000, seed=9)
    values = np.concatenate([w.values, np.zeros_like(w.values)], axis=2)
    with pytest.raises(ConfigurationError, match="dim 2"):
        nelson_derivative(PathEnsemble(grid, values), 0.5)


def test_evaluate_takes_one_dimensional_queries_and_rejects_non_finite_ones():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5]))
    est = nelson_derivative(simulate_brownian(grid, 3000, seed=29), 1.0)
    for query in (0.25, np.array([0.25]), np.array([[0.25]])):
        val, se, neff = est.evaluate(query)
        assert val.shape == se.shape == (1, 1) and neff.shape == (1,)
    with pytest.raises(ConfigurationError, match="dim 2"):
        est.evaluate(np.zeros((3, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match=re.escape(f"query state 1 is {bad},")):
            est.evaluate(np.array([[0.0], [bad], [np.nan]]))
        with pytest.raises(ConfigurationError, match="query state 0"):
            est.evaluate(bad)


def test_derivative_domain_and_mode_errors():
    grid = TimeGrid.regular(1.0, 4)
    w = simulate_brownian(grid, 10, seed=1)
    with pytest.raises(DomainError):
        nelson_derivative(w, 1.0, mode="mean")
    with pytest.raises(DomainError):
        nelson_derivative(w, 0.0, mode="backward")
    with pytest.raises(ConfigurationError):
        nelson_derivative(w, 0.5, mode="sideways")


def test_kernel_starvation_raises_with_diagnostics():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5]))
    w = simulate_brownian(grid, 200, seed=17)
    est = nelson_derivative(w, 1.0, mode="mean")
    with pytest.raises(EstimationError) as exc:
        est.evaluate(np.array([50.0]))  # far outside the support of W_1
    assert "n_effective" in exc.value.diagnostics


def test_a_bandwidth_below_every_distance_starves_the_window_without_a_warning():
    # IQR 1e-300 gives a bandwidth of 2.7e-301: at query 0.5 every u * u
    # overflows, every weight is NaN, and the estimate once was NaN
    states = np.repeat([0.0, 1e-300, 1.0], [60, 20, 20])
    values = np.stack([states, states, states + np.linspace(-1.0, 1.0, 100)], axis=1)
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    est = nelson_derivative(PathEnsemble(grid, values[:, :, None]), 0.5)
    assert 0 < est.bandwidth < 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="kernel window too empty") as exc:
            est.evaluate(0.5)
    assert exc.value.diagnostics["query"] == 0.5


def test_a_huge_state_leaves_silverman_on_the_iqr_without_a_warning():
    # the squares of the standard deviation overflow past 1e154: the spread
    # is inf, and Silverman's min takes the IQR of 1
    states = np.repeat([0.0, 1.0, 1e300], [50, 50, 1])
    values = np.stack([states, states, states + np.linspace(-1.0, 1.0, 101)], axis=1)
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = nelson_derivative(PathEnsemble(grid, values[:, :, None]), 0.5)
        estimate, se, neff = est.evaluate(0.5)
    assert est.bandwidth == pytest.approx(0.9 / 1.34 * 101 ** -0.2)
    assert abs(est.bandwidth - 0.267) < 1e-3
    assert np.isfinite(estimate).all() and np.isfinite(se).all() and neff[0] >= 30


def test_an_overflowing_spread_with_a_zero_iqr_is_an_estimation_error():
    # 100 states at 0 and one at 1e300: the IQR is 0 and the standard
    # deviation overflows, so no bandwidth is sound (an infinite one turned
    # the estimate into the unconditional mean of every quotient)
    states = np.repeat([0.0, 1e300], [100, 1])
    values = np.stack([states, states, states + np.linspace(-1.0, 1.0, 101)], axis=1)
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="spread overflows") as exc:
            nelson_derivative(PathEnsemble(grid, values[:, :, None]), 0.5)
    assert exc.value.diagnostics == {"iqr": 0.0}


def test_non_finite_values_are_rejected_with_location():
    grid = TimeGrid.regular(1.0, 2)
    values = np.zeros((4, 3, 1))
    values[2, 1, 0] = np.nan
    with pytest.raises(NumericalError) as exc:
        PathEnsemble(grid, values)
    assert exc.value.diagnostics["path"] == 2
    assert exc.value.diagnostics["step"] == 1


def _worst_drift_bin(ensemble, t, s):
    """The conditional drift E[Q_s - Q_t | Q_t in bin] of largest magnitude."""
    qt, qs = ensemble.at_time(t)[:, 0], ensemble.at_time(s)[:, 0]
    table = conditional_bin_table(qt, qs - qt)
    worst = np.argmax(np.abs(table["mean"]))
    return {name: column[worst] for name, column in table.items()}


def test_martingale_residual_detects_drift_and_passes_driftless():
    grid = TimeGrid.regular(1.0, 20)
    driver = simulate_brownian(grid, 20000, seed=23)
    driftless = simulate_ito(ItoSpec(1.0, 0.0, 0.2, form="geometric"), driver)
    r0 = _worst_drift_bin(driftless, 0.0, 1.0)
    assert abs(r0["mean"]) <= 3 * r0["se"]
    drifted = simulate_ito(ItoSpec(1.0, 0.05, 0.2, form="geometric"), driver)
    r1 = _worst_drift_bin(drifted, 0.0, 1.0)
    # E Q_1 - Q_0 = e^0.05 - 1 = 0.0512711
    assert abs(r1["mean"] - 0.0512711) < 3 * r1["se"]
    assert r1["mean"] / r1["se"] > 3
    # conditional version at an interior date still sees the drift
    r2 = _worst_drift_bin(drifted, 0.5, 1.0)
    assert r2["mean"] > 0


def test_bin_reference_uses_the_bin_settings():
    assert (N_BINS, MIN_BIN) == (_N_BINS, _MIN_BIN)


def _bin_inputs(seed: int, n: int, law: str, decimals: int | None):
    """States and samples for one bin table; rounding the states ties them.
    Adding 0.0 turns a rounded -0.0 into 0.0: which zero heads a run of
    zeros is up to the sort, in numpy's quantile partition as here."""
    rng = np.random.default_rng(seed)
    states = {
        "normal": lambda: rng.normal(size=n),
        "lognormal": lambda: rng.lognormal(0.0, 2.0, size=n),
        "few": lambda: rng.integers(0, 3, size=n).astype(float),
    }[law]()
    if decimals is not None:
        states = np.round(states, decimals) + 0.0
    return states, rng.normal(size=n)


@pytest.mark.bitexact
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bins=st.integers(0, 2 * _N_BINS + 1),
    offset=st.integers(-3, 3),
    law=st.sampled_from(["normal", "lognormal", "few"]),
    decimals=st.sampled_from([None, 0, 1, 2]),
)
def test_bin_table_equals_the_reference_bit_for_bit(seed, bins, offset, law, decimals):
    # sizes around multiples of _MIN_BIN, where the bin count steps
    n = max(1, bins * _MIN_BIN + offset)
    states, samples = _bin_inputs(seed, n, law, decimals)
    got, want = conditional_bin_table(states, samples), reference_bins(states, samples)
    assert_columns_equal_rows(got, want)
    assert got["count"].sum() == n


@pytest.mark.bitexact
@pytest.mark.parametrize("n", [1, 2, 3, 129, 4097])
@pytest.mark.parametrize("layout", ["1d", "2d", "strided_1d", "strided_2d"])
def test_mean_se_equals_numpy_mean_and_std_bit_for_bit(n, layout):
    rng = np.random.default_rng(n)
    # an offset far from zero makes the order of the deviation arithmetic show
    big = 1e3 + rng.lognormal(size=(n, 6)) * rng.choice([-1.0, 1.0], size=(n, 6))
    layouts = {"1d": big[:, 0].copy(), "2d": big.copy(), "strided_1d": big[:, 3]}
    a = big[:, ::2] if layout == "strided_2d" else layouts[layout]
    original = a.copy()
    want_mean = original.mean(axis=0)
    want_se = original.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(want_mean)
    mean, se = _mean_se(a)
    assert np.shape(mean) == np.shape(se) == original.shape[1:]
    assert np.asarray(mean).tobytes() == np.asarray(want_mean).tobytes()
    assert np.asarray(se).tobytes() == np.asarray(want_se).tobytes()
    if n > 1:
        # overwritten by the squared deviations from the mean
        assert a.tobytes() == np.square(original - want_mean).tobytes()
        if layout.startswith("strided"):
            assert np.shares_memory(a, big)
    else:
        assert a.tobytes() == original.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3000),
    decimals=st.sampled_from([None, 0, 2]),
    levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_sorted_quantiles_equal_np_quantile_bit_for_bit(seed, n, decimals, levels):
    states, _ = _bin_inputs(seed, n, "normal", decimals)
    # quarter levels put gamma at exactly 0.5 for some n: lerp's switch point
    quarters = np.array([0.25, 0.5, 0.75])
    edges = np.linspace(0, 1, min(_N_BINS, max(1, n // _MIN_BIN)) + 1)
    for q in (np.array(levels), quarters, edges):
        got = _sorted_quantiles(np.sort(states), q)
        assert got.tobytes() == np.quantile(states, q).tobytes()


def test_bin_table_rejects_mismatched_empty_and_non_1d_inputs():
    rng = np.random.default_rng(4)
    states = rng.normal(size=1000)
    for samples in (rng.normal(size=1200), rng.normal(size=800)):
        with pytest.raises(ConfigurationError, match="one sample per state"):
            conditional_bin_table(states, samples)
    with pytest.raises(ConfigurationError, match="non-empty"):
        conditional_bin_table(np.array([]), np.array([]))
    with pytest.raises(ConfigurationError, match="1-d"):
        conditional_bin_table(states.reshape(10, 100), states.reshape(10, 100))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bin_table_non_finite_state_is_a_numerical_error(bad):
    states = np.linspace(0.0, 1.0, 500)
    states[123] = bad
    with pytest.raises(NumericalError, match="bin state 123 is non-finite") as exc:
        conditional_bin_table(states, np.zeros(500))
    assert exc.value.diagnostics == {"index": 123}


def test_binary_round_trip_is_bit_exact(tmp_path):
    grid = TimeGrid(np.array([0.0, 0.3, 1.1, 2.0]))
    w = simulate_brownian(grid, 7, dim=3, seed=2)
    target = tmp_path / "ens.bin"
    write_ensemble(target, w)
    back = read_ensemble(target)
    assert np.array_equal(back.grid.times, grid.times)
    assert np.array_equal(back.values, w.values)


# irregular grids: 0 followed by up to five distinct positive times
_grids = st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=5, unique=True).map(
    lambda xs: TimeGrid(np.array([0.0, *sorted(xs)]))
)


@st.composite
def _ensembles(draw):
    grid = draw(_grids)
    shape = (draw(st.integers(1, 4)), grid.n_times, draw(st.integers(1, 3)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return PathEnsemble(grid, draw(arrays(np.float64, shape, elements=finite)))


@settings(max_examples=60, deadline=None)
@given(
    _ensembles(),
    st.sampled_from([(write_ensemble, read_ensemble), (write_ensemble_csv, read_ensemble_csv)]),
)
def test_ensemble_formats_round_trip_bit_for_bit(ens, formats):
    write, read = formats
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "ens")
        write(target, ens)
        back = read(target)
    assert back.grid.times.tobytes() == ens.grid.times.tobytes()
    assert back.values.tobytes() == ens.values.tobytes()


def test_csv_round_trip_is_bit_exact(tmp_path):
    grid = TimeGrid(np.array([0.0, 0.25, 0.75]))
    w = simulate_brownian(grid, 5, dim=2, seed=4)
    target = tmp_path / "ens.csv"
    write_ensemble_csv(target, w)
    back = read_ensemble_csv(target)
    assert np.array_equal(back.grid.times, grid.times)
    assert np.array_equal(back.values, w.values)


_CSV_HEADER = "path,t,component,value\n"
_CSV_ROWS = ["0,0.0,0,0.0", "0,0.0,1,0.0", "0,1.0,0,0.5", "0,1.0,1,-0.5"]


@pytest.mark.parametrize(
    "edits, message",
    [
        ({2: "0,1.0,0,half"}, "line 4: could not convert string to float: 'half'"),
        ({2: "0,1.0,0"}, "line 4: 3 cells, not 4"),
        ({3: "0,1.0,-1,-0.5"}, "line 5: negative component"),
        ({1: "0,0.0,2,0.0", 3: "0,1.0,2,-0.5"}, "line 3: gap in the component numbers"),
        ({3: "0,1.0,0,0.7"}, "line 5: repeated (path, t, component) cell"),
        ({3: None}, "missing cells, first at path 0, t 1.0, component index 1"),
        # columns are parsed whole, path column first, yet the first bad line is named
        ({1: "0,0.0,1,zero", 3: "x,1.0,1,-0.5"}, "line 3: could not convert string to float: 'zero'"),
        ({1: "0,0.0,1,zero", 3: "0,1.0,1"}, "line 3: could not convert string to float: 'zero'"),
    ],
    ids=[
        "non-numeric", "short", "negative", "gap", "duplicate", "missing",
        "bad-value-before-bad-path", "non-numeric-before-short",
    ],
)
def test_csv_reader_names_what_is_malformed(tmp_path, edits, message):
    rows = [edits.get(i, row) for i, row in enumerate(_CSV_ROWS)]
    target = tmp_path / "ens.csv"
    target.write_text(_CSV_HEADER + "".join(f"{row}\n" for row in rows if row is not None))
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        read_ensemble_csv(target)


def _cell_by_cell(header: list, rows) -> str:
    """The CSV text of rows written one cell at a time through _format_cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_cell(x) for x in row] for row in rows)
    return buf.getvalue()


def _ensemble_rows(ens):
    return ([p, ens.grid.times[i], j, v] for (p, i, j), v in np.ndenumerate(ens.values))


def _curve_rows(curve):
    times, offsets = curve.grid.times, curve.offsets
    return (
        [p, times[i], times[i] + offsets[j], v] for (p, i, j), v in np.ndenumerate(curve.values)
    )


# each format's writer, header and rows built cell by cell
_FORMATS = {
    "ensemble": (write_ensemble_csv, ["path", "t", "component", "value"], _ensemble_rows),
    "curve": (write_term_structure_csv, ["path", "t", "s", "P"], _curve_rows),
}
# signed zeros, subnormals and the ends of the double range
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e300, -1e300, 0.1, 1 / 3]


def _writer_matches_cell_by_cell(name: str, obj) -> None:
    write, header, rows = _FORMATS[name]
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out.csv")
        write(target, obj)
        with open(target, newline="") as fh:
            text = fh.read()
    assert text == _cell_by_cell(header, rows(obj))


@st.composite
def _csv_objects(draw):
    """An ensemble or a term structure; its row count falls anywhere around
    the edges of the writer's chunks."""
    grid = draw(_grids)
    n_paths = draw(st.integers(1, 6))
    if draw(st.booleans()):
        shape = (n_paths, grid.n_times, draw(st.integers(1, 3)))
        cells = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
        return "ensemble", PathEnsemble(grid, draw(arrays(np.float64, shape, elements=cells)))
    h = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4, unique=True))
    offsets = np.array([0.0, *sorted(h)])
    shape = (n_paths, grid.n_times, offsets.size)
    positive = [x for x in _EDGE_FLOATS if x > 0]
    cells = st.sampled_from(positive) | st.floats(5e-324, 1e300)
    values = draw(arrays(np.float64, shape, elements=cells))
    values[:, :, 0] = 1.0
    return "curve", TermStructureSurface(grid, offsets, values)


@settings(max_examples=80, deadline=None)
@given(_csv_objects(), st.integers(1, 12))
def test_csv_writers_match_the_cell_by_cell_rows(obj, chunk):
    with mock.patch.object(curvarb.paths, "_PATH_BLOCK", chunk):
        _writer_matches_cell_by_cell(*obj)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_csv_writer_at_the_chunk_edge(extra):
    # two rows per path: _PATH_BLOCK // 2 paths fill one chunk exactly
    grid = TimeGrid(np.array([0.0, 0.5]))
    n_paths = _PATH_BLOCK // 2 + extra
    values = np.resize(np.array(_EDGE_FLOATS), (n_paths, 2, 1))
    _writer_matches_cell_by_cell("ensemble", PathEnsemble(grid, values))


# cells that neither int nor float parses
_NOT_NUMBERS = ["", "x", "half", "0x1", "1.2.3", "--1", "1e"]


@settings(max_examples=25, deadline=None)
@given(_csv_objects(), st.data())
def test_csv_readers_name_the_line_of_a_corrupted_cell(obj, data):
    name, value = obj
    write, read = {
        "ensemble": (write_ensemble_csv, read_ensemble_csv),
        "curve": (write_term_structure_csv, read_term_structure_csv),
    }[name]
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "in.csv")
        write(target, value)
        with open(target, newline="") as fh:
            lines = fh.read().splitlines()
        row = data.draw(st.integers(1, len(lines) - 1), label="row")
        cells = lines[row].split(",")
        col = data.draw(st.integers(0, len(cells) - 1), label="cell")
        bad = data.draw(st.sampled_from(_NOT_NUMBERS) | st.none(), label="replacement")
        if bad is None:
            del cells[col]  # drop the cell
        else:
            cells[col] = bad
        lines[row] = ",".join(cells)
        with open(target, "w", newline="") as fh:
            fh.write("".join(f"{line}\n" for line in lines))
        # lines[0] is the header, line 1 of the file
        with pytest.raises(ConfigurationError, match=rf"CSV line {row + 1}: "):
            read(target)


def test_truncated_binary_rejected(tmp_path):
    grid = TimeGrid.regular(1.0, 2)
    w = simulate_brownian(grid, 3, seed=6)
    target = tmp_path / "ens.bin"
    write_ensemble(target, w)
    data = target.read_bytes()
    target.write_bytes(data[:-8])
    with pytest.raises(ConfigurationError):
        read_ensemble(target)


@pytest.mark.parametrize(
    "first, tail, message",
    [
        (np.nan, b"", "not three whole counts"),
        (np.inf, b"", "not three whole counts"),
        (2.5, b"", "not three whole counts"),
        (1e300, b"", r"\[1e\+300, 3\.0, 1\.0\] is not three whole counts"),
        (3.0, b"\x00\x00\x00", "needs 120 bytes; the file holds 123"),
    ],
    ids=["nan", "inf", "fractional", "huge", "stray_bytes"],
)
def test_malformed_binary_header_rejected(tmp_path, first, tail, message):
    # 3 paths on 3 times in one dimension: 3 + 3 + 9 floats, 120 bytes
    target = tmp_path / "ens.bin"
    write_ensemble(target, simulate_brownian(TimeGrid.regular(1.0, 2), 3, seed=6))
    data = bytearray(target.read_bytes())
    data[:8] = np.float64(first).tobytes()
    target.write_bytes(bytes(data) + tail)
    with pytest.raises(ConfigurationError, match=message) as info:
        read_ensemble(target)
    assert len(str(info.value)) < 200


# Every internal path family integrates keyed increments through paths._integrate
# without building a driver ensemble; the public pair is the reference for each.
_ROUTE_GRID = TimeGrid.regular(2.0, 20)
_ROUTE_PATHS = 2500  # more than one _PATH_BLOCK
_ROUTE_SEED = 17
_EQUITY_SPECS = {
    "geometric": ItoSpec(x0=1.0, drift=0.02, sigma=0.3, form="geometric"),
    "arithmetic": ItoSpec(x0=1.0, drift=0.0, sigma=0.4, form="arithmetic"),
}


def _public_pair(spec, dim, tag, n=_ROUTE_PATHS, grid=_ROUTE_GRID) -> np.ndarray:
    return simulate_ito(spec, simulate_brownian(grid, n, dim, _ROUTE_SEED, tag)).values


def _equity_route(form):
    spec = _EQUITY_SPECS[form]
    # the equity route of simulate_default
    equity = StructuralModel(spec, 0.5).equity
    blocks = _ito_blocks(equity, _ROUTE_GRID, _ROUTE_PATHS, _ROUTE_SEED, TAG_DRIVER)
    internal = np.concatenate([e.copy() for _, e in blocks])  # each block overwrites the last
    return internal, _public_pair(spec, 1, TAG_DRIVER)


def _two_driver_route():
    # one state driven by two Brownian components
    spec = ItoSpec(x0=0.05, drift=0.01, sigma=np.array([[0.02, 0.03]]))
    internal = _ito_rows(spec, _ROUTE_GRID, _ROUTE_PATHS, _ROUTE_SEED, TAG_SHARPE)
    return internal, _public_pair(spec, 2, TAG_SHARPE)


def _row_range_route():
    # a range of paths that starts inside a stream block, read one path
    # block at a time: most blocks then start inside a stream block too
    spec = ItoSpec(x0=0.4, drift=0.0, sigma=0.5)
    rows = range(100, _ROUTE_PATHS - 3)
    internal = np.concatenate(
        [
            _integrate(spec, _ROUTE_GRID, _brownian_rows(_ROUTE_GRID, rows[b], 1, _ROUTE_SEED, TAG_DRIVER))
            for b in _path_slices(len(rows))
        ]
    )
    return internal, _public_pair(spec, 1, TAG_DRIVER)[rows.start : rows.stop]


def _cli_asset_route():
    assets = [
        {"label": "a", "x0": 1.0, "drift": 0.03, "sigma": 0.2, "rate": 0.0},
        {"label": "b", "x0": 2.0, "drift": 0.0, "sigma": 0.4, "form": "arithmetic", "rate": 0.0},
    ]
    doc = {
        "grid": {"horizon": _ROUTE_GRID.horizon, "steps": _ROUTE_GRID.n_times - 1},
        "seed": _ROUTE_SEED,
        "n_paths": _ROUTE_PATHS,
        "assets": assets,
    }
    internal = np.stack([g.deflator.values for g in curvarb.cli._asset_gauges(doc)])
    specs = [  # an asset without "form" is geometric
        ItoSpec(x0=1.0, drift=0.03, sigma=0.2, form="geometric"),
        ItoSpec(x0=2.0, drift=0.0, sigma=0.4, form="arithmetic"),
    ]
    tags = TAG_ASSET_BASE + np.arange(len(specs))
    return internal, np.stack([_public_pair(s, 1, int(tag)) for s, tag in zip(specs, tags)])


_ROUTES = {
    **{f"equity-{form}": (lambda form=form: _equity_route(form)) for form in _EQUITY_SPECS},
    "ito-rows-2d-driver": _two_driver_route,
    "brownian-rows-mid-block-range": _row_range_route,
    "cli-asset-deflators": _cli_asset_route,
}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_internal_routes_equal_the_public_pair(route):
    internal, public = _ROUTES[route]()
    assert internal.shape == public.shape
    assert internal.tobytes() == public.tobytes()


@pytest.mark.parametrize("route", list(_ROUTES))
def test_internal_routes_equal_the_public_pair_across_small_blocks(monkeypatch, route):
    # blocks of 97 paths: every route crosses block edges, and the last
    # block is short
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", 97)
    test_internal_routes_equal_the_public_pair(route)


@pytest.mark.bitexact
@pytest.mark.parametrize("n", [97, 250, 300])
def test_ito_blocks_reuse_one_buffer_without_stale_rows(monkeypatch, n):
    # blocks of 97 paths, the last one 97, 56 or 9 rows long
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", 97)
    spec = _EQUITY_SPECS["geometric"]
    public = _public_pair(spec, 1, TAG_DRIVER, n=n)
    first = None
    for b, (rows, x) in zip(_path_slices(n), _ito_blocks(spec, _ROUTE_GRID, n, _ROUTE_SEED, TAG_DRIVER)):
        first = x if first is None else first
        # every block's paths head the first block's array
        assert x.base is first.base and x.__array_interface__["data"] == first.__array_interface__["data"]
        assert x.shape == (len(rows), _ROUTE_GRID.n_times, 1)
        assert x.tobytes() == public[b].tobytes()


def _bridged_reference(model, grid, n, seed):
    """Bridged structural default times, step by step from the public
    equity paths and the reference bridge uniforms, by the formula of
    simulate_default: a step crosses when it ends at or below the barrier,
    or when both ends lie above it and u < exp(-2 g(a) g(c) / (sigma^2 dt)),
    g the gap to the barrier, on the log scale for the geometric form."""
    spec, b = model.equity, model.barrier
    e = simulate_ito(spec, simulate_brownian(grid, n, 1, seed, TAG_DRIVER)).series
    m = grid.n_times - 1
    u = reference_rows(seed, TAG_BRIDGE, range(n), (m,), "random")
    crossed = np.zeros((n, m), dtype=bool)
    for i in range(m):
        a, c = e[:, i].copy(), e[:, i + 1].copy()
        sig = spec.sigma[0, 0]
        valid = (a > b) & (c > b)
        with np.errstate(invalid="ignore", divide="ignore"):
            if spec.form == "geometric":
                expo = -2.0 * np.log(a / b) * np.log(c / b) / (sig**2 * grid.steps[i])
            else:
                expo = -2.0 * (a - b) * (c - b) / (sig**2 * grid.steps[i])
        crossed[:, i] = (c <= b) | (valid & (u[:, i] < np.exp(np.where(valid, expo, -np.inf))))
    tau = np.full(n, np.inf)
    hit = crossed.any(axis=1)
    tau[hit] = grid.times[np.argmax(crossed[hit], axis=1) + 1]
    return tau


@pytest.mark.bitexact
@pytest.mark.parametrize("block", [97, _PATH_BLOCK])
@pytest.mark.parametrize("form", sorted(_EQUITY_SPECS))
def test_bridged_defaults_match_the_per_step_reference(monkeypatch, form, block):
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", block)
    # the barrier crosses the equity's range: paths hit, paths stay above,
    # and the bridge term decides many steps
    model = StructuralModel(_EQUITY_SPECS[form], 0.8)
    tau = simulate_default(model, _ROUTE_GRID, 600, _ROUTE_SEED, bridge=True).tau
    ref = _bridged_reference(model, _ROUTE_GRID, 600, _ROUTE_SEED)
    plain = simulate_default(model, _ROUTE_GRID, 600, _ROUTE_SEED).tau
    assert 50 < np.isfinite(tau).sum() < 550 and (tau < plain).sum() > 10
    assert tau.tobytes() == ref.tobytes()


def test_ito_rows_numerical_error_names_the_paths_own_index(monkeypatch):
    monkeypatch.setattr(curvarb.paths, "_PATH_BLOCK", 97)
    grid = TimeGrid.regular(1.0, 10)
    # 0.4 + 6e307 W overflows once |W| passes about 3, on few paths
    kw = dict(x0=0.4, drift=0.0, sigma=6e307, form="arithmetic")
    dw = simulate_brownian(grid, 600, 1, 8, TAG_DRIVER).driver_increments
    over = ~np.isfinite(reference_paths(**kw, steps=grid.steps, dw=dw)[:, :, 0])
    # at seed 8 the first overflow lies past the first block, so its row in
    # its block is not its path index
    first = int(np.argmax(over.any(axis=1)))
    assert first >= 97 and over[first].any()  # outside the first block
    with pytest.raises(NumericalError) as err:
        _ito_rows(ItoSpec(**kw), grid, 600, 8, TAG_DRIVER)
    assert err.value.diagnostics["path"] == first
    assert err.value.diagnostics["step"] == int(np.argmax(over[first]))


def test_ito_rows_hold_little_beyond_their_output():
    grid = TimeGrid.regular(1.0, 100)
    n = 40_000
    spec = ItoSpec(x0=0.4, drift=0.0, sigma=0.5)
    _ito_rows(spec, grid, 10, 3, TAG_DRIVER)  # lazy imports happen outside the count
    tracemalloc.start()
    try:
        _ito_rows(spec, grid, n, 3, TAG_DRIVER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # bytes of one (n, n_times) path family, the output
    assert peak < 2.5 * n * grid.n_times * 8


def test_only_paths_draws_blocks_and_integrates_ito_paths():
    # every other module reaches keyed increments through _ito_blocks / _ito_rows
    owned = re.compile(r"\b(_brownian_rows|_integrate|_PATH_BLOCK)\b")
    src = os.path.dirname(curvarb.paths.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "paths.py":
            with open(os.path.join(src, name)) as fh:
                offenders += [name] if owned.search(fh.read()) else []
    assert offenders == []


def test_only_paths_forms_stream_keys_and_defines_tags():
    # key layout, draw methods and tags live in paths alone
    owned = re.compile(r"<< 48|np\.random\.Generator\.\w|^\s*\w*TAG_\w*\s*=", re.M)
    src = os.path.dirname(curvarb.paths.__file__)
    offenders = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "paths.py":
            with open(os.path.join(src, name)) as fh:
                offenders += [name] if owned.search(fh.read()) else []
    assert offenders == []


# ---------------------------------------------------------------------------
# The record contract every specification and result type shares


def test_records_refuse_assignment_and_deletion():
    grid = TimeGrid.regular(1.0, 4)
    with pytest.raises(AttributeError):
        grid.times = np.zeros(5)
    with pytest.raises(AttributeError):
        grid.label = "new"
    with pytest.raises(AttributeError):
        del grid.times
    assert grid.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_records_compare_and_hash_by_identity():
    a, b = ItoSpec(1.0), ItoSpec(1.0)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_records_bind_positional_keyword_and_default_fields():
    by_position = ItoSpec(1.0, 0.1, 0.2, "geometric")
    by_keyword = ItoSpec(form="geometric", sigma=0.2, drift=0.1, x0=1.0)
    for spec in (by_position, by_keyword):
        assert (spec.x0.tolist(), spec.drift.tolist(), spec.sigma.tolist(), spec.form) == (
            [1.0], [0.1], [[0.2]], "geometric"
        )
    default = ItoSpec(2.0)
    assert (default.drift.tolist(), default.sigma.tolist(), default.form) == ([0.0], [[0.0]], "arithmetic")
    assert list(vars(default)) == ["x0", "drift", "sigma", "form"]
    # the fields as __post_init__ normalized them
    assert repr(default) == (
        "ItoSpec(x0=array([2.]), drift=array([0.]), sigma=array([[0.]]), form='arithmetic')"
    )


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),  # x0 missing
        ((1.0,), {"bogus": 0.0}),  # no such field
        ((1.0,), {"x0": 2.0}),  # x0 twice
        ((1.0, 0.0, 0.0, "arithmetic", 0.0), {}),  # one positional too many
    ],
    ids=["missing", "unknown", "repeated", "too-many"],
)
def test_records_reject_a_missing_unknown_or_repeated_field(args, kwargs):
    with pytest.raises(TypeError):
        ItoSpec(*args, **kwargs)


def test_replace_rebuilds_through_post_init():
    spec = ItoSpec(1.0, sigma=0.3)
    moved = replace(spec, x0=2.0)
    assert type(moved) is ItoSpec and moved is not spec
    assert moved.x0.tolist() == [2.0] and moved.sigma == 0.3  # x0 normalized again
    assert spec.x0.tolist() == [1.0]
    with pytest.raises(ConfigurationError):
        replace(ItoSpec(1.0), form="bogus")
    with pytest.raises(TypeError):
        replace(spec, bogus=0.0)


def test_cached_property_is_built_once_per_record():
    market = build_thm1_market(0.02, 0.4, n_paths=10)
    assert market.corp is market.corp
    assert replace(market).corp is not market.corp  # a rebuilt record builds its own
