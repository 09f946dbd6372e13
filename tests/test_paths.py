"""Distributional and exactness checks for path simulation and estimators.

Oracles used here are closed forms: Gaussian marginals for Brownian motion,
the lognormal solution for constant-coefficient geometric dynamics, and exact
conditional expectations for difference quotients of Brownian motion
(E[(W_t - W_{t-h})/h | W_t = q] = q/t for any step h).
"""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curvarb import (
    ConfigurationError,
    DomainError,
    EstimationError,
    ItoSpec,
    NumericalError,
    PathEnsemble,
    TimeGrid,
    martingale_residual,
    nelson_derivative,
    path_rng,
    read_ensemble,
    read_ensemble_csv,
    realized_covariation,
    simulate_brownian,
    simulate_ito,
    write_ensemble,
    write_ensemble_csv,
)
from curvarb.paths import _keyed_rows


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


def test_brownian_marginals_match_gaussian_law():
    grid = TimeGrid.regular(2.0, 8)
    n = 20000
    w = simulate_brownian(grid, n, dim=2, seed=11)
    for t in (0.5, 1.0, 2.0):
        x = w.at_time(t)
        se_mean = np.sqrt(t / n)
        assert np.all(np.abs(x.mean(axis=0)) < 3 * se_mean)
        # sample variance of N(0,t): SE ~ t * sqrt(2/n)
        assert np.all(np.abs(x.var(axis=0, ddof=1) - t) < 3 * t * np.sqrt(2.0 / n))
    # disjoint increments are uncorrelated
    a = w.at_time(1.0) - w.at_time(0.5)
    b = w.at_time(2.0) - w.at_time(1.5)
    corr = np.corrcoef(a[:, 0], b[:, 0])[0, 1]
    assert abs(corr) < 3 / np.sqrt(n)


def test_per_path_streams_are_order_independent():
    grid = TimeGrid.regular(1.0, 4)
    full = simulate_brownian(grid, 50, dim=1, seed=99)
    # regenerate one path in isolation with the same keyed stream
    z = path_rng(99, 37, tag=0).standard_normal((4, 1))
    w37 = np.concatenate([[0.0], np.cumsum(z[:, 0] * 0.5)])
    assert np.array_equal(full.series[37], w37)
    again = simulate_brownian(grid, 50, dim=1, seed=99)
    assert np.array_equal(full.values, again.values)
    other_tag = simulate_brownian(grid, 50, dim=1, seed=99, tag=3)
    assert not np.array_equal(full.values, other_tag.values)


KEYED_DRAWS = {
    "normal_block": (np.arange(30), (6, 2), lambda gen: gen.standard_normal((6, 2))),
    "exponential": (np.arange(30), (), lambda gen: gen.standard_exponential()),
    "uniform_row": (np.arange(30), (9,), lambda gen: gen.random(9)),
    # 32-bit draws read the half-word cache that a reset must clear
    "uniform_float32": (np.arange(30), (5,), lambda gen: gen.random(5, dtype=np.float32)),
    # a subset of paths in no particular order, like the defaulted rows
    "normal_subset": (
        np.array([41, 3, 17, 1 << 40, 9, 4]),
        (3,),
        lambda gen: gen.standard_normal(3),
    ),
}


@pytest.mark.parametrize("kind", sorted(KEYED_DRAWS))
@pytest.mark.parametrize("seed", [5, (1 << 63) + 11])
def test_batch_streams_match_path_rng_bit_for_bit(kind, seed):
    paths, shape, draw = KEYED_DRAWS[kind]
    batch = _keyed_rows(seed, 6, paths, shape, draw)
    single = np.array([draw(path_rng(seed, int(p), tag=6)) for p in paths], dtype=float)
    assert batch.shape == (paths.size, *shape)
    assert batch.tobytes() == single.tobytes()


def test_batch_streams_check_ranges_like_path_rng():
    draw = lambda gen: gen.random()  # noqa: E731
    for tag, paths in [(1 << 16, [0]), (-1, [0]), (0, [3, -1]), (0, [1 << 48, 2])]:
        with pytest.raises(ConfigurationError):
            _keyed_rows(1, tag, np.array(paths), (), draw)
        with pytest.raises(ConfigurationError):
            for p in paths:
                path_rng(1, p, tag)


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


def test_ito_output_carries_no_increments_and_cannot_drive():
    grid = TimeGrid.regular(1.0, 8)
    driver = simulate_brownian(grid, 50, seed=3)
    assert driver.driver_increments is not None
    spec = ItoSpec(x0=1.0, sigma=0.2, form="geometric")
    paths = simulate_ito(spec, driver)
    assert paths.driver_increments is None
    with pytest.raises(ConfigurationError, match="carries no increments"):
        simulate_ito(spec, paths)


def test_state_dependent_coefficients_are_fed_the_state():
    grid = TimeGrid.regular(1.0, 128)
    driver = simulate_brownian(grid, 4000, seed=21)
    # mean-reverting drift toward 0 keeps the mean below the driftless case
    spec = ItoSpec(x0=1.0, drift=lambda t, x: -2.0 * x, sigma=0.3, form="arithmetic")
    paths = simulate_ito(spec, driver)
    # E X_t = exp(-2t); Euler bias O(dt) is small on this grid
    assert abs(paths.at_time(1.0).mean() - np.exp(-2.0)) < 0.01


def test_covariation_of_brownian_recovers_time():
    grid = TimeGrid.regular(1.0, 50)
    w = simulate_brownian(grid, 4000, dim=2, seed=5)
    w0, w1 = w.component(0), w.component(1)
    same = realized_covariation(w0, w0)
    # <W,W>_1 = 1; total per path has variance ~ 2 dt
    se = same.total.std(ddof=1) / np.sqrt(same.total.size)
    assert abs(same.total.mean() - 1.0) < 3 * se
    cross = realized_covariation(w0, w1)
    se = cross.total.std(ddof=1) / np.sqrt(cross.total.size)
    assert abs(cross.total.mean()) < 3 * se


def test_covariation_takes_ensembles_only():
    grid = TimeGrid.regular(1.0, 4)
    w = simulate_brownian(grid, 10, seed=5)
    with pytest.raises(ConfigurationError):
        realized_covariation(w.series, w.series)
    with pytest.raises(ConfigurationError):
        realized_covariation(w, w.series)
    with pytest.raises(ConfigurationError):
        realized_covariation(simulate_brownian(grid, 10, dim=2, seed=5), w)


def test_derivative_modes_on_deterministic_path():
    grid = TimeGrid.regular(2.0, 200)
    t = grid.times
    values = np.tile((t**2)[None, :, None], (3, 1, 1))
    ens = PathEnsemble(grid, values)
    h = 0.01
    est_mean = nelson_derivative(ens, 1.0, mode="mean")(np.array([1.0]))
    est_fwd = nelson_derivative(ens, 1.0, mode="forward")(np.array([1.0]))
    est_bwd = nelson_derivative(ens, 1.0, mode="backward")(np.array([1.0]))
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


def test_analytic_conditioning_is_cross_path_mean():
    grid = TimeGrid.regular(1.0, 10)
    w = simulate_brownian(grid, 5000, seed=3)
    est = nelson_derivative(w, 0.5, mode="forward", conditioning="analytic")
    val, se, neff = est.evaluate(np.array([[123.0]]))  # state is ignored
    assert neff[0] == 5000
    assert abs(val[0, 0]) < 3 * se[0, 0] + 1e-12


def test_derivative_domain_and_markov_errors():
    grid = TimeGrid.regular(1.0, 4)
    w = simulate_brownian(grid, 10, seed=1)
    with pytest.raises(DomainError):
        nelson_derivative(w, 1.0, mode="mean")
    with pytest.raises(DomainError):
        nelson_derivative(w, 0.0, mode="backward")
    with pytest.raises(ConfigurationError):
        nelson_derivative(w, 0.5, markov=False)
    with pytest.raises(ConfigurationError):
        nelson_derivative(w, 0.5, mode="sideways")


def test_kernel_starvation_raises_with_diagnostics():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5]))
    w = simulate_brownian(grid, 200, seed=17)
    est = nelson_derivative(w, 1.0, mode="mean")
    with pytest.raises(EstimationError) as exc:
        est(np.array([50.0]))  # far outside the support of W_1
    assert "n_effective" in exc.value.diagnostics


def test_non_finite_values_are_rejected_with_location():
    grid = TimeGrid.regular(1.0, 2)
    values = np.zeros((4, 3, 1))
    values[2, 1, 0] = np.nan
    with pytest.raises(NumericalError) as exc:
        PathEnsemble(grid, values)
    assert exc.value.diagnostics["path"] == 2
    assert exc.value.diagnostics["step"] == 1


def test_martingale_residual_detects_drift_and_passes_driftless():
    grid = TimeGrid.regular(1.0, 20)
    driver = simulate_brownian(grid, 20000, seed=23)
    driftless = simulate_ito(ItoSpec(1.0, 0.0, 0.2, form="geometric"), driver)
    r0 = martingale_residual(driftless, 0.0, 1.0)
    assert abs(r0.residual) <= 3 * r0.se
    drifted = simulate_ito(ItoSpec(1.0, 0.05, 0.2, form="geometric"), driver)
    r1 = martingale_residual(drifted, 0.0, 1.0)
    # E Q_1 - Q_0 = e^0.05 - 1 = 0.0512711
    assert abs(r1.residual - 0.0512711) < 3 * r1.se
    assert r1.z > 3
    # conditional version at an interior date still sees the drift
    r2 = martingale_residual(drifted, 0.5, 1.0)
    assert r2.residual > 0


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
    ],
    ids=["non-numeric", "short", "negative", "gap", "duplicate", "missing"],
)
def test_csv_reader_names_what_is_malformed(tmp_path, edits, message):
    rows = [edits.get(i, row) for i, row in enumerate(_CSV_ROWS)]
    target = tmp_path / "ens.csv"
    target.write_text(_CSV_HEADER + "".join(f"{row}\n" for row in rows if row is not None))
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        read_ensemble_csv(target)


def test_truncated_binary_rejected(tmp_path):
    grid = TimeGrid.regular(1.0, 2)
    w = simulate_brownian(grid, 3, seed=6)
    target = tmp_path / "ens.bin"
    write_ensemble(target, w)
    data = target.read_bytes()
    target.write_bytes(data[:-8])
    with pytest.raises(ConfigurationError):
        read_ensemble(target)
