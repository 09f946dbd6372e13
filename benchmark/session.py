"""The ``library`` workload: one Python session over curvarb's public API.

It reaches what no bundled or generated CLI scenario calls: the gauge
transforms, structural and bridged defaults, the Nelson local-linear
estimator and the interchange formats.  Every result that must be
reproducible is written to ``session.json`` in the output directory, next
to the round-trip files, so the benchmark can compare bytes across runs.

Deterministic identities are checked here and reported under
``identities``; any False entry makes the operation fail.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import curvarb as cv

# criterion 1 of the package's acceptance suite allows this relative
# deviation between composed and convolved transforms
SEMIGROUP_RTOL = 1e-12
# maturity offsets read back from term-structure CSV (see _round_trips)
OFFSET_ATOL = 1e-12


def _digest(arr) -> str:
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return hashlib.sha256(a.tobytes()).hexdigest()[:16] + f"{a.shape}"


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _structural(p: dict, out: dict) -> None:
    sz, seed = p["sizes"], p["seed"]
    grid = cv.TimeGrid.regular(5.0, sz["structural_steps"])
    equity = cv.ItoSpec(x0=1.0, drift=0.0, sigma=0.2, form="geometric")
    model = cv.StructuralModel(equity, p["barrier"])
    plain = cv.simulate_default(model, grid, sz["structural_paths"], seed)
    bridged = cv.simulate_default(model, grid, sz["structural_paths"], seed, bridge=True)
    prob = cv.default_probability(
        model,
        1.0,
        5.0,
        n_paths=sz["structural_paths"],
        seed=seed,
        steps=sz["structural_steps"],
        bridge=True,
    )
    out["structural"] = {
        "defaults": int(plain.defaulted().sum()),
        "defaults_bridge": int(bridged.defaulted().sum()),
        "tau": _digest(bridged.tau),
        "p_bridge": [prob.value, prob.se, prob.n_used],
    }


def _intensity(p: dict, out: dict, ident: dict) -> None:
    sz, seed = p["sizes"], p["seed"]
    grid = cv.TimeGrid.regular(10.0, 40)
    sample = cv.simulate_default(cv.IntensityModel(p["lambda"]), grid, sz["intensity_paths"], seed)
    stat, pvalue, n_def = cv.cox_uniformity(sample)
    market = cv.build_thm1_market(
        p["lambda"], p["lgd"], horizon=10.0, steps=40, n_paths=sz["market_paths"], seed=seed
    )
    gauge = cv.credit_gauge(market)
    ident["credit_gauge_jump_deviation_zero"] = gauge.jump_deviation == 0.0
    out["intensity"] = {
        "cox": [stat, pvalue, n_def],
        "credit_gauge": [gauge.ratio_deviation, gauge.jump_deviation],
        "credit_deflator": _digest(gauge.deflator.values),
        "credit_short": _digest(gauge.short),
    }


def _nelson(p: dict, out: dict) -> cv.PathEnsemble:
    sz, seed = p["sizes"], p["seed"]
    grid = cv.TimeGrid.regular(5.0, 50)
    driver = cv.simulate_brownian(grid, sz["nelson_paths"], 1, seed, tag=40)
    ens = cv.simulate_ito(cv.ItoSpec(x0=1.0, drift=0.05, sigma=0.2, form="geometric"), driver)
    t = p["nelson_t"]
    est = cv.nelson_derivative(ens, t, mode="mean")
    states = np.quantile(ens.at_time(t)[:, 0], np.linspace(0.1, 0.9, sz["nelson_queries"]))
    mean, se, neff = est.evaluate(states[:, None])
    out["nelson"] = {"mean": _digest(mean), "se": _digest(se), "neff": _digest(neff)}
    return ens


def _gauges(p: dict, out: dict, ident: dict) -> cv.Gauge:
    sz, seed = p["sizes"], p["seed"]
    grid = cv.TimeGrid.regular(5.0, sz["gauge_steps"])
    offsets = 0.25 * np.arange(sz["gauge_offsets"])
    rng = np.random.default_rng(seed)
    gauges = []
    for j in range(3):
        forwards = 0.02 + 0.04 * rng.random((1, grid.n_times, offsets.size))
        curve = cv.term_structure_from_forwards(grid, offsets, forwards)
        driver = cv.simulate_brownian(grid, sz["gauge_paths"], 1, seed, tag=50 + j)
        spec = cv.ItoSpec(x0=1.0, drift=0.01 * j, sigma=0.1 + 0.05 * j, form="geometric")
        gauges.append(cv.Gauge(cv.simulate_ito(spec, driver), curve, f"g{j}"))
    nominals = np.asarray(p["nominals"])
    port = cv.portfolio_gauge(gauges, nominals)
    changed = cv.numeraire_change(gauges, 0)
    ident["numeraire_own_deflator_is_one"] = bool(np.all(changed[0].deflator.series == 1.0))
    a = cv.CashflowVector(0.25, np.array([0, 2, 4]), np.array([1.0, 0.5, 0.25]))
    b = cv.CashflowVector(0.25, np.array([0, 1, 3]), np.array([1.0, 0.3, 0.2]))
    composed = cv.gauge_transform(cv.gauge_transform(gauges[1], a), b)
    direct = cv.gauge_transform(gauges[1], cv.convolve(a, b))
    dev = max(
        _rel_dev(composed.deflator.series, direct.deflator.series),
        _rel_dev(composed.curve.values, direct.curve.values),
    )
    ident["transform_semigroup"] = dev <= SEMIGROUP_RTOL
    report = cv.self_financing_residual(gauges, nominals)
    out["gauges"] = {
        "portfolio_deflator": _digest(port.deflator.values),
        "portfolio_curve": _digest(port.curve.values),
        "numeraire": _digest(changed[2].deflator.values),
        "transform": _digest(direct.curve.values),
        "self_financing_worst": report.worst,
        "forwards": _digest(cv.forward_rates(gauges[0].curve)),
        "short": _digest(cv.short_rate(gauges[0].curve)),
    }
    return gauges[0]


def _round_trips(p: dict, ens: cv.PathEnsemble, gauge: cv.Gauge, out_dir: str, ident: dict):
    path = os.path.join(out_dir, "ensemble.bin")
    cv.write_ensemble(path, ens)
    back = cv.read_ensemble(path)
    ident["ensemble_binary_round_trip"] = bool(
        np.array_equal(back.values, ens.values) and np.array_equal(back.grid.times, ens.grid.times)
    )
    small = cv.PathEnsemble(ens.grid, ens.values[: p["sizes"]["csv_paths"]])
    path = os.path.join(out_dir, "ensemble.csv")
    cv.write_ensemble_csv(path, small)
    back = cv.read_ensemble_csv(path)
    ident["ensemble_csv_round_trip"] = bool(
        np.array_equal(back.values, small.values)
        and np.array_equal(back.grid.times, small.grid.times)
    )
    path = os.path.join(out_dir, "term_structure.csv")
    cv.write_term_structure_csv(path, gauge.curve)
    back = cv.read_term_structure_csv(path)
    # the format stores s = t + h, not h, so offsets come back as s - t
    # with rounding noise (8.9e-16 at seed 11); prices and dates are stored
    # exactly and must come back bit for bit
    ident["term_structure_csv_round_trip"] = bool(
        np.array_equal(back.values, gauge.curve.values)
        and np.array_equal(back.grid.times, gauge.curve.grid.times)
        and np.allclose(back.offsets, gauge.curve.offsets, rtol=0.0, atol=OFFSET_ATOL)
    )


def run(params: dict, out_dir: str) -> None:
    """Run the session and write ``session.json`` into ``out_dir``."""
    out: dict = {"workload": params["name"], "seed": params["seed"]}
    ident: dict = {}
    _structural(params, out)
    _intensity(params, out, ident)
    ens = _nelson(params, out)
    gauge = _gauges(params, out, ident)
    _round_trips(params, ens, gauge, out_dir, ident)
    out["identities"] = ident
    with open(os.path.join(out_dir, "session.json"), "w") as fh:
        fh.write(json.dumps(out, indent=1, sort_keys=True, allow_nan=False) + "\n")
