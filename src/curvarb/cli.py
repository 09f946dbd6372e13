"""Scenario runner and validator.

A scenario is a single JSON document naming the market ingredients (grid,
seeded ensembles, asset coefficients, credit construction) and the list of
analyses to run.  Results are written as CSV tables plus one summary.json.

Output is bit-reproducible: analyses run one after another, floats are
serialized with repr (shortest round-trip), rows are emitted in a fixed order,
and nothing derived from wall-clock time or filesystem state enters the files.

Exit codes: 0 all analyses passed, 1 at least one analysis failed its pass
criterion, 2 scenario/configuration problem, 3 numerical failure inside an
analysis.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import ConfigurationError, CurvarbError, DomainError, NumericalError
from .gauges import _OFFSET_LATTICE, Gauge, _in_span, flat_term_structure
from .paths import (
    RNG_STREAM_VERSION,
    TAG_ASSET_BASE,
    ItoSpec,
    PathEnsemble,
    TimeGrid,
    _check_lgd,
    _ito_rows,
    _kernel_on_grid,
    _se_gate,
    _write_csv,
)

# the analysis modules are imported by the functions that call them, so a
# run loads only the modules its analyses need
if TYPE_CHECKING:
    from .novikov import DensitySpec

ANALYSES = ("curvature", "kernel", "zc", "thm1", "bond", "novikov", "sharpe")
# the curvature gate: |norm| within _CURVATURE_GATE_SE standard errors, or
# _CURVATURE_GATE_ATOL for a norm with zero standard error
_CURVATURE_GATE_SE = 4.0
_CURVATURE_GATE_ATOL = 1e-10

OUTPUT_DIR_ENV = "CURVARB_OUTPUT_DIR"
# time steps of the sharpe section's grid when it names none
_SHARPE_STEPS = 256


# ---------------------------------------------------------------------------
# Deterministic serialization


def _csv(columns: dict) -> str:
    """CSV of named columns, each an array or a sequence, in their order."""
    buf = io.StringIO()
    _write_csv(buf, list(columns), columns.values())
    return buf.getvalue()


def _plain(obj):
    """Recursively convert the numpy scalars of a summary dict for json.dump.

    JSON has no literal for a non-finite float, so one is written as its
    repr ("inf", "-inf", "nan"), the spelling of the CSV cells.
    """
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    return obj


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Scenario loading and validation


def load_scenario(ref: str) -> dict:
    """Read a scenario from a file path, falling back to the bundled set."""
    try:
        if os.path.exists(ref):
            with open(ref) as fh:
                return json.load(fh)
        name = os.path.splitext(os.path.basename(ref))[0] + ".json"
        bundle = resources.files("curvarb.scenarios").joinpath(name)
        if bundle.is_file():
            return json.loads(bundle.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"cannot read scenario {ref!r}: {err}") from err
    raise ConfigurationError(f"scenario {ref!r} is neither a file nor bundled")


def bundled_scenarios() -> list:
    names = []
    for entry in resources.files("curvarb.scenarios").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return sorted(names)


def _is_number(x) -> bool:
    # finite and within float range; NaN fails the comparison
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _numbers(xs) -> bool:
    return bool(xs) and all(_is_number(x) for x in xs)


def _rows_ok(rows) -> bool:
    return bool(rows) and all(
        isinstance(r, list) and _numbers(r) and len(r) == len(rows[0]) for r in rows
    )


def _pairs_ok(pairs) -> bool:
    return _rows_ok(pairs) and all(len(p) == 2 and p[1] > p[0] >= 0 for p in pairs)


def _one_of(*choices) -> tuple:
    return (lambda s: s in choices, "must be one of " + ", ".join(choices))


_GT0 = (lambda x: x > 0, "must be > 0")
_GE0 = (lambda x: x >= 0, "must be >= 0")
_GE1 = (lambda x: x >= 1, "must be >= 1")
_GE2 = (lambda x: x >= 2, "must be >= 2")
_SEED = (lambda x: 0 <= x < 1 << 64, "must be a 64-bit stream key, 0 <= seed < 2**64")
_PAIRS = (_pairs_ok, "must be [t, s] pairs with s > t >= 0")
_NUMBERS = (_numbers, "must be a nonempty list of numbers")
_RATES = (lambda r: _numbers(r if isinstance(r, list) else [r]), "must be one or more numbers")
_FORM = _one_of("geometric", "arithmetic")
_LGD = (lambda x: not _fails(_check_lgd, x), "must be in [0, 1]")
# the name is one directory entry below the output root, never a path
_FILE_NAME = (
    lambda s: s not in ("", ".", "..") and not set(s) & {"/", "\\", "\0"},
    "must be one file-name component: nonempty, no path separator or NUL, not . or ..",
)

EVERY = None  # needed by every scenario, whatever it runs
OPTIONAL = frozenset()
ASSET_ANALYSES = frozenset({"curvature", "kernel"})
CREDIT_ANALYSES = frozenset({"thm1", "bond", "novikov"})

# field -> (type, (predicate, message) or None, analyses that need it).
# "[]" steps into each item of a list, and float admits any finite number.
# This lists every key a runner reads; validate_scenario rejects all others.
SCHEMA = {
    "name": (str, _FILE_NAME, EVERY),
    "grid.horizon": (float, _GT0, EVERY),
    "grid.steps": (int, _GE2, EVERY),
    "seed": (int, _SEED, EVERY),
    "analyses": (list, (len, "must name at least one analysis"), EVERY),
    "analyses[]": (str, _one_of(*ANALYSES), EVERY),
    "n_paths": (int, _GE2, ASSET_ANALYSES | CREDIT_ANALYSES),
    "offsets.step": (float, _GT0, ASSET_ANALYSES),
    "offsets.count": (int, _GE2, ASSET_ANALYSES),
    "assets": (list, (len, "must list at least one asset"), ASSET_ANALYSES),
    "assets[].label": (str, None, ASSET_ANALYSES),
    "assets[].x0": (float, _GT0, ASSET_ANALYSES),
    "assets[].drift": (float, None, ASSET_ANALYSES),
    "assets[].sigma": (float, _GE0, ASSET_ANALYSES),
    "assets[].form": (str, _FORM, OPTIONAL),
    "assets[].rate": (float, None, ASSET_ANALYSES),
    "kernel.rate": (float, None, {"kernel"}),
    "kernel.pairs": (list, _PAIRS, {"kernel"}),
    "zc.alpha": (list, _NUMBERS, {"zc"}),
    "zc.sigma": (list, (_rows_ok, "must be equal-length rows of numbers"), {"zc"}),
    "zc.rates": (None, _RATES, OPTIONAL),
    "credit.lambda": (float, _GT0, CREDIT_ANALYSES),
    "credit.lgd": (float, _LGD, CREDIT_ANALYSES),
    "credit.gov_rate": (float, None, OPTIONAL),
    "credit.spread_shift": (float, None, OPTIONAL),
    "thm1.pairs": (list, _PAIRS, {"thm1"}),
    "thm1.lambda_source": (str, _one_of("model", "simulated"), OPTIONAL),
    "thm1.window": (float, _GT0, OPTIONAL),
    "thm1.expect_detection": (bool, None, OPTIONAL),
    "price.pairs": (list, _PAIRS, {"bond"}),
    "price.expected": (list, _NUMBERS, OPTIONAL),
    "novikov.k": (int, _GE1, {"novikov"}),
    # both routes always run; "both" stays accepted because the benchmark's
    # novikov input writes it
    "novikov.mode": (str, _one_of("both"), OPTIONAL),
    "novikov.lgd_rule": (str, _one_of("constant", "capped"), OPTIONAL),
    "novikov.cap": (float, _GT0, OPTIONAL),
    "novikov.expect": (str, _one_of("divergent", "finite", "match"), OPTIONAL),
    "sharpe.x0": (float, _GT0, {"sharpe"}),
    "sharpe.drift": (float, None, {"sharpe"}),
    "sharpe.sigma": (float, _GT0, {"sharpe"}),
    "sharpe.form": (str, _FORM, OPTIONAL),
    "sharpe.x": (list, (lambda x: len(x) == 1 and _numbers(x), "must be one number"), {"sharpe"}),
    "sharpe.horizon": (float, _GT0, {"sharpe"}),
    "sharpe.n_paths": (int, _GE1, OPTIONAL),
    "sharpe.steps": (int, _GE1, OPTIONAL),
    "sharpe.expected": (float, None, OPTIONAL),
    "sharpe.rtol": (float, _GE0, OPTIONAL),
}
# objects that hold SCHEMA fields, such as "grid" and each item of "assets"
_SECTIONS = {f[:i] for f in SCHEMA for i, c in enumerate(f) if c == "."}


def _has_type(x, kind) -> bool:
    if kind is float:
        return _is_number(x)
    return kind is None or isinstance(x, kind) and (kind is bool or not isinstance(x, bool))


def _check_value(field: str, name: str, value, wanted: set, v: list) -> None:
    """Check a value found at the SCHEMA path ``field``, shown as ``name``."""
    if field in _SECTIONS:
        if isinstance(value, dict):
            _check_object(value, field, name, wanted, v)
        else:
            v.append((name, "expected object"))
    elif field not in SCHEMA:
        v.append((name, "unknown key"))
    elif not _has_type(value, SCHEMA[field][0]):
        v.append((name, f"expected {SCHEMA[field][0].__name__}"))
    elif SCHEMA[field][1] is not None and not SCHEMA[field][1][0](value):
        v.append((name, SCHEMA[field][1][1]))
    elif field + "[]" in SCHEMA or field + "[]" in _SECTIONS:
        for i, item in enumerate(value):
            _check_value(field + "[]", f"{name}[{i}]", item, wanted, v)


def _check_object(node: dict, pattern: str, shown: str, wanted: set, v: list) -> None:
    """Check each key of one object, and that it holds every field the wanted
    analyses need; ``pattern`` is its SCHEMA path, "" for the document."""
    prefix = pattern + "." if pattern else ""
    for key, value in node.items():
        _check_value(prefix + key, f"{shown}.{key}" if shown else key, value, wanted, v)
    for field, (_, _, needed_by) in SCHEMA.items():
        rest = field[len(prefix) :]
        # the fields of a present section or of list items are left to their own call
        if field.startswith(prefix) and "[]" not in rest and rest.split(".")[0] not in node:
            if needed_by is EVERY or wanted & needed_by:
                v.append((f"{shown}.{rest}" if shown else rest, "missing"))


def _check_across(doc: dict, v: list) -> None:
    """Checks between well-formed fields: lengths that must agree, and the
    pair dates against the grid and the offset lattice."""
    labels = [a["label"] for a in doc.get("assets", [])]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            v.append((f"assets[{i}].label", "duplicate label"))
    same_len = [("price", "expected", "pairs"), ("zc", "sigma", "alpha"), ("zc", "rates", "alpha")]
    for section, key, ref in same_len:
        node = doc.get(section, {})
        if isinstance(node.get(key), list) and len(node[key]) != len(node.get(ref, [])):
            v.append((f"{section}.{key}", f"must hold one entry per entry of {section}.{ref}"))
    grid, span = _grid(doc), _offsets(doc)[-1]
    # the simulated hazard needs [t, t + window] inside the grid for some t
    if doc.get("thm1", {}).get("lambda_source") == "simulated":
        from .credit import _window_inside

        if not _window_inside(_window(doc), grid.horizon):
            v.append(("thm1.window", "must not exceed grid.horizon"))
    # kernel reads the state at t and at s, thm1 at t only; both price (t, s)
    # off the offset lattice, within its tolerance
    for section, dates in (("kernel", "ts"), ("thm1", "t")):
        for i, (t, s) in enumerate(doc.get(section, {}).get("pairs", [])):
            field = f"{section}.pairs[{i}]"
            for d, x in zip(dates, (t, s)):
                try:
                    grid.index_of(x)
                except DomainError:
                    v.append((field, f"{d} = {x} is not a grid node"))
            if not _in_span(s - t, span):
                v.append((field, f"s - t = {s - t} exceeds the offset span {span}"))
    # thm1 and bond read the default sample up to s, which ends at the horizon
    for section in ("thm1", "price"):
        for i, (_, s) in enumerate(doc.get(section, {}).get("pairs", [])):
            from .credit import _past_horizon

            if _past_horizon(s, grid.horizon):
                v.append((f"{section}.pairs[{i}]", f"s = {s} exceeds grid.horizon {grid.horizon}"))


def _check_grids(doc: dict, wanted: set, v: list) -> None:
    """Build the time grids of a run; a horizon so small that its times
    coincide is reported against its field."""
    grids = {"grid.horizon": (doc["grid"]["horizon"], doc["grid"]["steps"])}
    if "sharpe" in wanted:
        sharpe = doc["sharpe"]
        grids["sharpe.horizon"] = (sharpe["horizon"], sharpe.get("steps", _SHARPE_STEPS))
    for field, (horizon, steps) in grids.items():
        message = _fails(TimeGrid.regular, float(horizon), int(steps))
        if message is not None:
            v.append((field, message))


def _fails(build, *args, **kwargs) -> str | None:
    """The message of the ConfigurationError that ``build`` raises, or None."""
    try:
        build(*args, **kwargs)
    except ConfigurationError as err:
        return str(err)
    return None


# a piece that overflows is rejected, not warned about
@np.errstate(all="ignore")
def _check_builds(doc: dict, wanted: set, v: list) -> None:
    """Build the deterministic pieces of a run, which draw no paths, with the
    run's own helpers, and report each ConfigurationError against its field."""
    grid, offsets = _grid(doc), _offsets(doc)
    inputs = {key for key, (_, readers) in _SHARED_INPUTS.items() if readers & wanted}
    if inputs and not np.isfinite(offsets[-1]):
        # every curve build would reject the inf under its own field's name
        v.append(("offsets.step", "the offset lattice overflows: step * (count - 1) is inf"))
        return
    pieces = []  # (field, build, args)
    if "gauges" in inputs:
        for i, a in enumerate(doc["assets"]):
            curve = (grid, float(a["rate"]), offsets)
            pieces.append((f"assets[{i}].rate", flat_term_structure, curve))
    if "kernel" in wanted:
        pieces.append(("kernel.rate", _kernel_on_grid, (_beta(doc), grid)))
    if "novikov" in wanted:
        pieces.append(("credit.lambda", _density_spec, (doc,)))
    for field, build, args in pieces:
        message = _fails(build, *args)
        if message is not None:
            v.append((field, message))
    if "market" not in inputs:
        return
    from .credit import _thm1_curves

    message = _fails(_thm1_curves, grid, offsets, **_credit_params(doc))
    if message:
        # the credit curves mix every credit field: name the first of
        # spread_shift and gov_rate whose reset to 0, with those before it,
        # lets them build, and else lambda
        reset, field = {}, "credit.lambda"
        for key in ("spread_shift", "gov_rate"):
            reset[key] = 0.0
            if _fails(_thm1_curves, grid, offsets, **_credit_params(doc, reset)) is None:
                field = f"credit.{key}"
                break
        v.append((field, message))


def validate_scenario(doc: dict) -> list:
    """Check a scenario against SCHEMA, then build the deterministic pieces
    a run builds; returns a list of {field, message} violations, empty when
    ``run`` can read everything it needs."""
    if not isinstance(doc, dict):
        return [{"field": "", "message": "scenario must be a JSON object"}]
    v: list = []  # (field, message)
    analyses = doc.get("analyses")
    wanted = {a for a in analyses if a in ANALYSES} if isinstance(analyses, list) else set()
    _check_object(doc, "", "", wanted, v)
    if not v:
        _check_grids(doc, wanted, v)
    if not v:
        _check_across(doc, v)
    if not v:
        _check_builds(doc, wanted, v)
    return [{"field": field, "message": message} for field, message in v]


# ---------------------------------------------------------------------------
# Shared inputs, each built once per run


def _grid(doc) -> TimeGrid:
    return TimeGrid.regular(float(doc["grid"]["horizon"]), int(doc["grid"]["steps"]))


# a lattice that overflows holds inf, which the term-structure builds reject
@np.errstate(over="ignore")
def _offsets(doc) -> np.ndarray:
    spec, (step, count) = doc.get("offsets", {}), _OFFSET_LATTICE
    return float(spec.get("step", step)) * np.arange(int(spec.get("count", count)))


def _spec(section) -> ItoSpec:
    """The ItoSpec of an asset or of the sharpe section."""
    return ItoSpec(
        x0=float(section["x0"]),
        drift=float(section["drift"]),
        sigma=float(section["sigma"]),
        form=section.get("form", "geometric"),
    )


def _asset_gauges(doc) -> list:
    """One gauge per asset; each deflator is filled one block of paths at a
    time (paths._ito_rows), so only one block of increments exists at once."""
    grid = _grid(doc)
    offsets = _offsets(doc)
    n_paths, seed = int(doc["n_paths"]), int(doc["seed"])
    gauges = []
    for j, a in enumerate(doc["assets"]):
        deflator = PathEnsemble(grid, _ito_rows(_spec(a), grid, n_paths, seed, TAG_ASSET_BASE + j))
        gauges.append(
            Gauge(deflator, flat_term_structure(grid, float(a["rate"]), offsets), a["label"])
        )
    return gauges


def _credit_params(doc, reset=None) -> dict:
    """The credit arguments of build_thm1_market and _thm1_curves, with the
    fields named in ``reset`` replaced."""
    c = {**doc["credit"], **(reset or {})}
    return {
        "lam": float(c["lambda"]),
        "lgd_value": float(c["lgd"]),
        "gov_rate": float(c.get("gov_rate", 0.0)),
        "spread_shift": float(c.get("spread_shift", 0.0)),
    }


def _credit_market(doc):
    from .credit import build_thm1_market

    offsets = _offsets(doc)
    return build_thm1_market(
        **_credit_params(doc),
        horizon=float(doc["grid"]["horizon"]),
        steps=int(doc["grid"]["steps"]),
        n_offsets=offsets.size,
        offset_step=float(offsets[1]),  # the lattice starts at 0
        n_paths=int(doc["n_paths"]),
        seed=int(doc["seed"]),
    )


def _beta(doc) -> np.ndarray:
    """The kernel section's deterministic pricing kernel on the grid."""
    return np.exp(-float(doc["kernel"]["rate"]) * _grid(doc).times)


def _window(doc) -> float:
    """The simulated hazard's window: thm1.window, 1.0 by default."""
    return float(doc["thm1"].get("window", 1.0))


def _stress_rule(doc, capped_rule):
    """capped_rule(novikov.cap, 0.1 by default) if novikov.lgd_rule is capped, else None."""
    section = doc["novikov"]
    capped = section.get("lgd_rule", "constant") == "capped"
    return capped_rule(float(section.get("cap", 0.1))) if capped else None


def _density_spec(doc) -> DensitySpec:
    """The closed-form scenery of the Novikov quadrature route."""
    from .novikov import DensitySpec, capped_lgd_tq

    credit, section = doc["credit"], doc["novikov"]
    rule = _stress_rule(doc, capped_lgd_tq)
    lgd = {"lgd_value": float(credit["lgd"])} if rule is None else {"lgd_given_tq": rule}
    return DensitySpec.truncated_exponential(
        float(credit["lambda"]), horizon=float(doc["grid"]["horizon"]), k=int(section["k"]), **lgd
    )


# shared input -> (builder, the analyses that read it)
_SHARED_INPUTS = {
    "gauges": (_asset_gauges, ASSET_ANALYSES),
    "market": (_credit_market, CREDIT_ANALYSES),
}


# ---------------------------------------------------------------------------
# Analyses: each reads (doc, built inputs) and returns (files, summary,
# checks); checks are booleans or boolean arrays, and the analysis passes
# where every one holds everywhere


def _run_curvature(doc, built):
    from .curvature import curvature_components

    report = curvature_components(built["gauges"])
    columns = {"t": report.times}
    for lab, a, se in zip(report.labels, report.components, report.component_se):
        columns[f"a_{lab}"], columns[f"se_{lab}"] = a, se
    columns.update(norm=report.norm, norm_se=report.norm_se, weighted_std=report.weighted_std)
    check = _se_gate(report.norm, report.norm_se, _CURVATURE_GATE_SE, _CURVATURE_GATE_ATOL)[1]
    summary = {"max_norm": report.max_norm, "max_norm_se": float(report.norm_se.max())}
    return {"curvature.csv": _csv(columns)}, summary, (check,)


def _run_kernel(doc, built):
    from .curvature import kernel_check

    pairs = [tuple(p) for p in doc["kernel"]["pairs"]]
    report = kernel_check(built["gauges"], _beta(doc), pairs)
    table, worst = report.table, report.worst
    summary = {"worst_residual": table["residual"][worst], "worst_label": table["label"][worst]}
    return {"kernel.csv": _csv(table)}, summary, (table["passed"],)


def _run_zc(doc, built):
    from .curvature import zc_residual

    z = doc["zc"]
    report = zc_residual(
        np.asarray(z["alpha"], dtype=np.float64),
        np.asarray(z["sigma"], dtype=np.float64),
        rates=np.asarray(z.get("rates", 0.0), dtype=np.float64),
    )
    columns = {"t": report.times, "residual": report.residual, "threshold": report.threshold}
    columns.update({f"mpr_{i}": theta for i, theta in enumerate(report.mpr.T)})
    columns["passed"] = report.passed
    return {"zc.csv": _csv(columns)}, {"max_residual": report.max_residual}, (report.passed,)


def _run_thm1(doc, built):
    from .credit import thm1_residuals

    section = doc["thm1"]
    report = thm1_residuals(
        built["market"],
        section["pairs"],
        lambda_source=section.get("lambda_source", "model"),
        window=_window(doc),
    )
    spread, bond = report.spread, report.bond
    files = {"thm1_spread.csv": _csv(spread), "thm1_bond.csv": _csv(bond)}
    expect_detection = bool(section.get("expect_detection", False))
    any_detected = bool(spread["detected"].any())
    spread_ok = any_detected if expect_detection else not any_detected
    variants = ("general", "numeraire_rederived")
    bond_ok = all(_se_gate(bond[v], bond["se"])[1].all() for v in variants)
    summary = {
        "max_spread_residual": np.abs(spread["residual"]).max(),
        "spread_detected": any_detected,
        "bond_ok": bond_ok,
        "lambda_source": report.lambda_source,
    }
    return files, summary, (spread_ok, bond_ok)


def _run_bond(doc, built):
    from .credit import corporate_bond_price

    section = doc["price"]
    # the pair dates stay JSON numbers: an integer date is written as one
    ts, ss = zip(*section["pairs"])
    prices = [corporate_bond_price(built["market"], t, s) for t, s in zip(ts, ss)]
    columns = {"t": ts, "s": ss}
    for field in ("value", "se", "n_used"):
        columns[field] = [getattr(price, field) for price in prices]
    checks = ()
    if "expected" in section:
        expected = np.asarray(section["expected"], dtype=np.float64)
        within = _se_gate(np.subtract(columns["value"], expected), columns["se"])[1]
        columns.update(expected=expected, within_3se=within)
        checks = (within,)
    return {"bond.csv": _csv(columns)}, {"first_value": prices[0].value}, checks


def _run_novikov(doc, built):
    from .novikov import capped_lgd_driver, novikov_mc, novikov_quadrature

    rule = _stress_rule(doc, capped_lgd_driver)
    mc_est = novikov_mc(built["market"], int(doc["novikov"]["k"]), lgd_rule=rule)
    cols = ["estimate", "se", "n_used", "censored_fraction"]
    cols += ["tail_index", "ci_low", "ci_high", "k_used", "verdict"]
    # the estimate's own verdict overrides that of its tail
    row = {**vars(mc_est.tail), **vars(mc_est)}
    quad = novikov_quadrature(_density_spec(doc))
    q_min, log_value = zip(*quad.trace)
    files = {
        "novikov_mc.csv": _csv({c: [row[c]] for c in cols}),
        "novikov_quadrature.csv": _csv(
            {"level": range(len(q_min)), "q_min": q_min, "log_value": log_value}
        ),
    }
    summary = {
        "mc_estimate": mc_est.estimate,
        "mc_verdict": mc_est.verdict,
        "quadrature_converged": quad.converged,
        "quadrature_diverged": quad.diverged,
        "quadrature_value": quad.value,
        "quadrature_growth": quad.growth,
    }
    expect = doc["novikov"].get("expect")
    if expect == "divergent":
        passed = mc_est.verdict == "divergence_evidence" and quad.diverged
    elif expect == "finite":
        passed = mc_est.verdict == "finite_evidence" and quad.converged
    elif expect == "match":
        passed = quad.converged and bool(_se_gate(mc_est.estimate - quad.value, mc_est.se)[1])
    else:
        passed = True
    return files, summary, (passed,)


def _run_sharpe(doc, built):
    from .curvature import novikov_sharpe

    section = doc["sharpe"]
    est = novikov_sharpe(
        _spec(section),
        np.asarray(section["x"], dtype=np.float64),
        float(section["horizon"]),
        n_paths=int(section.get("n_paths", 1)),
        steps=int(section.get("steps", _SHARPE_STEPS)),
    )
    expected = section.get("expected")
    if expected is not None:
        rtol = float(section.get("rtol", 1e-6))
        passed = abs(est.estimate - float(expected)) <= rtol * abs(float(expected))
    else:
        passed = True
    columns = {"estimate": [est.estimate], "se": [est.se], "verdict": [est.verdict]}
    files = {"sharpe.csv": _csv({**columns, "passed": [passed]})}
    return files, {"estimate": est.estimate}, (passed,)


_RUNNERS = {
    "curvature": _run_curvature,
    "kernel": _run_kernel,
    "zc": _run_zc,
    "thm1": _run_thm1,
    "bond": _run_bond,
    "novikov": _run_novikov,
    "sharpe": _run_sharpe,
}


# ---------------------------------------------------------------------------
# Commands


def _resolve_out_dir(arg_out: str | None, doc: dict) -> str:
    if arg_out:
        return arg_out
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return os.path.join(env, doc["name"])
    return os.path.join(os.getcwd(), f"{doc['name']}_out")


def cmd_run(args) -> int:
    doc = load_scenario(args.scenario)
    violations = validate_scenario(doc)
    if violations:
        for item in violations:
            print(f"invalid scenario: {item['field']}: {item['message']}", file=sys.stderr)
        return 2
    out_dir = _resolve_out_dir(args.out, doc)
    os.makedirs(out_dir, exist_ok=True)
    names = list(doc["analyses"])
    # each shared input is built once, before the first analysis; the runners
    # only read it
    built, drop_after = {}, {}
    for key, (build, readers) in _SHARED_INPUTS.items():
        reads = [i for i, name in enumerate(names) if name in readers]
        if reads:
            built[key] = build(doc)
            drop_after[reads[-1]] = key  # the inputs have no reader in common
    # every analysis runs before any file is written, so one that raises
    # leaves no result file
    results = []
    for i, name in enumerate(names):
        results.append(_RUNNERS[name](doc, built))
        if i in drop_after:
            del built[drop_after[i]]  # after its last reader
    overall = True
    summary = {
        "scenario": doc["name"],
        "package_version": __version__,
        "rng_stream_version": RNG_STREAM_VERSION,
        "analyses": {},
    }
    # fixed order: the output bytes depend on the scenario only
    for name, (files, info, checks) in zip(names, results):
        for fname in sorted(files):
            _write_atomic(os.path.join(out_dir, fname), files[fname])
        passed = all(bool(np.all(c)) for c in checks)
        summary["analyses"][name] = _plain({**info, "passed": passed})
        overall = overall and passed
    summary["overall"] = "pass" if overall else "fail"
    _write_atomic(
        os.path.join(out_dir, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n",
    )
    for name in names:
        status = "pass" if summary["analyses"][name]["passed"] else "fail"
        print(f"{name}: {status}")
    print(f"overall: {summary['overall']} ({out_dir})")
    return 0 if overall else 1


def cmd_validate(args) -> int:
    doc = load_scenario(args.scenario)
    violations = validate_scenario(doc)
    if violations:
        for item in violations:
            print(f"{item['field']}: {item['message']}")
        return 2
    print("scenario ok")
    return 0


def cmd_version(_args) -> int:
    print(f"curvarb {__version__}")
    return 0


def cmd_scenarios(_args) -> int:
    for name in bundled_scenarios():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvarb",
        description="Run arbitrage-consistency scenarios on simulated markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario and write CSV/JSON results")
    p_run.add_argument("scenario", help="scenario file or bundled scenario name")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored: analyses run in turn"
    )
    p_run.set_defaults(fn=cmd_run)
    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("scenario")
    p_val.set_defaults(fn=cmd_validate)
    sub.add_parser("version", help="print the package version").set_defaults(
        fn=cmd_version
    )
    sub.add_parser("scenarios", help="list bundled scenarios").set_defaults(
        fn=cmd_scenarios
    )
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        detail = f" {err.diagnostics}" if getattr(err, "diagnostics", None) else ""
        print(f"numerical error: {err}{detail}", file=sys.stderr)
        return 3
    except CurvarbError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an output path that cannot be made or written
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a defect: one line, never a traceback
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
