"""Traced run: spans around curvarb's public functions, wrapped from outside.

``install`` replaces every public function of the curvarb modules, and
every name a module imported from another one, with a wrapper that records
a span ``[name, start, end, parent, maxrss_before, maxrss_after, extra]``.
Spans stay in memory; the child process writes them out when it ends.
Hot per-path functions get a call counter instead of a span.  ``extra``
holds counts and bytes computed from the call's arguments and result.

``layer_metrics`` turns the spans of one traced operation into the
per-layer metrics.  A span's self time is its duration minus that of its
child spans; the same subtraction attributes rises of the peak RSS.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import resource
import sys
import time

LAYERS = ("paths", "gauges", "curvature", "credit", "novikov", "cli")
COMPUTE_LAYERS = ("paths", "gauges", "curvature", "credit", "novikov")
COUNTED = ("paths.path_rng",)
METHODS = {"paths": ("NelsonEstimator.evaluate",)}
# the entry point the child calls directly; its self time is argument
# parsing and the exit-code mapping
UNWRAPPED = ("cli.main",)

# (metric, unit) in the order the benchmark reports them
PER_LAYER = [
    ("import.curvarb_s", "s"),
    ("import.scipy_s", "s"),
    ("cli.load_scenario.s", "s"),
    ("cli.validate_scenario.s", "s"),
    ("cli.cmd_run.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.files_written", "count"),
    ("cli.analyses_failed", "count"),
    ("paths.path_rng.calls", "count"),
    ("paths.draws", "count"),
    ("paths.simulate_brownian.s", "s"),
    ("paths.simulate_brownian.calls", "count"),
    ("paths.simulate_brownian.distinct_ratio", "ratio"),
    ("paths.simulate_ito.s", "s"),
    ("paths.bytes_out", "B"),
    ("paths.nelson_derivative.s", "s"),
    ("paths.NelsonEstimator.evaluate.s", "s"),
    ("paths.io.s", "s"),
    ("paths.io.bytes", "B"),
    ("gauges.portfolio_gauge.s", "s"),
    ("gauges.portfolio_gauge.bytes_out", "B"),
    ("gauges.gauge_transform.s", "s"),
    ("gauges.numeraire_change.s", "s"),
    ("gauges.self_financing_residual.s", "s"),
    ("gauges.term_structure.s", "s"),
    ("gauges.io.s", "s"),
    ("curvature.curvature_components.s", "s"),
    ("curvature.kernel_check.s", "s"),
    ("curvature.kernel_check.bins", "count"),
    ("curvature.zc_residual.s", "s"),
    ("curvature.novikov_sharpe.s", "s"),
    ("credit.simulate_default.intensity.s", "s"),
    ("credit.simulate_default.structural.s", "s"),
    ("credit.simulate_default.bridge.s", "s"),
    ("credit.build_thm1_market.s", "s"),
    ("credit.build_thm1_market.calls", "count"),
    ("credit.build_thm1_market.distinct_ratio", "ratio"),
    ("credit.defaults", "count"),
    ("credit.bytes_out", "B"),
    ("credit.thm1_residuals.s", "s"),
    ("credit.corporate_bond_price.s", "s"),
    ("credit.cox_uniformity.s", "s"),
    ("credit.credit_gauge.s", "s"),
    ("credit.default_probability.s", "s"),
    ("novikov.novikov_mc.s", "s"),
    ("novikov.novikov_mc.used_ratio", "ratio"),
    ("novikov.novikov_quadrature.s", "s"),
    ("novikov.quadrature.levels", "count"),
    *[(f"{layer}.self_s", "s") for layer in COMPUTE_LAYERS],
    *[(f"{layer}.rss_step_mb", "MiB") for layer in ("import", *LAYERS)],
    ("trace.analysis_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
]

# self-time metrics that sum several spans; every other "<span>.s" metric
# is the self time of the span of that name
_TIME_GROUPS = {
    "paths.io.s": (
        "paths.write_ensemble",
        "paths.read_ensemble",
        "paths.write_ensemble_csv",
        "paths.read_ensemble_csv",
    ),
    "gauges.term_structure.s": (
        "gauges.flat_term_structure",
        "gauges.term_structure_from_forwards",
        "gauges.forward_rates",
        "gauges.short_rate",
    ),
    "gauges.io.s": ("gauges.write_term_structure_csv", "gauges.read_term_structure_csv"),
}

# spans that run before the end of setup in a CLI operation
SETUP_SPANS = ("cli.load_scenario", "cli.validate_scenario")


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# Computed counts and bytes, from (bound arguments, result)


def _grid_key(grid) -> str:
    return hashlib.sha1(grid.times.tobytes()).hexdigest()


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays if a is not None))


def _brownian(a, r):
    grid = a["grid"]
    key = f"{_grid_key(grid)}:{a['n_paths']}:{a['dim']}:{a['seed']}:{a['tag']}"
    return {
        "key": key,
        "draws": a["n_paths"] * (grid.n_times - 1) * a["dim"],
        "bytes": _nbytes(r.values, r.driver_increments),
    }


def _ito(a, r):
    # the driver increments are shared with the input, not new bytes
    return {"bytes": _nbytes(r.values)}


def _file_bytes(a, r):
    return {"io_bytes": os.path.getsize(a["path"])}


def _default(a, r):
    if type(a["model"]).__name__ == "IntensityModel":
        variant, draws = "intensity", a["n_paths"]
    elif a["bridge"]:
        variant, draws = "bridge", a["n_paths"] * (a["grid"].n_times - 1)
    else:
        variant, draws = "structural", 0
    return {
        "variant": variant,
        "draws": draws,
        "defaults": int(r.defaulted().sum()),
        "bytes": _nbytes(
            r.tau, r.indicator, r.cumulative_hazard, r.thresholds, r.lambda_paths
        ),
    }


def _thm1_market(a, r):
    key = repr(sorted((k, v) for k, v in a.items()))
    return {
        "key": key,
        "bytes": _nbytes(
            r.gov.deflator.values,
            r.gov.curve.values,
            r.corp.deflator.values,
            r.corp.curve.values,
            r.beta.values,
            r.corp_predefault.values,
        ),
    }


def _novikov_mc(a, r):
    return {
        "used": r.n_used,
        "simulated": a["market"].defaults.n_paths,
        "draws": r.n_used * a["k"],
    }


OBSERVERS = {
    "paths.simulate_brownian": _brownian,
    "paths.simulate_ito": _ito,
    "paths.write_ensemble": _file_bytes,
    "paths.read_ensemble": _file_bytes,
    "paths.write_ensemble_csv": _file_bytes,
    "paths.read_ensemble_csv": _file_bytes,
    "credit.simulate_default": _default,
    "credit.build_thm1_market": _thm1_market,
    "novikov.novikov_mc": _novikov_mc,
    "novikov.novikov_quadrature": lambda a, r: {"levels": len(r.trace)},
    "curvature.kernel_check": lambda a, r: {"bins": sum(len(x["bins"]) for x in r.rows)},
    "gauges.portfolio_gauge": lambda a, r: {
        "bytes": _nbytes(r.deflator.values, r.curve.values)
    },
}


# ---------------------------------------------------------------------------
# Recording (child process)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def span(self, name: str, fn):
        observe = OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, _maxrss_kib(), 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                rec[5] = _maxrss_kib()
                stack.pop()
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[6] = observe(bound.arguments, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the curvarb modules already imported in this process."""
        modules = {layer: sys.modules.get(f"curvarb.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            if mod is None:
                continue
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for n in names:
                obj = getattr(mod, n)
                full = f"{layer}.{n}"
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if full in UNWRAPPED:
                    continue
                make = self.counter if full in COUNTED else self.span
                wrappers[id(obj)] = make(full, obj)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.span(f"{layer}.{qual}", cls.__dict__[meth]))
        # rebind every module-level reference: the defining module's own
        # globals, names imported from other modules, and the package
        for mod in (sys.modules["curvarb"], *modules.values()):
            if mod is None:
                continue
            for n, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    setattr(mod, n, w)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


# ---------------------------------------------------------------------------
# Aggregation (benchmark process)


def _label(span) -> str:
    extra = span[6] or {}
    return f"{span[0]}.{extra['variant']}" if "variant" in extra else span[0]


def merge(traces: list) -> dict:
    """One trace of the processes of an operation, in order: parent indices
    are shifted past the spans before them and counters are added."""
    spans: list = []
    counts: dict = {}
    for trace in traces:
        offset = len(spans)
        spans += [[*s[:3], s[3] + offset if s[3] >= 0 else -1, *s[4:]] for s in trace["spans"]]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"spans": spans, "counts": counts}


def layer_metrics(trace: dict, analysis_s: float) -> dict:
    """Per-layer metrics of one traced operation (without import/cli/trace
    entries the benchmark computes from other sources)."""
    spans = trace["spans"]
    child_t = [0.0] * len(spans)
    child_rss = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_t[s[3]] += s[2] - s[1]
            child_rss[s[3]] += s[5] - s[4]
    self_t: dict = {}
    layer_t: dict = {}
    layer_rss: dict = {}
    calls: dict = {}
    keys: dict = {}
    sums: dict = {}
    accounted = 0.0
    for i, s in enumerate(spans):
        label = _label(s)
        st = (s[2] - s[1]) - child_t[i]
        layer = s[0].split(".")[0]
        self_t[label] = self_t.get(label, 0.0) + st
        layer_t[layer] = layer_t.get(layer, 0.0) + st
        layer_rss[layer] = layer_rss.get(layer, 0) + (s[5] - s[4]) - child_rss[i]
        calls[s[0]] = calls.get(s[0], 0) + 1
        if s[0] not in SETUP_SPANS:
            accounted += st
        extra = s[6] or {}
        if "key" in extra:
            keys.setdefault(s[0], set()).add(extra["key"])
        for k, v in extra.items():
            if isinstance(v, int):
                sums[(layer, k)] = sums.get((layer, k), 0) + v

    def distinct(name):
        return len(keys.get(name, ())) / calls[name] if calls.get(name) else 0.0

    out = {}
    for metric, _ in PER_LAYER:
        if metric.endswith(".s"):
            group = _TIME_GROUPS.get(metric, (metric[:-2],))
            out[metric] = sum(self_t.get(g, 0.0) for g in group)
    out["cli.cmd_run.self_s"] = self_t.get("cli.cmd_run", 0.0)
    for layer in COMPUTE_LAYERS:
        out[f"{layer}.self_s"] = layer_t.get(layer, 0.0)
    for layer in LAYERS:
        out[f"{layer}.rss_step_mb"] = layer_rss.get(layer, 0) / 1024.0
    used = sums.get(("novikov", "used"), 0)
    simulated = sums.get(("novikov", "simulated"), 0)
    out.update(
        {
            "paths.path_rng.calls": trace["counts"].get("paths.path_rng", 0),
            "paths.draws": sum(v for (_, k), v in sums.items() if k == "draws"),
            "paths.simulate_brownian.calls": calls.get("paths.simulate_brownian", 0),
            "paths.simulate_brownian.distinct_ratio": distinct("paths.simulate_brownian"),
            "paths.bytes_out": sums.get(("paths", "bytes"), 0),
            "paths.io.bytes": sums.get(("paths", "io_bytes"), 0),
            "gauges.portfolio_gauge.bytes_out": sums.get(("gauges", "bytes"), 0),
            "curvature.kernel_check.bins": sums.get(("curvature", "bins"), 0),
            "credit.build_thm1_market.calls": calls.get("credit.build_thm1_market", 0),
            "credit.build_thm1_market.distinct_ratio": distinct("credit.build_thm1_market"),
            "credit.defaults": sums.get(("credit", "defaults"), 0),
            "credit.bytes_out": sums.get(("credit", "bytes"), 0),
            "novikov.novikov_mc.used_ratio": used / simulated if simulated else 0.0,
            "novikov.quadrature.levels": sums.get(("novikov", "levels"), 0),
            "trace.analysis_s": analysis_s,
            "trace.unaccounted_s": analysis_s - accounted,
        }
    )
    return out


def import_times(stderr_text: str) -> dict:
    """``import.curvarb_s`` and ``import.scipy_s`` from ``-X importtime``.

    Each is the summed cumulative time of the outermost imports of that
    package, so nested imports are not counted twice.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"curvarb": 0.0, "scipy": 0.0}
    stack: list = []
    # -X importtime prints children before parents: walk it backwards
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(n.split(".")[0] == top for _, n in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return {"import.curvarb_s": totals["curvarb"], "import.scipy_s": totals["scipy"]}
