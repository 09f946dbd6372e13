"""Workload generator: (name, seed) -> the exact input the program receives.

The three CLI workloads are curvarb scenario documents; ``library`` is a
parameter document for ``session.py``.  Sizes are fixed per workload so that
every seed does the same amount of work; the seed picks the scenario RNG seed
and which (t, s) pairs are checked.  The same (name, seed) always serializes
to the same bytes.

``scenarios`` is the three CLI workloads run back to back, each in its own
interpreter, as one operation.  With ``library`` it is what BENCHMARK.json
gates: two workloads that between them run all four inputs, so each run can
be long enough to average out the host's drift (see NOTES.md).
"""

from __future__ import annotations

import json
import math
import random

NAMES = ("credit", "novikov", "market", "library")
CLI_NAMES = ("credit", "novikov", "market")
# the inputs one operation of each workload runs, in order
PARTS = {**{name: (name,) for name in NAMES}, "scenarios": CLI_NAMES}
GATED = ("scenarios", "library")

# Full sizes are what the benchmark measures; smoke sizes only exercise the
# correctness check quickly (``run.py --selftest``).
SIZES = {
    "credit": {"n_paths": 100_000, "horizon": 10.0, "steps": 40, "offsets": 21},
    "novikov": {"n_paths": 40_000, "horizon": 30.0, "steps": 120, "k": 4},
    "market": {
        "n_paths": 20_000,
        "horizon": 5.0,
        "steps": 50,
        "offsets": 21,
        "assets": 4,
        "sharpe_paths": 2000,
        "sharpe_steps": 1024,
    },
    "library": {
        "structural_paths": 20_000,
        "structural_steps": 50,
        "intensity_paths": 40_000,
        "market_paths": 20_000,
        "nelson_paths": 20_000,
        "nelson_queries": 40,
        "gauge_paths": 4000,
        "gauge_steps": 50,
        "gauge_offsets": 21,
        "csv_paths": 200,
    },
}

SMOKE_SIZES = {
    "credit": {"n_paths": 2000, "horizon": 10.0, "steps": 40, "offsets": 21},
    "novikov": {"n_paths": 2000, "horizon": 30.0, "steps": 30, "k": 4},
    "market": {
        "n_paths": 1000,
        "horizon": 5.0,
        "steps": 50,
        "offsets": 21,
        "assets": 4,
        "sharpe_paths": 50,
        "sharpe_steps": 64,
    },
    "library": {
        "structural_paths": 1000,
        "structural_steps": 50,
        "intensity_paths": 2000,
        "market_paths": 2000,
        "nelson_paths": 2000,
        "nelson_queries": 10,
        "gauge_paths": 100,
        "gauge_steps": 20,
        "gauge_offsets": 21,
        "csv_paths": 20,
    },
}

LAMBDA = 0.02
LGD = 0.4
OFFSET_STEP = 0.25


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512 inside random, independent of PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


def _pairs(rng: random.Random, count: int, t_choices, h_choices) -> list:
    chosen = rng.sample([(t, h) for t in t_choices for h in h_choices], count)
    return [[float(t), float(t + h)] for t, h in sorted(chosen)]


def _credit(seed: int, size: dict) -> dict:
    rng = _rng("credit", seed)
    span = OFFSET_STEP * (size["offsets"] - 1)
    dt = size["horizon"] / size["steps"]
    # (t, s) with t on the grid, s - t inside the offset lattice, and room
    # for the one-year hazard window used by lambda_source "simulated"
    t_choices = [i * dt for i in range(int(4.0 / dt) + 1)]
    h_choices = [1.0, 2.0, 3.0, 4.0, span]
    thm1 = _pairs(rng, 3, t_choices, h_choices)
    price = _pairs(rng, 2, t_choices, h_choices)
    expected = [1.0 - LGD * (1.0 - math.exp(-LAMBDA * (s - t))) for t, s in price]
    return {
        "name": "bench_credit",
        "grid": {"horizon": size["horizon"], "steps": size["steps"]},
        "seed": seed,
        "n_paths": size["n_paths"],
        "offsets": {"step": OFFSET_STEP, "count": size["offsets"]},
        "credit": {"lambda": LAMBDA, "lgd": LGD, "gov_rate": 0.0, "spread_shift": 0.0},
        "thm1": {"pairs": thm1, "lambda_source": "simulated", "window": 1.0},
        "price": {"pairs": price, "expected": expected},
        "analyses": ["thm1", "bond"],
    }


def _novikov(seed: int, size: dict) -> dict:
    return {
        "name": "bench_novikov",
        "grid": {"horizon": size["horizon"], "steps": size["steps"]},
        "seed": seed,
        "n_paths": size["n_paths"],
        "credit": {"lambda": LAMBDA, "lgd": LGD},
        "novikov": {
            "k": size["k"],
            "mode": "both",
            "lgd_rule": "capped",
            "cap": 0.1,
            "expect": "match",
        },
        "analyses": ["novikov"],
    }


def _market(seed: int, size: dict) -> dict:
    rng = _rng("market", seed)
    n_assets = size["assets"]
    dt = size["horizon"] / size["steps"]
    # t on the grid's first half, s - t within the offset lattice
    t_choices = [i * dt for i in range(1, size["steps"] // 2 + 1)]
    kernel = _pairs(rng, 5, t_choices, [0.5, 1.0, 1.5, 2.0])
    drift = 0.06
    sigma = 0.2
    return {
        "name": "bench_market",
        "grid": {"horizon": size["horizon"], "steps": size["steps"]},
        "seed": seed,
        "n_paths": size["n_paths"],
        "offsets": {"step": OFFSET_STEP, "count": size["offsets"]},
        "assets": [
            {
                "label": f"a{j}",
                "x0": 1.0,
                "drift": 0.0,
                "sigma": sigma,
                "form": "geometric",
                "rate": 0.0,
            }
            for j in range(n_assets)
        ],
        "kernel": {"rate": 0.0, "pairs": kernel},
        "zc": {
            "alpha": [0.04] * n_assets,
            "sigma": [[1.0]] * n_assets,
            "rates": 0.0,
        },
        "sharpe": {
            "x0": 1.0,
            "drift": drift,
            "sigma": sigma,
            "x": [1.0],
            "horizon": 1.0,
            "n_paths": size["sharpe_paths"],
            "steps": size["sharpe_steps"],
            "expected": math.exp(0.5 * (drift / sigma) ** 2),
            "rtol": 1e-9,
        },
        "analyses": ["curvature", "kernel", "zc", "sharpe"],
    }


def _library(seed: int, size: dict) -> dict:
    rng = _rng("library", seed)
    return {
        "name": "bench_library",
        "seed": seed,
        "sizes": dict(size),
        "lambda": LAMBDA,
        "lgd": LGD,
        "barrier": round(rng.uniform(0.6, 0.7), 3),
        "nominals": [round(rng.uniform(0.5, 2.0), 3) for _ in range(3)],
        "nelson_t": 2.5,
    }


_BUILDERS = {"credit": _credit, "novikov": _novikov, "market": _market, "library": _library}


def generate(name: str, seed: int, smoke: bool = False) -> dict:
    """The input document for workload ``name`` at ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    return _BUILDERS[name](seed, size)


def serialize(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def expected_files(doc: dict) -> list:
    """Output files a successful ``curvarb run`` of ``doc`` must leave."""
    per = {
        "curvature": ["curvature.csv"],
        "kernel": ["kernel.csv"],
        "zc": ["zc.csv"],
        "sharpe": ["sharpe.csv"],
        "thm1": ["thm1_spread.csv", "thm1_bond.csv"],
        "bond": ["bond.csv"],
        "novikov": ["novikov_mc.csv", "novikov_quadrature.csv"],
    }
    names = ["summary.json"]
    for a in doc["analyses"]:
        names += per[a]
    return sorted(names)
