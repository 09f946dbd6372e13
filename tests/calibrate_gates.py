"""False-alarm rate and power of the curvature verdict rules, over seeds.

The curvature analysis of flat_market passes where every interior time's
spread lies within 4 standard errors (cli._CURVATURE_GATE_SE).  This script
runs that analysis at NULL_SEEDS seeds on flat_market as bundled, where both
assets share one law (the null), and at DRIFT_SEEDS seeds for each drift of
asset beta in DRIFTS (the power).  It counts the failures of the 4-SE gate
and of the fixed bound max norm <= FIXED_BOUND that flat_market once set
instead, with 95% Clopper-Pearson intervals.  It gates nothing and is not
part of the test suite.

    PYTHONPATH=src python tests/calibrate_gates.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate_fixed_seed import _clopper_pearson  # noqa: E402

from curvarb.cli import _asset_gauges, _run_curvature, load_scenario  # noqa: E402

NULL_SEEDS = 400
DRIFT_SEEDS = 200
DRIFTS = (0.01, 0.02, 0.05)
FIXED_BOUND = 0.03


def _fails(seed: int, drift: float) -> tuple[bool, bool]:
    """(fixed bound fails, 4-SE gate fails) for flat_market's curvature at
    seed, with asset beta's drift set to drift."""
    doc = load_scenario("flat_market")
    doc["seed"] = seed
    doc["assets"][1]["drift"] = drift
    _, summary, (passed,) = _run_curvature(doc, {"gauges": _asset_gauges(doc)})
    return summary["max_norm"] > FIXED_BOUND, not passed.all()


def _line(rule: str, k: int, n: int) -> str:
    lo, hi = _clopper_pearson(k, n)
    return f"  {rule}: fails {k}/{n} = {k / n:.4f}, 95% CI [{lo:.4f}, {hi:.4f}]"


def main() -> int:
    for drift, n in ((0.0, NULL_SEEDS), *((d, DRIFT_SEEDS) for d in DRIFTS)):
        fixed, gate = map(sum, zip(*(_fails(seed, drift) for seed in range(n))))
        print("null (drift 0)" if drift == 0.0 else f"beta drift {drift}")
        print(_line(f"fixed bound {FIXED_BOUND}", fixed, n))
        print(_line("4-SE gate", gate, n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
