"""False-alarm rate and power of a fixed-seed statistical test, over seeds.

A fixed-seed test that compares estimates with k standard errors fails by
chance at some rate.  This script runs the check of
test_brownian_marginals_match_gaussian_law at seeds 0 .. SEEDS - 1, under the
Brownian law it tests (its null rate) and on paths whose variance is inflated
by 5% (its power), with 95% Clopper-Pearson intervals.  It is not part of the
test suite.

    PYTHONPATH=src python tests/calibrate_fixed_seed.py --seeds 400
"""

import argparse
import os
import sys

import numpy as np
from scipy import stats

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from curvarb import PathEnsemble, TimeGrid, simulate_brownian  # noqa: E402
from test_paths import BROWNIAN_LAW_FAMILY_LEVEL, _sidak_z, brownian_law_z  # noqa: E402


def _fails(seed: int, variance: float) -> bool:
    """The test's check at seed, on paths whose variance is scaled by variance."""
    w = simulate_brownian(TimeGrid.regular(2.0, 8), 20000, dim=2, seed=seed)
    z = brownian_law_z(PathEnsemble(w.grid, w.values * np.sqrt(variance)))
    return bool(np.abs(z).max() >= _sidak_z(BROWNIAN_LAW_FAMILY_LEVEL, z.size))


def _clopper_pearson(k: int, n: int) -> tuple[float, float]:
    lo = stats.beta.ppf(0.025, k, n - k + 1) if k > 0 else 0.0
    hi = stats.beta.isf(0.025, k + 1, n - k) if k < n else 1.0
    return float(lo), float(hi)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=400, help="seeds 0 .. SEEDS - 1")
    n = parser.parse_args(argv).seeds
    print(f"design family-wise level {BROWNIAN_LAW_FAMILY_LEVEL:g}")
    for label, variance in (("null", 1.0), ("variance inflated by 5%", 1.05)):
        k = sum(_fails(seed, variance) for seed in range(n))
        lo, hi = _clopper_pearson(k, n)
        print(f"{label}: fails {k}/{n} = {k / n:.4f}, 95% CI [{lo:.4f}, {hi:.4f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
