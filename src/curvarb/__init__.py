"""curvarb: gauge-valued market simulation and arbitrage diagnostics.

The package is organized around six modules:

- paths: seeded path ensembles, Ito simulation, the stochastic-derivative
  estimator, conditional bin tables, interchange formats and the record base.
- gauges: deflator/term-structure pairs, cashflow-vector transforms, portfolio
  aggregation, numeraire changes.
- curvature: arbitrage curvature reports, zero-curvature residuals, pricing
  kernel checks, Sharpe-ratio integrability estimates.
- credit: structural and intensity default models, defaultable bonds, credit
  gauges, spread/holonomy residuals.
- novikov: integrability estimates for the loss-given-default Sharpe bound,
  by Monte Carlo and by direct quadrature.
- cli: scenario files, batch runner, validation.

The package re-exports the ``__all__`` of each of the first five modules and
of errors.  ``import curvarb`` loads errors, paths and gauges, which every
run needs; the analysis modules curvature, credit and novikov load on the
first read of a name they define (PEP 562), so a run loads only those it calls.
"""

from . import errors, gauges, paths
from .errors import *  # noqa: F403
from .gauges import *  # noqa: F403
from .paths import *  # noqa: F403

# analysis module -> the names the package re-exports from it
_LAZY = {
    "credit": (
        "IntensityModel",
        "StructuralModel",
        "DefaultSample",
        "CreditMarket",
        "CreditGauge",
        "ProbabilityEstimate",
        "BondPrice",
        "Thm1Report",
        "simulate_default",
        "cox_uniformity",
        "default_probability",
        "corporate_bond_price",
        "credit_gauge",
        "thm1_residuals",
        "build_thm1_market",
    ),
    "curvature": (
        "CurvatureReport",
        "curvature_components",
        "ZCReport",
        "zc_residual",
        "novikov_sharpe",
        "KernelCheckReport",
        "kernel_check",
    ),
    "novikov": (
        "q2_statistic",
        "TailDiagnostics",
        "tail_diagnostics",
        "NovikovEstimate",
        "novikov_mc",
        "DensitySpec",
        "QuadratureResult",
        "novikov_quadrature",
        "capped_lgd_tq",
        "capped_lgd_driver",
    ),
}

__all__ = [
    *errors.__all__,
    *gauges.__all__,
    *paths.__all__,
    *(name for names in _LAZY.values() for name in names),
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an analysis module, or the module defining a re-exported name,
    on first use; the name is then bound here like an eager import."""
    for module, names in _LAZY.items():
        if name == module or name in names:
            # the import statement's route, which -X importtime reports (unlike
            # importlib.import_module); it binds the module in globals()
            __import__(f"{__name__}.{module}")
            mod = globals()[module]
            if name == module:
                return mod
            value = globals()[name] = getattr(mod, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
