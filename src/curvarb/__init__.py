"""curvarb: gauge-valued market simulation and arbitrage diagnostics.

The package is organized around six modules:

- paths: seeded path ensembles, Ito simulation, the stochastic-derivative
  estimator, conditional bin tables and interchange formats.
- gauges: deflator/term-structure pairs, cashflow-vector transforms, portfolio
  aggregation, numeraire changes.
- curvature: arbitrage curvature reports, zero-curvature residuals, pricing
  kernel checks, Sharpe-ratio integrability estimates.
- credit: structural and intensity default models, defaultable bonds, credit
  gauges, spread/holonomy residuals.
- novikov: integrability estimates for the loss-given-default Sharpe bound,
  by Monte Carlo and by direct quadrature.
- cli: scenario files, batch runner, validation.
"""

from .errors import (
    ConfigurationError,
    CurvarbError,
    DomainError,
    EstimationError,
    NumeraireError,
    NumericalError,
    SingularTransformError,
)
from .gauges import (
    CashflowVector,
    Gauge,
    SelfFinancingReport,
    TermStructureSurface,
    convolve,
    flat_term_structure,
    forward_rates,
    gauge_transform,
    numeraire_change,
    portfolio_gauge,
    read_term_structure_csv,
    self_financing_residual,
    short_rate,
    term_structure_from_forwards,
    write_term_structure_csv,
)
from .paths import (
    ItoSpec,
    NelsonEstimator,
    PathEnsemble,
    TimeGrid,
    conditional_bin_table,
    nelson_derivative,
    read_ensemble,
    read_ensemble_csv,
    simulate_brownian,
    simulate_ito,
    write_ensemble,
    write_ensemble_csv,
)
from .credit import (
    BondPrice,
    CreditGauge,
    CreditMarket,
    DefaultSample,
    IntensityModel,
    LGDProcess,
    ProbabilityEstimate,
    StructuralModel,
    Thm1Report,
    build_thm1_market,
    corporate_bond_price,
    cox_uniformity,
    credit_gauge,
    default_probability,
    realized_lgd_at_default,
    simulate_default,
    thm1_residuals,
)
from .curvature import (
    CurvatureReport,
    KernelCheckReport,
    ZCReport,
    curvature_components,
    kernel_check,
    novikov_sharpe,
    zc_residual,
)
from .novikov import (
    DensitySpec,
    NovikovEstimate,
    QuadratureResult,
    TailDiagnostics,
    capped_lgd_driver,
    capped_lgd_tq,
    novikov_mc,
    novikov_quadrature,
    q2_statistic,
    tail_diagnostics,
)

__version__ = "0.1.0"
