"""Integrability checks for the credit market price of risk.

The exponential moment E[exp((2 LGD / (2 - LGD))^2 tau / Q)] decides whether
the credit market price of risk admits an equivalent martingale measure on
horizon tau.  Q is the normalized squared driver norm |W_tau|^2 / tau, a
chi-square variate with the driver dimension as its degrees of freedom,
independent of tau; both routes use this one form.  Two routes are
implemented and cross-validated:

* novikov_mc averages the summand over a simulated default scenery, drawing
  the driver directly at each default time, and attaches heavy-tail
  diagnostics (Hill index on the top summands);
* novikov_quadrature integrates the closed-form density in log space with a
  lower cutoff in Q, halved at most _HALVINGS times.  The integral diverges
  at Q -> 0 for any constant LGD > 0; the quadrature certifies this by
  unbounded growth of the cutoff trace instead of pretending to a finite
  value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigurationError, DomainError, EstimationError
from .paths import (
    TAG_NOVIKOV_DRIVER,
    PathEnsemble,
    _Record,
    _check_lgd,
    _gauss_legendre,
    _keyed_rows,
    _mean_se,
)

if TYPE_CHECKING:
    from .credit import CreditMarket

__all__ = [
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
]

# Hill estimator: it reads the top 1% of the summands (at least five), and a
# summand at or below 1 (exponent 0) never enters.  An exceedance within
# _TIE_ULPS ulp of the threshold is a tie: a capped exponent passes through
# about ten roundings and lands within 7 ulp either side of its cap
_TAIL_TOP_FRACTION = 0.01
_TIE_ULPS = 16

# exponential moments have no SE from an exponent of _SE_MAX_EXPONENT on (the
# variance needs exp(2 max exponent)); capped LGD rules keep u = 2l/(2-l) at
# most _CAP_U_MAX, which keeps the LGD at most 1
_SE_MAX_EXPONENT = 350.0
_CAP_U_MAX = 2.0

# Quadrature rule: Gauss-Legendre nodes in default time, geometric panels in
# the chi-square direction; the cutoff is halved at most _HALVINGS times, the
# ladder stops after two steps below _REL_TOL in the log integral, and growth
# beyond _CERTIFICATE_LOG_GROWTH certifies divergence
_T_NODES = 64
_Q_PANELS_PER_DECADE = 12
_Q_NODES_PER_PANEL = 24
_REL_TOL = 1e-4
_CERTIFICATE_LOG_GROWTH = float(np.log(1e6))
_HALVINGS = 20


def q2_statistic(driver: PathEnsemble, t: float) -> np.ndarray:
    """Normalized squared driver norm |W_t|^2 / t per path at a grid time,
    chi-square with the driver dimension as degrees of freedom."""
    if t <= 0:
        raise DomainError("the statistic needs t > 0")
    w = driver.at_time(t)
    return np.sum(w * w, axis=1) / t


# ---------------------------------------------------------------------------
# Heavy-tail diagnostics


class TailDiagnostics(_Record):
    """Hill tail index of the summand distribution with a one-sided 90% band.

    A tail index at or below one means the summand has no finite mean.
    verdict is "divergence_evidence" when the whole band sits at or below
    one, "finite_evidence" when it sits strictly above, else "inconclusive".
    """

    tail_index: float
    ci_low: float
    ci_high: float
    k_used: int
    verdict: str


def tail_diagnostics(log_samples: np.ndarray) -> TailDiagnostics:
    """Hill estimator on the top summands, given by their logs.

    Working on log summands keeps astronomically large exponentials, even
    overflowed ones, in exact relative order.  Summands at or below 1 never
    enter; fewer than five usable entries (for example all summands equal, or
    equal up to rounding) count as evidence of a bounded summand, reported
    with an infinite index.
    """
    ls = np.asarray(log_samples, dtype=np.float64)
    n = ls.size
    if n < 20:
        raise EstimationError(
            "too few summands for tail diagnostics", diagnostics={"n": int(n)}
        )
    order = np.sort(ls)[::-1]
    k = max(int(np.floor(n * _TAIL_TOP_FRACTION)), 5)
    log_u = max(float(order[min(k, n - 1)]), 0.0)
    top = order[order - log_u > _TIE_ULPS * np.spacing(log_u)]
    k_used = int(top.size)
    if k_used < 5:
        return TailDiagnostics(np.inf, np.inf, np.inf, k_used, "finite_evidence")
    alpha = k_used / float(np.sum(top - log_u))
    half = 1.645 / np.sqrt(k_used)
    ci_low, ci_high = alpha * (1.0 - half), alpha * (1.0 + half)
    if ci_high <= 1.0:
        verdict = "divergence_evidence"
    elif ci_low > 1.0:
        verdict = "finite_evidence"
    else:
        verdict = "inconclusive"
    return TailDiagnostics(float(alpha), float(ci_low), float(ci_high), k_used, verdict)


# ---------------------------------------------------------------------------
# Monte Carlo route


def _exp_moment(exponents: np.ndarray) -> tuple[float, float, TailDiagnostics | None, str]:
    """Estimate, SE, Hill tail (on 20 or more exponents) and verdict of E[exp(X)].

    An overflowed summand makes the estimate inf and counts as divergence
    evidence; the tail works on the exponents, so it stays meaningful.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se = (float(x) for x in _mean_se(np.exp(exponents)))
    finite = bool(np.isfinite(mean))
    if not (finite and exponents.max() < _SE_MAX_EXPONENT):
        se = np.inf
    tail = tail_diagnostics(exponents) if exponents.size >= 20 else None
    verdict = tail.verdict if tail is not None else "finite_evidence"
    return (mean, se, tail, verdict) if finite else (np.inf, se, tail, "divergence_evidence")


class NovikovEstimate(_Record):
    """E[exp(X)] from n_used sampled exponents; tail is None below 20."""

    estimate: float
    se: float
    n_used: int
    censored_fraction: float
    exponents: np.ndarray
    tail: TailDiagnostics | None
    verdict: str


def novikov_mc(
    market: CreditMarket, k: int, lgd_rule: Callable | None = None
) -> NovikovEstimate:
    """Average the integrability summand over the market's default sample.

    The summand reads a fresh k-dimensional driver, keyed apart from the
    default thresholds, only at the default time, where given tau it is
    exactly N(0, tau I_k): one row of k normals is drawn for every path and
    each defaulted path keeps its own, scaled by sqrt(tau), so no path and
    no time grid is built.  The loss is the market's LGD unless a stress
    rule lgd_rule is given (an integrability device, such as
    capped_lgd_driver): it is called once, on all defaulted paths, and
    lgd_rule(t, w) with t of shape (n,) and w of shape (n, k) returns the n
    losses, each in [0, 1] like the market's.
    Paths that never default inside the horizon are censored and excluded;
    the estimate is the conditional expectation given default before the
    horizon, which is what the quadrature cross-check integrates when its
    time density is truncated to the same horizon.
    """
    if k < 1:
        raise ConfigurationError("driver dimension k must be >= 1")
    sample = market.defaults
    mask = sample.defaulted()
    n_def = int(mask.sum())
    if n_def < 20:
        raise EstimationError(
            "too few defaults for the integrability estimate",
            diagnostics={"defaulted": n_def},
        )
    tau_d = sample.tau[mask]
    z = _keyed_rows(market.seed, TAG_NOVIKOV_DRIVER, range(sample.n_paths), (k,), "standard_normal")
    z = z[mask]
    w_tau = np.sqrt(tau_d)[:, None] * z
    q = np.sum(w_tau * w_tau, axis=1) / tau_d
    if lgd_rule is None:
        l = market.lgd
    else:
        l = np.asarray(lgd_rule(tau_d, w_tau), dtype=np.float64)
        if l.shape != tau_d.shape:
            raise ConfigurationError(
                "an LGD rule must map t (n,) and w (n, k) to n values"
            )
        _check_lgd(l, scalar=False)
    u = 2.0 * l / (2.0 - l)
    coef = u * u  # one rounding for a scalar LGD too, as numpy squares arrays
    with np.errstate(divide="ignore"):
        exponents = coef * tau_d / q
    estimate, se, tail, verdict = _exp_moment(exponents)
    return NovikovEstimate(
        estimate, se, n_def, float(1.0 - n_def / sample.n_paths), exponents, tail, verdict
    )


# ---------------------------------------------------------------------------
# Quadrature route


class DensitySpec(_Record):
    """Closed-form scenery for the quadrature route.

    tau_pdf is a density on [0, t_max]; the chi-square degrees of freedom k
    set the law of the normalized driver norm.  Loss given default enters as
    exactly one of a point mass (lgd_value) or a deterministic function of
    time and the chi-square value (lgd_given_tq), the latter matching Monte
    Carlo runs under an LGD rule such as capped_lgd_driver; both lie in [0, 1].
    """

    k: int
    tau_pdf: Callable
    t_max: float
    lgd_value: float | None = None
    lgd_given_tq: Callable | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("chi-square degrees of freedom must be >= 1")
        if self.t_max <= 0:
            raise ConfigurationError("t_max must be positive")
        if (self.lgd_value is None) == (self.lgd_given_tq is None):
            raise ConfigurationError("provide exactly one of lgd_value, lgd_given_tq")
        if self.lgd_value is not None:
            _check_lgd(self.lgd_value)
        # the mass on the nodes the quadrature route integrates on
        x, w = _gauss_legendre(0.0, self.t_max, _T_NODES)
        mass = float(np.dot(np.asarray(self.tau_pdf(x), dtype=np.float64), w))
        if abs(mass - 1.0) > 1e-6:
            raise ConfigurationError(
                f"tau density integrates to {mass:.8f}, not 1 within 1e-6"
            )

    @classmethod
    def truncated_exponential(cls, lam: float, horizon: float, **kwargs) -> "DensitySpec":
        """Exponential default-time density renormalized to [0, horizon]."""
        if lam <= 0:
            raise ConfigurationError("hazard must be positive")
        norm = -np.expm1(-lam * horizon)
        pdf = lambda t: lam * np.exp(-lam * t) / norm  # noqa: E731
        return cls(tau_pdf=pdf, t_max=float(horizon), **kwargs)


def capped_lgd_tq(cap: float) -> Callable:
    """LGD rule keeping the summand exponent at min(cap, _CAP_U_MAX^2 t / q).

    Solving 2l/(2-l) = u with u = min(_CAP_U_MAX, sqrt(cap q / t)) gives
    l = 2u/(2+u), so the exponent (2l/(2-l))^2 t/q never exceeds cap and the
    expectation is finite by construction; u <= 2 keeps the LGD at most 1.
    """
    if not 0 < cap:
        raise ConfigurationError("need cap > 0")

    def rule(t, q):
        with np.errstate(over="ignore"):  # cap q / t past float range: u is capped
            u = np.minimum(_CAP_U_MAX, np.sqrt(cap * np.asarray(q) / t))
        return 2.0 * u / (2.0 + u)

    return rule


def capped_lgd_driver(cap: float) -> Callable:
    """Driver-linked form of capped_lgd_tq: reads t (n,) and w (n, k) and
    forms q = |w|^2 / t itself."""
    rule = capped_lgd_tq(cap)
    return lambda t, w: rule(t, np.vecdot(w, w) / t)


class QuadratureResult(_Record):
    """Outcome of the moving-cutoff quadrature.

    Exactly one of converged / diverged is set on a clean run: converged
    means two successive cutoff halvings moved the log integral by less than
    _REL_TOL, diverged means the trace grew monotonically by more than the
    certificate threshold without settling.  trace holds (q_min, log value)
    per level.
    """

    converged: bool
    diverged: bool
    value: float
    log_value: float
    trace: list

    @property
    def growth(self) -> float:
        return self.trace[-1][1] - self.trace[0][1]


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))), shifted by the maximum so no term overflows."""
    top = np.max(a)
    return float(top + np.log(np.sum(np.exp(a - top))))


def _log_masses(pdf: Callable, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log(pdf(x) w) at each node, -inf where the density vanishes."""
    vals = np.asarray(pdf(x), dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(np.where(vals > 0, vals, 0.0)) + np.log(w)


def novikov_quadrature(density: DensitySpec) -> QuadratureResult:
    """Integrate the summand against its closed-form scenery in log space.

    The chi-square direction is integrated on geometric panels from a lower
    cutoff q_min, first the smaller of the 1% quantile and 1/100 of the top,
    to the 1 - 1e-8 quantile; the cutoff is halved, at most _HALVINGS times,
    until the log integral settles (two successive steps below _REL_TOL) or
    the certificate fires: monotone growth beyond _CERTIFICATE_LOG_GROWTH,
    which witnesses the Q -> 0 divergence without ever evaluating an
    overflowing exponential outside log space.
    """
    from ._laws import chi2_logpdf, chi2_ppf

    k = density.k
    q_max = chi2_ppf(k, 1.0 - 1e-8)
    q_min = min(chi2_ppf(k, 0.01), q_max / 100.0)
    t_x, t_w = _gauss_legendre(0.0, density.t_max, _T_NODES)
    log_t = _log_masses(density.tau_pdf, t_x, t_w)

    def level_log_value(q_min: float) -> float:
        decades = np.log10(q_max / q_min)
        n_panels = max(int(np.ceil(decades * _Q_PANELS_PER_DECADE)), 1)
        edges = np.geomspace(q_min, q_max, n_panels + 1)
        q_x, q_w = _gauss_legendre(edges[:-1, None], edges[1:, None], _Q_NODES_PER_PANEL)
        q_x, q_w = q_x.ravel(), q_w.ravel()
        log_q = chi2_logpdf(k, q_x) + np.log(q_w)
        # (t, q) table; lgd_given_tq sets the LGD at each node
        rule = density.lgd_given_tq
        l = density.lgd_value if rule is None else rule(t_x[:, None], q_x[None, :])
        _check_lgd(l, scalar=False)
        u = 2.0 * l / (2.0 - l)
        expo = u * u * (t_x[:, None] / q_x[None, :])
        return _logsumexp(log_t[:, None] + log_q + expo)

    trace = []
    small_steps = 0
    for _ in range(_HALVINGS + 1):
        lv = level_log_value(q_min)
        small_steps = small_steps + 1 if trace and abs(lv - trace[-1][1]) < _REL_TOL else 0
        trace.append((q_min, lv))
        if small_steps >= 2:
            break
        q_min *= 0.5
    converged = small_steps >= 2
    log_value = trace[-1][1]
    monotone = bool(np.all(np.diff([v for _, v in trace]) >= -_REL_TOL))
    growth = log_value - trace[0][1]
    diverged = not converged and monotone and growth > _CERTIFICATE_LOG_GROWTH
    with np.errstate(over="ignore"):  # a converged value past float range reads inf
        value = float(np.exp(log_value)) if converged else np.inf
    return QuadratureResult(converged, diverged, value, float(log_value), trace)
