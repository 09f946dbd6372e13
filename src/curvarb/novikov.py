"""Integrability checks for the credit market price of risk.

The exponential moment E[exp((2 LGD / (2 - LGD))^2 tau / Q)] decides whether
the credit market price of risk admits an equivalent martingale measure on
horizon tau.  Q is the normalized squared driver norm |W_tau|^2 / tau, a
chi-square variate with the driver dimension as its degrees of freedom,
independent of tau.  Two routes are implemented and cross-validated:

* novikov_mc averages the summand over a simulated default scenery, drawing
  the driver directly at each default time, and attaches heavy-tail
  diagnostics (Hill index on the top summands);
* novikov_quadrature integrates the closed-form density in log space with a
  moving lower cutoff in Q.  The integral diverges at Q -> 0 for any constant
  LGD > 0; the quadrature certifies this by unbounded growth of the cutoff
  trace instead of pretending to a finite value.

q_form "printed" treats the chi-square variate itself as sqrt(|W|^2/t), which
is kept selectable for comparison; "consistent" is the form under which the
statistic actually has the chi-square law.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigurationError, DomainError, EstimationError
from .paths import (
    TAG_NOVIKOV_DRIVER,
    PathEnsemble,
    _Record,
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

_Q_FORMS = ("consistent", "printed")

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

# Quadrature rule: Gauss-Legendre nodes in default time and in LGD, geometric
# panels in the chi-square direction; the cutoff ladder stops after two steps
# below _REL_TOL in the log integral, and growth beyond
# _CERTIFICATE_LOG_GROWTH certifies divergence
_T_NODES = 64
_L_NODES = 24
_Q_PANELS_PER_DECADE = 12
_Q_NODES_PER_PANEL = 24
_REL_TOL = 1e-4
_CERTIFICATE_LOG_GROWTH = float(np.log(1e6))


def q2_statistic(driver: PathEnsemble, t: float, q_form: str = "consistent") -> np.ndarray:
    """Normalized squared driver norm per path at a grid time.

    With q_form "consistent" this is |W_t|^2 / t, chi-square with the driver
    dimension as degrees of freedom.  "printed" returns its square root.
    """
    if q_form not in _Q_FORMS:
        raise ConfigurationError(f"unknown q_form {q_form!r}")
    if t <= 0:
        raise DomainError("the statistic needs t > 0")
    w = driver.at_time(t)
    q = np.sum(w * w, axis=1) / t
    return np.sqrt(q) if q_form == "printed" else q


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
    with np.errstate(over="ignore"):
        summands = np.exp(exponents)
        mean = float(summands.mean())
    finite = bool(np.isfinite(mean))
    se = float(_mean_se(summands)) if finite and exponents.max() < _SE_MAX_EXPONENT else np.inf
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
    market: CreditMarket, k: int, q_form: str = "consistent"
) -> NovikovEstimate:
    """Average the integrability summand over the market's default sample.

    The summand reads a fresh k-dimensional driver, keyed apart from the
    default thresholds, only at the default time, where given tau it is
    exactly N(0, tau I_k): one row of k normals is drawn for every path and
    each defaulted path keeps its own, scaled by sqrt(tau), so no path and
    no time grid is built.  A driver_linked LGD rule is called once, on all
    defaulted paths: fn(t, w) with t of shape (n,) and w of shape (n, k)
    returns the n losses.
    Paths that never default inside the horizon are censored and excluded;
    the estimate is the conditional expectation given default before the
    horizon, which is what the quadrature cross-check integrates when its
    time density is truncated to the same horizon.
    """
    if q_form not in _Q_FORMS:
        raise ConfigurationError(f"unknown q_form {q_form!r}")
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
    if q_form == "printed":
        q = np.sqrt(q)
    if market.lgd.kind == "driver_linked":
        l = np.asarray(market.lgd.fn(tau_d, w_tau), dtype=np.float64)
        if l.shape != tau_d.shape:
            raise ConfigurationError(
                "a driver_linked LGD rule must map t (n,) and w (n, k) to n values"
            )
    else:
        from .credit import realized_lgd_at_default

        l = realized_lgd_at_default(market)[mask]
    if np.any((l < 0) | (l >= 2)):
        raise ConfigurationError("LGD values must lie in [0, 2) for the summand")
    coef = (2.0 * l / (2.0 - l)) ** 2
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
    exactly one of a point mass (lgd_value), a density on lgd_support
    (lgd_pdf), or a deterministic function of time and the chi-square value
    (lgd_given_tq), the last matching driver-linked Monte Carlo sceneries.
    """

    k: int
    tau_pdf: Callable
    t_max: float
    lgd_value: float | None = None
    lgd_pdf: Callable | None = None
    lgd_support: tuple = (0.0, 1.0)
    lgd_given_tq: Callable | None = None
    q_form: str = "consistent"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("chi-square degrees of freedom must be >= 1")
        if self.t_max <= 0:
            raise ConfigurationError("t_max must be positive")
        if self.q_form not in _Q_FORMS:
            raise ConfigurationError(f"unknown q_form {self.q_form!r}")
        provided = sum(
            x is not None for x in (self.lgd_value, self.lgd_pdf, self.lgd_given_tq)
        )
        if provided != 1:
            raise ConfigurationError(
                "provide exactly one of lgd_value, lgd_pdf, lgd_given_tq"
            )
        if self.lgd_value is not None and not 0.0 <= self.lgd_value < 2.0:
            raise ConfigurationError("lgd_value must lie in [0, 2)")
        # the masses on the nodes the quadrature route integrates on
        for what, pdf, (lo, hi), n in (
            ("tau", self.tau_pdf, (0.0, self.t_max), _T_NODES),
            ("LGD", self.lgd_pdf, self.lgd_support, _L_NODES),
        ):
            if pdf is not None:
                x, w = _gauss_legendre(lo, hi, n)
                mass = float(np.dot(np.asarray(pdf(x), dtype=np.float64), w))
                if abs(mass - 1.0) > 1e-6:
                    raise ConfigurationError(
                        f"{what} density integrates to {mass:.8f}, not 1 within 1e-6"
                    )

    @classmethod
    def truncated_exponential(
        cls, lam: float, horizon: float | None = None, **kwargs
    ) -> "DensitySpec":
        """Exponential default-time density renormalized to a finite horizon.

        Without an explicit horizon the cut is placed at the 1 - 1e-6
        quantile, which keeps the truncation error far below quadrature
        tolerances while bounding the integration domain.
        """
        if lam <= 0:
            raise ConfigurationError("hazard must be positive")
        t_max = horizon if horizon is not None else -np.log(1e-6) / lam
        norm = -np.expm1(-lam * t_max)
        pdf = lambda t: lam * np.exp(-lam * t) / norm  # noqa: E731
        return cls(tau_pdf=pdf, t_max=float(t_max), **kwargs)


def capped_lgd_tq(cap: float = 0.1) -> Callable:
    """LGD rule keeping the summand exponent at min(cap, _CAP_U_MAX^2 t / q).

    Solving 2l/(2-l) = u with u = min(_CAP_U_MAX, sqrt(cap q / t)) gives
    l = 2u/(2+u), so the exponent (2l/(2-l))^2 t/q never exceeds cap and the
    expectation is finite by construction; u <= 2 keeps the LGD at most 1.
    """
    if not 0 < cap:
        raise ConfigurationError("need cap > 0")

    def rule(t, q):
        u = np.minimum(_CAP_U_MAX, np.sqrt(cap * np.asarray(q) / t))
        return 2.0 * u / (2.0 + u)

    return rule


def capped_lgd_driver(cap: float = 0.1) -> Callable:
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


def novikov_quadrature(density: DensitySpec, halvings: int = 20) -> QuadratureResult:
    """Integrate the summand against its closed-form scenery in log space.

    The chi-square direction is integrated on geometric panels from a lower
    cutoff q_min, first the smaller of the 1% quantile and 1/100 of the top,
    to the 1 - 1e-8 quantile; the cutoff is halved, at most halvings times,
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
    # (t, LGD, q) table; the LGD axis has one node for a point mass and for
    # lgd_given_tq, which sets the LGD at each (t, q) node
    log_l = np.zeros(1)
    if density.lgd_pdf is not None:
        l_x, l_w = _gauss_legendre(*density.lgd_support, _L_NODES)
        log_l = _log_masses(density.lgd_pdf, l_x, l_w)
    elif density.lgd_value is not None:
        l_x = np.array([density.lgd_value])

    def level_log_value(q_min: float) -> float:
        decades = np.log10(q_max / q_min)
        n_panels = max(int(np.ceil(decades * _Q_PANELS_PER_DECADE)), 1)
        edges = np.geomspace(q_min, q_max, n_panels + 1)
        q_x, q_w = _gauss_legendre(edges[:-1, None], edges[1:, None], _Q_NODES_PER_PANEL)
        q_x, q_w = q_x.ravel(), q_w.ravel()
        log_q = chi2_logpdf(k, q_x) + np.log(q_w)
        q_eff = np.sqrt(q_x) if density.q_form == "printed" else q_x
        if density.lgd_given_tq is None:
            l = l_x[None, :, None]
        else:
            l = np.clip(density.lgd_given_tq(t_x[:, None, None], q_x[None, None, :]), 0.0, 1.999)
        expo = (2.0 * l / (2.0 - l)) ** 2 * (t_x[:, None, None] / q_eff[None, None, :])
        return _logsumexp(log_t[:, None, None] + log_l[None, :, None] + log_q + expo)

    trace = []
    small_steps = 0
    for _ in range(halvings + 1):
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
    value = float(np.exp(log_value)) if converged else np.inf
    return QuadratureResult(converged, diverged, value, float(log_value), trace)
