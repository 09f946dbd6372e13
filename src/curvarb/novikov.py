"""Integrability checks for the credit market price of risk.

The exponential moment E[exp((2 LGD / (2 - LGD))^2 tau / Q)] decides whether
the credit market price of risk admits an equivalent martingale measure on
horizon tau.  Q is the normalized squared driver norm |W_tau|^2 / tau, a
chi-square variate with the driver dimension as its degrees of freedom,
independent of tau.  Two routes are implemented and cross-validated:

* novikov_mc averages the summand over a simulated default scenery and
  attaches heavy-tail diagnostics (Hill index on the top summands);
* novikov_quadrature integrates the closed-form density in log space with a
  moving lower cutoff in Q.  The integral diverges at Q -> 0 for any constant
  LGD > 0; the quadrature certifies this by unbounded growth of the cutoff
  trace instead of pretending to a finite value.

q_form "printed" treats the chi-square variate itself as sqrt(|W|^2/t), which
is kept selectable for comparison; "consistent" is the form under which the
statistic actually has the chi-square law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, EstimationError
from .paths import PathEnsemble, _keyed_rows, _mean_se, simulate_brownian
from .credit import CreditMarket, realized_lgd_at_default

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

TAG_NOVIKOV_DRIVER = 7
TAG_NOVIKOV_BRIDGE = 8

_Q_FORMS = ("consistent", "printed")


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


@dataclass(frozen=True, eq=False)
class TailDiagnostics:
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


def tail_diagnostics(
    samples: np.ndarray | None = None,
    log_samples: np.ndarray | None = None,
    top_fraction: float = 0.01,
    threshold: float = 1.0,
) -> TailDiagnostics:
    """Hill estimator on the top summands, safe against overflowed values.

    Works on log summands so that astronomically large exponentials keep
    exact relative order.  Entries at or below the threshold never enter;
    fewer than five usable entries (for example all summands equal) count as
    evidence of a bounded summand, reported with an infinite index.
    """
    if (samples is None) == (log_samples is None):
        raise ConfigurationError("pass exactly one of samples or log_samples")
    if log_samples is None:
        s = np.asarray(samples, dtype=np.float64)
        if np.any(s <= 0):
            raise ConfigurationError("summands must be positive")
        ls = np.log(s)
    else:
        ls = np.asarray(log_samples, dtype=np.float64)
    n = ls.size
    if n < 20:
        raise EstimationError(
            "too few summands for tail diagnostics", diagnostics={"n": int(n)}
        )
    order = np.sort(ls)[::-1]
    k = max(int(np.floor(n * top_fraction)), 5)
    log_u = max(float(order[min(k, n - 1)]), np.log(threshold))
    top = order[order > log_u]
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


@dataclass(frozen=True, eq=False)
class NovikovEstimate:
    estimate: float
    se: float
    n_used: int
    censored_fraction: float
    exponents: np.ndarray
    tail: TailDiagnostics
    verdict: str


def novikov_mc(
    market: CreditMarket,
    k: int,
    seed: int | None = None,
    q_form: str = "consistent",
) -> NovikovEstimate:
    """Average the integrability summand over the market's default sample.

    A fresh k-dimensional driver is attached to each path and read at the
    default time by exact Brownian bridging between grid nodes.  Paths that
    never default inside the horizon are censored and excluded; the estimate
    is the conditional expectation given default before the horizon, which is
    what the quadrature cross-check integrates when its time density is
    truncated to the same horizon.

    Summands whose exponent overflows float range make the estimate infinite;
    the tail diagnostics stay meaningful because they work on the exponents.
    """
    if q_form not in _Q_FORMS:
        raise ConfigurationError(f"unknown q_form {q_form!r}")
    if k < 1:
        raise ConfigurationError("driver dimension k must be >= 1")
    sample = market.defaults
    if seed is None:
        seed = market.seed
    mask = sample.defaulted()
    n_def = int(mask.sum())
    if n_def < 20:
        raise EstimationError(
            "too few defaults for the integrability estimate",
            diagnostics={"defaulted": n_def},
        )
    grid = sample.grid
    times = grid.times
    driver = simulate_brownian(grid, sample.n_paths, k, seed, TAG_NOVIKOV_DRIVER)
    rows = np.nonzero(mask)[0]
    tau_d = sample.tau[rows]
    i1 = np.searchsorted(times, tau_d)
    i0 = i1 - 1
    dt = times[i1] - times[i0]
    theta = (tau_d - times[i0]) / dt
    xi = _keyed_rows(seed, TAG_NOVIKOV_BRIDGE, rows, (k,), lambda gen: gen.standard_normal(k))
    w0 = driver.values[rows, i0]
    w1 = driver.values[rows, i1]
    w_tau = (
        w0 + theta[:, None] * (w1 - w0) + np.sqrt(theta * (1 - theta) * dt)[:, None] * xi
    )
    q = np.sum(w_tau * w_tau, axis=1) / tau_d
    if q_form == "printed":
        q = np.sqrt(q)
    lgd_kind = market.lgd.kind
    if lgd_kind == "driver_linked":
        l = np.array([market.lgd.fn(tau_d[i], w_tau[i]) for i in range(n_def)])
    else:
        l = realized_lgd_at_default(market)[rows]
    if np.any((l < 0) | (l >= 2)):
        raise ConfigurationError("LGD values must lie in [0, 2) for the summand")
    coef = (2.0 * l / (2.0 - l)) ** 2
    with np.errstate(divide="ignore"):
        exponents = coef * tau_d / q
    with np.errstate(over="ignore"):
        summands = np.exp(exponents)
    estimate = float(summands.mean())
    # the variance needs exp(2 max exponent), so guard it separately
    if np.isfinite(summands).all() and exponents.max() < 350.0:
        se = float(_mean_se(summands))
    else:
        se = np.inf
    if not np.isfinite(summands).all():
        estimate = np.inf
    tail = tail_diagnostics(log_samples=exponents)
    verdict = "divergence_evidence" if not np.isfinite(estimate) else tail.verdict
    return NovikovEstimate(
        estimate,
        se,
        n_def,
        float(1.0 - n_def / sample.n_paths),
        exponents,
        tail,
        verdict,
    )


# ---------------------------------------------------------------------------
# Quadrature route


@dataclass(frozen=True, eq=False)
class DensitySpec:
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
        from scipy import integrate

        mass, _ = integrate.quad(self.tau_pdf, 0.0, self.t_max, limit=200)
        if abs(mass - 1.0) > 1e-6:
            raise ConfigurationError(
                f"tau density integrates to {mass:.8f}, not 1 within 1e-6"
            )
        if self.lgd_pdf is not None:
            lo, hi = self.lgd_support
            mass, _ = integrate.quad(self.lgd_pdf, lo, hi, limit=200)
            if abs(mass - 1.0) > 1e-6:
                raise ConfigurationError(
                    f"LGD density integrates to {mass:.8f}, not 1 within 1e-6"
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


def capped_lgd_tq(cap: float = 0.1, u_max: float = 2.0) -> Callable:
    """LGD rule keeping the summand exponent at min(cap, u_max^2 t / q).

    Solving 2l/(2-l) = u with u = min(u_max, sqrt(cap q / t)) gives
    l = 2u/(2+u), so the exponent (2l/(2-l))^2 t/q never exceeds cap and the
    expectation is finite by construction.
    """
    if not 0 < cap or not 0 < u_max <= 2.0:
        raise ConfigurationError("need cap > 0 and 0 < u_max <= 2")

    def rule(t, q):
        u = np.minimum(u_max, np.sqrt(cap * np.asarray(q) / t))
        return 2.0 * u / (2.0 + u)

    return rule


def capped_lgd_driver(cap: float = 0.1, u_max: float = 2.0) -> Callable:
    """Driver-linked form of capped_lgd_tq: reads (t, w) and forms q itself."""
    rule = capped_lgd_tq(cap, u_max)

    def fn(t, w):
        q = float(np.dot(w, w)) / t
        return float(rule(t, q))

    return fn


@dataclass(frozen=True, eq=False)
class QuadratureResult:
    """Outcome of the moving-cutoff quadrature.

    Exactly one of converged / diverged is set on a clean run: converged
    means two successive cutoff halvings moved the log integral by less than
    rel_tol, diverged means the trace grew monotonically by more than the
    certificate threshold without settling.  trace holds (q_min, log value)
    per level.
    """

    converged: bool
    diverged: bool
    value: float
    log_value: float
    trace: list
    rel_tol: float

    @property
    def growth(self) -> float:
        return self.trace[-1][1] - self.trace[0][1]


def _gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _log_or_ninf(vals: np.ndarray) -> np.ndarray:
    out = np.full(vals.shape, -np.inf)
    pos = vals > 0
    out[pos] = np.log(vals[pos])
    return out


def novikov_quadrature(
    density: DensitySpec,
    q_min_start: float | None = None,
    halvings: int = 20,
    rel_tol: float = 1e-4,
    certificate_log_growth: float = float(np.log(1e6)),
    t_nodes: int = 64,
    l_nodes: int = 24,
    q_panels_per_decade: int = 12,
    q_nodes_per_panel: int = 24,
) -> QuadratureResult:
    """Integrate the summand against its closed-form scenery in log space.

    The chi-square direction is integrated on geometric panels from a lower
    cutoff q_min to the 1 - 1e-8 quantile; the cutoff is halved until the log
    integral settles (rel_tol over two successive levels) or the certificate
    fires: monotone growth beyond certificate_log_growth across the halvings,
    which witnesses the Q -> 0 divergence without ever evaluating an
    overflowing exponential outside log space.
    """
    from scipy import stats
    from scipy.special import logsumexp

    k = density.k
    q_max = float(stats.chi2.ppf(1.0 - 1e-8, k))
    if q_min_start is None:
        q_min_start = min(float(stats.chi2.ppf(0.01, k)), q_max / 100.0)
    if not 0 < q_min_start < q_max:
        raise ConfigurationError("q_min_start must lie inside the chi-square range")
    t_x, t_w = _gauss_legendre(0.0, density.t_max, t_nodes)
    log_t = _log_or_ninf(np.asarray(density.tau_pdf(t_x), dtype=np.float64)) + np.log(t_w)
    if density.lgd_pdf is not None:
        lo, hi = density.lgd_support
        l_x, l_w = _gauss_legendre(lo, hi, l_nodes)
        log_l = _log_or_ninf(np.asarray(density.lgd_pdf(l_x), dtype=np.float64)) + np.log(
            l_w
        )
    elif density.lgd_value is not None:
        l_x = np.array([density.lgd_value])
        log_l = np.array([0.0])
    else:
        l_x = None
        log_l = None

    def level_log_value(q_min: float) -> float:
        decades = np.log10(q_max / q_min)
        n_panels = max(int(np.ceil(decades * q_panels_per_decade)), 1)
        edges = np.geomspace(q_min, q_max, n_panels + 1)
        q_x = np.empty(n_panels * q_nodes_per_panel)
        q_w = np.empty_like(q_x)
        for i in range(n_panels):
            xs, ws = _gauss_legendre(edges[i], edges[i + 1], q_nodes_per_panel)
            q_x[i * q_nodes_per_panel : (i + 1) * q_nodes_per_panel] = xs
            q_w[i * q_nodes_per_panel : (i + 1) * q_nodes_per_panel] = ws
        log_q = stats.chi2.logpdf(q_x, k) + np.log(q_w)
        q_eff = np.sqrt(q_x) if density.q_form == "printed" else q_x
        if density.lgd_given_tq is not None:
            l_tq = np.clip(density.lgd_given_tq(t_x[:, None], q_x[None, :]), 0.0, 1.999)
            coef = (2.0 * l_tq / (2.0 - l_tq)) ** 2
            expo = coef * (t_x[:, None] / q_eff[None, :])
            table = log_t[:, None] + log_q[None, :] + expo
        else:
            coef = (2.0 * l_x / (2.0 - l_x)) ** 2
            expo = coef[None, :, None] * (t_x[:, None, None] / q_eff[None, None, :])
            table = (
                log_t[:, None, None] + log_l[None, :, None] + log_q[None, None, :] + expo
            )
        return float(logsumexp(table))

    trace = []
    converged = False
    q_min = float(q_min_start)
    small_steps = 0
    for _ in range(halvings + 1):
        lv = level_log_value(q_min)
        if trace:
            if abs(lv - trace[-1][1]) < rel_tol:
                small_steps += 1
            else:
                small_steps = 0
        trace.append((q_min, lv))
        if small_steps >= 2:
            converged = True
            break
        q_min *= 0.5
    log_value = trace[-1][1]
    diverged = False
    if not converged:
        increments = np.diff([v for _, v in trace])
        monotone = bool(np.all(increments >= -rel_tol))
        if monotone and (log_value - trace[0][1]) > certificate_log_growth:
            diverged = True
    value = float(np.exp(log_value)) if converged else np.inf
    return QuadratureResult(converged, diverged, value, float(log_value), trace, rel_tol)
