"""Closed-form probability laws for the integrability and hazard-law checks.

The chi-square law with integer degrees of freedom serves
novikov.novikov_quadrature, and the two-sided Kolmogorov-Smirnov law of n
uniforms serves credit.cox_uniformity, which refuses samples of fewer than
300 defaults: the KS law is the Pelz-Good expansion alone, within 1e-6 of the
exact law for n >= 300.  Both callers import this module when they run, so
``import curvarb`` does not load it.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Chi-square with integer degrees of freedom


def chi2_cdf(k: int, x: float) -> float:
    """P[chi2_k <= x] by the power series of the lower incomplete gamma
    function: positive terms only, so small probabilities keep full
    relative precision."""
    a, y = 0.5 * k, 0.5 * x
    if y <= 0.0:
        return 0.0
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= y / (a + n)
        total += term
    return math.exp(a * math.log(y) - y - math.lgamma(a + 1.0)) * total


def chi2_sf(k: int, x: float) -> float:
    """P[chi2_k > x] in closed form for integer k (Abramowitz & Stegun
    26.4.4-26.4.5): a Poisson sum for even k, erfc plus a finite series for
    odd k.  Positive terms only, so the far upper tail has no cancellation."""
    y = 0.5 * x
    if k % 2 == 0:
        term, total = 1.0, 1.0
        for j in range(1, k // 2):
            term *= y / j
            total += term
        return math.exp(-y) * total
    term, total = 2.0 * math.sqrt(y / math.pi), 0.0  # y^(1/2) / Gamma(3/2)
    for j in range(k // 2):
        total += term
        term *= y / (j + 1.5)
    return math.erfc(math.sqrt(y)) + math.exp(-y) * total


def chi2_ppf(k: int, p: float) -> float:
    """Chi-square quantile for integer k and 0 < p < 1, bisected to adjacent
    floats: on the CDF for p <= 1/2 and on the survival function at
    q = 1 - p (exact in floating point) above, so a quantile near p = 1 has
    no cancellation."""
    if p <= 0.5:
        tail, target, sign = chi2_cdf, p, 1.0
    else:
        tail, target, sign = chi2_sf, 1.0 - p, -1.0
    excess = lambda x: sign * (tail(k, x) - target)  # noqa: E731  rises with x
    lo, hi = 0.0, float(k)
    while excess(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(excess(lo)) < abs(excess(hi)) else hi


def chi2_logpdf(k: int, x: np.ndarray) -> np.ndarray:
    """log of the chi-square density at x > 0."""
    a = 0.5 * k
    return (a - 1.0) * np.log(x) - x / 2 - math.lgamma(a) - (math.log(2) * k) / 2


# ---------------------------------------------------------------------------
# The two-sided Kolmogorov-Smirnov law of n uniforms


def kolmogorov_sf(n: int, d: float) -> float:
    """P[D_n >= d] for the two-sided KS statistic of n uniforms.

    Valid for n >= 300, where the Pelz-Good expansion alone is within 1e-6
    of the exact law wherever that law is at least 1e-6 (Simard & L'Ecuyer
    (2011), J. Stat. Softw. 39(11), use it for n > 140 outside both tails).
    A value below 1e-6 reads only as a rejection.  The law is exactly 0 for
    d >= 1 and 1 for n d <= 1/2.
    """
    if d >= 1.0:
        return 0.0
    if n * d <= 0.5:
        return 1.0
    return min(max(1.0 - _pelz_good_cdf(n, d), 0.0), 1.0)


def _pelz_good_cdf(n: int, d: float) -> float:
    """P[D_n < d] by the Pelz & Good (1976) expansion
    K0 + K1 / sqrt(n) + K2 / n + K3 / n^(3/2) in z = d sqrt(n): theta series
    over the odd squares m^2 (in K2 and K3 also over all squares k^2),
    which converge fast for small z."""
    z = math.sqrt(n) * d
    z2 = z * z
    pi2 = math.pi**2
    if pi2 / (8 * z2) > 708.0:  # every term underflows
        return 0.0
    kmax = math.ceil(16 * z / math.pi)
    k2 = np.arange(1.0, kmax + 1) ** 2
    c = pi2 * (np.sqrt(k2) - 0.5) ** 2  # pi^2 m^2 / 4 for m = 2k - 1
    q = np.exp(-c / (2 * z2))
    r = np.exp(-pi2 * k2 / (2 * z2))
    root = math.sqrt(2 * math.pi)
    poly2 = 6 * z**6 + 2 * z**4 + (2 * z**4 - 5 * z2) * c + (1 - 2 * z2) * c**2
    poly3 = (
        -30 * z**6 - 90 * z**8 + (135 * z**4 - 96 * z**6) * c
        + (212 * z**4 - 60 * z2) * c**2 + (5 - 30 * z2) * c**3
    )
    terms = (
        root / z * np.sum(q),
        root / (6 * z**4) * np.sum((c - z2) * q),
        root / (72 * z**7) * np.sum(poly2 * q) - pi2 * root / (36 * z**3) * np.sum(k2 * r),
        root / (6480 * z**10) * np.sum(poly3 * q)
        + pi2 * root / (216 * z**6) * np.sum((3 * z2 - pi2 * k2) * k2 * r),
    )
    return float(sum(t / n ** (i / 2) for i, t in enumerate(terms)))
