"""Closed-form probability laws for the integrability and hazard-law checks.

The chi-square law with integer degrees of freedom serves
novikov.novikov_quadrature, and the two-sided Kolmogorov-Smirnov law of n
uniforms serves credit.cox_uniformity.  Both callers import this module when
they run, so ``import curvarb`` does not load it.
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

    The regimes are those of Simard & L'Ecuyer (2011), J. Stat. Softw.
    39(11): Ruben-Gambino closed forms at both ends, twice the one-sided
    Smirnov tail for large n d^2, Durbin's matrix for small n d^1.5, and the
    Pelz-Good expansion otherwise.  For n <= 140 Durbin's matrix (at most 47
    rows there) also covers n d^2 <= 4, where the paper uses Pomeranz's
    recursion; both are exact.
    """
    t = n * d
    if d >= 1.0:
        return 0.0
    if t <= 0.5:
        return 1.0
    if t <= 1.0:  # P[D_n < d] = n!/n^n (2t - 1)^n
        return -math.expm1(math.lgamma(n + 1) - n * math.log(n) + n * math.log(2 * t - 1))
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    if d >= 0.5 or t * d > (4.0 if n <= 140 else 2.2):
        p = 2.0 * _smirnov_sf(n, d)
    elif n <= 140 or (n <= 100_000 and t * math.sqrt(d) <= 1.4):
        p = 1.0 - _durbin_cdf(n, d)
    else:
        p = 1.0 - _pelz_good_cdf(n, d)
    return min(max(p, 0.0), 1.0)


def _smirnov_sf(n: int, d: float) -> float:
    """P[D_n^+ >= d], the one-sided tail, by the exact Birnbaum-Tingey sum
    d sum_j C(n, j) (1 - d - j/n)^(n - j) (d + j/n)^(j - 1), in log space."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    gap = 1.0 - d - j / n
    j, gap = j[gap > 0], gap[gap > 0]
    log_binom = np.zeros(j.size)
    np.cumsum(np.log((n - j[1:] + 1) / j[1:]), out=log_binom[1:])
    terms = log_binom + (n - j) * np.log(gap) + (j - 1) * np.log(d + j / n)
    top = float(np.max(terms))
    return math.exp(math.log(d) + top + math.log(np.sum(np.exp(terms - top))))


def _durbin_cdf(n: int, d: float) -> float:
    """P[D_n < d] by Durbin's matrix, as Marsaglia, Tsang & Wang (2003),
    J. Stat. Softw. 8(18), evaluate it: entry (k, k) of H^n times n!/n^n,
    with nd = k - h.  Every product is rescaled by a power of two."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    i = np.arange(m)
    lag = i[:, None] - i[None, :] + 1  # H[i, j] = 1/(i - j + 1)! below the superdiagonal
    hp = h ** np.arange(1.0, m + 1)
    hmat = np.where(lag >= 0, 1.0, 0.0)
    hmat[:, 0] -= hp
    hmat[-1, :] -= hp[::-1]
    hmat[-1, 0] += max(2 * h - 1, 0.0) ** m
    inv_fact = np.cumprod(np.concatenate(([1.0], 1.0 / np.arange(1.0, m + 1))))
    hmat *= inv_fact[np.maximum(lag, 0)]

    def rescaled(a):
        e = math.frexp(float(np.max(a)))[1]
        return np.ldexp(a, -e), e

    out, e_out = np.eye(m), 0
    power, e_pow = hmat, 0
    bits = n
    while True:
        if bits & 1:
            out, e = rescaled(out @ power)
            e_out += e_pow + e
        bits >>= 1
        if not bits:
            break
        power, e = rescaled(power @ power)
        e_pow = 2 * e_pow + e
    log_p = (
        math.log(out[k - 1, k - 1]) + e_out * math.log(2.0)
        + math.lgamma(n + 1) - n * math.log(n)
    )
    return math.exp(log_p)


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
