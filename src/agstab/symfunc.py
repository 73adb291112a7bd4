"""Complete homogeneous symmetric functions, plethysm, and Exp.

Plethysm by a one-variable series P(t) is the ring map that sends the
power sum p_k to P(t^k).  Newton's identity n h_n = sum_{k=1..n} p_k h_{n-k}
therefore carries over to h_n[P], so each h_m[P] costs m series
products given the lower ones.  The plethystic exponential
Exp(P) = sum_n h_n[P] collapses to the product prod_i (1 - t^i)^(-c_i)
when P = sum c_i t^i has non-negative integer coefficients and no
constant term.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import NonIntegralCoefficient, NonzeroConstant
from .series import TruncatedSeries, product_form


def plethysm_h(n: int, series: TruncatedSeries) -> TruncatedSeries:
    """h_n[P] by Newton's identity n h_n[P] = sum_{k=1..n} P(t^k) h_{n-k}[P].

    The constant term c of P = c + P' splits off first:
    h_n[c + P'] = sum_j C(c+j-1, j) h_{n-j}[P'], since h_j[c] = C(c+j-1, j)
    for any rational c, and h_m[P'] starts at t^m, so only the m = n - j
    up to the order are needed.  The recurrence runs in integers: with D
    the common denominator of P' and Q = D P', F_m = m! D^m h_m[P']
    satisfies F_m = sum_{k=1..m} (m-1)!/(m-k)! D^(k-1) Q(t^k) F_{m-k},
    and each F_m is divided by m! D^m once, at the end.
    """
    order = series.order
    constant = series.coefficients[0]
    d = lcm(*(c.denominator for c in series.coefficients[1:]))
    q = [0] + [c.numerator * (d // c.denominator) for c in series.coefficients[1:]]
    # the nonzero terms (degree, coefficient) of Q(t^k) through t^order
    q_at = [None] + [[(i * k, c) for i, c in enumerate(q[: order // k + 1]) if c] for k in range(1, order + 1)]
    top = min(n, order)
    f = [[1] + [0] * order]
    for m in range(1, top + 1):
        acc = [0] * (order + 1)
        weight = 1  # (m-1)!/(m-k)! D^(k-1)
        for k in range(1, m + 1):
            lower = f[m - k]
            for shift, c in q_at[k]:
                c *= weight
                for j in range(order + 1 - shift):
                    acc[shift + j] += c * lower[j]
            weight *= (m - k) * d
        f.append(acc)
    total = [Fraction(0)] * (order + 1)
    binomial = Fraction(1)  # C(c+j-1, j) at j = n - m
    for j in range(n + 1):
        m = n - j
        if m <= top:
            scale = binomial / (factorial(m) * d**m)
            for k, x in enumerate(f[m]):
                total[k] += scale * x
        binomial = binomial * (constant + j) / (j + 1)
        if not binomial:  # c + j = 0 for an integer c <= 0, and every later one is 0 too
            break
    return TruncatedSeries(total)


def _exponent_map(series: TruncatedSeries) -> dict[int, int]:
    coeffs = series.coefficients
    if coeffs[0] != 0:
        raise NonzeroConstant(
            f"plethystic exponential needs a zero constant term, got {coeffs[0]}"
        )
    out = {}
    for i, c in enumerate(coeffs[1:], start=1):
        if c == 0:
            continue
        if type(c) is not int or c < 0:
            raise NonIntegralCoefficient(
                f"exponent of t^{i} must be a non-negative integer, got {c}"
            )
        out[i] = c
    return out


def exp_series(series: TruncatedSeries) -> TruncatedSeries:
    """Exp(P) = prod_i (1 - t^i)^(-c_i) for P = sum c_i t^i."""
    return product_form(_exponent_map(series), series.order)


def exp_series_via_h(series: TruncatedSeries) -> TruncatedSeries:
    """Exp(P) summed as sum_n h_n[P]; cross-check for exp_series.

    Since P has no constant term, h_n[P] starts at t^n and the sum over
    n <= order is exact at this truncation.
    """
    _exponent_map(series)  # enforce the same preconditions
    order = series.order
    acc = TruncatedSeries.one(order)
    for n in range(1, order + 1):
        acc = acc + plethysm_h(n, series)
    return acc
