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

    The recurrence runs in integers: with D the common denominator of P
    and Q = D P, F_m = m! D^m h_m[P] satisfies
    F_m = sum_{k=1..m} (m-1)!/(m-k)! D^(k-1) Q(t^k) F_{m-k},
    and F_n is divided by n! D^n once at the end.
    """
    order = series.order
    d = lcm(*(c.denominator for c in series.coefficients))
    q = [c.numerator * (d // c.denominator) for c in series.coefficients]
    # the nonzero terms (degree, coefficient) of Q(t^k) through t^order;
    # for k > order only the constant term is left
    q_at = [None] + [
        [(i * k, c) for i, c in enumerate(q[: order // k + 1]) if c] for k in range(1, order + 2)
    ]
    f = [[1] + [0] * order]
    for m in range(1, n + 1):
        acc = [0] * (order + 1)
        weight = 1  # (m-1)!/(m-k)! D^(k-1)
        for k in range(1, (m if q[0] else min(m, order)) + 1):
            lower = f[m - k]
            for shift, c in q_at[min(k, order + 1)]:
                c *= weight
                for j in range(order + 1 - shift):
                    acc[shift + j] += c * lower[j]
            weight *= (m - k) * d
        f.append(acc)
    denominator = factorial(n) * d**n
    return TruncatedSeries([Fraction(c, denominator) for c in f[n]])


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
        if c.denominator != 1 or c < 0:
            raise NonIntegralCoefficient(
                f"exponent of t^{i} must be a non-negative integer, got {c}"
            )
        out[i] = c.numerator
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
