"""Symmetric-function layer: plethysm and the plethystic exponential.

The oracle for plethysm_h is the partition-sum expansion of h_n in power
sums, h_n = sum over partitions lambda of n of c_lambda/n! p_lambda,
where c_lambda counts the permutations of S_n with cycle type lambda;
substituting P(t^i) for each p_i gives h_n[P].
"""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab.errors import NonIntegralCoefficient, NonzeroConstant
from agstab.molien import LinearAction, molien_series
from agstab.perms import PermGroup, Permutation
from agstab.series import TruncatedSeries, product_form
from agstab.symfunc import exp_series, exp_series_via_h, plethysm_h
from wreath import symmetric_group, wreath_product


def partitions(n):
    """All partitions of n as weakly increasing tuples, lexicographically."""

    def rec(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(rec(n, 1))


def cycle_type_count(n, parts):
    """Number of permutations of S_n with the given cycle type: n! / prod_i (i^{m_i} m_i!)."""
    assert sum(parts) == n and min(parts, default=1) >= 1
    denom = 1
    for length, m in Counter(parts).items():
        denom *= length**m * math.factorial(m)
    return math.factorial(n) // denom


def h_in_power_sums(n):
    """Power-sum expansion of h_n: partition -> coefficient c/n!."""
    return {parts: Fraction(cycle_type_count(n, parts), math.factorial(n)) for parts in partitions(n)}


def plethysm_by_partitions(n, series):
    """h_n[P] with P(t^i) substituted for each power sum p_i."""
    order = series.order

    def power(i):
        coeffs = [0] * (order + 1)
        for k, c in enumerate(series.coefficients[: order // i + 1]):
            coeffs[k * i] = c
        return TruncatedSeries(coeffs)

    acc = TruncatedSeries.zero(order)
    for parts, coeff in h_in_power_sums(n).items():
        term = TruncatedSeries.one(order)
        for i in parts:
            term = term * power(i)
        acc = acc + coeff * term
    return acc


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        parts = partitions(n)
        assert len(parts) == count
        for lam in parts:
            assert sum(lam) == n
            assert list(lam) == sorted(lam)


def test_cycle_type_count_matches_enumeration():
    n = 6
    counts = Counter(p.cycle_type() for p in symmetric_group(n).elements)
    for parts, count in counts.items():
        assert cycle_type_count(n, parts) == count
    assert sum(counts.values()) == math.factorial(n)


def test_cycle_type_count_sums_to_factorial():
    for n in range(1, 9):
        assert sum(cycle_type_count(n, parts) for parts in partitions(n)) == math.factorial(n)


def test_cycle_type_count_explicit():
    # 7! / (1 * 2 * 4) permutations with cycle type (4, 2, 1)
    assert cycle_type_count(7, (4, 2, 1)) == 630


def test_h_in_power_sums_small_cases():
    # h_1 = p_1; h_2 = (p_1^2 + p_2)/2; h_3 = (p_1^3 + 3 p_1 p_2 + 2 p_3)/6
    assert h_in_power_sums(1) == {(1,): Fraction(1)}
    assert h_in_power_sums(2) == {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    assert h_in_power_sums(3) == {
        (1, 1, 1): Fraction(1, 6),
        (1, 2): Fraction(1, 2),
        (3,): Fraction(1, 3),
    }


def test_h_coefficients_sum_to_one():
    # evaluating every p_i at 1 sends h_n to 1
    for n in range(1, 8):
        assert sum(h_in_power_sums(n).values()) == 1


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(coefficients=st.lists(rationals, min_size=1, max_size=11), n=st.integers(0, 6))
def test_plethysm_matches_partition_sum(coefficients, n):
    # rational coefficients of either sign, constant term included
    series = TruncatedSeries(coefficients)
    assert plethysm_h(n, series) == plethysm_by_partitions(n, series)


@pytest.mark.parametrize("constant", [Fraction(2, 3), Fraction(-2), Fraction(-1, 2), Fraction(3)])
def test_plethysm_with_a_constant_term_matches_partition_sum(constant):
    # h_n[c + P'] = sum_j C(c+j-1, j) h_(n-j)[P'], with n past the order too
    series = TruncatedSeries([constant, Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(2)])
    for n in range(9):
        assert plethysm_h(n, series) == plethysm_by_partitions(n, series), n


def test_plethysm_of_high_degree_with_a_constant_term_is_prompt():
    # h_n[1 + t] = sum_j h_j[1] h_(n-j)[t] = 1 + t + .. + t^n
    order = 10
    t0 = time.perf_counter()
    result = plethysm_h(1000, TruncatedSeries([1, 1] + [0] * (order - 1)))
    assert time.perf_counter() - t0 < 1
    assert result == TruncatedSeries([1] * (order + 1))


def test_exp_of_geometric_is_partition_function():
    inner = product_form({1: 1}, 10) * TruncatedSeries([0, 1], 10)
    s = exp_series(inner)
    assert s.integer_coefficients() == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_exp_two_evaluation_paths_agree():
    cases = [
        product_form({1: 1}, 20) * TruncatedSeries([0, 1], 20),
        TruncatedSeries([0, 1, 0, 0, 2], 20),
        product_form({2: 3}, 20) * TruncatedSeries([0, 0, 0, 1], 20),
    ]
    for inner in cases:
        assert exp_series(inner) == exp_series_via_h(inner)


def test_exp_turns_sums_into_products():
    a = TruncatedSeries([0, 1, 0, 1], 15)
    b = TruncatedSeries([0, 0, 2], 15)
    assert exp_series(a + b) == exp_series(a) * exp_series(b)


def test_exp_requires_zero_constant():
    with pytest.raises(NonzeroConstant):
        exp_series(TruncatedSeries.one(5))


def test_exp_requires_integer_coefficients():
    s = TruncatedSeries((0, Fraction(1, 2)), 5)
    with pytest.raises(NonIntegralCoefficient):
        exp_series(s)


def test_plethysm_h1_is_identity():
    s = product_form({1: 2}, 12)
    assert plethysm_h(1, s) == s


def test_wreath_molien_equals_plethysm():
    bases = [PermGroup.from_generators([Permutation.identity(1)]), symmetric_group(2), symmetric_group(3)]
    for base in bases:
        inner = molien_series(LinearAction.natural(base), 15)
        for n in range(1, 4):
            w = wreath_product(base, n)
            left = molien_series(LinearAction.natural(w), 15)
            assert left == plethysm_h(n, inner)
