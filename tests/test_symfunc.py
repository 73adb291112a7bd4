"""Symmetric-function layer: plethysm and the plethystic exponential."""

from fractions import Fraction

import pytest

from agstab.errors import NonIntegralCoefficient, NonzeroConstant
from agstab.molien import LinearAction, molien_series
from agstab.perms import PermGroup, wreath_product
from agstab.series import TruncatedSeries, product_form
from agstab.symfunc import exp_series, exp_series_via_h, h_in_power_sums, partitions, plethysm_h


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        parts = partitions(n)
        assert len(parts) == count
        for lam in parts:
            assert sum(lam) == n
            assert list(lam) == sorted(lam)


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


def test_exp_of_geometric_is_partition_function():
    inner = product_form({1: 1}, 10).shift(1)
    s = exp_series(inner)
    assert s.integer_coefficients() == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_exp_two_evaluation_paths_agree():
    cases = [
        product_form({1: 1}, 20).shift(1),
        TruncatedSeries.monomial(1, 20) + TruncatedSeries.monomial(4, 20, 2),
        product_form({2: 3}, 20).shift(3),
    ]
    for inner in cases:
        assert exp_series(inner) == exp_series_via_h(inner)


def test_exp_turns_sums_into_products():
    a = TruncatedSeries.monomial(1, 15) + TruncatedSeries.monomial(3, 15)
    b = TruncatedSeries.monomial(2, 15, 2)
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
    bases = [PermGroup.trivial(1), PermGroup.symmetric(2), PermGroup.symmetric(3)]
    for base in bases:
        inner = molien_series(LinearAction.natural(base), 15)
        for n in range(1, 4):
            w = wreath_product(base, n)
            left = molien_series(LinearAction.natural(w), 15)
            assert left == plethysm_h(n, inner)
