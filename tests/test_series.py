"""Truncated series arithmetic against brute-force oracles."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab.errors import InputError, NonIntegralCoefficient, ZeroConstantTerm
from agstab.perms import Permutation
from agstab.series import (
    RationalMatrix,
    TruncatedSeries,
    det_one_minus_tA,
    expand_rational_form,
    product_form,
)
from agstab.symfunc import exp_series, plethysm_h


def naive_product(a, b, order):
    # independent convolution, no reuse of library multiplication
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1]):
            if i + j <= order:
                out[i + j] += x * y
    return tuple(out)


def poly_det(rows):
    # cofactor expansion over polynomial ring, entries are coefficient lists
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = [Fraction(0)]

    def padd(p, q, sign):
        out = list(p) + [Fraction(0)] * max(0, len(q) - len(p))
        for i, c in enumerate(q):
            out[i] += sign * c
        return out

    def pmul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    for col in range(n):
        minor = [[row[c] for c in range(n) if c != col] for row in rows[1:]]
        term = pmul(rows[0][col], poly_det(minor))
        total = padd(total, term, Fraction((-1) ** col))
    return total


coeff = st.builds(Fraction, st.integers(min_value=-20, max_value=20),
                  st.integers(min_value=1, max_value=6))
coeff_lists = st.lists(coeff, min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_multiplication_matches_convolution(a, b):
    order = 7
    sa = TruncatedSeries(a, order)
    sb = TruncatedSeries(b, order)
    assert (sa * sb).coefficients == naive_product(sa.coefficients, sb.coefficients, order)


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_inverse_is_two_sided(a):
    a = [Fraction(1)] + list(a)
    order = 6
    s = TruncatedSeries(a, order)
    assert (s * s.inverse()) == TruncatedSeries.one(order)
    assert (s.inverse() * s) == TruncatedSeries.one(order)


def test_inverse_requires_nonzero_constant():
    s = TruncatedSeries((0, 1, 0, 0))
    with pytest.raises(ZeroConstantTerm):
        s.inverse()


def test_geometric_series():
    assert product_form({1: 1}, 5).integer_coefficients() == [1, 1, 1, 1, 1, 1]
    assert product_form({3: 1}, 7).integer_coefficients() == [1, 0, 0, 1, 0, 0, 1, 0]


def test_monomial_and_shift():
    m = TruncatedSeries([0, 0, 0, 5], 6)
    assert m.integer_coefficients() == [0, 0, 0, 5, 0, 0, 0]
    s = product_form({1: 1}, 4) * TruncatedSeries([0, 0, 1], 4)
    assert s.integer_coefficients() == [0, 0, 1, 1, 1]


def test_truncate_and_pad():
    s = product_form({1: 1}, 6)
    assert s.truncate(3).order == 3
    with pytest.raises(ValueError, match=r"TruncatedSeries\(coefficients, order\) pads"):
        s.truncate(9)
    p = TruncatedSeries((1, 2, 0))
    assert TruncatedSeries(p.coefficients, 5).integer_coefficients() == [1, 2, 0, 0, 0, 0]


def test_product_form_single_factors():
    assert product_form({1: 1}, 6).integer_coefficients() == [1] * 7
    assert product_form({2: 1}, 6).integer_coefficients() == [1, 0, 1, 0, 1, 0, 1]
    # 1/(1-t)^2 has coefficients k+1
    assert product_form({1: 2}, 8).integer_coefficients() == list(range(1, 10))
    with pytest.raises(ValueError):
        product_form({1: 1, 2: -1}, 6)


def test_euler_product_gives_partition_numbers():
    s = product_form({i: 1 for i in range(1, 11)}, 10)
    assert s.integer_coefficients() == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_expand_rational_form():
    s = expand_rational_form((1, 0, -1), {1: 2}, 6)
    # (1-t^2)/(1-t)^2 = (1+t)/(1-t)
    assert s.integer_coefficients() == [1, 2, 2, 2, 2, 2, 2]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_one_minus_tA_matches_cofactor_expansion(rows):
    order = 9
    m = RationalMatrix(tuple(tuple(Fraction(v) for v in r) for r in rows))
    got = TruncatedSeries(det_one_minus_tA(m).coefficients, order)
    poly = [[[Fraction(1 if i == j else 0), -Fraction(rows[i][j])] for j in range(3)]
            for i in range(3)]
    expect = poly_det(poly)
    expect += [Fraction(0)] * (order + 1 - len(expect))
    assert got.coefficients == tuple(expect[: order + 1])


def test_cycle_type_determines_det_one_minus_tA():
    # the identity behind keying permutation actions by cycle type:
    # det(1 - tA) = prod_j (1 - t^{l_j}) over the cycle lengths l_j
    for images in itertools.permutations(range(1, 6)):
        expect = TruncatedSeries.one(5)
        for length in Permutation(images).cycle_type():
            expect = expect * TruncatedSeries([1] + [0] * (length - 1) + [-1], 5)
        matrix = RationalMatrix([[int(img == x) for img in images] for x in range(1, 6)])
        assert TruncatedSeries(det_one_minus_tA(matrix).coefficients, 5) == expect


def test_json_round_trip():
    s = expand_rational_form((1, -1, 1), {1: 1, 3: 2}, 12)
    assert TruncatedSeries.from_json(s.to_json()) == s
    d = s.to_json_dict()
    assert d["order"] == 12
    assert all(isinstance(c, str) for c in d["coefficients"])


def test_from_json_rejects_malformed_payloads():
    with pytest.raises(InputError):
        TruncatedSeries.from_json(json.dumps({"order": 2}))
    with pytest.raises(InputError):
        TruncatedSeries.from_json(json.dumps({"order": 2, "coefficients": ["1", "x"]}))
    with pytest.raises(InputError):
        TruncatedSeries.from_json(json.dumps({"order": 3, "coefficients": ["1", "2"]}))


def test_json_coefficients_are_read_by_the_one_exact_rule():
    # a string reads exactly, "4/2" and integral decimals as ints, a JSON integer as itself
    s = TruncatedSeries.from_json(
        '{"order": 4, "coefficients": [0, "0.30000000000000001", "4/2", -7, "12345678901234567.5"]}'
    )
    assert s.coefficients == (0, Fraction(30000000000000001, 10**17), 2, -7, Fraction(24691357802469135, 2))
    assert type(s[2]) is int and type(s[3]) is int
    # a JSON float is already rounded (0.30000000000000001 parses as 0.3, 12345678901234567.5
    # as 12345678901234568.0), so it is refused with the values that are not numbers
    for bad in ("0.30000000000000001", "12345678901234567.5", "1.0", "true", "false", "null", "[1]", '{"a": 1}',
                '"1/0"', '"x"', '""'):
        with pytest.raises(InputError, match="^coefficients must be JSON integers or strings of exact rationals"):
            TruncatedSeries.from_json(f'{{"order": 1, "coefficients": [0, {bad}]}}')


def test_coefficients_are_ints_fractions_or_strings():
    assert TruncatedSeries([1, Fraction(4, 2), "3/6"]).coefficients == (1, 2, Fraction(1, 2))
    for bad in (0.5, True, None):
        with pytest.raises(TypeError, match="as an exact coefficient"):
            TruncatedSeries([1, bad])


def test_integer_coefficients_rejects_fractions():
    s = TruncatedSeries((Fraction(1), Fraction(1, 2)))
    with pytest.raises(NonIntegralCoefficient):
        s.integer_coefficients()


def test_polynomial_string():
    s = expand_rational_form((1, 0, -1), {1: 2}, 3)
    assert s.polynomial_string() == "1 + 2*t + 2*t^2 + 2*t^3"


# -- representation: an int, or a Fraction only when it is not an integer ----
#
# Each operation is compared with the same operation done on Fraction
# lists here, and every coefficient it returns must be an int or a
# Fraction with denominator > 1, never a float.


def exact(series):
    for c in series.coefficients:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    return series.coefficients


def fracs(xs):
    return [Fraction(x) for x in xs]


def oracle_inverse(a):
    b = [1 / a[0]]
    for m in range(1, len(a)):
        b.append(-sum(a[k] * b[m - k] for k in range(1, m + 1)) / a[0])
    return tuple(b)


def oracle_product_form(exponents, order):
    acc = [Fraction(1)] + [Fraction(0)] * order
    for step, count in exponents.items():
        for _ in range(count):  # times 1/(1 - t^step)
            for k in range(step, order + 1):
                acc[k] += acc[k - step]
    return tuple(acc)


def oracle_exp(p):
    # Exp(P) = exp(L), L = sum_k P(t^k)/k, by n e_n = sum_j j l_j e_(n-j)
    order = len(p) - 1
    log = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        for i in range(1, order // k + 1):
            log[i * k] += Fraction(p[i], k)
    e = [Fraction(1)]
    for n in range(1, order + 1):
        e.append(sum(j * log[j] * e[n - j] for j in range(1, n + 1)) / n)
    return tuple(e)


def oracle_plethysm_h(n, p):
    # Newton's identity with the constant term kept in: m h_m = sum_k P(t^k) h_(m-k)
    order = len(p) - 1
    powers = [None] + [
        [p[i // k] if i % k == 0 else Fraction(0) for i in range(order + 1)] for k in range(1, n + 1)
    ]
    h = [[Fraction(1)] + [Fraction(0)] * order]
    for m in range(1, n + 1):
        acc = [Fraction(0)] * (order + 1)
        for k in range(1, m + 1):
            for i, x in enumerate(naive_product(powers[k], h[m - k], order)):
                acc[i] += x
        h.append([x / m for x in acc])
    return tuple(h[n])


small = st.integers(min_value=-30, max_value=30)
# a small denominator makes many of these integers, which must come out as ints
rational = st.builds(Fraction, small, st.integers(min_value=1, max_value=4))
int_lists = st.lists(small, min_size=1, max_size=8)
rational_lists = st.lists(rational, min_size=1, max_size=8)
any_lists = int_lists | rational_lists
# an integer series with constant +-1 has an integer inverse
unit_lists = st.tuples(st.sampled_from([1, -1]), int_lists).map(lambda p: [p[0]] + p[1])
scalars = small | rational


@settings(max_examples=80, deadline=None)
@given(any_lists, any_lists, scalars, scalars.filter(bool))
def test_arithmetic_keeps_coefficients_exact(a, b, c, d):
    sa, sb, fa, fb = TruncatedSeries(a), TruncatedSeries(b), fracs(a), fracs(b)
    assert exact(sa + sb) == tuple(x + y for x, y in zip(fa, fb))
    assert exact(sa - sb) == tuple(x - y for x, y in zip(fa, fb))
    assert exact(sa * sb) == naive_product(fa, fb, min(len(a), len(b)) - 1)
    assert exact(sa * c) == exact(c * sa) == tuple(Fraction(c) * x for x in fa)
    assert exact(sa / d) == tuple(x / Fraction(d) for x in fa)


@settings(max_examples=80, deadline=None)
@given(unit_lists | any_lists.filter(lambda a: a[0] != 0))
def test_inverse_keeps_coefficients_exact(a):
    assert exact(TruncatedSeries(a).inverse()) == oracle_inverse(fracs(a))


@settings(max_examples=60, deadline=None)
@given(any_lists, st.integers(min_value=0, max_value=10))
def test_truncation_and_json_keep_coefficients_exact(a, order):
    s, fa = TruncatedSeries(a), fracs(a)
    if order <= s.order:
        assert exact(s.truncate(order)) == tuple(fa[: order + 1])
    assert exact(TruncatedSeries(s.coefficients, order)) == tuple((fa + [Fraction(0)] * order)[: order + 1])
    # unreduced strings such as "4/2" read back as ints
    payload = {"order": s.order, "coefficients": [f"{2 * x.numerator}/{2 * x.denominator}" for x in fa]}
    assert exact(TruncatedSeries.from_json_dict(payload)) == tuple(fa)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4), max_size=4),
       st.integers(min_value=0, max_value=10))
def test_product_form_is_an_int_series(exponents, order):
    assert exact(product_form(exponents, order)) == oracle_product_form(exponents, order)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), max_size=8))
def test_exp_series_is_an_int_series(tail):
    p = [0] + tail
    assert exact(exp_series(TruncatedSeries(p))) == oracle_exp(p)


@settings(max_examples=60, deadline=None)
@given(rational, any_lists, st.integers(min_value=0, max_value=5))
def test_plethysm_h_with_a_rational_constant_keeps_coefficients_exact(constant, tail, n):
    p = [constant] + tail[:6]
    assert exact(plethysm_h(n, TruncatedSeries(p))) == oracle_plethysm_h(n, fracs(p))


def test_det_one_minus_tA_divides_exactly_where_a_step_divides_unevenly():
    # the Faddeev-LeVerrier traces are -5/2, -5 and -3/4: the integer -5 is
    # divided by k = 2, and the others by k = 1 and 3
    half = Fraction(1, 2)
    rows = ((-1, 0, -half), (-1, -half, 0), (1, 1, -1))
    got = exact(det_one_minus_tA(RationalMatrix(rows)))
    assert got == (1, Fraction(5, 2), Fraction(5, 2), Fraction(1, 4))
    poly = [[[Fraction(int(i == j)), -Fraction(rows[i][j])] for j in range(3)] for i in range(3)]
    assert list(got) == poly_det(poly)
