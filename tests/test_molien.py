"""Molien series against the elementwise average and closed forms."""

from fractions import Fraction

import pytest

from agstab import molien
from agstab.cones import cone_automorphisms
from agstab.errors import CapExceeded, InconsistentAction
from agstab.intlinalg import integer_coordinates
from agstab.molien import LinearAction, det_from_power_sums, molien_series, molien_series_naive
from agstab.perms import PermGroup, Permutation
from agstab.series import RationalMatrix, TruncatedSeries, expand_rational_form, product_form
from wreath import symmetric_group


def natural(group):
    return LinearAction.natural(group)


def test_trivial_group():
    s = molien_series(natural(PermGroup.from_generators([Permutation.identity(3)])), 8)
    assert s == product_form({1: 3}, 8)


def test_symmetric_groups_give_staircase_products():
    for n in range(2, 6):
        s = molien_series(natural(symmetric_group(n)), 12)
        assert s == product_form({i: 1 for i in range(1, n + 1)}, 12)


def test_class_reduction_agrees_with_naive_average():
    # the sum keyed by cycle type against the element-by-element average
    groups = [
        symmetric_group(4),
        PermGroup.from_generators([Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])]),
        PermGroup.from_generators([Permutation.from_cycles(4, [(1, 2), (3, 4)]),
                                   Permutation.from_cycles(4, [(1, 3), (2, 4)])]),
        PermGroup.from_generators([Permutation.from_cycles(5, [(1, 4)]),
                                   Permutation.from_cycles(5, [(2, 5)]),
                                   Permutation.from_cycles(5, [(1, 2), (4, 5)])]),
    ]
    for g in groups:
        assert molien_series(natural(g), 10) == molien_series_naive(natural(g), 10)


def test_keyed_sum_separates_involutions_of_one_cycle_type():
    # the Klein four-group acting on Q^1 through the character with kernel
    # {e, (12)(34)}: its three involutions share cycle type (2, 2) but
    # (13)(24) and (14)(23) act by -1, so det(1 - tA) tells them apart.
    # The keyed sum reads the character as the action on the span of
    # w = 1, 1, -1, -1, which the group permutes
    kernel = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    g = PermGroup.from_generators([kernel, Permutation.from_cycles(4, [(1, 3), (2, 4)])])
    assert g.order == 4
    assert len({p.cycle_type() for p in g.elements if p != Permutation.identity(4)}) == 1
    plus, minus = RationalMatrix.identity(1), RationalMatrix(((Fraction(-1),),))
    mats = {p: (plus if p in (Permutation.identity(4), kernel) else minus) for p in g.elements}
    explicit = LinearAction.from_matrices(g, mats)
    span = LinearAction.on_span(g, [0], [(1,), (1,), (-1,), (-1,)], 1)
    assert all(span.matrix(p) == m for p, m in mats.items())
    assert molien_series(span, 10) == molien_series_naive(explicit, 10) == product_form({2: 1}, 10)


def test_five_point_dihedral_closed_form():
    # order-8 group on 5 points: (1-t^6) / ((1-t)^2 (1-t^2)^2 (1-t^3) (1-t^4))
    g = PermGroup.from_generators([Permutation.from_cycles(5, [(1, 4)]),
                                   Permutation.from_cycles(5, [(2, 5)]),
                                   Permutation.from_cycles(5, [(1, 2), (4, 5)])])
    assert g.order == 8
    expect = expand_rational_form((1, 0, 0, 0, 0, 0, -1), {1: 2, 2: 2, 3: 1, 4: 1}, 20)
    assert molien_series(natural(g), 20) == expect


def test_edge_action_closed_form():
    # symmetric group on 4 letters permuting the 6 unordered pairs
    gens = [Permutation.from_cycles(6, [(2, 4), (3, 5)]),
            Permutation.from_cycles(6, [(1, 2, 3), (4, 6, 5)])]
    g = PermGroup.from_generators(gens)
    assert g.order == 24
    expect = expand_rational_form((1, 0, 0, 1, 1, 1, 1, 0, 0, 1),
                                  {1: 1, 2: 2, 3: 2, 4: 1}, 20)
    assert molien_series(natural(g), 20) == expect


def test_sign_representation():
    flip = RationalMatrix(((Fraction(-1),),))
    ident = RationalMatrix.identity(1)
    g = PermGroup.from_generators([Permutation.from_cycles(2, [(1, 2)])])
    mats = {p: (ident if p == Permutation.identity(2) else flip) for p in g.elements}
    action = LinearAction.from_matrices(g, mats)
    s = molien_series_naive(action, 9)
    # even powers only
    assert s.integer_coefficients() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    # the swap acts by -1 on the span of w = 1, -1
    assert s == molien_series(LinearAction.on_span(g, [0], [(1,), (-1,)], 1), 9)
    assert action.matrix(Permutation.identity(2)) == ident


def test_reflection_action_matches_two_point_swap():
    # diag(1, -1) is the swap action in rotated coordinates
    g = PermGroup.from_generators([Permutation.from_cycles(2, [(1, 2)])])
    refl = RationalMatrix(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))))
    mats = {p: (RationalMatrix.identity(2) if p == Permutation.identity(2) else refl) for p in g.elements}
    action = LinearAction.from_matrices(g, mats)
    swap = natural(g)
    assert molien_series_naive(action, 12) == molien_series(swap, 12)
    assert molien_series_naive(action, 12) == product_form({1: 1, 2: 1}, 12)


@pytest.mark.parametrize("name", ("K_4", "K_4-1", "C_321", "C_331"))
def test_natural_matrices_are_the_permutation_matrices(matroidal_specs, name):
    # the searched group of a packaged cone: the natural action's matrix of
    # p has column a equal to e_p(a), and the naive sum of those matrices
    # is the naive sum of the natural action's cycle types
    group = cone_automorphisms(matroidal_specs[name])
    natural_action = natural(group)
    n = group.degree
    mats = {p: natural_action.matrix(p) for p in group}
    for p, m in mats.items():
        assert m == RationalMatrix([[Fraction(int(x == p(a + 1) - 1)) for a in range(n)] for x in range(n)])
    explicit = LinearAction.from_matrices(group, mats)
    assert molien_series_naive(explicit, 10) == molien_series_naive(natural_action, 10)


def test_from_matrices_rejects_non_homomorphism():
    g = PermGroup.from_generators([Permutation.from_cycles(3, [(1, 2, 3)])])
    two = RationalMatrix(((Fraction(2),),))
    mats = {p: (RationalMatrix.identity(1) if p == Permutation.identity(3) else two) for p in g.elements}
    with pytest.raises(ValueError):
        LinearAction.from_matrices(g, mats)


def test_naive_cap():
    with pytest.raises(CapExceeded):
        molien_series_naive(natural(symmetric_group(8)), 4)


def permutation_matrix(images):
    """The matrix sending e_i to e_{images[i-1]} (1-based images)."""
    return RationalMatrix([[int(img == x) for img in images] for x in range(1, len(images) + 1)])


def test_permutation_fast_path_equals_matrix_path():
    g = symmetric_group(4)
    action = natural(g)
    mats = {p: permutation_matrix(p.images) for p in g.elements}
    explicit = LinearAction.from_matrices(g, mats)
    assert molien_series(action, 10) == molien_series_naive(explicit, 10)


def test_keyed_sum_refers_explicit_matrices_to_the_naive_sum():
    g = symmetric_group(3)
    explicit = LinearAction.from_matrices(g, {p: permutation_matrix(p.images) for p in g.elements})
    with pytest.raises(TypeError, match="molien_series_naive"):
        molien_series(explicit, 4)


def test_newton_identities_give_det_one_minus_tA():
    # a 4-cycle and a rotation by 60 degrees: tr(A^k) = 0, 0, 0, 4 and 1, -1, -2
    assert det_from_power_sums((0, 0, 0, 4)) == [1, 0, 0, 0, -1]
    assert det_from_power_sums((1, -1)) == [1, -1, 1]
    with pytest.raises(InconsistentAction):
        det_from_power_sums((1, 0))  # c_2 = -1/2


def test_span_action_rejects_an_element_with_a_fractional_trace():
    # the forms of e1, e2, e1 + 2 e2, e1 + e2: the last is (f1 + f3) / 2 - f2
    # in the first three, so D = 2; a group whose named generators (the
    # identity) miss its element (3 4) passes the generator check, and the
    # trace 5/2 of (3 4) is caught when the element is keyed
    forms = [(a * a, a * b, b * b) for a, b in ((1, 0), (0, 1), (1, 2), (1, 1))]
    basis, coords, den = integer_coordinates(forms)
    swap = Permutation.from_cycles(4, [(3, 4)])
    group = PermGroup(4, (Permutation.identity(4),), sorted([swap.images, (1, 2, 3, 4)]))
    action = LinearAction.on_span(group, basis, coords, den)
    with pytest.raises(InconsistentAction, match="5/2"):
        molien_series(action, 4)


def test_span_action_rejects_clones_with_one_vector():
    # w_1 = w_2 spans Q with S_2 acting trivially, so P = 1/(1 - t); the
    # relation e_1 - e_2 is moved by (1 2), and the sum over H would read
    # (1 - t)/((1 - t)(1 - t^2)) = 1/(1 - t^2)
    group = symmetric_group(2)
    assert molien_series_naive(LinearAction.from_matrices(group, {p: RationalMatrix([[1]]) for p in group}), 4) == (
        product_form({1: 1}, 4))
    with pytest.raises(InconsistentAction, match="clones"):
        LinearAction.on_span(group, [0], [[1], [1]], 1)


# the rotations of a square: no clone classes, and three keys, of cycle types (1, 1, 1, 1), (2, 2), (4) and counts 1, 1, 2
ROTATIONS = PermGroup.from_generators([Permutation.from_cycles(4, [(1, 2, 3, 4)])])


def test_keyed_sum_rejects_a_remainder(monkeypatch):
    # one key's term off by one at t^1 adds its count, 1 or 2, to a sum divided by 4
    original, seen = molien._class_term, []

    def bumped(key, order):
        term = original(key, order)
        if not seen:
            term[1] += 1
        seen.append(key)
        return term

    monkeypatch.setattr(molien, "_class_term", bumped)
    with pytest.raises(ArithmeticError, match="non-negative integer coefficients, got \\d+/\\d+ at t\\^1"):
        molien_series(natural(ROTATIONS), 6)


def test_keyed_sum_rejects_a_negative_quotient(monkeypatch):
    original = molien._class_term
    monkeypatch.setattr(molien, "_class_term", lambda key, order: [-c for c in original(key, order)])
    with pytest.raises(ArithmeticError, match="non-negative integer coefficients, got -1 at t\\^0"):
        molien_series(natural(ROTATIONS), 6)


def test_naive_sum_rejects_a_coefficient_that_is_not_a_dimension(monkeypatch):
    # the element-by-element sum takes its permutation terms from product_form
    original, seen = molien.product_form, []

    def bumped(exponents, order):
        term = original(exponents, order)
        if not seen:
            term = term + TruncatedSeries([0, 1], order)
        seen.append(exponents)
        return term

    monkeypatch.setattr(molien, "product_form", bumped)
    with pytest.raises(ArithmeticError, match="non-negative integer coefficients, got \\d+/\\d+ at t\\^1"):
        molien_series_naive(natural(ROTATIONS), 6)
