"""Cone invariants, decomposition, and the automorphism search."""

import functools
import json
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agstab.cones
import agstab.perms
from agstab import intlinalg
from agstab.cli import main
from agstab.cones import (
    DEFAULT_NODE_BUDGET,
    ConeSpec,
    _AutSearch,
    _classes,
    _Lattice,
    _lattice,
    analyze,
    check_declared_automorphisms,
    cone_automorphisms,
    cone_components,
    cone_dimension,
    cone_poincare_series,
    cone_rank,
    cyclic_cone,
    direct_sum,
    form_coordinates,
    load_cone,
)
from agstab.errors import (
    CapExceeded,
    DegreeMismatch,
    InconsistentAction,
    InputError,
    SearchBudgetExceeded,
    VerificationFailed,
)
from agstab.intlinalg import integer_coordinates
from agstab.molien import (
    NAIVE_CAP,
    LinearAction,
    _relation_sums,
    det_from_power_sums,
    molien_series,
    molien_series_naive,
)
from agstab.perms import DEFAULT_CAP, PermGroup, Permutation
from agstab.pipeline import generator_series, load_cone_specs, load_dataset
from agstab.reference import PERFECT_GROUP_ORDERS
from agstab.series import RationalMatrix, TruncatedSeries, det_one_minus_tA, expand_rational_form, product_form
from agstab.symfunc import exp_series, plethysm_h
from lattice_oracles import (
    flattened_form_coordinates,
    fraction_gauss_det,
    gram_pairing,
    joint_leaf,
    matroid_components,
    same_coordinates,
    saturation_basis,
    tree_listing,
)
from lattice_sums import lattice_sums_cases
from test_perms import greedy_generators
from wreath import symmetric_group, wreath_product


def solve_in_basis(basis_rows, target):
    """Coefficients c with sum_i c_i * basis_rows[i] = target, or None.

    Gauss-Jordan over Fraction on the transposed system, independent of
    the fraction-free elimination in agstab.intlinalg; the basis rows must
    be linearly independent.
    """
    m = len(basis_rows)
    width = len(target)
    # eliminate on the transposed system [basis^T | target]
    cols = [[Fraction(basis_rows[i][j]) for i in range(m)] + [Fraction(target[j])] for j in range(width)]
    pivot_row = 0
    pivot_cols: list[int] = []
    for var in range(m):
        pivot = next((r for r in range(pivot_row, width) if cols[r][var] != 0), None)
        if pivot is None:
            continue
        cols[pivot_row], cols[pivot] = cols[pivot], cols[pivot_row]
        inv = cols[pivot_row][var]
        cols[pivot_row] = [a / inv for a in cols[pivot_row]]
        for r in range(width):
            if r != pivot_row and cols[r][var] != 0:
                factor = cols[r][var]
                cols[r] = [a - factor * b for a, b in zip(cols[r], cols[pivot_row])]
        pivot_cols.append(var)
        pivot_row += 1
    if len(pivot_cols) != m:
        raise ValueError("basis rows are not linearly independent")
    for r in range(pivot_row, width):
        if cols[r][m] != 0:
            return None
    out = [Fraction(0)] * m
    for r, var in enumerate(pivot_cols):
        out[var] = cols[r][m]
    return tuple(out)


# rank of the vector span for each packaged cone, keyed by name
EXPECTED_RANK = {
    "sigma_1": 1, "K_3": 2, "C_4": 3, "K_4-1": 3, "C_5": 4, "K_4": 3,
    "C_222": 4, "C_321": 4, "C_6": 5, "C_2221": 4, "K_5-2-1": 4, "K_5-3": 4,
    "C_421": 5, "C_331": 5, "C_322": 5, "C_7": 6,
    "(5,5)": 5, "(5,6)": 5, "(5,7a)": 5, "(5,7b)": 5, "(6,6)": 6,
    "(6,7a)": 6, "(6,7b)": 6, "(6,7c)": 6, "(6,7d)": 6,
    "(7,7a)": 7, "(7,7b)": 7, "(7,7c)": 7,
}

EXPECTED_AUT_ORDER = {
    "sigma_1": 1, "K_3": 6, "C_4": 24, "K_4-1": 8, "C_5": 120, "K_4": 24,
    "C_222": 48, "C_321": 12, "C_6": 720, "C_2221": 48, "K_5-2-1": 8,
    "K_5-3": 8, "C_421": 48, "C_331": 72, "C_322": 48, "C_7": 5040,
    "(5,5)": 120, "(5,6)": 120, "(5,7a)": 48, "(5,7b)": 24, "(6,6)": 720,
    "(6,7a)": 48, "(6,7b)": 720, "(6,7c)": 240, "(6,7d)": 48,
    "(7,7a)": 240, "(7,7b)": 5040, "(7,7c)": 5040,
}


def _declared_group(spec: ConeSpec) -> PermGroup:
    """The closure of the declared generators; sigma_1 declares none."""
    return PermGroup.from_generators(spec.declared_aut or (Permutation.identity(spec.n_generators),))


@pytest.fixture(scope="module")
def all_specs(matroidal_specs, perfect_specs):
    merged = dict(perfect_specs)
    merged.update(matroidal_specs)
    return merged


def test_every_packaged_cone_is_basic_and_irreducible(all_specs):
    assert set(all_specs) == set(EXPECTED_RANK)
    for name, spec in all_specs.items():
        dim = cone_dimension(spec)
        assert dim == spec.n_generators, name
        assert cone_rank(spec) == EXPECTED_RANK[name], name
        assert cone_components(spec) == (tuple(range(1, dim + 1)),), name


def test_declared_groups_match_table_orders(all_specs):
    for name, spec in all_specs.items():
        assert _declared_group(spec).order == EXPECTED_AUT_ORDER[name], name


def test_declared_generators_pass_the_cross_check(all_specs):
    # every packaged cone but sigma_1 declares generators of its whole searched group
    for name, spec in all_specs.items():
        assert spec.declared_aut or name == "sigma_1"
        aut = cone_automorphisms(spec)
        check_declared_automorphisms(spec, aut)
        assert aut.order == EXPECTED_AUT_ORDER[name], name


def test_cyclic_cone_construction():
    for k, expected_order in ((1, 1), (3, 6), (4, 24), (5, 120), (6, 720)):
        spec = cyclic_cone(k)
        assert spec.n_generators == max(k, 1)
        assert cone_dimension(spec) == max(k, 1)
        assert cone_rank(spec) == max(k - 1, 1)
        group = cone_automorphisms(spec)
        assert group.order == expected_order


def test_cyclic_cone_rejects_two():
    with pytest.raises(ValueError):
        cyclic_cone(2)


def test_verification_failure_on_bogus_declared_generator(all_specs):
    base = all_specs["K_4-1"]
    # swapping a loop generator with a path generator is not realizable
    bogus = ConeSpec(base.name, base.ambient, base.generators,
                     (Permutation.from_cycles(5, [(3, 4)]),), base.tags)
    with pytest.raises(VerificationFailed, match="not realizable"):
        check_declared_automorphisms(bogus, cone_automorphisms(bogus))


def test_verification_failure_on_simplicial_cone(all_specs):
    # no choice of signs makes this swap map the glue group of (7,7a) onto itself
    base = all_specs["(7,7a)"]
    bogus = replace(base, declared_aut=(Permutation.from_cycles(7, [(1, 2)]),))
    with pytest.raises(VerificationFailed, match="not realizable"):
        check_declared_automorphisms(bogus, cone_automorphisms(bogus))


def test_search_budget(all_specs):
    with pytest.raises(SearchBudgetExceeded):
        cone_automorphisms(all_specs["(7,7b)"], node_budget=10)


def test_sign_tries_count_against_the_budget(all_specs):
    # every generator of (7,7b) scaled by 5: d = 3 * 5^7, and up to 64
    # sign vectors per leaf, each a node
    base = all_specs["(7,7b)"]
    spec = ConeSpec("scaled", base.ambient, tuple(tuple(5 * x for x in v) for v in base.generators))
    ctx = _AutSearch(spec, node_budget=20)
    with pytest.raises(SearchBudgetExceeded) as info:
        ctx.search()
    assert info.value.counters["nodes"] == 21
    assert info.value.counters["leaves"] >= 1


# four lines e1, e2, e1-e2, e1+e2 span only the 3 binary quadratics
SQUARE = ((1, 0), (0, 1), (1, -1), (1, 1))


class _CountingSearch(_AutSearch):
    """The search with its calls of _extend and _swap_test counted: the nodes of the tree and the clone tests."""

    extends = swaps = 0

    def _extend(self, *args):
        self.extends += 1
        return super()._extend(*args)

    def _swap_test(self, *args):
        self.swaps += 1
        return super()._swap_test(*args)


def test_sign_flips_count_against_the_budget():
    # the pairing of the square is diagonal on its basis e1, e2, and e1 +- e2
    # lie outside it and read both, so e1 and e2 are one sign block and every
    # leaf tries two sign vectors; a budget that covers the search tree
    # alone must not cover those tries.  Each clone
    # test, (1 2) and (3 4), is a node and a leaf of its own; H is trivial,
    # so the tree is the identity targets' leaf alone
    spec = ConeSpec("square", 2, SQUARE)
    full = _CountingSearch(spec)
    assert [comps for comps, _, _ in full.sign_blocks] == [[[0], [1]]]
    assert full.search().order == 4
    assert (full.swaps, full.extends, full.leaves) == (2, 1, 3)
    assert full.nodes == full.extends + full.swaps + 2 * full.leaves
    with pytest.raises(SearchBudgetExceeded) as info:
        _AutSearch(spec, node_budget=full.extends).search()
    exc = info.value
    assert (exc.cone, exc.stage, exc.budget) == ("square", "search", full.extends)
    assert exc.counters["nodes"] == full.extends + 1
    assert 1 <= exc.counters["leaves"] <= full.leaves


def test_basis_sign_tries_count_against_the_budget(all_specs):
    # the generators of (7,7b) form a basis with d = 3, so every leaf and
    # every swap test tries sign vectors, each a node beyond the tree; a
    # budget that covers the tree and the swap tests alone must not suffice
    spec = all_specs["(7,7b)"]
    full = _CountingSearch(spec)
    assert full.search().order == 5040
    tree = full.extends + full.swaps
    assert full.nodes > tree
    for budget in (tree, full.nodes - 1):
        with pytest.raises(SearchBudgetExceeded) as info:
            _AutSearch(spec, node_budget=budget).search()
        assert info.value.counters["nodes"] == budget + 1
    assert _AutSearch(spec, node_budget=full.nodes).search().order == 5040


def test_search_budget_error_says_where_it_stopped(all_specs):
    with pytest.raises(SearchBudgetExceeded) as info:
        cone_automorphisms(all_specs["(7,7a)"], node_budget=10)
    exc = info.value
    assert (exc.cone, exc.stage, exc.budget) == ("(7,7a)", "search", 10)
    # the budget runs out in the swap tests, before the chain finds an element
    assert exc.counters == {"nodes": 11, "leaves": 2, "found": 0}
    assert str(exc) == "cone '(7,7a)': search exceeded its budget of 10 nodes (11 nodes, 2 leaves, 0 found)"


def test_search_budget_error_says_how_far_the_chain_got(all_specs):
    # K_4 has no clones: three swap tests, then the identity targets' leaf
    # finds the identity, and the first two searches at level 1 one more
    # element each
    with pytest.raises(SearchBudgetExceeded) as info:
        cone_automorphisms(all_specs["K_4"], node_budget=12)
    assert info.value.counters == {"nodes": 13, "leaves": 6, "found": 3}
    assert str(info.value) == "cone 'K_4': search exceeded its budget of 12 nodes (13 nodes, 6 leaves, 3 found)"


def test_closure_cap_error_says_where_it_stopped(all_specs, monkeypatch):
    # C_7 declares (1 2) and a 7-cycle: the closure adds cosets of <(1 2)>
    # two elements at a time, so it stops holding 100 elements, one coset short
    declared = all_specs["C_7"].declared_aut
    monkeypatch.setattr(agstab.perms, "DEFAULT_CAP", 100)
    with pytest.raises(CapExceeded) as info:
        PermGroup.from_generators(declared)
    assert (info.value.cone, info.value.stage, info.value.cap, info.value.elements) == (None, "closure", 100, 102)
    # the cross-check closes them under its cap and names the cone
    with pytest.raises(CapExceeded) as info:
        check_declared_automorphisms(all_specs["C_7"], cone_automorphisms(all_specs["C_7"]))
    exc = info.value
    assert (exc.cone, exc.stage, exc.cap, exc.elements) == ("C_7", "closure", 100, 102)
    assert str(exc) == "cone 'C_7': closure exceeded its cap of 100 elements: it needs at least 102"


def test_closing_the_found_elements_names_the_cone_past_the_cap(all_specs, monkeypatch):
    # H of K_4 is all of S_4; the closure of the elements the chain found
    # stops at 12 of its 24 elements past a cap of 10, and names the cone
    monkeypatch.setattr(agstab.perms, "DEFAULT_CAP", 10)
    with pytest.raises(CapExceeded) as info:
        cone_automorphisms(all_specs["K_4"])
    exc = info.value
    assert (exc.cone, exc.stage, exc.cap, exc.elements) == ("K_4", "closure", 10, 12)
    assert str(exc) == "cone 'K_4': closure exceeded its cap of 10 elements: it needs at least 12"


def test_a_search_closes_h_once(all_specs, monkeypatch):
    # K_4+K_4 has no clone classes and |H| = 1,152; the elements the chain
    # finds are closed once, and that closure both lists H and picks its
    # generators.  Every module binding of the closure is counted
    closure, calls = agstab.perms._coset_closure, []

    def counting(degree, *args, **kwargs):
        calls.append(degree)
        return closure(degree, *args, **kwargs)

    for module in (agstab.perms, agstab.cones):
        if getattr(module, "_coset_closure", None) is closure:
            monkeypatch.setattr(module, "_coset_closure", counting)
    k4 = all_specs["K_4"]
    group = cone_automorphisms(direct_sum(k4, k4))
    assert (group.order, group.classes) == (1152, ())
    assert calls == [12]


def test_basis_search_visits_under_a_tenth_of_all_assignments(all_specs):
    # the pairing invariants alone accept all 7! assignments of (7,7a),
    # a tree of 13,700 nodes, for a group of order 240; the glue indices
    # of its coloops and the clone classes cut it down, and H is trivial, so
    # past the five swap tests the chain runs the identity targets' leaf alone
    ctx = _AutSearch(replace(all_specs["(7,7a)"], declared_aut=None))
    assert ctx.search().order == 240
    assert ctx.nodes == 34


def test_direct_sum_splits_into_components():
    summand = cyclic_cone(3)
    double = direct_sum(summand, summand)
    assert cone_dimension(double) == 6
    assert cone_rank(double) == 4
    assert cone_components(double) == ((1, 2, 3), (4, 5, 6))


def test_direct_sum_automorphisms_include_block_swap():
    double = direct_sum(cyclic_cone(3), cyclic_cone(3))
    group = cone_automorphisms(double)
    assert group.order == 72


def test_direct_sum_poincare_is_wreath_plethysm():
    summand = cyclic_cone(3)
    double = direct_sum(summand, summand)
    group = cone_automorphisms(double)
    left = cone_poincare_series(double, group, 16)
    inner = cone_poincare_series(summand, cone_automorphisms(summand), 16)
    assert left == plethysm_h(2, inner)


def test_direct_sum_of_distinct_summands_factors():
    a, b = cyclic_cone(3), cyclic_cone(4)
    s = direct_sum(a, b)
    group = cone_automorphisms(s)
    ga, gb = cone_automorphisms(a), cone_automorphisms(b)
    assert group.order == ga.order * gb.order
    left = cone_poincare_series(s, group, 14)
    right = (cone_poincare_series(a, ga, 14) * cone_poincare_series(b, gb, 14))
    assert left == right


def test_two_loops_split():
    spec = ConeSpec("pair", 2, ((1, 0), (0, 1)), None, frozenset())
    assert cone_components(spec) == ((1,), (2,))
    group = cone_automorphisms(spec)
    assert group.order == 2
    s = cone_poincare_series(spec, group, 10)
    assert s == expand_rational_form((1,), {1: 1, 2: 1}, 10)


def test_index_two_configuration_is_indecomposable():
    # five independent vectors whose forms only decompose over the rationals
    spec = ConeSpec("idx2", 5, (
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0),
        (0, 0, 1, 0, 1), (1, 1, 0, 1, 1)), None, frozenset())
    assert cone_components(spec) == ((1, 2, 3, 4, 5),)


def test_non_basic_cone_uses_matrix_molien():
    spec = ConeSpec("square", 2, SQUARE, None, frozenset())
    assert cone_dimension(spec) == 3
    assert spec.n_generators == 4
    group = cone_automorphisms(spec)
    assert group.order == 4
    s = cone_poincare_series(spec, group, 16)
    # effective group is a four-group acting on (a+c, a-c, b)
    assert s == expand_rational_form((1,), {1: 1, 2: 2}, 16)


def test_square_form_basis_is_read_from_the_lattice():
    # e1 - e2 lies on both earlier basis members, and its off-diagonal product
    # -1 is new; e1 + e2's product 1 is not, so its form is the fourth and dependent
    spec = ConeSpec("square", 2, SQUARE)
    assert _lattice(spec.generators).form_basis == [0, 1, 2]
    assert cone_dimension(spec) == 3
    assert analyze(spec, order=0).form_basis == (1, 2, 3)


def test_span_sum_over_orbits_matches_the_naive_sum_when_h_moves_classes():
    # the sums of two and three squares: H permutes the summands' clone
    # classes, and the span Molien sum over H must still equal the sum over G
    square = ConeSpec("square", 2, SQUARE)
    double = direct_sum(square, square)
    for spec in (double, direct_sum(double, square)):
        group = cone_automorphisms(spec)
        assert any(h != tuple(range(1, spec.n_generators + 1)) for h in group.quotient_images())
        action = LinearAction.on_span(group, *form_coordinates(spec))
        assert molien_series(action, 12) == molien_series_naive(action, 12)


def _circuit(n: int) -> ConeSpec:
    """C_n: e_1, .., e_(n-1) and their sum, with independent forms and Aut = S_n, all clones."""
    basis = [tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1)]
    return ConeSpec(f"C_{n}", n - 1, tuple(basis) + ((1,) * (n - 1),))


def test_span_sum_over_many_clones_is_bounded():
    # square + C_7 + .. + C_11: 49 generators, |H| = 1, and 93,139,200
    # orbits of N on G; distinct irreducible summands, so Aut and P are
    # the products of the summands'
    parts = [ConeSpec("square", 2, SQUARE)] + [_circuit(n) for n in range(7, 12)]
    spec = functools.reduce(direct_sum, parts)
    start = time.perf_counter()
    result = analyze(spec, order=8)
    assert time.perf_counter() - start < 5
    assert result.dimension == spec.n_generators - 1
    assert result.aut.order == 4 * factorial(7) * factorial(8) * factorial(9) * factorial(10) * factorial(11)
    expected = expand_rational_form((1,), {1: 1, 2: 2}, 8)
    for n in range(7, 12):
        expected = expected * product_form({k: 1 for k in range(1, n + 1)}, 8)
    assert result.poincare == expected


def test_poincare_series_rejects_a_group_of_another_degree(all_specs):
    # S_5 on K_3's three forms once read as the series of S_5 on Q^5
    with pytest.raises(DegreeMismatch, match="cone 'K_3'"):
        cone_poincare_series(all_specs["K_3"], symmetric_group(5), 4)
    with pytest.raises(DegreeMismatch, match="cone 'square'"):
        cone_poincare_series(ConeSpec("square", 2, SQUARE), symmetric_group(6), 4)


@pytest.mark.parametrize("degree", (3, 6))
def test_span_action_rejects_a_group_of_another_degree(degree):
    # S_3 once indexed past the square's three form rows (IndexError), and
    # S_6 was reported as a permutation that does not act linearly
    with pytest.raises(DegreeMismatch, match=f"a group of degree {degree} on 4 vectors"):
        LinearAction.on_span(symmetric_group(degree), *form_coordinates(ConeSpec("square", 2, SQUARE)))


def test_inconsistent_action_detected():
    # swapping one axis with one diagonal breaks the linear relation
    spec = ConeSpec("square", 2, SQUARE, None, frozenset())
    with pytest.raises(InconsistentAction):
        cone_poincare_series(spec, symmetric_group(4), 6)


def test_inconsistent_action_found_on_the_second_generator():
    # (1 2) swaps the axes, a linear map of the span; (1 3) swaps an axis
    # with a diagonal and is not, and the check must reach it
    spec = ConeSpec("square", 2, SQUARE, None, frozenset())
    good, bad = Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(1, 3)])
    group = PermGroup.from_generators([good, bad])
    with pytest.raises(InconsistentAction, match=r"\(1 3\)"):
        LinearAction.on_span(group, *form_coordinates(spec))
    with pytest.raises(InconsistentAction, match="cone 'square'"):
        cone_poincare_series(spec, group, 6)
    assert cone_poincare_series(spec, PermGroup.from_generators([good]), 6) == expand_rational_form(
        (1,), {1: 2, 2: 1}, 6)


def test_form_coordinates_round_trip(all_specs):
    for name in ("K_3", "(5,5)"):
        spec = all_specs[name]
        basis, coords, den = form_coordinates(spec)
        assert len(basis) == cone_dimension(spec)
        assert len(coords) == spec.n_generators
        for a, i in enumerate(basis):
            assert coords[i] == tuple(den * (b == a) for b in range(len(basis)))


def test_form_coordinates_match_the_flattened_forms(all_specs):
    # read from the coordinates in B, they name the rationals that an
    # elimination of the flattened forms v v^T gives, on the 100 non-basic
    # lattice-sums cases among others
    specs = [*all_specs.values(), *_lattice_sums_specs(), ConeSpec("square", 2, SQUARE)]
    assert sum(cone_dimension(spec) < spec.n_generators for spec in specs) == 101
    for spec in specs:
        assert same_coordinates(form_coordinates(spec), flattened_form_coordinates(spec.generators)), spec.name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    factors=st.lists(st.sampled_from((1, 2, 3)), min_size=2, max_size=3),
    extra=st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_form_coordinates_match_the_flattened_forms_on_small_lattices(factors, extra, seed):
    try:
        spec = _diagonal_lattice(factors, extra, seed)
    except InputError:
        return
    assert same_coordinates(form_coordinates(spec), flattened_form_coordinates(spec.generators))


def test_spec_rejects_bad_input():
    with pytest.raises(InputError):
        ConeSpec("z", 2, ((0, 0),), None, frozenset())
    with pytest.raises(InputError):
        ConeSpec("prop", 2, ((1, 1), (-2, -2)), None, frozenset())
    with pytest.raises(InputError):
        ConeSpec("deg", 2, ((1, 0), (0, 1)), (Permutation.identity(3),), frozenset())
    with pytest.raises(InputError):
        ConeSpec("amb", 0, ((1,),), None, frozenset())


def test_spec_json_round_trip(tmp_path, all_specs):
    spec = all_specs["K_4"]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(spec.to_json_dict()))
    loaded = load_cone(path)
    assert loaded == spec


def test_load_cone_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "ambient": 2}))
    with pytest.raises(InputError):
        load_cone(path)
    path.write_text("not json")
    with pytest.raises(InputError):
        load_cone(path)


def test_analyze_summary(all_specs):
    result = analyze(all_specs["K_3"], order=10)
    assert result.dimension == 3
    assert result.rank == 2
    assert result.components == ((1, 2, 3),)
    assert result.aut.order == 6
    d = result.to_json_dict()
    assert d["aut_order"] == 6
    assert d["poincare"]["order"] == 10


def test_components_refine_aut_orbits(all_specs):
    # generators in one aut orbit always share a component
    for name in ("K_4-1", "C_321", "(6,7d)"):
        spec = all_specs[name]
        comps = cone_components(spec)
        comp_of = {i: k for k, comp in enumerate(comps) for i in comp}
        group = cone_automorphisms(spec)
        for p in group.elements:
            for i in range(1, spec.n_generators + 1):
                assert comp_of[p(i)] == comp_of[i]


# -- invariance of the search and of the lattice split under GL(Z) moves -----

SEARCHED = ("(5,5)", "(6,6)", "(6,7a)", "(6,7d)", "(7,7a)", "(7,7b)", "(7,7c)", "(5,5)+K_3")


@functools.cache
def _packaged() -> dict:
    specs = {}
    for family in ("matroidal", "perfect"):
        specs.update((s.name, s) for s in load_cone_specs(family)[1])
    return specs


def _summands(name: str) -> list[ConeSpec]:
    return [_packaged()[part] for part in name.split("+")]


def _block_sum(parts: list[ConeSpec]) -> list[tuple[int, ...]]:
    width = sum(p.ambient for p in parts)
    gens, offset = [], 0
    for p in parts:
        gens += [(0,) * offset + v + (0,) * (width - offset - p.ambient) for v in p.generators]
        offset += p.ambient
    return gens


def _moved(rng: random.Random, generators) -> tuple[ConeSpec, list[int]]:
    """A random unimodular image, relabelled and sign-flipped; new generator i is old order[i]."""
    n = len(generators[0])
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    rng.shuffle(t)
    order = list(range(len(generators)))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in order]
    gens = tuple(
        tuple(sign * sum(row[k] * generators[old][k] for k in range(n)) for row in t)
        for sign, old in zip(signs, order)
    )
    return ConeSpec("moved", n, gens), order


def _product_images(parts: list[ConeSpec]) -> set[tuple[int, ...]]:
    """Images of every element of the product of the summands' declared groups."""
    images = {()}
    for p in parts:
        offset = len(next(iter(images)))
        block = [tuple(offset + x for x in g.images) for g in PermGroup.from_generators(p.declared_aut).elements]
        images = {left + right for left in images for right in block}
    return images


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_analyze_rank_is_the_rational_rank(seed):
    # analyze reads the rank from the saturated lattice it shares with the search
    rng = random.Random(seed)
    for name, spec in _packaged().items():
        moved, _ = _moved(rng, spec.generators)
        for cone in (spec, moved):
            kept = integer_coordinates(cone.generators)[0]
            assert analyze(cone, order=2).rank == len(kept) == EXPECTED_RANK[name], name


@pytest.mark.parametrize("name", SEARCHED)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_search_commutes_with_gl_z_moves_relabelling_and_signs(name, seed):
    parts = _summands(name)
    spec, order = _moved(random.Random(seed), _block_sum(parts))
    new_index = {old: new for new, old in enumerate(order)}
    # p in Aut(original) becomes sigma p sigma^-1 in the new labels
    expected = {
        tuple(new_index[p[old] - 1] + 1 for old in order) for p in _product_images(parts)
    }
    group = cone_automorphisms(spec)
    assert {p.images for p in group.elements} == expected
    orders = [PERFECT_GROUP_ORDERS.get(p.name, EXPECTED_AUT_ORDER[p.name]) for p in parts]
    assert group.order == len(expected) == functools.reduce(int.__mul__, orders)


@pytest.mark.parametrize("name", sorted(EXPECTED_RANK))
def test_packaged_cone_invariants_survive_a_move(all_specs, name):
    # one GL(Z) change of coordinates, relabelling and sign flip per cone,
    # seeded by the cone's name
    spec = all_specs[name]
    moved, _ = _moved(random.Random(name), spec.generators)
    before = analyze(spec, order=16)
    after = analyze(moved, order=16)
    assert after.rank == before.rank == EXPECTED_RANK[name]
    assert after.dimension == before.dimension
    assert after.aut.order == before.aut.order == EXPECTED_AUT_ORDER[name]
    assert after.poincare == before.poincare


# packaged cones, and direct sums of equal summands: wreath products
QUOTIENT_CASES = sorted(EXPECTED_RANK) + ["sigma_1+sigma_1+sigma_1", "K_3+K_3", "K_3+K_3+K_3", "C_4+C_4", "K_4-1+K_4-1"]


@pytest.mark.parametrize("name", QUOTIENT_CASES)
def test_quotient_search_matches_the_full_closure_after_a_move(name):
    # the searched group, kept as clone classes and H, against the closure
    # of the declared generators moved along: the same elements, the same
    # order, and the same series as the element-by-element Molien sum
    parts = _summands(name)
    declared = _declared_group(parts[0])
    images = set(wreath_product(declared, len(parts)).images())
    spec, order = _moved(random.Random(name), _block_sum(parts))
    new_index = {old: new for new, old in enumerate(order)}
    expected = {tuple(new_index[p[old] - 1] + 1 for old in order) for p in images}
    group = cone_automorphisms(spec)
    assert group.order == len(expected) <= NAIVE_CAP
    assert set(PermGroup.from_generators(group.generators).images()) == expected
    assert set(group.images()) == expected
    full = PermGroup.from_elements(spec.n_generators, expected)
    assert cone_poincare_series(spec, group, 12) == molien_series_naive(LinearAction.natural(full), 12)


@st.composite
def _mixed_sums(draw, limit: int = 10) -> list[str]:
    """Packaged summands in any order, one at least twice and one once, at most limit generators in all."""
    size = {name: spec.n_generators for name, spec in _packaged().items()}
    repeated = draw(st.sampled_from(sorted(n for n in size if 2 * size[n] < limit)))
    smallest_other = min(size[n] for n in size if n != repeated)
    counts = {repeated: draw(st.integers(2, (limit - smallest_other) // size[repeated]))}
    for extra in range(2):  # one other summand, and maybe a third
        room = limit - sum(m * size[n] for n, m in counts.items())
        fits = sorted(n for n in size if n not in counts and size[n] <= room)
        if not fits or extra and draw(st.booleans()):
            break
        name = draw(st.sampled_from(fits))
        counts[name] = draw(st.integers(1, room // size[name]))
    return draw(st.permutations([n for n, m in counts.items() for _ in range(m)]))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(names=_mixed_sums())
def test_mixed_direct_sum_is_a_product_of_wreath_products(names):
    # summands m_i times each: |Aut| = prod |G_i|^m_i m_i! and P = prod h_(m_i)[P_i],
    # P_i from the closure of the declared generators
    parts = [_packaged()[n] for n in names]
    spec = ConeSpec("+".join(names), sum(p.ambient for p in parts), tuple(_block_sum(parts)))
    order, series = 1, TruncatedSeries.one(10)
    for name, m in Counter(names).items():
        summand = _packaged()[name]
        order *= EXPECTED_AUT_ORDER[name] ** m * factorial(m)
        series = series * plethysm_h(m, cone_poincare_series(summand, _declared_group(summand), 10))
    result = analyze(spec, order=10)
    assert result.aut.order == order
    assert result.poincare == series


def _record_multisets(records: list, limit: int) -> list[list]:
    """Every nonempty multiset of the records, in record order, of total dimension at most limit."""

    def extend(start: int, room: int, chosen: list):
        for k in range(start, len(records)):
            if records[k].dimension <= room:
                grown = chosen + [records[k]]
                yield grown
                yield from extend(k, room - records[k].dimension, grown)

    return list(extend(0, limit, []))


@pytest.mark.parametrize(("family", "limit", "sums"), (("matroidal", 11, 193), ("perfect", 10, 207)))
def test_direct_sums_of_the_records_add_up_to_exp_of_the_generator_series(family, limit, sums):
    # the cones of dimension <= limit that are direct sums of the full
    # records are their multisets; each sum, moved by a GL(Z) change, a
    # relabelling and signs, must split into its summands, and since
    # t^(m d) h_m[P] = h_m[t^d P], 1 + sum t^dim P over all of them is
    # Exp of the full records' generator series
    dataset = load_dataset(family, order=limit)
    multisets = _record_multisets([r for r in dataset.records if not r.is_count_only], limit)
    assert len(multisets) == sums
    rng = random.Random(family)
    total = TruncatedSeries.one(limit)
    for chosen in multisets:
        spec, _ = _moved(rng, _block_sum([_packaged()[r.name] for r in chosen]))
        result = analyze(spec, order=limit)
        assert len(result.components) == len(chosen), [r.name for r in chosen]
        assert result.dimension == sum(r.dimension for r in chosen)
        total = total + TruncatedSeries([0] * result.dimension + list(result.poincare.coefficients), limit)
    assert total == exp_series(generator_series(dataset, limit, include_count_only=False))


@pytest.mark.parametrize("n", (10, 12))
def test_large_circuit_cone_is_searched_without_listing_its_group(n):
    # S_n is one clone class with H trivial; 12! is past the closure cap,
    # so the order and the series come from the quotient alone
    result = analyze(cyclic_cone(n), order=20)
    assert result.aut.order == factorial(n)
    assert result.poincare == product_form({k: 1 for k in range(1, n + 1)}, 20)
    if n == 12:
        assert factorial(n) > DEFAULT_CAP
        with pytest.raises(CapExceeded):
            next(result.aut.images())


def _brute_force_images(spec: ConeSpec) -> set[tuple[int, ...]]:
    """Permutations realized by a unimodular T, trying every signed image of one basis.

    In coordinates of the saturated lattice, T is fixed by the images of
    a maximal independent subset; it must be integral with det +-1 and
    send every generator to plus or minus a generator.  The inverse of
    the subset's matrix is kept as integer numerators over one
    denominator, so T is integral when the denominator divides them all.
    """
    vectors = spec.generators
    sat = saturation_basis(vectors)
    r = len(sat)
    u = [solve_in_basis(sat, v) for v in vectors]
    assert all(x.denominator == 1 for ui in u for x in ui)
    u = [tuple(int(x) for x in ui) for ui in u]
    basis = integer_coordinates(u)[0]
    columns = [[u[b][x] for b in basis] for x in range(r)]
    inverse = [solve_in_basis(columns, [int(x == y) for x in range(r)]) for y in range(r)]
    den = lcm(*(v.denominator for row in inverse for v in row))
    inverse = [[int(v * den) for v in row] for row in inverse]
    rays = {}
    for j, uj in enumerate(u):
        rays[tuple(uj)] = rays[tuple(-x for x in uj)] = j
    found = set()
    for target in permutations(range(len(u)), r):
        for signs in product((1, -1), repeat=r):
            image = [[signs[a] * u[target[a]][x] for a in range(r)] for x in range(r)]
            t = [[sum(image[x][a] * inverse[a][y] for a in range(r)) for y in range(r)] for x in range(r)]
            if any(v % den for row in t for v in row):
                continue
            t = [[v // den for v in row] for row in t]
            if abs(fraction_gauss_det(t)) != 1:
                continue
            moved = [rays.get(tuple(sum(t[x][y] * ui[y] for y in range(r)) for x in range(r))) for ui in u]
            if None not in moved and len(set(moved)) == len(u):
                found.add(tuple(j + 1 for j in moved))
    return found


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    factors=st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=2, max_size=3),
    extra=st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_matches_brute_force_on_small_lattices(factors, extra, seed):
    # U = T1 diag(factors) T2 has glue groups such as Z/4 x Z/2 and
    # Z/6 x Z/6, where the signs of a leaf matter; extra generators are
    # small combinations of U's columns, for the leaf outside a basis
    try:
        spec = _diagonal_lattice(factors, extra, seed)
    except InputError:
        return
    searched = cone_automorphisms(spec)
    assert {p.images for p in searched.elements} == _brute_force_images(spec)


@functools.cache
def _brute_force_group(spec: ConeSpec) -> frozenset[tuple[int, ...]]:
    return frozenset(_brute_force_images(spec))


def _leaf_adds_only_members(spec: ConeSpec, seed: int, tries: int = 40) -> None:
    """Every tuple _leaf adds, for random lists of distinct targets, lies in the brute-force group.

    The target sets are drawn with no regard to the pairing or the
    lattice, so they include dependent sets and sets of another index
    than B, which the leaf must reject without a determinant.
    """
    search = _AutSearch(spec)
    group = _brute_force_group(spec)
    rng = random.Random(seed)
    for _ in range(tries):
        target = rng.sample(range(search.s), search.r)
        results: set[tuple[int, ...]] = set()
        search._leaf(target, results, [0] * search.s)
        assert results <= group, (target, sorted(results - group))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(("K_3", "K_4", "K_5-2-1", "C_321")), seed=st.integers(0, 2**32 - 1))
def test_leaf_adds_only_automorphisms(matroidal_specs, name, seed):
    _leaf_adds_only_members(matroidal_specs[name], seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    factors=st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=2, max_size=3),
    extra=st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_leaf_adds_only_automorphisms_on_small_lattices(factors, extra, seed):
    try:
        spec = _diagonal_lattice(factors, extra, seed)
    except InputError:
        return
    _leaf_adds_only_members(spec, seed)


def _consistent_targets(search: _AutSearch, rng: random.Random, tries: int):
    """Target lists drawn down the search's tree, each basis position's target a random consistent candidate."""
    search._prepare()
    for _ in range(tries):
        target, used = list(search.basis), [False] * search.s
        for level, a in enumerate(search.assign_order):
            i = search.basis[a]
            options = [j for j in search.candidates[i] if not used[j] and search._consistent(level, i, j, target)]
            if not options:
                break
            target[a] = rng.choice(options)
            used[target[a]] = True
        else:
            yield target


def _block_walk_matches_the_joint_walk(spec: ConeSpec, seed: int, tries: int = 10) -> None:
    """_leaf, walking each sign block on its own, adds exactly the set of the joint walk (joint_leaf).

    Both run with one label on every generator, which allows every
    image, and with the chain's labels.
    """
    search = _AutSearch(spec)
    for target in _consistent_targets(search, random.Random(seed), tries):
        for rank in ([0] * search.s, search.rank):
            blocks, joint = set(), set()
            search._leaf(target, blocks, rank)
            joint_leaf(search, target, joint, rank)
            assert blocks == joint, (spec.name, target, rank)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    factors=st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=2, max_size=3),
    extra=st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_walk_matches_the_joint_walk_on_small_lattices(factors, extra, seed):
    # with no extra generator every generator is a coloop, whose
    # candidates are read from the glue index alone, and factors 2 give
    # glue parts whose sums read no sign
    try:
        spec = _diagonal_lattice(factors, extra, seed)
    except InputError:
        return
    _block_walk_matches_the_joint_walk(spec, seed)


def test_block_walk_matches_the_joint_walk_on_moved_cones_and_sums():
    # GL(Z)-moved packaged cones and direct sums, whose summands' signs
    # are separate blocks only once the glue generators are cut; in
    # (6,7d)+(6,7d) every glue part is 0 or 2 mod 4, so its sums read no
    # sign, and targets that cross the summands fail them.  Powers of the
    # square and the kite stay unmoved: their pairing is diagonal on B,
    # so only the outside generators' reads join the parity components
    rng = random.Random(7)
    specs = [_moved(rng, spec.generators)[0] for _, spec in sorted(_packaged().items())]
    for name in ("K_3+K_3+K_3", "(5,5)+K_3", "(7,7a)+C_4", "(6,7d)+(6,7d)", "(7,7a)+(7,7a)", "(7,7b)+K_4-1"):
        specs.append(_moved(rng, _block_sum(_summands(name)))[0])
    square = ConeSpec("square", 2, SQUARE)
    specs += [square, _power(square, 3), KITE, _moved(rng, _power(square, 3).generators)[0]]
    for k, spec in enumerate(specs):
        _block_walk_matches_the_joint_walk(spec, k)


def _diagonal_lattice(factors: list[int], extra: list[list[int]], seed: int) -> ConeSpec:
    """The columns of T1 diag(factors) T2 for random unimodular T1, T2, then combinations of them."""
    r = len(factors)
    rng = random.Random(seed)
    t1 = _moved(rng, [tuple(int(i == j) for j in range(r)) for i in range(r)])[0].generators
    t2 = _moved(rng, [tuple(int(i == j) for j in range(r)) for i in range(r)])[0].generators
    cols = [tuple(sum(t1[x][a] * factors[a] * t2[a][y] for a in range(r)) for x in range(r)) for y in range(r)]
    cols += [tuple(sum(k * c[x] for k, c in zip(coeffs, cols)) for x in range(r)) for coeffs in extra]
    return ConeSpec("small", r, tuple(cols))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    factors=st.lists(st.sampled_from((1, 2, 3, 65, 101, 1009)), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_unlisted_glue_group_matches_brute_force(factors, seed):
    # basis lattices whose glue group may be huge; the leaf tries sign
    # vectors against the generators of C alone
    spec = _diagonal_lattice(factors, [], seed)
    searched = cone_automorphisms(spec)
    assert {p.images for p in searched.elements} == _brute_force_images(spec)


class _NoRowTest(_CountingSearch):
    """The search with the pairing-row test switched off: a swap test per earlier class of a generator's profile."""

    def _rows_agree(self, i, j):
        return True


def _group_key(group: PermGroup) -> tuple:
    return group.order, group.classes, list(group.quotient_images())


def _check_row_test(spec: ConeSpec) -> None:
    """The pairing equals the Gram oracle, every pair the row test refutes fails its swap test, and the group
    is the one found with the row test off."""
    search = _CountingSearch(spec)
    assert search.pair == gram_pairing(search.u), spec.name
    plain = _NoRowTest(spec)
    assert _group_key(search.search()) == _group_key(plain.search()), spec.name
    assert search.swaps <= plain.swaps and search.nodes <= plain.nodes
    for i, j in combinations(range(search.s), 2):
        if not search._rows_agree(i, j):
            assert not search._swap_test(i, j), (spec.name, i, j)


@functools.cache
def _lattice_sums_specs() -> list[ConeSpec]:
    return [case.spec for seed in range(1, 11) for case in lattice_sums_cases(seed)]


def test_row_test_is_sound_on_packaged_and_lattice_sums_cones(all_specs):
    specs = [replace(s, declared_aut=None) for s in all_specs.values()] + _lattice_sums_specs()
    assert len(specs) == 28 + 360
    for spec in specs:
        _check_row_test(spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    factors=st.lists(st.sampled_from((2, 3, 4, 6)), min_size=2, max_size=3),
    extra=st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_test_is_sound_on_small_lattices(factors, extra, seed):
    # s > r generators spanning a lattice of index d = prod(factors) > 1
    # over the lattice of B, so the pairing divides by a power of dU
    try:
        spec = _diagonal_lattice(factors, extra, seed)
    except InputError:
        return
    search = _AutSearch(spec)
    assert search.s > search.r and search.d > 1
    _check_row_test(spec)


def test_row_test_spares_swap_tests_and_nodes(all_specs, perfect_specs):
    # of the 15 swap tests on K_3+K_3+K_3 with the row test off, 9 pair a
    # generator with the first member of another summand's class, whose
    # pairing rows differ position by position
    k3 = all_specs["K_3"]
    spec = direct_sum(direct_sum(k3, k3), k3)
    search, plain = _CountingSearch(spec), _NoRowTest(spec)
    search.search()
    plain.search()
    assert (search.swaps, search.nodes, search.leaves) == (6, 44, 9)
    assert (plain.swaps, plain.nodes, plain.leaves) == (15, 65, 18)
    nodes = 0
    for spec in perfect_specs.values():
        search = _AutSearch(replace(spec, declared_aut=None))
        search.search()
        nodes += search.nodes
    assert nodes == 409


class _SwapLog(_CountingSearch):
    """The counting search with the pairs (i, j) of its swap tests listed in order."""

    def __init__(self, spec):
        super().__init__(spec)
        self.tested = []

    def _swap_test(self, i, j):
        self.tested.append((i, j))
        return super()._swap_test(i, j)


def test_clone_classes_are_the_transposition_classes_at_one_test_per_class():
    # clones form an equivalence, so a generator that fails against one
    # member of a class fails against each: (i j) = (i i')(i' j)(i i').
    # A generator is tested once per earlier class of its profile, and
    # (i j) lies in the searched group exactly when i and j are clones
    rng = random.Random(35)
    specs = []
    for _, spec in sorted(_packaged().items()):
        specs += [replace(spec, declared_aut=None), _moved(rng, spec.generators)[0]]
    specs += [_large_search(name) for name in LARGE_SEARCHES]
    specs += [case.spec for seed in (1, 2, 3) for case in lattice_sums_cases(seed)]
    swaps = {}
    for spec in specs:
        search = _SwapLog(spec)
        group = search.search()
        s = search.s
        clone = {i: c for c in group.classes for i in c}
        for i, j in combinations(range(1, s + 1), 2):
            swap = Permutation(tuple(j if x == i else i if x == j else x for x in range(1, s + 1)))
            assert (swap in group) == (clone.get(i, i) == clone.get(j, j)), (spec.name, i, j)
        tested = [(clone.get(i + 1, i + 1), j) for i, j in search.tested]
        assert len(set(tested)) == len(tested), spec.name
        swaps[spec.name] = search.swaps
    assert len(specs) == 2 * 28 + 12 + 108
    assert (swaps["(7,7b)+(7,7b)"], swaps["(7,7b)+(7,7b)+(7,7b)"]) == (19, 39)


KITE = ConeSpec("kite", 2, ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1)))


def _search_key(group: PermGroup) -> tuple:
    return _group_key(group) + (group.generators,)


@pytest.mark.parametrize("seed", (1, 2))
def test_chain_search_matches_the_tree_listing(seed):
    # the chain finds generators of H and closes them, where the oracle
    # reaches every element of H as a leaf: one order, the same clone
    # classes, the same sorted H and the same greedy generators, on the
    # packaged cones, their GL(Z)-moved images, direct sums and the moved
    # sums of the lattice-sums cases
    rng = random.Random(seed)
    specs = []
    for _, spec in sorted(_packaged().items()):
        specs += [replace(spec, declared_aut=None), _moved(rng, spec.generators)[0]]
    for name in ("K_3+K_3", "C_4+C_4", "K_4-1+K_4-1", "(5,5)+K_3", "K_4+K_4", "sigma_1+K_3+sigma_1"):
        gens = _block_sum(_summands(name))
        specs += [ConeSpec(name, len(gens[0]), tuple(gens)), _moved(rng, gens)[0]]
    # e2 -> -e2 fixes the basis e1, e2 and gives (3 4)(5 6), an element of
    # H that only the identity targets' leaf finds
    specs += [KITE, _moved(rng, KITE.generators)[0]]
    specs += [case.spec for case in lattice_sums_cases(seed)]
    assert len(specs) == 2 * 28 + 2 * 6 + 2 + 36
    for spec in specs:
        assert _search_key(_AutSearch(spec).search()) == _search_key(tree_listing(_AutSearch(spec))), spec.name
    assert list(cone_automorphisms(KITE).quotient_images()) == [(1, 2, 3, 4, 5, 6), (1, 2, 4, 3, 6, 5)]


def _graphic(n: int) -> ConeSpec:
    """M(K_n): the edges e_a - e_b of the complete graph on n vertices, vertex 0 at the origin of Z^(n-1)."""
    edges = combinations(range(n), 2)
    return ConeSpec(f"M(K_{n})", n - 1, tuple(tuple((x == a) - (x == b) for x in range(1, n)) for a, b in edges))


# R10 as [I_5 | A], a totally unimodular representation
_R10_A = ((-1, 1, 0, 0, 1), (1, -1, 1, 0, 0), (0, 1, -1, 1, 0), (0, 0, 1, -1, 1), (1, 0, 0, 1, -1))
R10 = ConeSpec("R10", 5, tuple(tuple(int(i == j) for i in range(5)) for j in range(5)) + tuple(zip(*_R10_A)))


def _power(spec: ConeSpec, m: int) -> ConeSpec:
    gens = _block_sum([spec] * m)
    return ConeSpec(f"{spec.name}x{m}", len(gens[0]), tuple(gens))


# each case's |G|, known apart from the search, and its exact node count.
# A regular matroid has one unimodular representation up to GL(Z) and
# signs, so its group is its matroid automorphism group: for R10 the 720
# permutations that keep its 162 bases, and S_7 for M(K_7) (Whitney).  A
# direct sum of m copies of a cone has the wreath product, |G|^m m!:
# Aut(K_4) = S_4, the square's group has order 4, the kite's 2 (only
# diag(1, -1) of the diagonal sign changes moves it), |Aut(7,7b)| = 5040,
# and K_3+K_3+(7,7b)+(7,7b) has (6^2 2!)(5040^2 2!).  A name ending in
# "moved" is the sum moved by _moved, seeded by that name.  In a sum of
# kites each kite's two basis vectors pair to 0, as vectors of two
# summands do, and only the matroid components tell them apart
LARGE_SEARCHES = {
    "R10": (720, 75),
    "M(K_7)": (factorial(7), 33),
    "K_4x2": (24**2 * 2, 52),
    "K_4x3": (24**3 * factorial(3), 109),
    "squarex6": (4**6 * factorial(6), 269),
    "kitex6": (2**6 * factorial(6), 113),
    "(7,7b)+(7,7b)": (5040**2 * 2, 638),
    "(7,7b)+(7,7b) moved": (5040**2 * 2, 828),
    "(7,7b)+(7,7b)+(7,7b)": (5040**3 * factorial(3), 1_681),
    "(7,7b)+(7,7b)+(7,7b) moved": (5040**3 * factorial(3), 2_102),
    "K_3+K_3+(7,7b)+(7,7b)": (72 * 5040**2 * 2, 722),
    "K_3+K_3+(7,7b)+(7,7b) moved": (72 * 5040**2 * 2, 809),
}


def _large_search(name: str) -> ConeSpec:
    """The cone of a LARGE_SEARCHES name, or the sum of packaged summands the name lists."""
    spec = {
        "R10": R10,
        "M(K_7)": _graphic(7),
        "K_4x2": _power(_packaged()["K_4"], 2),
        "K_4x3": _power(_packaged()["K_4"], 3),
        "squarex6": _power(ConeSpec("square", 2, SQUARE), 6),
        "kitex6": _power(KITE, 6),
    }.get(name)
    if spec is None:
        gens = _block_sum(_summands(name.removesuffix(" moved")))
        spec = _moved(random.Random(name), gens)[0] if name.endswith(" moved") else ConeSpec(name, len(gens[0]), gens)
    return spec


@pytest.mark.parametrize("name", LARGE_SEARCHES)
def test_large_searches_finish_under_the_default_budget(name):
    # the chain reaches generators of H, not its elements: K_4x3 has
    # |H| = 82,944 and took 1,432,756 nodes when each was a leaf.  Each
    # summand's signs are one block, walked on its own, so the sign tries
    # of a sum of (7,7b) add up over its summands instead of multiplying
    order, nodes = LARGE_SEARCHES[name]
    search = _AutSearch(_large_search(name))
    assert search.search().order == order
    assert search.nodes == nodes < DEFAULT_NODE_BUDGET


def test_profiles_do_not_depend_on_coordinates():
    # three GL(Z) moves, relabellings and sign flips of each cone keep the
    # multiset of profiles, though a move may change B and with it
    # d = |det U_B|: moved by seed 1, sigma_1+(5,6) has d = 2 where the
    # sum has d = 1, and its coloop keeps the glue index 1 (gcd(d, c_a)
    # would read 2)
    names = ["(6,6)+sigma_1+sigma_1", "sigma_1+(5,6)"]
    names += [name for name in LARGE_SEARCHES if not name.endswith(" moved")]
    specs = [spec for _, spec in sorted(_packaged().items())] + [_large_search(name) for name in names]
    changed = set()
    for spec, seed in product(specs, range(3)):
        source, moved = _AutSearch(spec), _AutSearch(_moved(random.Random(seed), spec.generators)[0])
        assert Counter(moved._profiles()) == Counter(source._profiles()), (spec.name, seed)
        if moved.d != source.d:
            changed.add(spec.name)
    assert "sigma_1+(5,6)" in changed


def test_automorphisms_keep_the_pair_relation_and_triangle_signs():
    # a realizable map keeps S and sends circuits to circuits, so it keeps
    # the table _consistent compares, (|G|, one matroid component, one
    # clone class), and the sign of G around every triangle, where each
    # sign flip appears twice.  Checked on every generator of the searched
    # group, the class transpositions included, on all pairs, not just
    # those of B that the search compares.  Some generators change signs
    # of G, so a table of signed G would fail
    rng = random.Random(34)
    specs = []
    for _, spec in sorted(_packaged().items()):
        specs += [replace(spec, declared_aut=None), _moved(rng, spec.generators)[0]]
    specs += [_large_search(name) for name in LARGE_SEARCHES if "(7,7b)" not in name]
    specs += [case.spec for seed in (1, 2, 3) for case in lattice_sums_cases(seed)]
    sign_changes = 0
    for spec in specs:
        search = _AutSearch(spec)
        group = search.search()
        pair, relation, pairs = search.pair, search.relation, list(product(range(search.s), repeat=2))
        triangles = [(x, y, z) for x, y, z in combinations(range(search.s), 3) if pair[x][y] * pair[y][z] * pair[z][x]]

        def signs(pi):
            return [pair[pi[x]][pi[y]] * pair[pi[y]][pi[z]] * pair[pi[z]][pi[x]] > 0 for x, y, z in triangles]

        for p in group.generators:
            pi = [x - 1 for x in p.images]
            assert all(relation[pi[x]][pi[y]] == relation[x][y] for x, y in pairs), (spec.name, p)
            assert signs(pi) == signs(range(search.s)), (spec.name, p)
            sign_changes += any(pair[pi[x]][pi[y]] != pair[x][y] for x, y in pairs)
    assert len(specs) == 2 * 28 + 6 + 108 and sign_changes > 0


def test_one_parity_component_is_one_uncut_block():
    # the pairing is zero between matroid components, so a sole parity
    # component lies in one of them; the lattice then splits into one
    # group, and the sign-block rule makes one block of every glue
    # generator uncut and every outside generator, with no case of its own
    specs = [spec for _, spec in sorted(_packaged().items())]
    specs += [_large_search(name) for name in LARGE_SEARCHES]
    specs += [case.spec for seed in (1, 2, 3) for case in lattice_sums_cases(seed)]
    checked = with_glue = with_outside = 0
    for spec in specs:
        search = _AutSearch(spec)
        if len(search.parity_components) > 1:
            continue
        (comps, parts, outside), = search.sign_blocks
        assert comps in ([], search.parity_components), spec.name
        assert sorted(parts) == search.glue_gens and outside == search.outside, spec.name
        checked, with_glue, with_outside = checked + 1, with_glue + bool(parts), with_outside + bool(outside)
    assert (len(specs), checked, with_glue, with_outside) == (148, 105, 8, 104)


def test_a_leaf_past_the_cap_stops_before_forming_its_choices(capsys, tmp_path):
    # the sum of 20 kites: each kite's element (3 4)(5 6) fixes B and is
    # its own sign block, so the identity targets' leaf has 2^20 choices
    kites = _power(KITE, 20)
    with pytest.raises(CapExceeded) as info:
        cone_automorphisms(kites)
    exc = info.value
    assert (exc.cone, exc.stage, exc.cap, exc.elements) == ("kitex20", "search leaf", DEFAULT_CAP, 2**20)
    path = tmp_path / "kites.json"
    path.write_text(json.dumps(kites.to_json_dict()))
    assert main(["cone", "analyze", str(path)]) == 3
    assert str(exc) == "cone 'kitex20': search leaf exceeded its cap of 1000000 elements: it needs at least 1048576"
    assert capsys.readouterr().err == f"error: {exc}\n"


@pytest.mark.parametrize("name", ("R10", "M(K_7)", "K_4+K_4"))
def test_large_groups_report_the_greedy_generators_of_h(all_specs, name):
    # too large for the tree listing: the generators the search's one
    # closure adjoins are the reference's greedy generators of sorted H
    k4 = all_specs["K_4"]
    spec = {"R10": R10, "M(K_7)": _graphic(7), "K_4+K_4": direct_sum(k4, k4)}[name]
    group = cone_automorphisms(spec)
    assert group.classes == ()
    expected = greedy_generators(group.degree, list(group.quotient_images()))
    assert [g.images for g in group.generators] == expected


@pytest.mark.parametrize("name", ("(5,5)", "(6,6)", "(7,7a)", "(7,7c)"))
def test_scaled_cone_keeps_its_group(all_specs, name):
    # scaling every generator by a prime p scales the lattice, so the
    # group is unchanged while the glue group grows by p^r
    base = all_specs[name]
    p = 1_000_000_007
    spec = ConeSpec("scaled", base.ambient, tuple(tuple(p * x for x in v) for v in base.generators),
                    base.declared_aut)
    ctx = _AutSearch(spec)
    assert ctx.d % p ** len(base.generators) == 0
    expected = {g.images for g in PermGroup.from_generators(base.declared_aut).elements}
    group = ctx.search()
    assert set(group.images()) == expected
    check_declared_automorphisms(spec, group)


def _split_oracle(spec: ConeSpec) -> tuple[tuple[int, ...], ...]:
    """Finest lattice split by brute force over all 2^k groupings of the matroid components.

    A set S of components splits off exactly when the part in span(S) of
    every vector of the saturated lattice is integral; the finest
    grouping is the set of atoms, each the intersection of every
    splitting set containing a component.
    """
    vectors = spec.generators
    blocks = matroid_components(vectors)
    k = len(blocks)
    if k == 1:
        return (tuple(i + 1 for i in blocks[0]),)
    rows, owner = [], []
    for b, block in enumerate(blocks):
        for row in saturation_basis([vectors[i] for i in block]):
            rows.append(row)
            owner.append(b)
    # parts[x][b]: the component in span(block b) of the x-th lattice basis vector
    parts = []
    for x in saturation_basis(vectors):
        coeffs = solve_in_basis(rows, x)
        split = [[Fraction(0)] * spec.ambient for _ in blocks]
        for c, row, b in zip(coeffs, rows, owner):
            split[b] = [a + c * v for a, v in zip(split[b], row)]
        parts.append(split)
    den = lcm(*(a.denominator for split in parts for part in split for a in part))
    # residues mod den of every lattice vector's part, one flat tuple per block
    residue = [
        tuple(int(a * den) % den for split in parts for a in split[b]) for b in range(k)
    ]
    sums = [(0,) * len(residue[0])]
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        sums.append(tuple((a + c) % den for a, c in zip(sums[mask & (mask - 1)], residue[low])))
    splitting = [mask for mask in range(1, 1 << k) if not any(sums[mask])]
    atoms = set()
    for b in range(k):
        atom = (1 << k) - 1
        for mask in splitting:
            if mask >> b & 1:
                atom &= mask
        atoms.add(atom)
    comps = [sorted(chain.from_iterable(blocks[b] for b in range(k) if atom >> b & 1)) for atom in atoms]
    return tuple(tuple(i + 1 for i in comp) for comp in sorted(comps))


SPLIT_POOL = ("(5,5)", "(6,6)", "(7,7a)", "(7,7b)", "(7,7c)", "(6,7a)", "(6,7d)", "K_3", "C_4", "sigma_1")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    names=st.lists(st.sampled_from(SPLIT_POOL), min_size=1, max_size=3).filter(
        lambda names: sum(len(_packaged()[n].generators) for n in names) <= 11
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_lattice_split_matches_brute_force(names, seed):
    spec, _ = _moved(random.Random(seed), _block_sum([_packaged()[n] for n in names]))
    assert cone_components(spec) == _split_oracle(spec)


def test_lattice_split_of_eleven_generators_is_fast():
    # eleven span-independent generators, two non-unimodular summands
    spec, order = _moved(random.Random(11), _block_sum(_summands("(5,5)+(6,6)")))
    start = time.perf_counter()
    comps = cone_components(spec)
    assert time.perf_counter() - start < 0.5
    new_index = {old: new for new, old in enumerate(order)}
    blocks = [range(5), range(5, 11)]
    assert comps == tuple(sorted(tuple(sorted(new_index[i] + 1 for i in b)) for b in blocks))
    assert comps == _split_oracle(spec)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any), min_size=1, max_size=7))
def test_lattice_components_are_the_matroid_components(rows):
    # _Lattice reads the fundamental circuits of B from the supports of its coordinates
    assert _Lattice(rows).components == [list(c) for c in matroid_components(rows)]


def _connected_classes(n: int, sets) -> list[list[int]]:
    """The connected components of the graph on 0..n-1 that joins each set's members, by breadth-first search."""
    neighbours = [set() for _ in range(n)]
    for group in sets:
        for i in group:
            neighbours[i] |= group
    seen, classes = set(), []
    for start in range(n):
        if start not in seen:
            seen.add(start)
            queue = [start]
            for x in queue:
                for y in neighbours[x] - seen:
                    seen.add(y)
                    queue.append(y)
            classes.append(sorted(queue))
    return classes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.frozensets(st.integers(0, n - 1), max_size=4), max_size=8))
    )
)
# no sets: all singletons; {1, 4, 5} joins the classes of {0, 4} and {2, 5}
@example((0, []))
@example((4, []))
@example((4, [set(), {2}]))
@example((7, [{0, 4}, {2, 5}, {5, 1, 4}]))
def test_classes_are_the_components_of_the_sets(case):
    # the finest partition holding each set in one class is the set of
    # components of the graph the sets span; classes are sorted and
    # listed by their least element
    n, sets = case
    classes = _classes(n, sets)
    assert classes == _connected_classes(n, sets)
    assert all(c == sorted(c) for c in classes) and [c[0] for c in classes] == sorted(c[0] for c in classes)


def test_list_generators_are_stored_as_tuples():
    listed = ConeSpec("k3", 2, [[1, 0], [0, 1], [1, -1]])
    built = ConeSpec("k3", 2, ((1, 0), (0, 1), (1, -1)))
    assert listed == built
    assert listed.generators == built.generators
    result = analyze(listed)
    assert result.to_json_dict() == analyze(built).to_json_dict()
    assert result.aut.order == 6


def _echelon_calls(monkeypatch, call, fresh: bool = True) -> int:
    """How many eliminations call() makes; with fresh, from an empty memo."""
    if fresh:
        _lattice.cache_clear()
    count = 0
    real = intlinalg._echelon

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(intlinalg, "_echelon", counted)
        call()
    return count


@pytest.mark.parametrize(("name", "eliminations"), (("(7,7a)", 1), ("(6,7a)", 3)))
def test_analyze_eliminates_the_lattice_once(all_specs, monkeypatch, name, eliminations):
    # one elimination of the generators, which gives u, U_B's adjugate and
    # the coordinates in B; the generators of (7,7a) form a basis, so its
    # form basis is B and needs no elimination.  (6,7a) has a generator
    # outside B: it adds one elimination of the outside generators'
    # off-diagonal coordinate products for the form basis, and the
    # adjugate of the pairing's k x k matrix K
    assert _echelon_calls(monkeypatch, lambda: analyze(all_specs[name], order=4)) == eliminations


def test_packaged_searches_eliminate_once_per_lattice(perfect_specs, monkeypatch):
    # one elimination per cone; the 22 cones with generators outside B add
    # the pairing's adjugate (a basis's pairing is dU^2 I, read without
    # one), and in analyze the form basis of their outside generators
    specs = [replace(s, declared_aut=None) for s in perfect_specs.values()]
    assert len(specs) == 28
    assert _echelon_calls(monkeypatch, lambda: [cone_automorphisms(s) for s in specs]) == 50
    assert _echelon_calls(monkeypatch, lambda: [analyze(s, order=0) for s in specs]) == 72
    # the memo keeps one cone, so a second pass reuses nothing from the first
    assert _echelon_calls(monkeypatch, lambda: [analyze(s, order=0) for s in specs], fresh=False) == 72


def test_search_makes_no_elimination(all_specs, perfect_specs, monkeypatch):
    # the leaves take no determinant: the lattice and the pairing are set up before search()
    k3 = all_specs["K_3"]
    specs = [replace(s, declared_aut=None) for s in perfect_specs.values()]
    specs.append(direct_sum(direct_sum(k3, k3), k3))
    for spec in specs:
        search = _AutSearch(spec)
        assert _echelon_calls(monkeypatch, search.search) == 0, spec.name


@pytest.mark.parametrize("family", ("matroidal", "perfect"))
def test_declared_check_makes_no_elimination(family, monkeypatch):
    # the check asks the group the analysis found; it runs no second search
    plain = _echelon_calls(monkeypatch, lambda: load_dataset(family, order=0))
    checked = _echelon_calls(monkeypatch, lambda: load_dataset(family, order=0, check=check_declared_automorphisms))
    assert checked == plain


def test_split_test_makes_no_elimination(all_specs, monkeypatch):
    for names in (("(5,5)", "(6,6)"), ("(7,7b)", "C_4"), ("(6,7d)", "sigma_1"), ("(7,7a)",)):
        spec, _ = _moved(random.Random(5), _block_sum([all_specs[n] for n in names]))
        assert _echelon_calls(monkeypatch, lambda: cone_rank(spec)) == 1
        comps = []
        assert _echelon_calls(monkeypatch, lambda: comps.append(cone_components(spec)), fresh=False) == 0
        assert comps[0] == _split_oracle(spec)


# -- non-basic cones: the form-span action against explicit matrices ----------

NONBASIC = ("K_3", "K_4-1", "K_4", "C_321", "K_5-3")


def _ray(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    v = tuple(x // g for x in v)
    return v if next(x for x in v if x) > 0 else tuple(-x for x in v)


def _dependent_vectors(generators) -> list[tuple[int, ...]]:
    """Vectors a -+ b, not on a generator's line, for generators a, b with a +- b present.

    (a - b)(a - b)^T = 2 aa^T + 2 bb^T - (a + b)(a + b)^T, so adding one
    makes the forms dependent and keeps the lattice.
    """
    rays = {_ray(v) for v in generators}
    out = set()
    for a, b in combinations(generators, 2):
        plus = tuple(x + y for x, y in zip(a, b))
        minus = tuple(x - y for x, y in zip(a, b))
        for present, extra in ((plus, minus), (minus, plus)):
            if any(present) and any(extra) and _ray(present) in rays and _ray(extra) not in rays:
                out.add(extra)
    return sorted(out)


def _span_matrices(spec: ConeSpec, group: PermGroup) -> dict:
    """Every element's matrix on the span of the forms, from a Fraction solve per form."""
    g = spec.ambient
    forms = [[v[i] * v[j] for i in range(g) for j in range(i, g)] for v in spec.generators]
    basis = []
    for i, f in enumerate(forms):
        if not basis or solve_in_basis([forms[b] for b in basis], f) is None:
            basis.append(i)
    coords = [solve_in_basis([forms[b] for b in basis], f) for f in forms]
    return {
        p: RationalMatrix([[coords[p(b + 1) - 1][x] for b in basis] for x in range(len(basis))])
        for p in group.elements
    }


@pytest.mark.parametrize("name", NONBASIC)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_nonbasic_series_matches_explicit_matrices_and_moves(name, seed):
    rng = random.Random(seed)
    source = _packaged()[name]
    extra = rng.choice(_dependent_vectors(source.generators))
    base = ConeSpec("nonbasic", source.ambient, source.generators + (extra,))
    spec, _ = _moved(rng, base.generators)
    assert cone_dimension(spec) == cone_dimension(base) < spec.n_generators
    group, base_group = cone_automorphisms(spec), cone_automorphisms(base)
    assert group.order == base_group.order
    series = cone_poincare_series(spec, group, 10)
    assert series == cone_poincare_series(base, base_group, 10)
    matrices = _span_matrices(spec, group)
    assert series == molien_series_naive(LinearAction.from_matrices(group, matrices), 10)
    # det(1 - tp | K) det(1 - tp | V) = det(1 - tp | Q^s), K the forms' relations
    action, s = LinearAction.on_span(group, *form_coordinates(spec)), spec.n_generators
    for p, m in matrices.items():
        relations = TruncatedSeries(det_from_power_sums(_relation_sums(action, p.images)), s)
        cycles = TruncatedSeries.one(s)
        for c in p.cycles():
            cycles = cycles * TruncatedSeries([1] + [0] * (len(c) - 1) + [-1], s)
        assert relations * TruncatedSeries(det_one_minus_tA(m).coefficients, s) == cycles
