"""Permutation and group enumeration facts, checked against brute force."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agstab.perms
from agstab.cones import cone_automorphisms, direct_sum
from agstab.errors import CapExceeded, DegreeMismatch
from agstab.molien import LinearAction, _cycle_type, molien_series, molien_series_naive
from agstab.perms import PermGroup, Permutation
from lattice_sums import PACKAGED, lattice_sums_cases
from wreath import symmetric_group, wreath_product


def bfs_closure(generators, degree):
    """Image tuples of every product of the generators, breadth first: the closure oracle."""
    identity = tuple(range(1, degree + 1))
    seen, frontier = {identity}, [identity]
    while frontier:
        fresh = []
        for p in frontier:
            for g in generators:
                q = tuple(g[i - 1] for i in p)  # g * p
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return seen


def greedy_generators(degree, images):
    """The reference definition: the lexicographically first element outside the closure so far."""
    gens, known = [], {tuple(range(1, degree + 1))}
    for p in sorted(images):
        if p not in known:
            gens.append(p)
            known = bfs_closure(gens, degree)
    return gens or [tuple(range(1, degree + 1))]


def compose(a, b):
    return tuple(a[i - 1] for i in b)


@st.composite
def generator_sets(draw, max_degree=7):
    """Image tuples of random permutations, plus the identity, repeats and products of earlier ones."""
    n = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(1, n + 1)).map(tuple), min_size=1, max_size=3))
    for kind in draw(st.lists(st.sampled_from(("identity", "repeat", "product")), max_size=3)):
        if kind == "identity":
            gens.append(tuple(range(1, n + 1)))
        elif kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        else:
            gens.append(compose(draw(st.sampled_from(gens)), draw(st.sampled_from(gens))))
    return n, draw(st.permutations(gens))


def test_from_cycles_and_images():
    p = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    assert p.images == (2, 3, 1, 5, 4)
    assert p.cycle_type() == (2, 3)


def test_composition_order():
    # (a * b)(x) applies b first
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(2, 3)])
    assert (a * b)(3) == a(b(3))


def test_degree_mismatch():
    a = Permutation.identity(3)
    b = Permutation.identity(4)
    with pytest.raises(DegreeMismatch):
        a * b


def test_invalid_images():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_closure_orders():
    s3 = PermGroup.from_generators([Permutation.from_cycles(3, [(1, 2)]),
                                    Permutation.from_cycles(3, [(1, 2, 3)])])
    assert s3.order == 6
    c5 = PermGroup.from_generators([Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])])
    assert c5.order == 5
    v4 = PermGroup.from_generators([Permutation.from_cycles(4, [(1, 2), (3, 4)]),
                                    Permutation.from_cycles(4, [(1, 3), (2, 4)])])
    assert v4.order == 4
    assert symmetric_group(4).order == 24
    assert PermGroup.from_generators([Permutation.identity(6)]).order == 1


def test_symmetric_group_matches_exhaustive_enumeration():
    got = {p.images for p in symmetric_group(4).elements}
    expect = {tuple(img) for img in itertools.permutations(range(1, 5))}
    assert got == expect


def test_direct_product():
    # S_3 on {1, 2, 3} and S_2 on {4, 5} generate their direct product
    g = PermGroup.from_generators([Permutation.from_cycles(5, [(1, 2)]),
                                   Permutation.from_cycles(5, [(1, 2, 3)]),
                                   Permutation.from_cycles(5, [(4, 5)])])
    assert g.degree == 5
    assert g.order == 12
    # second factor acts on shifted points
    moved = {i for p in g.elements for i in range(1, 6) if p(i) != i}
    assert moved == {1, 2, 3, 4, 5}


def test_wreath_product_order_and_degree():
    w = wreath_product(symmetric_group(2), 3)
    assert w.degree == 6
    assert w.order == 2 ** 3 * 6
    w2 = wreath_product(symmetric_group(3), 2)
    assert w2.degree == 6
    assert w2.order == 6 * 6 * 2
    with pytest.raises(CapExceeded):
        wreath_product(symmetric_group(3), 3, cap=6 ** 3 * 6 - 1)


def test_group_closure_cap(monkeypatch):
    gens = [Permutation.from_cycles(7, [(1, 2)]),
            Permutation.from_cycles(7, [(1, 2, 3, 4, 5, 6, 7)])]
    monkeypatch.setattr(agstab.perms, "DEFAULT_CAP", 100)
    with pytest.raises(CapExceeded):
        PermGroup.from_generators(gens)


def test_order48_product_group():
    # dihedral group on {2,4,6,7} times the symmetric group on {1,3,5}
    gens = [Permutation.from_cycles(7, [(2, 4)]),
            Permutation.from_cycles(7, [(6, 7)]),
            Permutation.from_cycles(7, [(2, 7), (4, 6)]),
            Permutation.from_cycles(7, [(1, 3)]),
            Permutation.from_cycles(7, [(1, 3, 5)])]
    assert PermGroup.from_generators(gens).order == 48


def test_permutation_json():
    p = Permutation.from_cycles(4, [(1, 2, 3)])
    assert p.to_json() == [2, 3, 1, 4]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_sets())
def test_closure_matches_breadth_first_oracle(drawn):
    n, gens = drawn
    expected = bfs_closure(gens, n)
    group = PermGroup.from_generators([Permutation(g) for g in gens])
    assert set(group.images()) == expected
    assert group.order == len(expected)
    assert [g.images for g in group.generators] == gens
    again = PermGroup.from_elements(n, expected)
    assert list(again.images()) == sorted(expected)
    assert [g.images for g in again.generators] == greedy_generators(n, expected)
    if len(expected) > 1:
        # a function-scoped monkeypatch would trip hypothesis's health check
        with mock.patch.object(agstab.perms, "DEFAULT_CAP", len(expected) - 1), pytest.raises(CapExceeded) as info:
            PermGroup.from_generators([Permutation(g) for g in gens])
        assert (info.value.stage, info.value.cap) == ("closure", len(expected) - 1)
        assert info.value.elements > info.value.cap


def test_from_elements_rejects_a_set_that_is_not_closed():
    # a transposition without the identity closes to two elements, past a cap of one
    with pytest.raises(CapExceeded):
        PermGroup.from_elements(2, [(2, 1)])


def test_from_quotient_closes_a_generating_set():
    # H is the closure of the elements given, which need not be closed
    group = PermGroup.from_quotient(3, (), [(2, 3, 1)])
    assert list(group.quotient_images()) == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    assert [g.images for g in group.generators] == [(2, 3, 1)]
    assert group.order == 3


def test_from_elements_picks_the_greedy_generators():
    cases = lattice_sums_cases(1)
    groups = [cone_automorphisms(s) for s in PACKAGED]
    groups += [cone_automorphisms(case.spec) for case in cases]
    assert len(groups) == 44 + 36
    for group in groups:
        images = list(group.images())
        picked = PermGroup.from_elements(group.degree, images)
        assert [g.images for g in picked.generators] == greedy_generators(group.degree, images)
        assert list(picked.images()) == images


def _membership_groups():
    """Every packaged cone's searched group, and two sums whose summands are clone classes and H != 1."""
    specs = {s.name: s for s in PACKAGED}
    k3 = specs["K_3"]
    specs["K_3+K_3"] = direct_sum(k3, k3)
    specs["K_3+K_3+K_3"] = direct_sum(specs["K_3+K_3"], k3)
    return [(name, cone_automorphisms(spec)) for name, spec in specs.items()]


def test_membership_matches_the_listed_group():
    rng = random.Random(16)
    for name, group in _membership_groups():
        elements = list(group.images())
        for images in elements:
            assert Permutation(images) in group, name
        members = set(elements)
        n = group.degree
        for k in range(300):
            if k % 3 == 0:  # any permutation, almost never a member
                images = rng.sample(range(1, n + 1), n)
            else:  # an element with a random transposition applied first or last
                images = list(rng.choice(elements))
                x, y = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if k % 3 == 1:
                    images[x], images[y] = images[y], images[x]
                else:
                    images = [y + 1 if i == x + 1 else x + 1 if i == y + 1 else i for i in images]
            assert (Permutation(images) in group) == (tuple(images) in members), (name, images)
        assert Permutation.identity(n + 1) not in group
        if n > 1:
            assert Permutation.identity(n - 1) not in group
    sums = dict(_membership_groups())
    assert [len(sums[k].classes) for k in ("K_3+K_3", "K_3+K_3+K_3")] == [2, 3]
    assert [sums[k].order for k in ("K_3+K_3", "K_3+K_3+K_3")] == [72, 1296]


def test_packed_cycle_type_matches_cycles():
    for p in symmetric_group(6):
        assert _cycle_type(p.images, [1] * 6) == tuple(sorted(len(c) for c in p.cycles())) == p.cycle_type()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_sets(max_degree=6))
def test_integer_keyed_sum_matches_naive_average(drawn):
    n, gens = drawn
    action = LinearAction.natural(PermGroup.from_generators([Permutation(g) for g in gens]))
    assert molien_series(action, 10) == molien_series_naive(action, 10)
