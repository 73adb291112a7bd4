"""Permutation and group enumeration facts, checked against brute force."""

import itertools
import math
from collections import Counter

import pytest

from agstab.errors import CapExceeded, DegreeMismatch
from agstab.perms import (
    PermGroup,
    Permutation,
    cycle_type_count,
    wreath_product,
)
from agstab.symfunc import partitions


def test_from_cycles_and_images():
    p = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    assert p.images == (2, 3, 1, 5, 4)
    assert p.cycle_type() == (2, 3)
    assert p.inverse().images == (3, 1, 2, 5, 4)
    assert p * p.inverse() == Permutation.identity(5)


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
    assert PermGroup.symmetric(4).order == 24
    assert PermGroup.trivial(6).order == 1


def test_symmetric_group_matches_exhaustive_enumeration():
    got = {p.images for p in PermGroup.symmetric(4).elements}
    expect = {tuple(img) for img in itertools.permutations(range(1, 5))}
    assert got == expect


def test_cycle_type_count_matches_enumeration():
    n = 6
    counts = Counter(p.cycle_type() for p in PermGroup.symmetric(n).elements)
    for parts, count in counts.items():
        assert cycle_type_count(n, parts) == count
    assert sum(counts.values()) == math.factorial(n)


def test_cycle_type_count_sums_to_factorial():
    for n in range(1, 9):
        assert sum(cycle_type_count(n, parts) for parts in partitions(n)) == math.factorial(n)


def test_cycle_type_count_explicit():
    # 7! / (1 * 2 * 4) permutations with cycle type (4, 2, 1)
    assert cycle_type_count(7, (4, 2, 1)) == 630


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
    w = wreath_product(PermGroup.symmetric(2), 3)
    assert w.degree == 6
    assert w.order == 2 ** 3 * 6
    w2 = wreath_product(PermGroup.symmetric(3), 2)
    assert w2.degree == 6
    assert w2.order == 6 * 6 * 2


def test_group_closure_cap():
    gens = [Permutation.from_cycles(7, [(1, 2)]),
            Permutation.from_cycles(7, [(1, 2, 3, 4, 5, 6, 7)])]
    with pytest.raises(CapExceeded):
        PermGroup.from_generators(gens, cap=100)


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
