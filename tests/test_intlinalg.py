"""Exact integer linear algebra helpers."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agstab.intlinalg import (
    adjugate_int,
    coordinates_in_lattice_basis,
    det_int,
    greedy_independent_rows,
    independent_rows_and_coordinates,
    matroid_components,
    rational_rank,
    saturation_basis,
)


def fraction_gauss_det(rows):
    # independent determinant via fraction-valued elimination
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


square = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@settings(max_examples=80, deadline=None)
@given(square)
def test_det_int_matches_gaussian_elimination(rows):
    assert det_int(rows) == fraction_gauss_det(rows)


@settings(max_examples=50, deadline=None)
@given(square)
def test_adjugate_identity(rows):
    assume(fraction_gauss_det(rows) != 0)
    adj, det = adjugate_int(rows)
    n = len(rows)
    prod = [[sum(rows[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[det if i == j else 0 for j in range(n)] for i in range(n)]


def test_rational_rank():
    assert rational_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert rational_rank([(2, 4), (1, 2)]) == 1
    assert rational_rank([(0, 0)]) == 0


def test_saturation_basis_recovers_full_lattice():
    # span of 2e1, 2e2 saturates to the whole plane lattice
    basis = saturation_basis([(2, 0), (0, 2)])
    assert abs(det_int([list(b) for b in basis])) == 1


def test_saturation_basis_of_sublattice():
    basis = saturation_basis([(1, 1, 0), (0, 2, 2)])
    assert len(basis) == 2
    # both generators must have integral coordinates in the basis
    for v in [(1, 1, 0), (0, 1, 1)]:
        coords = coordinates_in_lattice_basis(basis, v)
        assert all(isinstance(c, int) for c in coords)


def _is_saturation_basis(rows, basis):
    """basis has the rank of rows, spans every row over Z, and its maximal minors have gcd 1."""
    if len(basis) != rational_rank(rows):
        return False
    for row in rows:
        if any(row) and not all(isinstance(c, int) for c in coordinates_in_lattice_basis(basis, row)):
            return False
    g = 0
    for cols in combinations(range(len(rows[0])), len(basis)):
        g = gcd(g, det_int([[b[c] for c in cols] for b in basis]))
    return g == 1


def test_saturation_basis_of_large_entries():
    # row-and-column elimination on these rows grew entries past 10^1000
    rows = [(4078, -4099, -4021), (-2046, 2060, 2007), (3055, -3069, -3019),
            (-6124, 6159, 6028), (-1023, 1030, 1005)]
    basis = saturation_basis(rows)
    assert _is_saturation_basis(rows, basis)
    assert max(abs(x) for b in basis for x in b) < 10**20


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 6).flatmap(lambda g: st.lists(
        st.lists(st.integers(-10**6, 10**6), min_size=g, max_size=g), min_size=1, max_size=6)),
    relation=st.booleans(),
)
def test_saturation_basis_property(rows, relation):
    if relation and len(rows) > 1:
        rows[-1] = [a + 3 * b for a, b in zip(rows[0], rows[1])]
    assert _is_saturation_basis(rows, saturation_basis(rows))


def test_coordinates_round_trip():
    basis = saturation_basis([(1, 2, 3), (0, 1, 1)])
    v = tuple(2 * a - 5 * b for a, b in zip(basis[0], basis[1]))
    coords = coordinates_in_lattice_basis(basis, v)
    rebuilt = [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(3)]
    assert tuple(rebuilt) == v


def test_matroid_components():
    # independent rows share no circuit, so they split into singletons
    rows = [(1, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert matroid_components(rows) == [(0,), (1,), (2,)]
    # a circuit in the first block keeps it together
    rows = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)]
    assert matroid_components(rows) == [(0, 1, 2), (3,)]
    rows = [(1, 0), (0, 1), (1, 1)]
    assert matroid_components(rows) == [(0, 1, 2)]



@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=7))
def test_coordinates_rebuild_every_row(rows):
    kept, coords = independent_rows_and_coordinates(rows)
    assert kept == greedy_independent_rows(rows)
    assert len(coords) == len(rows)
    for i, (row, c) in enumerate(zip(rows, coords)):
        assert len(c) == len(kept)
        assert [sum(x * rows[k][j] for x, k in zip(c, kept)) for j in range(4)] == list(row)
        if i in kept:
            assert list(c) == [int(k == i) for k in kept]
