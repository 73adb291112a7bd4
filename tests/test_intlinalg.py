"""Exact integer linear algebra helpers, against Fraction oracles."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from agstab.cones import _Lattice
from agstab.intlinalg import (
    _triangular_basis,
    integer_coordinates,
    restrict_to_kernel,
    saturation_coordinates,
)
from lattice_oracles import fraction_gauss_det, matroid_components, saturation_basis, three_step_coordinates


def fraction_coordinates(rows):
    """(greedy independent rows, every row's coordinates in them) by Gauss elimination over Fraction.

    Each row is reduced against the kept rows in echelon form, with the
    combination of input rows it has become carried alongside.
    """
    echelon = []  # (pivot, reduced row, its combination of the input rows)
    kept, coords = [], []
    for idx, row in enumerate(rows):
        x = [Fraction(v) for v in row]
        c = [Fraction(0)] * len(rows)  # row = x + sum c[a] rows[a]
        for p, e, comb in echelon:
            if x[p]:
                f = x[p] / e[p]
                x = [a - f * b for a, b in zip(x, e)]
                c = [a + f * b for a, b in zip(c, comb)]
        if any(x):
            comb = [-a for a in c]
            comb[idx] = Fraction(1)
            echelon.append((next(j for j, v in enumerate(x) if v), x, comb))
            kept.append(idx)
            coords.append(None)
        else:
            coords.append(c)
    out = []
    for idx, c in enumerate(coords):
        out.append(tuple(Fraction(int(k == idx)) for k in kept) if c is None else tuple(c[k] for k in kept))
    return kept, out


def fraction_saturation_basis(rows):
    """The saturation basis through a Fraction reduced row echelon form: the oracle for saturation_basis.

    With R the RREF (identity on the pivot columns) and D the common
    denominator of its entries, the saturation is c R for the c in Z^r
    with c (D R) = 0 mod D.
    """
    kept, _ = fraction_coordinates(rows)
    rref = [[Fraction(x) for x in rows[k]] for k in kept]
    for i in range(len(rref)):
        p = next(j for j, x in enumerate(rref[i]) if x)
        rref[i] = [x / rref[i][p] for x in rref[i]]
        for k in range(len(rref)):
            if k != i and rref[k][p]:
                f = rref[k][p]
                rref[k] = [a - f * b for a, b in zip(rref[k], rref[i])]
    r = len(rref)
    if not r:
        return []
    den = lcm(1, *(x.denominator for row in rref for x in row))
    scaled = [[int(x * den) for x in row] for row in rref]
    kernel = [[int(i == j) for j in range(r)] for i in range(r)]
    for x in range(len(scaled[0])):
        restrict_to_kernel(kernel, [row[x] for row in scaled], den)
    return [
        tuple(sum(ci * row[x] for ci, row in zip(c, scaled)) // den for x in range(len(scaled[0])))
        for c in _triangular_basis(kernel, den, r)
    ]


def fraction_solve(basis, vector):
    """The coordinates of vector in the independent rows basis, over Fraction, or None off their span."""
    kept, coords = fraction_coordinates(list(basis) + [vector])
    if kept != list(range(len(basis))):
        return None
    return coords[-1]


def integral_in(basis, vector):
    coords = fraction_solve(basis, vector)
    return coords is not None and all(c.denominator == 1 for c in coords)


def _deficient(rows, relation):
    """rows with the last replaced by a combination of the first two, when relation."""
    if relation and len(rows) > 2:
        rows[-1] = [a - 7 * b for a, b in zip(rows[0], rows[1])]
    return rows


wide_rows = st.integers(1, 6).flatmap(lambda g: st.lists(
    st.lists(st.integers(-10**6, 10**6), min_size=g, max_size=g), min_size=1, max_size=7))


def test_rational_rank():
    assert integer_coordinates([(1, 0), (0, 1), (1, 1)])[0] == [0, 1]
    assert integer_coordinates([(2, 4), (1, 2)])[0] == [0]
    assert integer_coordinates([(0, 0)])[0] == []


def test_saturation_basis_recovers_full_lattice():
    # span of 2e1, 2e2 saturates to the whole plane lattice
    basis = saturation_basis([(2, 0), (0, 2)])
    assert abs(fraction_gauss_det(basis)) == 1


def test_saturation_basis_of_sublattice():
    basis = saturation_basis([(1, 1, 0), (0, 2, 2)])
    assert len(basis) == 2
    # both generators must have integral coordinates in the basis
    for v in [(1, 1, 0), (0, 1, 1)]:
        assert integral_in(basis, v)


def _is_saturation_basis(rows, basis):
    """basis has the rank of rows, spans every row over Z, and its maximal minors have gcd 1."""
    if len(basis) != len(integer_coordinates(rows)[0]):
        return False
    for row in rows:
        if any(row) and not integral_in(basis, row):
            return False
    g = 0
    for cols in combinations(range(len(rows[0])), len(basis)):
        g = gcd(g, int(fraction_gauss_det([[b[c] for c in cols] for b in basis])))
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=wide_rows, relation=st.booleans())
def test_saturation_basis_spans_the_oracle_lattice(rows, relation):
    rows = _deficient(rows, relation)
    basis, oracle = saturation_basis(rows), fraction_saturation_basis(rows)
    assert len(basis) == len(oracle) == len(integer_coordinates(rows)[0])
    assert all(integral_in(basis, row) for row in oracle)
    assert all(integral_in(oracle, row) for row in basis)


def test_coordinates_round_trip():
    rows = [(1, 2, 3), (0, 1, 1), (2, 5, 7)]
    basis, coords = saturation_basis(rows), saturation_coordinates(rows)[1]
    for row, c in zip(rows, coords):
        assert tuple(sum(x * b[i] for x, b in zip(c, basis)) for i in range(3)) == row


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=wide_rows, relation=st.booleans())
def test_lattice_coordinates_match_the_oracle(rows, relation):
    rows = _deficient(rows, relation)
    kept, coords = saturation_coordinates(rows)[:2]
    basis = saturation_basis(rows)
    assert kept == fraction_coordinates(rows)[0]
    assert len(coords) == len(rows)
    for row, c in zip(rows, coords):
        assert all(type(x) is int for x in c)
        assert fraction_solve(basis, row) == tuple(Fraction(x) for x in c)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=wide_rows, relation=st.booleans())
def test_lattice_matches_the_three_step_oracle(rows, relation):
    # one elimination against lattice_coordinates, the adjugate of U_B and adjU u_i
    rows = _deficient(rows, relation)
    lattice = _Lattice(rows)
    kept, u, adj, det, coords = three_step_coordinates(rows)
    assert (lattice.basis, lattice.u, lattice.adjU, lattice.dU, lattice.coords) == (kept, u, adj, det, coords)
    assert lattice.components == [list(c) for c in matroid_components(rows)]
    d = abs(det)
    assert lattice.glue_gens == sorted({tuple(x % d for x in col) for col in zip(*adj)} - {(0,) * len(kept)})
    # the form basis read from the coordinates in B is that of the flattened forms v v^T
    forms = [[v[a] * v[b] for a in range(len(v)) for b in range(a, len(v))] for v in rows]
    assert lattice.form_basis == fraction_coordinates(forms)[0]


def test_lattice_with_a_common_denominator():
    # the reduced row echelon form is (1, 0, 1/2), (0, 1, 1/2): D = 2, so the
    # saturation basis is not R, and U_B = [[2, 0], [-1, 1]]
    rows = [(2, 0, 1), (0, 2, 1)]
    expected = ([0, 1], [(2, -1), (0, 1)], [[1, 0], [1, 2]], 2, [(2, 0), (0, 2)])
    assert saturation_coordinates(rows) == three_step_coordinates(rows) == expected
    assert saturation_basis(rows) == [(1, 1, 1), (0, 2, 1)]
    lattice = _Lattice(rows)
    assert (lattice.d, lattice.glue_gens, lattice.components) == (2, [(1, 1)], [[0], [1]])


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
    kept, coords, den = integer_coordinates(rows)
    assert kept == saturation_coordinates(rows)[0] == fraction_coordinates(rows)[0]
    assert len(coords) == len(rows) and den > 0
    for i, (row, c) in enumerate(zip(rows, coords)):
        assert len(c) == len(kept)
        assert [sum(x * rows[k][j] for x, k in zip(c, kept)) for j in range(4)] == [den * x for x in row]
        if i in kept:
            assert list(c) == [den * int(k == i) for k in kept]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=wide_rows, relation=st.booleans())
def test_integer_coordinates_match_the_oracle(rows, relation):
    rows = _deficient(rows, relation)
    kept, nums, den = integer_coordinates(rows)
    assert den > 0
    assert (kept, [tuple(Fraction(x, den) for x in c) for c in nums]) == fraction_coordinates(rows)
