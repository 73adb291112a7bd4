"""Exact linear algebra over the integers and rationals.

Small dense matrices only (dimensions well under 100).  Row
elimination, coordinates, adjugates and determinants use Bareiss'
fraction-free recurrence, so every intermediate entry is a minor of the
input; lattice saturation works modulo the common denominator of the
reduced row echelon form, so no entry grows past it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = tuple[int, ...]


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(greedy_independent_rows(rows))


def greedy_independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a maximal independent subset, scanning rows in order."""
    return _echelon(rows)[0]


def independent_rows_and_coordinates(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[Fraction, ...]]]:
    """(greedy_independent_rows(rows), every row's coordinates in those rows), from one elimination."""
    kept, _, _, coords = _echelon(rows)
    return kept, coords


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]], list[int], list[tuple[Fraction, ...]]]:
    """(indices kept, their rows eliminated, pivot columns, coordinates), scanning rows in order.

    A row joins exactly when it does not eliminate to zero against the
    rows kept so far.  Elimination is Bareiss' fraction-free recurrence
    on the rows extended by unit vectors, so every entry met is a minor
    of the input.  An eliminated kept row is 0 at the pivots of the rows
    kept before it; a row that eliminates to zero has, in its extension,
    the numerators of its coordinates in the kept rows over the common
    denominator on its own unit position (Cramer's rule).
    """
    if not rows:
        return [], [], [], []
    n, width = len(rows), len(rows[0])
    reduced: list[list[int]] = []
    pivots: list[int] = []
    kept: list[int] = []
    coords: list[tuple[Fraction, ...] | None] = []
    for idx, row in enumerate(rows):
        vec = list(row) + [0] * n
        vec[width + idx] = 1
        prev = 1
        for e, p in zip(reduced, pivots):
            d, b = e[p], vec[p]
            vec = [(d * x - b * y) // prev for x, y in zip(vec, e)]
            prev = d
        piv = next((j for j in range(width) if vec[j]), None)
        if piv is None:
            den = vec[width + idx]
            coords.append(tuple(Fraction(-vec[width + k], den) for k in kept))
            continue
        reduced.append(vec)
        pivots.append(piv)
        kept.append(idx)
        coords.append(None)
    r = len(kept)
    unit = {k: tuple(Fraction(int(a == b)) for b in range(r)) for a, k in enumerate(kept)}
    coords = [unit[i] if c is None else c + (Fraction(0),) * (r - len(c)) for i, c in enumerate(coords)]
    return kept, [e[:width] for e in reduced], pivots, coords


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Integer determinant by Bareiss' fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def adjugate_int(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adjugate, determinant) with matrix * adj = det * I, all integer.

    The coordinates of the unit vectors in the rows of the matrix are
    the rows of its inverse (_echelon), and adj = det * inverse.
    """
    d = det_int(matrix)
    if d == 0:
        raise ZeroDivisionError("adjugate of a singular matrix")
    n = len(matrix)
    coords = _echelon(list(matrix) + [[int(i == j) for j in range(n)] for i in range(n)])[3]
    out = []
    for row in coords[n:]:
        int_row = []
        for x in row:
            x *= d
            if x.denominator != 1:
                raise ArithmeticError("adjugate entries must be integers")
            int_row.append(x.numerator)
        out.append(int_row)
    return out, d


def saturation_basis(rows: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of the saturation of the row lattice inside Z^g.

    With R the reduced row echelon form of the rows (r rows, identity on
    the pivot columns), every vector of the rational row space is c R
    with c its entries on the pivots, so the saturation is the image of
    the lattice of c in Z^r with c R integral.  For D the common
    denominator of R, that lattice is the kernel of c -> c (D R) mod D,
    and it contains D Z^r; both its generators and its triangular basis
    are found modulo D.
    """
    _, reduced, pivots, _ = _echelon(rows)
    rref = [[Fraction(x, row[p]) for x in row] for row, p in zip(reduced, pivots)]
    for i, p in enumerate(pivots):
        for k, row in enumerate(rref):
            if k != i and row[p]:
                f = row[p]
                rref[k] = [a - f * b for a, b in zip(row, rref[i])]
    r = len(rref)
    den = lcm(1, *(x.denominator for row in rref for x in row))
    scaled = [[int(x * den) for x in row] for row in rref]
    kernel = [[int(i == j) for j in range(r)] for i in range(r)]
    for x in range(len(scaled[0]) if r else 0):
        restrict_to_kernel(kernel, [row[x] for row in scaled], den)
    return [
        tuple(sum(ci * row[x] for ci, row in zip(c, scaled)) // den for x in range(len(scaled[0])))
        for c in _triangular_basis(kernel, den, r)
    ]


def restrict_to_kernel(gens: list[list[int]], coeff: Sequence[int], n: int) -> None:
    """Replace generators of a subgroup of (Z/n)^m by generators of its part with coeff . c = 0 mod n.

    Euclid on the values coeff . g, by unimodular changes of the
    generating set, leaves one generator with a nonzero value v; its
    multiples in the kernel are those by n / gcd(v, n).
    """
    values = [sum(a * b for a, b in zip(g, coeff)) % n for g in gens]
    while True:
        live = [j for j, v in enumerate(values) if v]
        if len(live) <= 1:
            break
        low = min(live, key=values.__getitem__)
        for j in live:
            if j != low:
                q = values[j] // values[low]
                gens[j] = [(a - q * b) % n for a, b in zip(gens[j], gens[low])]
                values[j] -= q * values[low]
    for j in live:
        f = n // gcd(values[j], n)
        gens[j] = [f * a % n for a in gens[j]]


def _triangular_basis(gens: list[list[int]], n: int, m: int) -> list[list[int]]:
    """A triangular basis of the lattice in Z^m spanned by gens and n Z^m.

    Column k is cleared by Euclid among the rows and n e_k; entries right
    of column k may be taken mod n, since every n e_j joins later.
    """
    rows = [list(g) for g in gens]
    basis = []
    for k in range(m):
        rows.append([n * (j == k) for j in range(m)])
        live = [row for row in rows if row[k]]
        while len(live) > 1:
            low = min(live, key=lambda row: abs(row[k]))
            for row in live:
                if row is not low:
                    q = row[k] // low[k]
                    row[k:] = [row[k] - q * low[k]] + [(a - q * b) % n for a, b in zip(row[k + 1:], low[k + 1:])]
            live = [row for row in live if row[k]]
        basis.append(live[0])
        rows = [row for row in rows if row is not live[0]]
    return basis


def coordinates_in_lattice_basis(basis: Sequence[Vector], vector: Sequence[int]) -> Vector:
    """Integer coordinates of a lattice vector in a saturation basis."""
    kept, _, _, coords = _echelon(list(basis) + [vector])
    if kept != list(range(len(basis))):
        raise ValueError(f"{vector} is not in the span of the independent rows {basis}")
    out = []
    for c in coords[-1]:
        if c.denominator != 1:
            raise ArithmeticError(
                f"{vector} has non-integer coordinates {coords[-1]} in the lattice basis"
            )
        out.append(c.numerator)
    return tuple(out)


def matroid_components(vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Connected components of the linear matroid on the given vectors.

    Components are computed from fundamental circuits with respect to
    one basis: each dependent vector is joined to the basis vectors
    appearing in its unique expansion.  For any basis this reproduces
    matroid connectivity; basis vectors joined to nothing are coloops
    and form singleton components.  Indices returned are 0-based and
    each component is sorted.
    """
    n = len(vectors)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    basis_idx, coords = independent_rows_and_coordinates(vectors)
    basis_set = set(basis_idx)
    for i in range(n):
        if i not in basis_set:
            for pos, c in enumerate(coords[i]):
                if c != 0:
                    union(i, basis_idx[pos])
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(v)) for v in groups.values())

