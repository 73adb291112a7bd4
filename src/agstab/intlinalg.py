"""Exact linear algebra over the integers and rationals.

Small dense matrices only (dimensions well under 100).  Gaussian
elimination runs over Fraction; integer determinants use Bareiss'
fraction-free algorithm; lattice saturation works modulo the common
denominator of the reduced row echelon form, so no entry grows past it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

Vector = tuple[int, ...]


def rational_rank(rows: Sequence[Sequence]) -> int:
    return len(greedy_independent_rows(rows))


def greedy_independent_rows(rows: Sequence[Sequence]) -> list[int]:
    """Indices of a maximal independent subset, scanning rows in order."""
    return _echelon(rows)[0]


def _echelon(rows: Sequence[Sequence]) -> tuple[list[int], list[list[Fraction]], list[int]]:
    """(indices kept, echelon rows, their pivot columns), scanning rows in order.

    A row joins exactly when it does not eliminate to zero against the
    rows kept so far; each kept row has a 1 at its pivot and a 0 at the
    pivots of the rows kept before it.
    """
    echelon: list[list[Fraction]] = []
    pivots: list[int] = []
    kept: list[int] = []
    for idx, row in enumerate(rows):
        vec = [Fraction(x) for x in row]
        for basis_row, piv in zip(echelon, pivots):
            if vec[piv] != 0:
                factor = vec[piv]
                vec = [a - factor * b for a, b in zip(vec, basis_row)]
        piv = next((j for j, a in enumerate(vec) if a != 0), None)
        if piv is None:
            continue
        inv = vec[piv]
        echelon.append([a / inv for a in vec])
        pivots.append(piv)
        kept.append(idx)
    return kept, echelon, pivots


def solve_in_basis(basis_rows: Sequence[Sequence], target: Sequence) -> tuple[Fraction, ...] | None:
    """Coefficients c with sum_i c_i * basis_rows[i] = target, or None.

    The basis rows must be linearly independent.
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


def invert_rational(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """Matrix inverse over Fraction by Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [a / inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def adjugate_int(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adjugate, determinant) with matrix * adj = det * I, all integer."""
    d = det_int(matrix)
    if d == 0:
        raise ZeroDivisionError("adjugate of a singular matrix")
    inv = invert_rational(matrix)
    n = len(matrix)
    adj = [[inv[i][j] * d for j in range(n)] for i in range(n)]
    out = []
    for row in adj:
        int_row = []
        for x in row:
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
    _, rref, pivots = _echelon(rows)
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
    coords = solve_in_basis(basis, vector)
    if coords is None:
        raise ValueError(f"{vector} is not in the span of the basis")
    out = []
    for c in coords:
        if c.denominator != 1:
            raise ArithmeticError(
                f"{vector} has non-integer coordinates {coords} in the lattice basis"
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

    basis_idx = greedy_independent_rows(vectors)
    basis_rows = [vectors[i] for i in basis_idx]
    basis_set = set(basis_idx)
    for i in range(n):
        if i in basis_set:
            continue
        coords = solve_in_basis(basis_rows, vectors[i])
        for pos, c in enumerate(coords):
            if c != 0:
                union(i, basis_idx[pos])
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(v)) for v in groups.values())


def all_circuits(vectors: Sequence[Sequence[int]], max_size: int | None = None) -> list[frozenset[int]]:
    """All circuits (minimal dependent subsets) of a small configuration.

    Subsets are scanned by increasing size; a dependent subset is a
    circuit exactly when it contains no previously found circuit.
    Only intended for configurations with at most a dozen vectors.
    """
    n = len(vectors)
    rank_total = rational_rank(vectors)
    limit = min(max_size if max_size is not None else n, rank_total + 1)
    circuits: list[frozenset[int]] = []
    for size in range(1, limit + 1):
        for subset in combinations(range(n), size):
            sset = frozenset(subset)
            if any(c <= sset for c in circuits):
                continue
            if rational_rank([vectors[i] for i in subset]) < size:
                circuits.append(sset)
    return circuits
