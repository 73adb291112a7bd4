"""Exact linear algebra over the integers.

Small dense matrices only (dimensions well under 100), and no
fractions.  Every question is one call of _echelon, a fraction-free
Gauss-Jordan elimination that divides exactly by the previous pivot, so
every entry met is a minor of the input.  integer_coordinates reads the
independent rows and every row's coordinates in them, as integer
numerators over one positive denominator.  saturation_coordinates reads
the rows' coordinates in a basis of the saturation of their lattice,
the adjugate of the kept rows' matrix in it, and every row's
coordinates in the kept rows; only when the reduced row echelon form
has a common denominator D > 1 does it saturate, modulo D, so no entry
grows past it.  restrict_to_kernel cuts a subgroup of (Z/n)^m down to
the kernel of one linear form.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul
from typing import Sequence

Vector = tuple[int, ...]


def _echelon(rows: Sequence[Sequence[int]]):
    """(kept, pivots, m, t, delta): fraction-free Gauss-Jordan elimination, scanning rows in order.

    A row joins the kept rows K exactly when it is not in the span of
    those kept before it; its pivot is its first nonzero column after
    elimination.  With B the r x r matrix of K on the pivot columns (rows
    in kept order, columns in pivot order) and delta = det B,
    m = delta B^-1 K is delta times the reduced row echelon form and
    t = delta B^-1 = adj B, so a row v of the span has the integer
    numerators v_P t over delta as its coordinates in K, v_P its entries
    on the pivot columns.  A new row v becomes delta v - v_P m, the
    Bareiss minor of K and v; if it is kept, each earlier row is brought
    to the new pivot d as (d m_j - m_j[p] v) / delta, an exact division,
    since every entry stays a minor.
    """
    kept: list[int] = []
    pivots: list[int] = []
    m: list[list[int]] = []
    t: list[list[int]] = []
    delta = 1
    for idx, row in enumerate(rows):
        vec = [delta * x for x in row]
        ext = [0] * len(kept)
        for p, mj, tj in zip(pivots, m, t):
            h = row[p]
            if h:
                vec = [a - h * b for a, b in zip(vec, mj)]
                ext = [a - h * b for a, b in zip(ext, tj)]
        piv = next((j for j, x in enumerate(vec) if x), None)
        if piv is None:
            continue
        d = vec[piv]
        ext.append(delta)
        for j, mj in enumerate(m):
            h = mj[piv]
            m[j] = [(d * a - h * b) // delta for a, b in zip(mj, vec)]
            t[j] = [(d * a - h * b) // delta for a, b in zip(t[j] + [0], ext)]
        kept.append(idx)
        pivots.append(piv)
        m.append(vec)
        t.append(ext)
        delta = d
    return kept, pivots, m, t, delta


def integer_coordinates(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[Vector], int]:
    """(kept, every row's coordinates in the kept rows as integer numerators, their denominator).

    kept, as in _echelon, indexes a maximal independent subset found by
    scanning the rows in order.  One elimination; the denominator is
    positive, and the same for every row.
    """
    kept, pivots, _, t, delta = _echelon(rows)
    sign = 1 if delta > 0 else -1
    nums = []
    for row in rows:
        c = [0] * len(kept)
        for p, tj in zip(pivots, t):
            h = sign * row[p]
            if h:
                c = [a + h * b for a, b in zip(c, tj)]
        nums.append(tuple(c))
    return kept, nums, abs(delta)


def saturation_coordinates(
    rows: Sequence[Sequence[int]],
) -> tuple[list[int], list[Vector], list[list[int]], int, list[Vector]]:
    """(kept, u, adjU, dU, coords): the rows in a basis of the saturation of their lattice, from one elimination.

    With R the reduced row echelon form of the rows (r rows, identity on
    the pivot columns P), every vector v of the rational row space is
    v_P R, so the saturation is the image of the lattice of c in Z^r
    with c R integral.  The elimination gives delta R, t = adj B and
    delta = det B, B the kept rows on the pivot columns; dividing out
    the gcd of delta R leaves D R, D the common denominator of R.  When
    D = 1 the saturation basis is R and u_i = (v_i)_P.  Otherwise the
    lattice of c is the kernel of c -> c (D R) mod D and contains D Z^r;
    its triangular basis C is found modulo D, the saturation basis is
    C R, and u_i = (v_i)_P C^-1 by back substitution in integers.  U_B,
    whose columns are the u of the kept rows, is (B C^-1)^T, so with
    tau = det C its determinant is dU = delta / tau, its adjugate is
    adjU = (C t)^T / tau, and coords[i] = adjU u_i = (v_i)_P t / tau
    are the numerators over dU of row i's coordinates in the kept rows.
    Every division is exact.
    """
    kept, pivots, m, t, delta = _echelon(rows)
    r = len(kept)
    if not r:
        return kept, [() for _ in rows], [], 1, [() for _ in rows]
    g = gcd(*(x for row in m for x in row))
    den = abs(delta) // g
    heads = [tuple(row[p] for p in pivots) for row in rows]
    cols = list(zip(*t))
    if den == 1:
        u, tau, adj = heads, 1, [list(col) for col in cols]
    else:
        scaled = [[x // (g if delta > 0 else -g) for x in row] for row in m]
        kernel = [[int(i == j) for j in range(r)] for i in range(r)]
        for col in zip(*scaled):
            restrict_to_kernel(kernel, col, den)
        tri = _triangular_basis(kernel, den, r)
        u = []
        for row, head in zip(rows, heads):
            ui = []
            for k in range(r):
                q, rem = divmod(head[k] - sum(ui[j] * tri[j][k] for j in range(k)), tri[k][k])
                if rem:
                    raise ArithmeticError(f"{tuple(row)} has non-integer coordinates in the saturation basis")
                ui.append(q)
            u.append(tuple(ui))
        tau = prod(tri[k][k] for k in range(r))
        adj = [[sum(map(mul, c, col)) // tau for c in tri] for col in cols]
    coords = [tuple(sum(map(mul, head, col)) // tau for col in cols) for head in heads]
    return kept, u, adj, delta // tau, coords


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

