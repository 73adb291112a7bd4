"""Oracles that tests set against the lattice layer.

Determinants, adjugates, saturation coordinates, saturation bases,
matroid components, the search's pairing, the forms' coordinates, the
search's joint sign walk and the search's group.
"""

from fractions import Fraction
from math import gcd
from operator import add, sub
from typing import Sequence

from agstab.intlinalg import (
    Vector,
    _echelon,
    _triangular_basis,
    integer_coordinates,
    restrict_to_kernel,
    saturation_coordinates,
)
from agstab.perms import PermGroup


def fraction_gauss_det(rows) -> Fraction:
    """The determinant of a square matrix, by Gauss elimination over Fraction."""
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


def fraction_adjugate(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adjugate, determinant) of a nonsingular square matrix: the determinant times its inverse over Fraction.

    The inverse comes from Gauss-Jordan elimination of (A | I) over
    Fraction, with no use of the fraction-free elimination it checks.
    """
    n = len(matrix)
    det = fraction_gauss_det(matrix)
    if not det:
        raise ZeroDivisionError("adjugate of a singular matrix")
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    adj = [[det * x for x in row[n:]] for row in aug]
    if any(x.denominator != 1 for row in adj for x in row):
        raise ArithmeticError("the adjugate of an integer matrix is not integral")
    return [[int(x) for x in row] for row in adj], int(det)


def lattice_coordinates(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[Vector], list[Vector]]:
    """(kept, a basis of the saturation of the row lattice, every row's integer coordinates in it).

    With R the reduced row echelon form of the rows (r rows, identity on
    the pivot columns), every vector of the rational row space is c R
    with c its entries on the pivots, so the saturation is the image of
    the lattice of c in Z^r with c R integral.  The elimination gives
    delta R in integers; dividing out the gcd of its entries leaves D R
    with D the common denominator of R.  The lattice of c is the kernel
    of c -> c (D R) mod D, and contains D Z^r; both its generators and
    its triangular basis C are found modulo D, and the basis is C R.  A
    row v then has the coordinates v_P C^-1, found by back substitution
    in integers.
    """
    kept, pivots, m, _, delta = _echelon(rows)
    r = len(kept)
    if not r:
        return kept, [], [() for _ in rows]
    g = gcd(*(x for row in m for x in row))
    den = abs(delta) // g
    scaled = [[x // (g if delta > 0 else -g) for x in row] for row in m]
    kernel = [[int(i == j) for j in range(r)] for i in range(r)]
    for col in zip(*scaled) if den > 1 else ():
        restrict_to_kernel(kernel, col, den)
    tri = _triangular_basis(kernel, den, r)
    basis = [tuple(sum(ci * x for ci, x in zip(c, col)) // den for col in zip(*scaled)) for c in tri]
    coords = []
    for row in rows:
        u = []
        for k in range(r):
            q, rem = divmod(row[pivots[k]] - sum(u[j] * tri[j][k] for j in range(k)), tri[k][k])
            if rem:
                raise ArithmeticError(f"{tuple(row)} has non-integer coordinates in the saturation basis")
            u.append(q)
        coords.append(tuple(u))
    return kept, basis, coords


def three_step_coordinates(rows: Sequence[Sequence[int]]):
    """(kept, u, adjU, dU, coords) in three steps: the oracle for saturation_coordinates.

    lattice_coordinates gives kept and u, the Fraction adjugate of U_B
    (the matrix with the columns u_b, b in kept) gives adjU and dU, and
    coords[i] = adjU u_i.
    """
    kept, _, u = lattice_coordinates(rows)
    r = len(kept)
    adj, det = fraction_adjugate([[u[b][x] for b in kept] for x in range(r)])
    coords = [tuple(sum(a * x for a, x in zip(row, ui)) for row in adj) for ui in u]
    return kept, u, adj, det, coords


def saturation_basis(rows: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis W of the saturation of the row lattice inside Z^g, rebuilt from saturation_coordinates' u.

    Every row is u_i W, so W solves u_B W = v_B, with u_B and v_B the u
    and the rows of the kept rows: Gauss-Jordan over Fraction on the
    augmented rows (u_b | v_b).  W must come out integral.
    """
    kept, u, _, _, _ = saturation_coordinates(rows)
    r = len(kept)
    aug = [[Fraction(x) for x in u[b] + tuple(rows[b])] for b in kept]
    for k in range(r):
        pivot = next(i for i in range(k, r) if aug[i][k])
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(r):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    basis = []
    for row in aug:
        if any(x.denominator != 1 for x in row[r:]):
            raise ArithmeticError(f"saturation basis row {row[r:]} is not integral")
        basis.append(tuple(int(x) for x in row[r:]))
    return basis


def matroid_components(vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Connected components of the linear matroid on the given vectors.

    Components are computed from fundamental circuits with respect to
    one basis: each dependent vector is joined to the basis vectors
    appearing in its unique expansion.  For any basis this reproduces
    matroid connectivity; basis vectors joined to nothing are coloops
    and form singleton components.  Indices returned are 0-based and
    each component is sorted.
    """
    kept, coords, _ = integer_coordinates(vectors)
    comp = [{i} for i in range(len(vectors))]
    for i, c in enumerate(coords):
        for k, x in zip(kept, c):
            if x and comp[k] is not comp[i]:
                joined = comp[k]
                comp[i] |= joined
                for j in joined:
                    comp[j] = comp[i]
    return sorted({tuple(sorted(members)) for members in comp})


def gram_pairing(u: Sequence[Sequence[int]]) -> list[list[int]]:
    """G(i, j) = u_i^T adj(S) u_j with S = sum_i u_i u_i^T: the Gram matrix of u, its Fraction r x r adjugate, two products."""
    cols = list(zip(*u))
    gram = [[sum(a * b for a, b in zip(x, y)) for y in cols] for x in cols]
    adj, _ = fraction_adjugate(gram)
    adj_u = [[sum(a * x for a, x in zip(row, ui)) for row in adj] for ui in u]
    return [[sum(a * b for a, b in zip(ui, vj)) for vj in adj_u] for ui in u]


def flattened_form_coordinates(generators: Sequence[Sequence[int]]) -> tuple[list[int], list[Vector], int]:
    """integer_coordinates of the forms v v^T flattened to their upper triangles: the oracle for form_coordinates."""
    g = len(generators[0])
    return integer_coordinates([[v[i] * v[j] for i in range(g) for j in range(i, g)] for v in generators])


def same_coordinates(a, b) -> bool:
    """Whether two (basis, numerators, denominator) triples name one basis and the same rational coordinates."""
    (basis_a, nums_a, den_a), (basis_b, nums_b, den_b) = a, b
    return (
        basis_a == basis_b
        and len(nums_a) == len(nums_b)
        and all(x * den_b == y * den_a for ra, rb in zip(nums_a, nums_b) for x, y in zip(ra, rb, strict=True))
    )


def joint_leaf(search, target: list[int], results: set[tuple[int, ...]], rank: list[int]) -> None:
    """Add what an _AutSearch's _leaf adds, walking the signs of all its parity components jointly: the oracle for _leaf.

    A parity component is flipped when an outside generator has a
    coordinate there, or an uncut glue generator (a column of adj U_B
    mod d) has 2 c_a != 0 mod d at one of its positions.  All such
    components but the first are flipped together in Gray code order,
    with the glue sums of every glue generator kept as one flat list,
    and each sign vector whose T is integral maps the generators outside
    B, each to +- a generator not yet taken and of its label (rank);
    with none outside, the first integral T ends the leaf.  Nothing is
    counted.
    """
    e = search._component_signs(target)
    if e is None:
        return
    d, u, r, gens, outside = search.d, search.u, search.r, search.glue_gens, search.outside
    signed = {a for _, coords in outside for a in range(r) if coords[a]}
    signed.update(a for a in range(r) if any(2 * c[a] % d for c in gens))
    flips = [comp for comp in search.parity_components if signed.intersection(comp)][1:]
    base_images, base_taken = [0] * search.s, [False] * search.s
    for b, t in zip(search.basis, target):
        base_images[b] = t + 1
        base_taken[t] = True
    terms = [(i, [(a, [x * v for v in u[target[a]]]) for a, x in enumerate(coords) if x]) for i, coords in outside]
    sums = [sum(e[a] * c[a] * u[j][x] for a, j in enumerate(target)) % d for c in gens for x in range(r)]
    flip_terms = {a: [c[a] * x % d for c in gens for x in u[target[a]]] for comp in flips for a in comp}
    for step in range(1 << len(flips)):
        if step:
            for a in flips[(step & -step).bit_length() - 1]:
                e[a] = -e[a]
                sums = [(x + 2 * e[a] * y) % d for x, y in zip(sums, flip_terms[a])]
        if any(sums):
            continue
        images, taken = base_images.copy(), base_taken.copy()
        for i, parts in terms:
            w = [0] * r
            for a, vec in parts:
                w = list(map(add, w, vec) if e[a] > 0 else map(sub, w, vec))
            j = search.lookup.get(tuple(w))
            if j is None or taken[j] or rank[j] != rank[i]:
                break
            taken[j] = True
            images[i] = j + 1
        else:
            results.add(tuple(images))
            if not outside:
                return


def tree_listing(search) -> PermGroup:
    """The group an _AutSearch finds, with every element of H reached as a leaf of its tree: the oracle for search.

    The clone classes, candidates and order of the basis positions come
    from the search's _prepare.  The tree then tries every consistent
    candidate for every basis position, with no orbit pruning and no
    early stop, and each leaf adds every element it realizes.
    """
    classes = search._prepare()
    r, s, basis, order = search.r, search.s, search.basis, search.assign_order
    results: set[tuple[int, ...]] = set()

    def extend(level: int, target: list[int], used: list[bool]) -> None:
        if level == r:
            search._leaf(target, results, search.rank)
            return
        a = order[level]
        i = basis[a]
        for j in search.candidates[i]:
            if used[j] or not search._consistent(level, i, j, target):
                continue
            target[a] = j
            used[j] = True
            extend(level + 1, target, used)
            used[j] = False

    extend(0, [0] * r, [False] * s)
    return PermGroup.from_quotient(s, [tuple(i + 1 for i in members) for members in classes], results)
