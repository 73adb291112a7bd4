"""Rational polyhedral cones spanned by rank-one quadratic forms.

A cone is given by integer vectors v_1, .., v_s; the actual generators
are the forms v_i v_i^T, so a cone automorphism is a permutation pi of
the indices realized by some T with T v_i = +-v_{pi(i)} that maps the
saturation of the lattice spanned by the v_i bijectively to itself.
The search below finds exactly those permutations, as the symmetric
groups of the clone classes and generators of the elements that keep
each class in order, which their closure lists.

analyze runs the five public cone_* functions in turn, each on the cone
alone.  They share one lattice, the forms' basis and coordinates
included, through a memo of one entry (_lattice), so no cone reuses
anything from the one before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, product
from math import gcd, prod
from operator import add, mul, sub
from typing import NamedTuple

from .errors import (
    CapExceeded,
    DegreeMismatch,
    InconsistentAction,
    InputError,
    SearchBudgetExceeded,
    VerificationFailed,
    json_int,
    json_int_list,
    json_list,
    json_object,
    json_str,
    read_json,
)
from . import intlinalg, perms
from .intlinalg import Vector, integer_coordinates, restrict_to_kernel, saturation_coordinates
from .molien import LinearAction, molien_series
from .perms import PermGroup, Permutation
from .series import DEFAULT_ORDER, TruncatedSeries

DEFAULT_NODE_BUDGET = 2_000_000
CONE_KEYS = ("name", "ambient", "generators", "aut_generators", "tags")


def _primitive_signature(vector: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*vector)
    if next(filter(None, vector)) < 0:
        g = -g
    return tuple(x // g for x in vector)


@dataclass(frozen=True)
class ConeSpec:
    """An integer vector configuration naming a rank-one-form cone.

    generators is kept as a tuple of tuples.  declared_aut (a file's
    aut_generators) is read only by check_declared_automorphisms.
    """

    name: str
    ambient: int
    generators: tuple[tuple[int, ...], ...]
    declared_aut: tuple[Permutation, ...] | None = None
    tags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(map(tuple, self.generators)))
        if self.ambient < 1:
            raise InputError(f"cone {self.name!r}: ambient dimension must be positive")
        if not self.generators:
            raise InputError(f"cone {self.name!r}: needs at least one generator")
        for v in self.generators:
            if len(v) != self.ambient:
                raise InputError(
                    f"cone {self.name!r}: generator {v} does not live in Z^{self.ambient}"
                )
            if not any(v):
                raise InputError(f"cone {self.name!r}: zero generator")
        rays = [_primitive_signature(v) for v in self.generators]
        if len(set(rays)) != len(rays):
            raise InputError(f"cone {self.name!r}: proportional generators")
        if self.declared_aut is not None:
            for p in self.declared_aut:
                if p.degree != len(self.generators):
                    raise InputError(
                        f"cone {self.name!r}: declared automorphism degree {p.degree} "
                        f"does not match {len(self.generators)} generators"
                    )

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def to_json_dict(self) -> dict:
        payload = {
            "name": self.name,
            "ambient": self.ambient,
            "generators": [list(v) for v in self.generators],
        }
        if self.declared_aut is not None:
            payload["aut_generators"] = [p.to_json() for p in self.declared_aut]
        if self.tags:
            payload["tags"] = sorted(self.tags)
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ConeSpec":
        try:
            name = json_str(payload["name"], "name")
            json_object(payload, CONE_KEYS, f"cone {name!r}")
            ambient = json_int(payload["ambient"], "ambient")
            generators = tuple(
                json_int_list(v, "a generator") for v in json_list(payload["generators"], "generators")
            )
            declared = None
            if "aut_generators" in payload:
                declared = tuple(
                    Permutation(json_int_list(images, "an automorphism"))
                    for images in json_list(payload["aut_generators"], "aut_generators")
                )
            tags = json_list(payload.get("tags", []), "tags")
            if not all(isinstance(t, str) for t in tags):
                raise InputError(f"tags must be a list of strings, got {tags!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed cone payload: {exc}") from exc
        return cls(name, ambient, generators, declared, frozenset(tags))


def load_cone(source) -> ConeSpec:
    """The cone in a JSON file: a path (str or Path) or a resources Traversable.

    The only reader of cone files; the payload rules are those of
    ConeSpec.from_json_dict, and any breach is an InputError.
    """
    return ConeSpec.from_json_dict(read_json(source, "cone file"))


def cone_dimension(spec: ConeSpec) -> int:
    """Dimension of the span of the forms v_i v_i^T: their rank, read from the lattice's form basis."""
    return len(_lattice(spec.generators).form_basis)


def cone_rank(spec: ConeSpec) -> int:
    """Rank of the matrix whose rows are the generators themselves, read from their lattice."""
    return _lattice(spec.generators).r


def _classes(n: int, sets) -> list[list[int]]:
    """The finest partition of 0..n-1 in which each of the given sets lies inside one class.

    A set joins the classes it meets into the largest of them.  Classes
    are sorted, and listed by their least element.
    """
    label, members = list(range(n)), {i: [i] for i in range(n)}
    for group in sets:
        joined = sorted({label[i] for i in group}, key=lambda k: len(members[k]))
        for k in joined[:-1]:
            for i in members[k]:
                label[i] = joined[-1]
            members[joined[-1]] += members.pop(k)
    return sorted(map(sorted, members.values()))


class _Lattice:
    """The generators v_i as vectors u_i of Z^r, in a basis of the saturation of their lattice.

    The one place the generators' lattice is eliminated, once, by
    saturation_coordinates: the components, the split test and the
    search read from here.  basis holds the indices of a maximal
    independent subset B, whose vectors (the columns of U_B) span L_B of
    index d = |dU| in Z^r, with adjU and dU the adjugate and determinant
    of U_B.  coords[i] = adjU u_i are the numerators over dU of
    generator i's coordinates in B, and B[a] has dU e_a: an outside
    generator with the B[a] where it has a coordinate is a fundamental
    circuit of B, and the circuits' classes are the matroid components.
    outside lists the generators not in B, in order.
    glue_gens, the distinct nonzero columns of adjU mod d, generate the
    glue group C = Z^r / L_B.  _lattice shares one between the calls on
    a cone; split_groups and form_basis are filled on first use.
    """

    def __init__(self, vectors):
        self.basis, self.u, self.adjU, self.dU, self.coords = saturation_coordinates(vectors)
        self.r = r = len(self.basis)
        self.d = d = abs(self.dU)
        in_basis = set(self.basis)
        self.outside = [i for i in range(len(self.coords)) if i not in in_basis]
        circuits = ({i, *(b for b, x in zip(self.basis, self.coords[i]) if x)} for i in self.outside)
        self.components = _classes(len(self.coords), circuits)
        self.glue_gens = sorted({tuple(x % d for x in col) for col in zip(*self.adjU)} - {(0,) * r})

    @cached_property
    def split_groups(self) -> list[list[int]]:
        """Finest grouping of the matroid components (blocks) that splits the lattice.

        B meets each block in a basis of its span, so scaling the span of
        block k by c_k scales the coordinates in B of the block's members.
        A grouping splits L = Z^r exactly when the part in each group's span
        of every x in L lies in L again, i.e. when its indicator vector lies
        in the ring K of block scalings c = (c_k) that keep L inside L.
        x has the coordinates adjU x / dU in B, so c is in K exactly when
        sum_a c_block(a) g_a u_B(a) = 0 mod d for every generator g of the
        glue group C = Z^r / L_B; hence d Z^m <= K.  The splitting groupings
        are closed under common refinement, and the finest one joins blocks
        k and l exactly when some prime p dividing d divides c_k - c_l for
        every c in K (the idempotents of K mod p are the indicators of those
        classes, and they lift).  K mod d is the kernel of a linear map,
        computed without any scan (restrict_to_kernel).
        """
        blocks, d = self.components, self.d
        m = len(blocks)
        if m == 1 or d == 1:
            return blocks
        owner = {i: k for k, b in enumerate(blocks) for i in b}
        kernel = [[int(k == l) for l in range(m)] for k in range(m)]
        applied = set()
        for g in self.glue_gens:
            for x in range(self.r):
                coeff = [0] * m
                for a, b in enumerate(self.basis):
                    coeff[owner[b]] += g[a] * self.u[b][x]
                coeff = tuple(c % d for c in coeff)
                if any(coeff) and coeff not in applied:
                    applied.add(coeff)
                    restrict_to_kernel(kernel, coeff, d)
        linked = [{k, l} for k in range(m) for l in range(k) if gcd(d, *(c[k] - c[l] for c in kernel)) > 1]
        groups = _classes(m, linked)
        return [sorted(i for k in group for i in blocks[k]) for group in groups]

    @cached_property
    def _outside_forms(self) -> tuple[list[int], list[Vector], int]:
        """integer_coordinates of the outside generators' off-diagonal products c_a c_b (a < b); none when B is all."""
        if not self.outside:
            return [], [], 1
        coords = [self.coords[i] for i in self.outside]
        return integer_coordinates([[x[a] * x[b] for b in range(self.r) for a in range(b)] for x in coords])

    @cached_property
    def form_basis(self) -> list[int]:
        """0-based indices of the first maximal independent subset of the forms v_i v_i^T, in generator order.

        The c_i c_i^T (c_i = coords[i]) depend as the forms do and B[a] has c = dU e_a, whose off-diagonal
        products c_a c_b are all zero; only while B is the scan-order kept set does an outside c_i lie on B
        before i, so its form is new exactly when its c_a c_b are independent of those of the outside
        generators before it.  Only the outside generators' rows are eliminated (_outside_forms).
        """
        return sorted(self.basis + [self.outside[k] for k in self._outside_forms[0]])

    def form_coordinates(self) -> tuple[list[int], list[Vector], int]:
        """(form_basis, every form's coordinates in it as integer numerators, their positive denominator).

        Let F be the outside members of the form basis.  An outside
        generator has c_i c_i^T = sum_f lambda_f c_f c_f^T + sum_a mu_a
        dU^2 E_aa: the off-diagonal parts give lambda_f = n_f / delta
        (_outside_forms), and the diagonal then gives
        mu_a = (delta c_i[a]^2 - sum_f n_f c_f[a]^2) / (delta dU^2),
        the coordinate of the form of B[a].  No form is flattened.
        """
        kept, nums, delta = self._outside_forms
        square = self.dU * self.dU
        basis = self.form_basis
        place = {i: a for a, i in enumerate(basis)}
        members = [self.outside[k] for k in kept]
        rows: list[Vector] = [()] * len(self.coords)
        for b in self.basis:
            rows[b] = tuple(delta * square * (i == b) for i in basis)
        for i, n in zip(self.outside, nums):
            row = [0] * len(basis)
            for x, f in zip(n, members):
                row[place[f]] = x * square
            for a, (b, y) in enumerate(zip(self.basis, self.coords[i])):
                row[place[b]] = delta * y * y - sum(x * self.coords[f][a] ** 2 for x, f in zip(n, members))
            rows[i] = tuple(row)
        return basis, rows, delta * square


@lru_cache(maxsize=1)
def _lattice(generators: tuple[tuple[int, ...], ...]) -> _Lattice:
    """_Lattice(generators): the dimension, the rank, the components and the search of one cone share it."""
    return _Lattice(generators)


def cone_components(spec: ConeSpec) -> tuple[tuple[int, ...], ...]:
    """Finest direct-sum decomposition of the generator configuration, 1-based.

    Matroid components of the vectors give the finest split of the
    span; blocks are then merged, by the glue group of the lattice of a
    basis inside the saturation (_Lattice.split_groups), into the finest
    grouping whose saturated lattices also sum directly.  For unimodular
    configurations the two notions agree, but configurations of
    independent vectors spanning a proper-index sublattice (several of
    the non-matroidal cones) are indecomposable over the integers despite
    their free matroid.
    """
    comps = _lattice(spec.generators).split_groups
    return tuple(tuple(i + 1 for i in comp) for comp in sorted(comps))


def cyclic_cone(k: int) -> ConeSpec:
    """The k-generator cycle cone (dimension k, rank k-1, full S_k symmetry)."""
    if k == 1:
        return ConeSpec("sigma_1", 1, ((1,),), tags=frozenset({"matroidal"}))
    if k < 3:
        raise ValueError("cycle cones exist for k = 1 and k >= 3")
    g = k - 1
    rows = [[0] * g for _ in range(k)]
    rows[0][0] = 1
    rows[1][1] = 1
    rows[2][0], rows[2][g - 1] = 1, -1
    for idx in range(3, k):
        i = idx - 2  # edge between path vertices i+1 and i+2
        rows[idx][i] = 1
        rows[idx][i + 1] = -1
    return ConeSpec(f"sigma_C{k}", g, tuple(tuple(r) for r in rows), tags=frozenset({"matroidal"}))


def direct_sum(a: ConeSpec, b: ConeSpec, name: str | None = None) -> ConeSpec:
    """Place b's coordinates after a's; generators act on disjoint blocks."""
    gens = tuple(tuple(v) + (0,) * b.ambient for v in a.generators) + tuple(
        (0,) * a.ambient + tuple(v) for v in b.generators
    )
    return ConeSpec(name or f"{a.name}+{b.name}", a.ambient + b.ambient, gens)


class _AutSearch:
    """Backtracking search for the realizable generator permutations.

    Everything about the lattice is read from _lattice: in coordinates
    of the saturated lattice every generator is an integer vector u_i of
    Z^r, the fixed maximal independent subset B spans L_B of index
    d = |det U_B|, and the glue group C = Z^r / L_B is kept as the
    numerators c (mod d) of the coordinates in B of the lattice vectors,
    generated by the columns of adj U_B mod d (glue_gens).  The search
    eliminates no lattice of its own.
    Assigning each basis position a a target generator target[a] and a
    sign e_a fixes T = U_target E U_B^-1, and (pi, signs) is realizable
    exactly when T is integral with det +-1 and permutes the generators.
    T is integral exactly when sum_a e_a c_a u_target[a] = 0 mod d for
    every generator c of C.  C is never listed (d is unbounded: the
    generators may be far from primitive).  No determinant is taken:
    an integral T that sends the generators one to one onto +- the
    generators permutes the finite spanning set {+-u_i}, so it has
    finite order, det T = +-1, and T lies in GL_r(Z); a singular T sends
    two generators to one, which the leaf rejects.  On a leaf of the
    tree the pairing below already forces U_target^T adj(S) U_target =
    E U_B^T adj(S) U_B E (_consistent, the profile's norm and
    _component_signs), so |det U_target| = d there; only a swap test
    meets a target set of another index, and it asks only for the
    transposition's own images.

    One leaf (_leaf) serves every cone, and one sign rule every leaf.
    The pairing below pins the signs up to one flip per parity component
    (a connected component of its nonzero graph on B).  The sums of a
    glue generator, cut into its parts on the groups that split L, read
    the positions a with 2 c_a != 0 mod d, and an outside generator's
    image reads those where it has a coordinate.  Parity components that
    one read meets form a sign block (_sign_blocks), which keeps its
    first component's sign: flipping a whole block changes no sum and no
    image.  A leaf walks the blocks in turn, each in Gray code order with
    every try a node of the budget, the sums that read no sign in the
    first; a block without outside generators stops at its first
    integral choice, so a direct sum costs the total of its blocks'
    walks, not their product.

    Any realizable T preserves S = sum_i u_i u_i^T, hence the pairing
    G(i, j) = u_i^T adj(S) u_j (_pairing, read from the coordinates in
    B; dU^2 I when the generators form a basis) satisfies
    G(pi i, pi j) = eps_i eps_j G(i, j), and T keeps the circuits.  A
    generator's candidate images share its profile (_profiles): the norm
    G(i, i), the sorted row |G(i, .)| and the glue index of a coloop.
    The tree compares pairs by one relation (_consistent, built by
    _prepare): |G|, one matroid component or not, one clone class or
    not.  It also keeps the sign of G around each triangle, where each
    eps appears twice.

    The search lists only H = G/N.  Two generators are clones when their
    transposition is realizable, which one leaf decides, run once per
    earlier class of a generator's profile (_clone_classes); the
    symmetric groups of the clone classes form the normal subgroup N, and
    H, the elements that keep every class in order, is a complement of N.
    A generator's candidate images must also lie in a class of its size,
    at its place in that class, and clones must go to clones; a leaf
    drops the images outside B that break this, so every element a leaf
    adds lies in H.  Each swap test counts as a node of the budget; a
    pair whose pairing rows differ (_rows_agree) runs none.  The tree is
    not walked whole: search runs it along a stabilizer chain with B as
    the base (Sims), and skips every target already in the orbit of the
    elements found so far (McKay and Piperno's automorphism pruning), so
    it reaches a generating set of H rather than each element.
    """

    def __init__(self, spec: ConeSpec, node_budget: int = DEFAULT_NODE_BUDGET):
        self.spec = spec
        self.node_budget = node_budget
        lattice = _lattice(spec.generators)
        self.s = len(spec.generators)
        self.r, self.u, self.basis = lattice.r, lattice.u, lattice.basis
        self.dU, self.d, self.glue_gens = lattice.dU, lattice.d, lattice.glue_gens
        self.coloops = {comp[0] for comp in lattice.components if len(comp) == 1}
        self.component = [k for _, k in sorted((i, k) for k, comp in enumerate(lattice.components) for i in comp)]
        self.nodes = self.leaves = 0
        self.found: set[tuple[int, ...]] = set()
        r, u, basis = self.r, self.u, self.basis
        # numerators of each outside generator's coordinates in B
        self.outside = [(i, lattice.coords[i]) for i in lattice.outside]
        self.pair = pair = self._pairing(lattice)
        self.abs_pair = [list(map(abs, row)) for row in pair]
        # connected components of the nonzero-pairing graph on basis positions
        self.parity_components = _classes(r, [{a, c} for a in range(r) for c in range(a) if pair[basis[a]][basis[c]]])
        self.sign_blocks = self._sign_blocks(lattice.split_groups)
        # j from +-dU u_j, which a leaf meets as dU T u_i
        self.lookup = {tuple(m * x for x in uj): j for j, uj in enumerate(u) for m in (self.dU, -self.dU)}

    def _pairing(self, lattice: _Lattice) -> list[list[int]]:
        """The pairing G(i, j) = u_i^T adj(S) u_j, S = sum_i u_i u_i^T, read from the coordinates in B.

        With c_i = lattice.coords[i] = adj U_B u_i, so that c_B[a] = dU e_a,
        S = U_B M U_B^T / dU^2 for M = dU^2 I_r + sum_o c_o c_o^T over the
        k generators o outside B.  Put y_i = (c_i . c_o)_o and
        K = dU^2 I_k + (c_o . c_o')_o,o'; the determinant lemma and the
        Woodbury identity give the exact division
        G(i, j) = (det K c_i . c_j - y_i^T adj(K) y_j) / dU^(2k).  K is
        positive definite, so its one elimination, k x k and not r x r,
        keeps its rows with the pivots in order: its t and delta are adj K
        and det K.  With no generator outside B, K is empty, det K = 1 and
        G = dU^2 I, with no elimination.
        """
        coords, outside, s = lattice.coords, lattice.outside, self.s
        square = self.dU * self.dU
        y = [tuple(sum(map(mul, ci, coords[o])) for o in outside) for ci in coords]
        k_rows = [[y[o][n] + square * (o == p) for n, p in enumerate(outside)] for o in outside]
        *_, adj_k, det_k = intlinalg._echelon(k_rows) if outside else ([], 1)
        z = [tuple(sum(map(mul, row, yj)) for row in adj_k) for yj in y]  # z_j = adj(K) y_j
        den = square ** len(outside)
        # K is symmetric, and so is G
        pair = [[0] * s for _ in range(s)]
        for i, (ci, yi) in enumerate(zip(coords, y)):
            for j in range(i, s):
                pair[i][j] = pair[j][i] = (det_k * sum(map(mul, ci, coords[j])) - sum(map(mul, yi, z[j]))) // den
        return pair

    def _profiles(self) -> list:
        """(G(i, i), sorted |G(i, .)|, glue index) per generator i, which every realizable permutation keeps.

        A coloop (a one-generator matroid component) at position a of B has
        the glue index d / gcd(d, c_a) over C: the order of the values mod 1
        of the form that is 1 on it and 0 on the other generators, which no
        choice of B or coordinates changes.  Other generators have 0.
        """
        d, pair, gens = self.d, self.pair, self.glue_gens
        glue = {b: d // gcd(d, *(c[a] for c in gens)) for a, b in enumerate(self.basis) if b in self.coloops}
        return [(pair[i][i], tuple(sorted(row)), glue.get(i, 0)) for i, row in enumerate(self.abs_pair)]

    # -- leaf handling ----------------------------------------------------

    def _component_signs(self, target: list[int]) -> list[int] | None:
        """Relative signs over basis positions, or None if inconsistent.

        One walk per sign component: each nonzero G(a, c) sets c's sign
        from a's, or checks it if set, so every edge is checked.
        """
        pair, basis = self.pair, self.basis
        eps = [0] * self.r
        for comp in self.parity_components:
            eps[comp[0]] = 1
            queue = [comp[0]]
            while queue:
                a = queue.pop()
                for c in comp:
                    pv = c != a and pair[basis[a]][basis[c]]
                    if not pv:
                        continue
                    want = eps[a] if (pair[target[a]][target[c]] > 0) == (pv > 0) else -eps[a]
                    if not eps[c]:
                        eps[c] = want
                        queue.append(c)
                    elif eps[c] != want:
                        return None
        return eps

    def _sign_blocks(self, groups: list[list[int]]) -> list[tuple]:
        """The sign blocks, each as (its parity components, its glue parts, its outside generators).

        Each glue generator is cut into its parts on the groups that split
        L; L is the direct sum of its parts in the groups' spans, so every
        part lies in C, and the parts generate C.  A part reads the
        positions a with 2 c_a != 0 mod d, and an outside generator those
        where it has a coordinate; the parity components one read meets
        are joined, and one that no read meets is in no block.  The parts
        that read no sign join the first block (or a block of no component).
        G is zero between matroid components, so a sole parity component
        makes one block of every glue generator, uncut, and every outside one.
        """
        r, d, comps, basis, outside = self.r, self.d, self.parity_components, self.basis, self.outside
        cuts = {tuple(x * (b in g) for x, b in zip(c, basis)) for g in map(set, groups) for c in self.glue_gens}
        parts = sorted(cuts - {(0,) * r})
        comp_of = {a: k for k, comp in enumerate(comps) for a in comp}
        part_reads = [{comp_of[a] for a in range(r) if 2 * p[a] % d} for p in parts]
        outside_reads = [{comp_of[a] for a, x in enumerate(c) if x} for _, c in outside]
        met = set().union(*part_reads, *outside_reads)
        merged = [b for b in _classes(len(comps), part_reads + outside_reads) if b[0] in met]
        blocks = [([comps[k] for k in b], [p for p, m in zip(parts, part_reads) if not m.isdisjoint(b)],
                   [o for o, m in zip(outside, outside_reads) if not m.isdisjoint(b)]) for b in merged or [[]]]
        blocks[0][1].extend(p for p, m in zip(parts, part_reads) if not m)
        return blocks

    def _block_signs(self, block: tuple, target: list[int], e: list[int], rank: list[int]) -> list[tuple]:
        """The distinct images of the block's outside generators, one per sign choice that makes T integral.

        T is integral exactly when sum_a e_a c_a u_target[a] = 0 mod d for
        every part c.  The sums are one flat list, updated for one flipped
        component per try in Gray code order (the first keeps its sign),
        every try a node of the budget.  An image lists (i, j), generator i
        to +- j with j of i's label (rank); with no outside generator the
        first integral choice ends the walk.  e is changed in place.
        """
        comps, parts, outside = block
        d, u, r = self.d, self.u, self.r
        sums = [sum(e[a] * p[a] * u[j][x] for a, j in enumerate(target)) % d for p in parts for x in range(r)]
        flips = comps[1:]
        terms = {a: [p[a] * x % d for p in parts for x in u[target[a]]] for comp in flips for a in comp}
        # dU T u_i = sum_a e_a coords_a u_target[a]: its terms, one per nonzero coordinate
        maps = [(i, [(a, [x * v for v in u[target[a]]]) for a, x in enumerate(coords) if x]) for i, coords in outside]
        found: dict[tuple, None] = {}
        for step in range(1 << len(flips)):
            self._tick()
            if step:
                for a in flips[(step & -step).bit_length() - 1]:
                    e[a] = -e[a]
                    sums = [(x + 2 * e[a] * y) % d for x, y in zip(sums, terms[a])]
            if any(sums):
                continue
            images = []
            for i, vecs in maps:
                w = [0] * r
                for a, vec in vecs:
                    w = list(map(add, w, vec) if e[a] > 0 else map(sub, w, vec))
                j = self.lookup.get(tuple(w))
                if j is None or rank[j] != rank[i]:
                    break
                images.append((i, j))
            else:
                found[tuple(images)] = None
                if not outside:
                    break
        return list(found)

    def _leaf(self, target: list[int], results: set[tuple[int, ...]], rank: list[int]) -> None:
        """Add the permutations realized with basis position a sent to +-target[a].

        The signs start from _component_signs.  Each sign block is walked
        in turn (_block_signs), and a block with no integral choice ends
        the leaf.  Each choice of one image per block is added when, with
        the targets, it sends no two generators to one (which rejects a
        singular T), so each T added has det +-1 and no determinant is
        taken; more than perms.DEFAULT_CAP choices raise CapExceeded,
        naming the cone, before any is formed.  rank labels the
        generators, and an image outside B of another label than its
        generator is dropped: the chain labels each generator by its place
        in its clone class (the targets in B are chosen in place), and a
        swap test by its orbit under the transposition, so no block offers
        other images; one label on every generator allows every image.
        """
        self.leaves += 1
        eps = self._component_signs(target)
        if eps is None:
            return
        choices = []
        for block in self.sign_blocks:
            choices.append(self._block_signs(block, target, eps, rank))
            if not choices[-1]:
                return
        if prod(map(len, choices)) > perms.DEFAULT_CAP:
            raise CapExceeded(self.spec.name, "search leaf", perms.DEFAULT_CAP, prod(map(len, choices)))
        images = [0] * self.s
        for choice in product(*choices):
            for i, j in chain(zip(self.basis, target), *choice):
                images[i] = j + 1
            if len(set(images)) == self.s:
                results.add(tuple(images))

    # -- search ---------------------------------------------------------------

    def search(self) -> PermGroup:
        """The group of realizable permutations, from generators of H found along a stabilizer chain.

        The base is B in assign_order, b_0, .., b_(r-1).  The identity
        targets' leaf lists every element of H that fixes each generator
        of B.  Then, level by level up, with b_0, .., b_(L-1) fixed to
        themselves, each candidate j of b_L outside the orbit of b_L
        under the elements found so far (all of which fix those b) gets
        one first-leaf search (_extend); an element it finds maps b_L to
        j and grows the orbit.  So the elements found at levels L and
        deeper generate the stabilizer of b_0, .., b_(L-1) in H, and at
        level 0 all of H; PermGroup.from_quotient closes them once
        (CapExceeded, naming the cone, past perms.DEFAULT_CAP elements).
        The group lists G only when iterated.
        """
        r, s, basis = self.r, self.s, self.basis
        self.nodes = self.leaves = 0
        self.found = found = set()
        classes = self._prepare()
        target, used = list(basis), [False] * s
        for b in basis:
            used[b] = True
        self._extend(r, target, used, found)
        for level in reversed(range(r)):
            a = self.assign_order[level]
            b = basis[a]
            used[b] = False
            orbit = _orbit(b, found)
            for j in self.candidates[b]:
                if j in orbit or used[j] or not self._consistent(level, b, j, target):
                    continue
                target[a] = j
                used[j] = True
                if self._extend(level + 1, target, used, found):
                    orbit = _orbit(b, found)
                used[j] = False
            target[a] = b
        points = [tuple(i + 1 for i in members) for members in classes]
        try:
            return PermGroup.from_quotient(s, points, found)
        except CapExceeded as exc:
            raise CapExceeded(self.spec.name, exc.stage, exc.cap, exc.elements) from None

    def _prepare(self) -> list[list[int]]:
        """Find the clone classes, then the pair relation, each generator's candidates and the basis positions' order.

        A generator's candidate images share its profile, the size of its
        clone class and its place there.  The basis positions are
        assigned in the order of their number of candidates.  Returns the
        clone classes.
        """
        r, s = self.r, self.s
        profiles = self._profiles()
        classes = self._clone_classes(profiles)
        class_of, self.rank, comp = [0] * s, [0] * s, self.component
        for k, members in enumerate(classes):
            for place, i in enumerate(members):
                class_of[i], self.rank[i] = k, place
        profiles = [(p, len(classes[class_of[i]]), self.rank[i]) for i, p in enumerate(profiles)]
        self.relation = [[(g, cx == cy, kx == ky) for g, cy, ky in zip(row, comp, class_of)]
                         for row, cx, kx in zip(self.abs_pair, comp, class_of)]
        self.candidates = [[j for j in range(s) if profiles[j] == profiles[i]] for i in range(s)]
        self.assign_order = sorted(range(r), key=lambda a: len(self.candidates[self.basis[a]]))
        return classes

    def _clone_classes(self, profiles: list) -> list[list[int]]:
        """The clone classes, 0-based and sorted: i and j are clones when (i j) is realizable.

        That is an equivalence, as (i k) = (i j)(j k)(i j), so j, in order,
        joins the first earlier class of its profile whose first member i
        passes _rows_agree(i, j) and _swap_test(i, j), or starts a class.
        """
        classes: list[list[int]] = []
        for j, p in enumerate(profiles):
            passed = (c for c in classes
                      if profiles[c[0]] == p and self._rows_agree(c[0], j) and self._swap_test(c[0], j))
            joined = next(passed, [])
            if not joined:
                classes.append(joined)
            joined.append(j)
        return classes

    def _rows_agree(self, i: int, j: int) -> bool:
        """Whether (i j) sends row i of |G| to row j, as a realizable (i j) requires.

        (i j) fixes S, hence |G(pi a, pi b)| = |G(a, b)|: |G(i, k)| =
        |G(j, k)| for every k but i and j, and |G(i, i)| = |G(j, j)|.  The
        test runs no leaf and is no node.
        """
        row = self.abs_pair[i][:]
        row[i], row[j] = row[j], row[i]
        return row == self.abs_pair[j]

    def _swap_test(self, i: int, j: int) -> bool:
        """Whether the transposition of generators i and j is realizable: one leaf, one node of the budget."""
        self._tick()
        images, label = list(range(1, self.s + 1)), list(range(self.s))
        images[i], images[j], label[i] = j + 1, i + 1, j
        results: set[tuple[int, ...]] = set()
        self._leaf([images[b] - 1 for b in self.basis], results, label)
        return tuple(images) in results

    def _tick(self) -> None:
        """Count one node of work against the budget."""
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise SearchBudgetExceeded(
                self.spec.name, "search", self.node_budget,
                {"nodes": self.nodes, "leaves": self.leaves, "found": len(self.found)},
            )

    def _consistent(self, level: int, i: int, j: int, target: list[int]) -> bool:
        """Whether generator i may go to j given the targets of the first level positions.

        One comparison per assigned b, relation[i][b] == relation[j][target(b)].
        If G(i, b) != 0, each triangle i, b, e with e assigned before b keeps
        the sign of G: with ratio(b) = G(i, b) G(j, target(b)) and zeros that
        agree, ratio(b) ratio(e) G(b, e) G(target(b), target(e)) >= 0.
        """
        basis, pair, rel_i, rel_j = self.basis, self.pair, self.relation[i], self.relation[j]
        linked = []
        for c in self.assign_order[:level]:
            b, t = basis[c], target[c]
            if rel_i[b] != rel_j[t]:
                return False
            ratio = pair[i][b] * pair[j][t]
            if ratio:
                for e, v, other in linked:
                    if ratio * other * pair[b][e] * pair[t][v] < 0:
                        return False
                linked.append((b, t, ratio))
        return True

    def _extend(self, level: int, target: list[int], used: list[bool], results: set) -> bool:
        """First-leaf search: whether a leaf below, the first level positions of assign_order fixed, adds to results.

        Each candidate target for the level-th basis position is tried in
        turn, and the search stops at the first leaf that adds an element.
        """
        self._tick()
        if level == self.r:
            before = len(results)
            self._leaf(target, results, self.rank)
            return len(results) > before
        a = self.assign_order[level]
        i = self.basis[a]
        for j in self.candidates[i]:
            if used[j] or not self._consistent(level, i, j, target):
                continue
            target[a] = j
            used[j] = True
            found = self._extend(level + 1, target, used, results)
            used[j] = False
            if found:
                return True
        return False


def _orbit(point: int, elements) -> set[int]:
    """The orbit of a 0-based point under the group the image tuples generate."""
    orbit, queue = {point}, [point]
    for x in queue:
        for g in elements:
            y = g[x] - 1
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def cone_automorphisms(spec: ConeSpec, node_budget: int = DEFAULT_NODE_BUDGET) -> PermGroup:
    """The group of realizable generator permutations, from the search.

    Declared generators are not read (check_declared_automorphisms
    compares them with the search).  The group lists its elements only
    when iterated.
    """
    return _AutSearch(spec, node_budget).search()


def check_declared_automorphisms(spec: ConeSpec, aut: PermGroup) -> None:
    """Raise VerificationFailed unless the declared generators generate aut, the searched group.

    Each must be a member of aut (no second search), so their closure,
    of at most perms.DEFAULT_CAP elements (CapExceeded, naming the cone,
    past it), is a subgroup of aut, and equal to it exactly when the
    orders agree.  A spec that declares no generators passes.
    """
    if not spec.declared_aut:
        return
    for p in spec.declared_aut:
        if p not in aut:
            raise VerificationFailed(f"cone {spec.name!r}: declared automorphism {p!r} is not realizable")
    try:
        declared = PermGroup.from_generators(spec.declared_aut).order
    except CapExceeded as exc:
        raise CapExceeded(spec.name, exc.stage, exc.cap, exc.elements) from None
    if declared != aut.order:
        raise VerificationFailed(f"cone {spec.name!r}: declared automorphisms generate {declared} of {aut.order}")


def form_coordinates(spec: ConeSpec) -> tuple[list[int], list[Vector], int]:
    """(form basis indices 0-based, every form's coordinates in that basis as integer numerators, their denominator).

    Read from the lattice (_Lattice.form_coordinates), with no elimination of its own.
    """
    return _lattice(spec.generators).form_coordinates()


def cone_poincare_series(spec: ConeSpec, aut: PermGroup, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Molien series of the automorphism action on the span of the forms.

    A group whose degree is not the cone's number of generators raises
    DegreeMismatch.  The sum runs over aut's quotient H, keyed by
    class-weighted cycle types, and aut is never listed.  When the forms
    are independent (a basic cone) the action is the permutation action.
    Otherwise it is the action on the span (LinearAction.on_span): each
    generator of aut is checked to act linearly on the forms'
    coordinates in a maximal independent subset of them, and each
    element of H adds to its key the power sums of its action on the
    forms' relations, read from those coordinates with no matrix built.
    Whether the forms are independent, and the coordinates when they are
    not, are read from the lattice.
    """
    if aut.degree != spec.n_generators:
        raise DegreeMismatch(f"cone {spec.name!r}: a group of degree {aut.degree} on {spec.n_generators} generators")
    if len(_lattice(spec.generators).form_basis) == spec.n_generators:
        return molien_series(LinearAction.natural(aut), order)
    try:
        return molien_series(LinearAction.on_span(aut, *form_coordinates(spec)), order)
    except InconsistentAction as exc:
        raise InconsistentAction(f"cone {spec.name!r}: {exc}") from None


class ConeAnalysis(NamedTuple):
    """Everything the pipeline needs to know about one cone."""

    dimension: int
    rank: int
    components: tuple[tuple[int, ...], ...]
    aut: PermGroup
    form_basis: tuple[int, ...]
    poincare: TruncatedSeries

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "rank": self.rank,
            "components": [list(c) for c in self.components],
            "aut_order": self.aut.order,
            "aut_generators": [p.to_json() for p in self.aut.generators],
            "form_basis": list(self.form_basis),
            "poincare": self.poincare.to_json_dict(),
        }


def analyze(
    spec: ConeSpec,
    order: int = DEFAULT_ORDER,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ConeAnalysis:
    """Dimension, rank, components, searched automorphism group and Poincare series of one cone.

    The five public cone functions in turn; analyze eliminates nothing
    of its own, and each elimination is made once, through the memo.
    """
    dimension = cone_dimension(spec)
    rank = cone_rank(spec)
    components = cone_components(spec)
    aut = cone_automorphisms(spec, node_budget)
    poincare = cone_poincare_series(spec, aut, order)
    form_basis = tuple(i + 1 for i in _lattice(spec.generators).form_basis)
    return ConeAnalysis(dimension, rank, components, aut, form_basis, poincare)
