"""Rational polyhedral cones spanned by rank-one quadratic forms.

A cone is given by integer vectors v_1, .., v_s; the actual generators
are the forms v_i v_i^T, so a cone automorphism is a permutation pi of
the indices realized by some T with T v_i = +-v_{pi(i)} that maps the
saturation of the lattice spanned by the v_i bijectively to itself.
The search below enumerates exactly those permutations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    InconsistentAction,
    InputError,
    SearchBudgetExceeded,
    VerificationFailed,
)
from .intlinalg import (
    adjugate_int,
    all_circuits,
    coordinates_in_lattice_basis,
    det_int,
    greedy_independent_rows,
    matroid_components,
    rational_rank,
    saturation_basis,
    solve_in_basis,
)
from .molien import LinearAction, molien_series
from .perms import DEFAULT_CAP, PermGroup, Permutation
from .series import DEFAULT_ORDER, RationalMatrix, TruncatedSeries

DEFAULT_NODE_BUDGET = 2_000_000
_CIRCUIT_SCAN_LIMIT = 12


def _primitive_signature(vector: tuple[int, ...]) -> tuple[int, ...]:
    from math import gcd

    g = 0
    for x in vector:
        g = gcd(g, abs(x))
    scaled = tuple(x // g for x in vector)
    for x in scaled:
        if x != 0:
            return scaled if x > 0 else tuple(-y for y in scaled)
    return scaled


@dataclass(frozen=True)
class ConeSpec:
    """An integer vector configuration naming a rank-one-form cone."""

    name: str
    ambient: int
    generators: tuple[tuple[int, ...], ...]
    declared_aut: tuple[Permutation, ...] | None = None
    tags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
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
            name = str(payload["name"])
            ambient = int(payload["ambient"])
            generators = tuple(tuple(int(x) for x in v) for v in payload["generators"])
            declared = None
            if "aut_generators" in payload:
                declared = tuple(Permutation(images) for images in payload["aut_generators"])
            tags = frozenset(str(t) for t in payload.get("tags", ()))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed cone payload: {exc}") from exc
        return cls(name, ambient, generators, declared, tags)


def load_cone(path: str | Path) -> ConeSpec:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read cone file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"cone file {path} is not valid JSON: {exc}") from exc
    return ConeSpec.from_json_dict(payload)


def _form_vector(v: tuple[int, ...]) -> tuple[int, ...]:
    """Flatten v v^T to its upper triangle; rank is all that matters."""
    g = len(v)
    return tuple(v[i] * v[j] for i in range(g) for j in range(i, g))


def cone_dimension(spec: ConeSpec) -> int:
    """Dimension of the span of the forms v_i v_i^T."""
    return rational_rank([_form_vector(v) for v in spec.generators])


def cone_rank(spec: ConeSpec) -> int:
    """Rank of the matrix whose rows are the generators themselves."""
    return rational_rank(spec.generators)


def _is_lattice_split(vectors, left: list[int], right: list[int]) -> bool:
    """Whether sat(left) + sat(right) is all of sat(left + right).

    The spans are assumed independent, so the sum is direct; the split
    is admissible exactly when the stacked saturation bases generate
    the saturation of the union, i.e. the coordinate matrix of the
    stacked rows in a basis of the union's saturation is unimodular.
    """
    whole = saturation_basis([vectors[i] for i in left] + [vectors[i] for i in right])
    stacked = saturation_basis([vectors[i] for i in left]) + saturation_basis(
        [vectors[i] for i in right]
    )
    coords = [list(coordinates_in_lattice_basis(whole, row)) for row in stacked]
    return abs(det_int(coords)) == 1


def _split_blocks(vectors, blocks: list[tuple[int, ...]]) -> list[list[int]]:
    """Finest grouping of span-independent blocks that splits the lattice."""
    if len(blocks) == 1:
        return [sorted(blocks[0])]
    first, others = blocks[0], blocks[1:]
    for bits in range(1 << len(others)):
        take = [first] + [b for k, b in enumerate(others) if (bits >> k) & 1]
        rest = [b for k, b in enumerate(others) if not (bits >> k) & 1]
        if not rest:
            continue
        left = [i for b in take for i in b]
        right = [i for b in rest for i in b]
        if _is_lattice_split(vectors, left, right):
            return _split_blocks(vectors, take) + _split_blocks(vectors, rest)
    return [sorted(i for b in blocks for i in b)]


def cone_components(spec: ConeSpec) -> tuple[tuple[int, ...], ...]:
    """Finest direct-sum decomposition of the generator configuration, 1-based.

    Matroid components of the vectors give the finest split of the
    span; blocks are then merged until the corresponding saturated
    lattices also sum directly.  For unimodular configurations the two
    notions agree, but configurations of independent vectors spanning
    a proper-index sublattice (several of the non-matroidal cones) are
    indecomposable over the integers despite their free matroid.
    """
    q_comps = matroid_components(spec.generators)
    comps = _split_blocks(spec.generators, q_comps)
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

    Working in coordinates of the saturated lattice, every generator
    becomes an integer vector u_i in Z^r with the lattice equal to Z^r,
    so realizability of (pi, signs) is integrality plus det +-1 of the
    matrix T determined on a fixed maximal independent subset B.

    Any realizable T preserves S = sum_i u_i u_i^T, hence the pairing
    G(i, j) = u_i^T adj(S) u_j satisfies |G(pi i, pi j)| = |G(i, j)|
    with sign ratios eps_i eps_j.  That prunes candidate images hard
    and pins the signs up to one flip per connected component of the
    nonzero-pairing graph on B.
    """

    def __init__(self, spec: ConeSpec, node_budget: int = DEFAULT_NODE_BUDGET):
        self.spec = spec
        self.node_budget = node_budget
        vectors = spec.generators
        self.s = len(vectors)
        sat = saturation_basis(vectors)
        self.r = len(sat)
        self.u = [coordinates_in_lattice_basis(sat, v) for v in vectors]
        r, s, u = self.r, self.s, self.u

        self.basis = greedy_independent_rows(u)
        ub = [[u[b][x] for b in self.basis] for x in range(r)]
        self.adjU, self.dU = adjugate_int(ub)
        self.dU_abs = abs(self.dU)

        gram = [[sum(ui[x] * ui[y] for ui in u) for y in range(r)] for x in range(r)]
        adj_gram, _ = adjugate_int(gram)
        tmp = [
            tuple(sum(adj_gram[x][y] * ui[y] for y in range(r)) for x in range(r))
            for ui in u
        ]
        self.pair = [[sum(u[i][x] * tmp[j][x] for x in range(r)) for j in range(s)] for i in range(s)]

        comps = matroid_components(u)
        comp_of = {}
        for comp in comps:
            for i in comp:
                comp_of[i] = comp
        if s <= _CIRCUIT_SCAN_LIMIT:
            circuits = all_circuits(u)
            circuit_sizes = [
                tuple(sorted(len(c) for c in circuits if i in c)) for i in range(s)
            ]
        else:
            circuit_sizes = [() for _ in range(s)]

        profiles = []
        for i in range(s):
            row = tuple(sorted(abs(self.pair[i][j]) for j in range(s) if j != i))
            profiles.append((self.pair[i][i], row, circuit_sizes[i], len(comp_of[i])))
        self.candidates = [
            [j for j in range(s) if profiles[j] == profiles[i]] for i in range(s)
        ]

        # connected components of the nonzero-pairing graph on basis positions
        parent = list(range(r))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in range(r):
            for c in range(a + 1, r):
                if self.pair[self.basis[a]][self.basis[c]] != 0:
                    ra, rc = find(a), find(c)
                    if ra != rc:
                        parent[max(ra, rc)] = min(ra, rc)
        groups: dict[int, list[int]] = {}
        for a in range(r):
            groups.setdefault(find(a), []).append(a)
        self.parity_components = sorted(groups.values())

        self.assign_order = sorted(range(r), key=lambda a: len(self.candidates[self.basis[a]]))
        self.lookup: dict[tuple[int, ...], int] = {}
        for j, uj in enumerate(u):
            self.lookup[uj] = j
            self.lookup[tuple(-x for x in uj)] = j
        self._nodes = 0

    # -- leaf handling ----------------------------------------------------

    def _component_signs(self, target: list[int]) -> list[int] | None:
        """Relative signs over basis positions, or None if inconsistent."""
        pair, basis = self.pair, self.basis
        eps = [0] * self.r
        for comp in self.parity_components:
            root = comp[0]
            eps[root] = 1
            queue = [root]
            placed = {root}
            while queue:
                a = queue.pop()
                for c in comp:
                    if c in placed:
                        continue
                    pv = pair[basis[a]][basis[c]]
                    if pv != 0:
                        tv = pair[target[a]][target[c]]
                        eps[c] = eps[a] if (tv > 0) == (pv > 0) else -eps[a]
                        placed.add(c)
                        queue.append(c)
            for ai in range(len(comp)):
                for ci in range(ai + 1, len(comp)):
                    a, c = comp[ai], comp[ci]
                    pv = pair[basis[a]][basis[c]]
                    if pv == 0:
                        continue
                    tv = pair[target[a]][target[c]]
                    want = 1 if (tv > 0) == (pv > 0) else -1
                    if eps[a] * eps[c] != want:
                        return None
        return eps

    def _leaf(self, target: list[int], results: set[tuple[int, ...]]) -> None:
        eps = self._component_signs(target)
        if eps is None:
            return
        r, s, u = self.r, self.s, self.u
        basis, adjU, dU, dU_abs = self.basis, self.adjU, self.dU, self.dU_abs
        comps = self.parity_components
        for flip_bits in range(1 << (len(comps) - 1)):
            e = list(eps)
            for ci in range(1, len(comps)):
                if (flip_bits >> (ci - 1)) & 1:
                    for a in comps[ci]:
                        e[a] = -e[a]
            t_num = [[0] * r for _ in range(r)]
            for a in range(r):
                ua = u[target[a]]
                ra = adjU[a]
                ea = e[a]
                for x in range(r):
                    c = ea * ua[x]
                    if c:
                        row = t_num[x]
                        for y in range(r):
                            row[y] += c * ra[y]
            ok = True
            for row in t_num:
                for v in row:
                    if v % dU_abs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            t = [[v // dU for v in row] for row in t_num]
            if abs(det_int(t)) != 1:
                continue
            if s == r:
                # every generator is in the basis, so pi is the assignment
                images = [0] * s
                for a in range(r):
                    images[basis[a]] = target[a] + 1
                results.add(tuple(images))
                continue
            images = [0] * s
            taken = [False] * s
            good = True
            for i in range(s):
                w = tuple(sum(trow[y] * u[i][y] for y in range(r)) for trow in t)
                j = self.lookup.get(w)
                if j is None or taken[j]:
                    good = False
                    break
                taken[j] = True
                images[i] = j + 1
            if good:
                results.add(tuple(images))

    # -- search and single-permutation verification ------------------------

    def search(self) -> list[tuple[int, ...]]:
        results: set[tuple[int, ...]] = set()
        r = self.r
        basis, order, pair = self.basis, self.assign_order, self.pair
        target = [0] * r
        used = [False] * self.s
        self._nodes = 0

        def dfs(level: int) -> None:
            self._nodes += 1
            if self._nodes > self.node_budget:
                raise SearchBudgetExceeded(
                    f"cone {self.spec.name!r}: search exceeded {self.node_budget} nodes"
                )
            if level == r:
                self._leaf(target, results)
                return
            a = order[level]
            i = basis[a]
            for j in self.candidates[i]:
                if used[j]:
                    continue
                ok = True
                for prev in range(level):
                    c = order[prev]
                    if abs(pair[j][target[c]]) != abs(pair[i][basis[c]]):
                        ok = False
                        break
                if ok:
                    target[a] = j
                    used[j] = True
                    dfs(level + 1)
                    used[j] = False

        dfs(0)
        return sorted(results)

    def verify(self, perm: Permutation) -> bool:
        if perm.degree != self.s:
            return False
        target = [perm.images[self.basis[a]] - 1 for a in range(self.r)]
        if len(set(target)) != self.r:
            return False
        results: set[tuple[int, ...]] = set()
        self._leaf(target, results)
        return perm.images in results


def cone_automorphisms(
    spec: ConeSpec,
    use_declared: bool = True,
    node_budget: int = DEFAULT_NODE_BUDGET,
    cap: int = DEFAULT_CAP,
) -> PermGroup:
    """The group of realizable generator permutations.

    With use_declared and a declared generating set present, each
    declared permutation is verified realizable and the closure is
    returned; otherwise the full backtracking search runs.
    """
    ctx = _AutSearch(spec, node_budget)
    if use_declared and spec.declared_aut:
        for p in spec.declared_aut:
            if not ctx.verify(p):
                raise VerificationFailed(
                    f"cone {spec.name!r}: declared automorphism {p!r} is not realizable"
                )
        return PermGroup.from_generators(spec.declared_aut, cap=cap)
    images = ctx.search()
    perms = [Permutation(im) for im in images]
    if not perms:
        perms = [Permutation.identity(spec.n_generators)]
    return PermGroup.from_elements(spec.n_generators, perms)


def form_coordinates(spec: ConeSpec) -> tuple[list[int], list[tuple]]:
    """(form basis indices 0-based, coordinates of every form in that basis)."""
    forms = [_form_vector(v) for v in spec.generators]
    basis_idx = greedy_independent_rows(forms)
    basis_rows = [forms[i] for i in basis_idx]
    coords = []
    for f in forms:
        c = solve_in_basis(basis_rows, f)
        coords.append(c)
    return basis_idx, coords


def cone_poincare_series(
    spec: ConeSpec, aut: PermGroup, order: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Molien series of the automorphism action on the span of the forms.

    When the forms are independent (a basic cone) the action is the
    permutation action and cycle types suffice; otherwise each
    permutation is expressed in a maximal independent subset of the
    forms, which also checks that it induces a well-defined map.
    """
    basis_idx, coords = form_coordinates(spec)
    dim = len(basis_idx)
    if dim == spec.n_generators:
        return molien_series(LinearAction.natural(aut), order)
    matrices = {}
    for p in aut.elements:
        cols = [coords[p(b + 1) - 1] for b in basis_idx]
        mat = RationalMatrix([[cols[a][x] for a in range(dim)] for x in range(dim)])
        for i in range(spec.n_generators):
            image = mat.apply(coords[i])
            if image != tuple(coords[p(i + 1) - 1]):
                raise InconsistentAction(
                    f"cone {spec.name!r}: {p!r} does not act linearly on the form span"
                )
        matrices[p] = mat
    return molien_series(LinearAction.from_matrices(aut, matrices), order)


@dataclass(frozen=True)
class ConeAnalysis:
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
    use_declared: bool = True,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ConeAnalysis:
    dimension = cone_dimension(spec)
    rank = cone_rank(spec)
    components = cone_components(spec)
    aut = cone_automorphisms(spec, use_declared=use_declared, node_budget=node_budget)
    basis_idx, _ = form_coordinates(spec)
    poincare = cone_poincare_series(spec, aut, order)
    return ConeAnalysis(
        dimension=dimension,
        rank=rank,
        components=components,
        aut=aut,
        form_basis=tuple(i + 1 for i in basis_idx),
        poincare=poincare,
    )
