"""Seeded inputs for the lattice-sums workload.

Every case is built from packaged cones by integer arithmetic alone and
then moved by a random GL(Z) change of coordinates, a relabelling of the
generators and sign flips, so the program sees only the resulting
ConeSpec.  The counts per category are fixed; the seed decides the
coordinates, the labels, the signs and which dependent vector a
non-basic case gains.  Each case carries what its construction implies
about the answer (the source cones and the expected component blocks),
which the checker turns into expected values.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd

from agstab import ConeSpec

# GL(Z) images: every packaged cone except C_7 and the three simplicial
# (7,7) cones, whose searches dominate perfect-search already.
IMAGE_SOURCES = (
    "K_3", "C_4", "K_4-1", "C_5", "K_4", "C_222", "C_321", "C_6", "C_2221",
    "K_5-2-1", "K_5-3", "C_421", "C_331", "C_322", "(5,5)", "(5,6)",
    "(5,7a)", "(5,7b)", "(6,6)", "(6,7a)", "(6,7b)", "(6,7c)", "(6,7d)",
)

# Direct sums with 8 or 9 generators: repeated summands (wreath orders,
# plethysm_h series) and the non-unimodular (5,5), whose free matroid
# makes the component scan test lattice splits block by block.
SUM_SHAPES = (
    ("(5,5)", "K_3"),
    ("K_3", "K_3", "K_3"),
    ("C_4", "C_4"),
)

# Packaged cones with generators a, b and a +- b; adding a -+ b keeps the
# rank and makes the forms dependent, since
# (a - b)(a - b)^T = 2 aa^T + 2 bb^T - (a + b)(a + b)^T.
NONBASIC_SOURCES = (
    "K_3", "K_4-1", "K_4", "C_321", "C_2221", "K_5-2-1", "K_5-3", "C_421",
    "(5,7a)", "(6,7a)",
)


@dataclass(frozen=True)
class Case:
    """One generated cone and what its construction says about it."""

    kind: str  # "image", "sum" or "nonbasic"
    spec: ConeSpec
    sources: tuple[str, ...]  # the packaged cones it was built from
    blocks: tuple[tuple[int, ...], ...]  # expected components, 1-based, sorted
    extra: tuple[int, ...] | None = None  # a non-basic case's added vector, unmoved


def _ray(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    v = tuple(x // g for x in v)
    lead = next(x for x in v if x)
    return v if lead > 0 else tuple(-x for x in v)


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A product of 2n elementary row operations, a row permutation and sign flips."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    rng.shuffle(t)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[s * x for x in row] for s, row in zip(signs, t)]


def _moved(rng, name, generators, blocks) -> tuple[ConeSpec, tuple[tuple[int, ...], ...]]:
    """Apply T, relabel and flip signs; return the spec and the relabelled blocks."""
    n = len(generators[0])
    t = _unimodular(rng, n)
    order = list(range(len(generators)))
    rng.shuffle(order)  # new generator i is old generator order[i]
    new_index = {old: new for new, old in enumerate(order)}
    gens = []
    for old in order:
        v = generators[old]
        sign = rng.choice((-1, 1))
        gens.append(tuple(sign * sum(row[k] * v[k] for k in range(n)) for row in t))
    moved_blocks = tuple(sorted(tuple(sorted(new_index[i] + 1 for i in b)) for b in blocks))
    return ConeSpec(name, n, tuple(gens)), moved_blocks


def _direct_sum(parts):
    """Block-diagonal placement of the generator lists."""
    width = sum(len(p[0]) for p in parts)
    gens, blocks, offset = [], [], 0
    for p in parts:
        start = len(gens)
        for v in p:
            gens.append((0,) * offset + tuple(v) + (0,) * (width - offset - len(v)))
        blocks.append(tuple(range(start, len(gens))))
        offset += len(p[0])
    return gens, blocks


def _dependent_vectors(generators):
    """Vectors a -+ b, not yet a generator ray, for generators a, b with a +- b present."""
    rays = {_ray(v) for v in generators}
    out = []
    for a, b in itertools.combinations(generators, 2):
        plus = tuple(x + y for x, y in zip(a, b))
        minus = tuple(x - y for x, y in zip(a, b))
        for present, extra in ((plus, minus), (minus, plus)):
            if any(present) and any(extra) and _ray(present) in rays and _ray(extra) not in rays:
                out.append(extra)
    return sorted(set(out))


def generate(seed: int, packaged: dict[str, ConeSpec]) -> list[Case]:
    """The cases for one seed; the same seed gives the same cases."""
    rng = random.Random(seed)
    cases = []
    whole = lambda spec: (tuple(range(spec.n_generators)),)
    for name in IMAGE_SOURCES:
        src = packaged[name]
        spec, blocks = _moved(rng, f"image {name}", src.generators, whole(src))
        cases.append(Case("image", spec, (name,), blocks))
    for shape in SUM_SHAPES:
        gens, blocks = _direct_sum([packaged[n].generators for n in shape])
        spec, blocks = _moved(rng, "sum " + " + ".join(shape), gens, blocks)
        cases.append(Case("sum", spec, shape, blocks))
    for name in NONBASIC_SOURCES:
        src = packaged[name]
        extra = rng.choice(_dependent_vectors(src.generators))
        gens = src.generators + (extra,)
        spec, blocks = _moved(rng, f"nonbasic {name}", gens, (tuple(range(len(gens))),))
        cases.append(Case("nonbasic", spec, (name,), blocks, extra))
    return cases
