"""Write the frozen |Aut| table of the non-basic lattice-sums cases.

    python3 perfbench/freeze_nonbasic.py

For every packaged cone in lattice.NONBASIC_SOURCES and every vector
that lattice._dependent_vectors can add to it, the order of the
automorphism group of the unmoved cone is found twice: by the program's
search (no declared generators) and by a brute force here that tries
every image of a basis of generators.  The two must agree; the order is
then written to perfbench/nonbasic_aut.json.  The checker compares each
moved non-basic case against this table, so the expected |Aut| of these
cases never comes from the run being checked.  Run this again only when
the packaged cones or the generator change; it takes a few minutes.
"""

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import agstab  # noqa: E402
import agstab.pipeline  # noqa: E402

import lattice  # noqa: E402

TABLE = HERE / "nonbasic_aut.json"


def _det(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    n, d = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p], d = m[p], m[c], -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(d)


def brute_force_order(generators) -> int:
    """Generator permutations realised by some T in GL_g(Z) with T v = +-v', counted.

    T is fixed by the (signed) images of a basis of generators; every
    choice of images is tried, and kept when T is integral, unimodular
    and maps every generator to plus or minus a generator.
    """
    g, n = len(generators[0]), len(generators)
    basis = next(b for b in itertools.combinations(range(n), g) if _det([generators[j] for j in b]))
    cols = [[generators[j][r] for j in basis] for r in range(g)]  # basis vectors as columns
    d = _det(cols)
    # adjugate: cols^-1 = adj / d
    adj = [[(-1) ** (i + j) * _det([row[:i] + row[i + 1:] for k, row in enumerate(cols) if k != j])
            for j in range(g)] for i in range(g)]
    coords = [[sum(adj[k][r] * v[r] for r in range(g)) for k in range(g)] for v in generators]  # times d
    rays = {}
    for i, v in enumerate(generators):
        rays[tuple(v)] = rays[tuple(-x for x in v)] = i
    found = set()
    for images in itertools.permutations(range(n), g):
        for signs in itertools.product((1, -1), repeat=g - 1):  # T and -T act alike
            image = [generators[images[0]]] + [
                tuple(s * x for x in generators[j]) for s, j in zip(signs, images[1:])
            ]
            perm = []
            for c in coords:
                w = [sum(c[k] * image[k][r] for k in range(g)) for r in range(g)]
                if any(x % d for x in w) or tuple(x // d for x in w) not in rays:
                    break
                perm.append(rays[tuple(x // d for x in w)])
            else:
                if len(set(perm)) < n:
                    continue
                t = [[sum(image[k][r] * adj[k][c] for k in range(g)) for c in range(g)] for r in range(g)]
                if all(x % d == 0 for row in t for x in row) and abs(_det([[x // d for x in row] for row in t])) == 1:
                    found.add(tuple(perm))
    return len(found)


def main() -> int:
    _, specs = agstab.pipeline.load_cone_specs("perfect")
    packaged = {s.name: s for s in specs}
    table, disagree = {}, 0
    for name in lattice.NONBASIC_SOURCES:
        src = packaged[name]
        rows = []
        for extra in lattice._dependent_vectors(src.generators):
            gens = src.generators + (extra,)
            order = agstab.cone_automorphisms(agstab.ConeSpec(f"nonbasic {name}", src.ambient, gens)).order
            brute = brute_force_order(gens)
            disagree += order != brute
            rows.append([list(extra), order])
            print(name, extra, order, brute, "" if order == brute else "DISAGREE", flush=True)
        table[name] = rows
    if disagree:
        print(f"{disagree} orders disagree; table not written")
        return 1
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
