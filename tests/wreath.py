"""Wreath products base wr S_n: the enumerated groups that tests set against plethysm_h."""

import itertools
from math import factorial

from agstab.errors import CapExceeded
from agstab.perms import DEFAULT_CAP, Permutation, PermGroup


def wreath_product(base: PermGroup, n: int, cap: int = DEFAULT_CAP) -> PermGroup:
    """base wr S_n in its imprimitive action on n blocks of size degree(base).

    The element ((g_1, .., g_n), pi) sends the point i of block j to the
    point g_j(i) of block pi(j); enumerating all |base|^n * n! parameter
    tuples gives the group directly, with its order exact by construction.
    """
    if n < 1:
        raise ValueError("wreath power must be at least 1")
    d = base.degree
    total = base.order**n * factorial(n)
    if total > cap:
        raise CapExceeded(None, "wreath product", cap, total)

    block_perms = [list(p) for p in itertools.permutations(range(n))]
    elements = []
    for pi in block_perms:
        for gs in itertools.product(base.elements, repeat=n):
            images = [0] * (d * n)
            for j in range(n):
                gj = gs[j].images
                base_new = pi[j] * d
                base_old = j * d
                for i in range(d):
                    images[base_old + i] = base_new + gj[i]
            elements.append(tuple(images))
    elements.sort()

    gens: list[Permutation] = []
    for g in base.generators:
        images = list(g.images) + list(range(d + 1, d * n + 1))
        gens.append(Permutation(images))
    if n >= 2:
        for cycle in ([tuple(range(1, n + 1))] if n > 2 else []) + [(1, 2)]:
            block = Permutation.from_cycles(n, [cycle])
            images = [0] * (d * n)
            for j in range(n):
                tgt = (block(j + 1) - 1) * d
                for i in range(d):
                    images[j * d + i] = tgt + i + 1
            gens.append(Permutation(images))
    if not gens:
        gens = [Permutation.identity(d * n)]
    return PermGroup(d * n, tuple(gens), elements)
