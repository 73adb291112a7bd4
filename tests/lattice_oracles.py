"""Saturation bases and matroid components: oracles that tests set against the lattice layer."""

from typing import Sequence

from agstab.intlinalg import Vector, integer_coordinates, lattice_coordinates


def saturation_basis(rows: Sequence[Sequence[int]]) -> list[Vector]:
    """Basis of the saturation of the row lattice inside Z^g (lattice_coordinates)."""
    return lattice_coordinates(rows)[1]


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
