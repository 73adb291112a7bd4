"""Finite permutation groups via explicit element enumeration.

Groups here are small (orders up to a few thousand), so each one is
enumerated in full and deterministically: Dimino's coset closure
adjoins one generator at a time and adds whole cosets of the group
built so far, and elements are kept sorted lexicographically by image
list.  A group stores its elements packed, one machine integer per
image, and builds Permutation objects only when they are asked for.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, DegreeMismatch

DEFAULT_CAP = 10**6


class Permutation:
    """A permutation of {1, .., n}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"images {images} are not a bijection of 1..{n}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a bijection."""
        p = object.__new__(cls)
        p.images = images
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
                images[a - 1] = b
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        mine = self.images
        return Permutation(tuple(mine[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, img in enumerate(self.images):
            out[img - 1] = i + 1
        return Permutation(out)

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition including fixed points, ordered by least element."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Weakly increasing cycle lengths, a partition of the degree."""
        return tuple(sorted(len(c) for c in self.cycles()))

    def __eq__(self, other):
        if isinstance(other, Permutation):
            return self.images == other.images
        return NotImplemented

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return f"Permutation(id, n={self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)
        return f"Permutation({text}, n={self.degree})"

    def to_json(self) -> list[int]:
        return list(self.images)


class PermGroup:
    """A finite permutation group with a fully enumerated element list.

    The sorted image tuples are packed into one array; images() yields
    them, elements and iteration wrap them as Permutations.
    ``generators`` generate the whole group: from_generators closes
    them, from_elements picks them greedily (the lexicographically first
    element outside the closure so far), both by _coset_closure, and the
    other constructors name a generating set.  A property that holds
    for the generators and is closed under products therefore holds for
    every element.
    """

    __slots__ = ("degree", "generators", "order", "_packed")

    def __init__(self, degree: int, generators: tuple[Permutation, ...], images: Sequence[tuple[int, ...]]):
        """images: every element's image tuple, sorted and without repeats."""
        self.degree = degree
        self.generators = generators
        self.order = len(images)
        typecode = "B" if degree < 1 << 8 else "H" if degree < 1 << 16 else "L"
        self._packed = array(typecode, itertools.chain.from_iterable(images))

    def images(self) -> Iterator[tuple[int, ...]]:
        """Every element's image tuple, in sorted order."""
        packed, n = self._packed, self.degree
        return (tuple(packed[k : k + n]) for k in range(0, len(packed), n))

    def __iter__(self) -> Iterator[Permutation]:
        return map(Permutation._trusted, self.images())

    @property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(self)

    @classmethod
    def from_generators(cls, generators: Sequence[Permutation], cap: int = DEFAULT_CAP) -> "PermGroup":
        """The closure of the generators under composition; past cap elements it raises CapExceeded."""
        if not generators:
            raise ValueError("need at least one generator (use Permutation.identity for the trivial group)")
        degrees = {g.degree for g in generators}
        if len(degrees) != 1:
            raise DegreeMismatch(f"generators mix degrees {sorted(degrees)}")
        degree = degrees.pop()
        _, images = _coset_closure(degree, [g.images for g in generators], cap)
        return cls(degree, tuple(generators), sorted(images))

    @classmethod
    def from_elements(cls, degree: int, images: Iterable[tuple[int, ...]]) -> "PermGroup":
        """The group with exactly these image tuples of bijections; CapExceeded if they are not closed."""
        images = sorted(set(images))
        gens, _ = _coset_closure(degree, images, cap=len(images))
        return cls(degree, tuple(map(Permutation._trusted, gens)), images)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        e = Permutation.identity(degree)
        return cls(degree, (e,), (e.images,))

    @classmethod
    def symmetric(cls, degree: int, points: Sequence[int] | None = None) -> "PermGroup":
        """The symmetric group on the given points (default: all of 1..degree)."""
        pts = tuple(points) if points is not None else tuple(range(1, degree + 1))
        if len(pts) < 2:
            return cls.trivial(degree)
        gens = [Permutation.from_cycles(degree, [pts[:2]])]
        if len(pts) > 2:
            gens.append(Permutation.from_cycles(degree, [pts]))
        return cls.from_generators(gens)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _coset_closure(degree: int, candidates: Iterable[tuple[int, ...]], cap: int) -> tuple[list, list]:
    """(the candidates adjoined, or the identity if none, every element they generate): Dimino's algorithm.

    Each candidate image tuple outside the group H built so far is
    adjoined: the left cosets rH are added whole, with representatives
    r found breadth first as products g'r of an adjoined g' and a known
    representative, and g'r is in a coset already present exactly when
    it is an element already present.  So every element is composed
    once.  The cap is checked before a coset is built, so at most cap
    tuples are ever held.
    """
    identity = tuple(range(1, degree + 1))
    elements, seen = [identity], {identity}
    adjoined, lookups = [], []
    for g in candidates:
        if g in seen:
            continue
        adjoined.append(g)
        lookups.append(((0,) + g).__getitem__)
        subgroup = elements[:]
        reps = [identity]
        for r in reps:
            for lookup in lookups:
                q = tuple(map(lookup, r))  # g' * r
                if q in seen:
                    continue
                if len(elements) + len(subgroup) > cap:
                    raise CapExceeded(None, "closure", cap, len(elements) + len(subgroup))
                left = ((0,) + q).__getitem__
                coset = [tuple(map(left, h)) for h in subgroup]  # q * h
                elements += coset
                seen.update(coset)
                reps.append(q)
    return adjoined or [identity], elements

