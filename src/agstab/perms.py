"""Finite permutation groups, split by their clone classes.

A clone class of a group G is a block of points whose every
permutation, fixing the other points, lies in G.  The symmetric groups
of the classes form a normal subgroup N = prod S_c, and the elements
that keep every class in order (each class sent onto a class by the
increasing bijection) form a complement H, so |G| = |H| prod c!.  A
group lists H and counts G from it.  Both are listed by Dimino's coset
closure, which adjoins one generator at a time and adds whole cosets
of the group built so far: H once, from elements that generate it,
and G only when it is iterated; the Molien sum (see molien) reads H
alone.  A group with no clone classes has H = G.  Elements are kept as
sorted image tuples, Permutation objects are built only when asked
for, and every closure holds at most DEFAULT_CAP elements.
"""

from __future__ import annotations

from bisect import bisect_left
from math import factorial, prod
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
    """A finite permutation group G = N H, N the symmetric groups of its clone classes.

    classes holds the clone classes of more than one point, each a
    sorted tuple, and H, the elements that keep each class in order, is
    listed: quotient_images() yields its sorted image tuples, and order
    = |H| prod c!.  images() yields every element of G and iteration
    wraps them as Permutations; with clone classes they are listed on
    first use, by _coset_closure of the generators within DEFAULT_CAP
    elements, and kept.  ``p in group`` looks p up in H after sorting
    its images within each class, so membership never lists G.
    ``generators`` generate the whole group: from_generators closes
    them, from_quotient takes the adjacent transpositions of every class
    and the elements its one closure adjoins, scanning the given
    elements of H sorted (so from_elements picks the greedy generators:
    the lexicographically first element outside the closure so far),
    and symmetric names a generating set.  A property that holds for
    the generators and is closed under products holds for every element.
    """

    __slots__ = ("degree", "generators", "order", "classes", "_quotient", "_images")

    def __init__(
        self,
        degree: int,
        generators: tuple[Permutation, ...],
        images: list[tuple[int, ...]],
        classes: Sequence[tuple[int, ...]] = (),
    ):
        """images: the image tuples of the elements of H, sorted and without repeats."""
        self.degree = degree
        self.generators = generators
        self.classes = tuple(classes)
        self.order = len(images) * prod(factorial(len(c)) for c in self.classes)
        self._quotient = images
        self._images = None if self.classes else images

    def quotient_images(self) -> Iterator[tuple[int, ...]]:
        """The image tuple of every element of H, in sorted order."""
        return iter(self._quotient)

    def images(self) -> Iterator[tuple[int, ...]]:
        """Every element's image tuple, in sorted order; past DEFAULT_CAP it raises CapExceeded."""
        if self._images is None:
            if self.order > DEFAULT_CAP:
                raise CapExceeded(None, "closure", DEFAULT_CAP, self.order)
            _, images = _coset_closure(self.degree, [g.images for g in self.generators])
            self._images = sorted(images)
        return iter(self._images)

    def __iter__(self) -> Iterator[Permutation]:
        return map(Permutation._trusted, self.images())

    def __contains__(self, p: Permutation) -> bool:
        """Whether p is in G, which is not listed.

        Sorting p's images within each clone class gives p n, n in N, which
        keeps every class in order; so p is in G exactly when p n is in H.
        """
        n, images = self.degree, list(p.images)
        if len(images) != n:
            return False
        for c in self.classes:
            for point, image in zip(c, sorted(images[x - 1] for x in c)):
                images[point - 1] = image
        h, quotient = tuple(images), self._quotient
        k = bisect_left(quotient, h)
        return k < len(quotient) and quotient[k] == h

    @property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(self)

    @classmethod
    def from_generators(cls, generators: Sequence[Permutation]) -> "PermGroup":
        """The closure of the generators under composition; past DEFAULT_CAP elements it raises CapExceeded."""
        if not generators:
            raise ValueError("need at least one generator (use Permutation.identity for the trivial group)")
        degrees = {g.degree for g in generators}
        if len(degrees) != 1:
            raise DegreeMismatch(f"generators mix degrees {sorted(degrees)}")
        degree = degrees.pop()
        _, images = _coset_closure(degree, [g.images for g in generators])
        return cls(degree, tuple(generators), sorted(images))

    @classmethod
    def from_elements(cls, degree: int, images: Iterable[tuple[int, ...]]) -> "PermGroup":
        """The group with exactly these image tuples of bijections; CapExceeded if their closure is larger."""
        images = set(images)
        group = cls.from_quotient(degree, (), images)
        if group.order != len(images):
            raise CapExceeded(None, "closure", len(images), group.order)
        return group

    @classmethod
    def from_quotient(
        cls,
        degree: int,
        classes: Sequence[tuple[int, ...]],
        elements: Iterable[tuple[int, ...]],
    ) -> "PermGroup":
        """The group N H from its clone classes (sorted tuples of points) and image tuples that generate H.

        H is their closure (CapExceeded past DEFAULT_CAP elements); G is not listed.
        """
        quotient_gens, images = _coset_closure(degree, sorted(set(elements)))
        classes = tuple(tuple(c) for c in classes if len(c) > 1)
        gens = [Permutation.from_cycles(degree, [c[k : k + 2]]) for c in classes for k in range(len(c) - 1)]
        identity = Permutation.identity(degree)
        gens += [Permutation._trusted(g) for g in quotient_gens if g != identity.images]
        return cls(degree, tuple(gens) or (identity,), sorted(images), classes)

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        """The symmetric group on 1..degree: one clone class."""
        points = tuple(range(1, degree + 1))
        return cls.from_quotient(degree, (points,), (points,))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def _coset_closure(degree: int, candidates: Iterable[tuple[int, ...]]) -> tuple[list, list]:
    """(the candidates adjoined, or the identity if none, every element they generate): Dimino's algorithm.

    Each candidate image tuple outside the group H built so far is
    adjoined: the left cosets rH are added whole, with representatives
    r found breadth first as products g'r of an adjoined g' and a known
    representative, and g'r is in a coset already present exactly when
    it is an element already present.  So every element is composed
    once.  DEFAULT_CAP, read at each call, is checked before a coset is
    built, so at most that many tuples are ever held.
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
                if len(elements) + len(subgroup) > DEFAULT_CAP:
                    raise CapExceeded(None, "closure", DEFAULT_CAP, len(elements) + len(subgroup))
                left = ((0,) + q).__getitem__
                coset = [tuple(map(left, h)) for h in subgroup]  # q * h
                elements += coset
                seen.update(coset)
                reps.append(q)
    return adjoined or [identity], elements

