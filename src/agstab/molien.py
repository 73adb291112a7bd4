"""Molien series of finite linear actions.

For a finite group G acting on Q^n the invariant-dimension generating
series is (1/|G|) sum_{A in G} 1/det(1 - tA).  The sum runs over
H = G/N alone, N the symmetric groups of the clone classes (see perms),
groups the elements of H by a key that determines their term, and
evaluates one term per key, weighted by the number of elements sharing
it.

For a permutation action, averaging over the coset hN folds a cycle of
h of length l through classes of size c into
h_c[1/(1 - t)](t^l) = prod_{k=1..c} 1/(1 - t^(kl)).  The key of h is
therefore its class-weighted cycle type, which lists l, 2l, .., cl for
each such cycle, and its term is prod 1/(1 - t^m) over the key.  A group
with no clone classes has c = 1 and H = G, and the key is the cycle
type.

For an action on the span V of vectors w_1..w_s that the group permutes
(LinearAction.on_span), e_i -> w_i is a G-map Q^s -> V whose kernel K,
the relations among the w_i, is G-stable, so
det(1 - tg | Q^s) = det(1 - tg | K) det(1 - tg | V).  Two clones i, j
have w_i != w_j, so for x in K, (i j)x - x = (x_j - x_i)(e_i - e_j) in K
forces x_i = x_j: N fixes K pointwise, and the term of the coset hN is
det(1 - th | K) times the permutation term of h.  That polynomial of
degree s - dim V joins the key as its power sums
tr(h^k | K) = fix(h^k) - tr(M_h^k), k = 1..s - dim V, the span traces
read from the vectors' coordinates with no matrix built; Newton's
identities turn them into its integer coefficients.  A permutation
action has K = 0 and an empty second part.  Each term is expanded and
added up in ints, and the sum is divided by |H| once, at the end, in
integers: each coefficient is a dimension, so a remainder or a negative
quotient is an error.
molien_series_naive inverts det(1 - tA) of every element of G, from
Permutation.cycles() or the matrix, in fractions instead: an
independent oracle, and the one sum of explicit matrices.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .errors import CapExceeded, DegreeMismatch, InconsistentAction
from .perms import Permutation, PermGroup
from .series import (
    DEFAULT_ORDER,
    RationalMatrix,
    TruncatedSeries,
    det_one_minus_tA,
    product_form,
)

NAIVE_CAP = 10**4


class LinearAction:
    """A permutation group together with a linear action on Q^dim.

    The natural permutation action on Q^degree (natural) has Molien
    terms from class-weighted cycle types.  Explicit matrices
    (from_matrices) serve molien_series_naive alone.  matrix() reads
    them, or applies the span rule of on_span: column a holds the
    coordinates of w_p(basis[a]), so for the natural action, where
    w_i = e_i, it is the permutation matrix with column a e_p(a).
    """

    __slots__ = ("group", "dim", "_matrices", "_span")

    def __init__(self, group: PermGroup, dim: int):
        if dim < 1:
            raise ValueError("the action dimension must be positive")
        self.group = group
        self.dim = dim
        self._matrices = None
        self._span = None

    @classmethod
    def natural(cls, group: PermGroup) -> "LinearAction":
        return cls(group, group.degree)

    @classmethod
    def from_matrices(
        cls, group: PermGroup, matrices: Mapping[Permutation, RationalMatrix]
    ) -> "LinearAction":
        dims = {m.size for m in matrices.values()}
        if len(dims) != 1:
            raise ValueError("all matrices must share one size")
        action = cls(group, dims.pop())
        action._matrices = dict(matrices)
        action._spot_check()
        return action

    @classmethod
    def on_span(
        cls, group: PermGroup, basis: Sequence[int], coordinates: Sequence[Sequence[int]], den: int
    ) -> "LinearAction":
        """The action on the span of vectors w_1..w_s that the group permutes.

        basis holds the 0-based indices of a basis among the w_i, and
        coordinates[i] the integer numerators, over the common positive
        denominator D = den, of the coordinates of w_i in it; they form
        the integer table X[a][i] = coordinates[i][a].  The
        permutation g acts by the matrix M_g whose column a is the
        coordinates of w_g(basis[a]), and it acts linearly exactly when
        M_g w_i = w_g(i) for every i, in integers
        sum_a X[x][g(basis[a])] X[a][i] = D X[x][g(i)].  That property is
        closed under products, so only the generators of the group are
        checked; a failure raises InconsistentAction.  The Molien sum
        over H needs w_i != w_j for two clones i, j (see the module
        docstring); equal ones raise InconsistentAction too.  A group
        whose degree is not s raises DegreeMismatch.
        """
        if group.degree != len(coordinates):
            raise DegreeMismatch(f"a group of degree {group.degree} on {len(coordinates)} vectors")
        action = cls(group, len(basis))
        table = [list(row) for row in zip(*coordinates)]
        outside = sorted(set(range(len(coordinates))) - set(basis))
        for g in group.generators:
            img = [p - 1 for p in g.images]
            cols = [img[b] for b in basis]
            for i in outside:
                for row in table:
                    if sum(row[j] * table[a][i] for a, j in enumerate(cols)) != den * row[img[i]]:
                        raise InconsistentAction(f"{g!r} does not act linearly on the span")
        for points in group.classes:
            if len({tuple(coordinates[p - 1]) for p in points}) < len(points):
                raise InconsistentAction(f"two of the clones {points} have one vector, so N moves their relations")
        # rows padded at 0, so that 1-based images index them directly
        action._span = (tuple(b + 1 for b in basis), [[0] + row for row in table], den)
        return action

    def _spot_check(self) -> None:
        # homomorphism check on generator pairs only; full checks are the
        # caller's job when the assignment is untrusted
        for g in self.group.generators:
            for h in self.group.generators:
                gh = g * h
                if self.matrix(gh) != self.matrix(g) @ self.matrix(h):
                    raise ValueError(
                        f"matrix assignment is not a homomorphism at {g!r} * {h!r}"
                    )

    @property
    def is_permutation_action(self) -> bool:
        return self._matrices is None and self._span is None

    def matrix(self, p: Permutation) -> RationalMatrix:
        if self._matrices is not None:
            try:
                return self._matrices[p]
            except KeyError:
                raise KeyError(f"no matrix assigned to {p!r}") from None
        points = range(1, self.dim + 1)
        basis, table, den = self._span or (points, [[0] + [int(x == y) for y in points] for x in points], 1)
        return RationalMatrix([[Fraction(row[p(b)], den) for b in basis] for row in table])


def _cycle_type(images: tuple[int, ...], leaders: Sequence[int]) -> tuple[int, ...]:
    """The class-weighted cycle type of the permutation with these images, weakly increasing.

    leaders[p - 1] is the size c of the clone class whose least point is
    p, 1 at a point of no class and 0 at the other points; the
    permutation keeps every class in order, so a cycle through a leader
    meets leaders only, and it adds l, 2l, .., cl for its length l.  With
    every leader 1 this is the cycle type.
    """
    image = (0,) + images
    seen = [False] * len(image)
    lengths = []
    for start, size in enumerate(leaders, 1):
        if size and not seen[start]:
            length, point = 1, image[start]
            while point != start:
                seen[point] = True
                point = image[point]
                length += 1
            if size == 1:
                lengths.append(length)
            else:
                lengths.extend(range(length, size * length + 1, length))
    lengths.sort()
    return tuple(lengths)


def _class_leaders(group: PermGroup) -> list[int]:
    """The leaders argument of _cycle_type for this group's clone classes."""
    leaders = [1] * group.degree
    for points in group.classes:
        for p in points:
            leaders[p - 1] = 0
        leaders[points[0] - 1] = len(points)
    return leaders


def _relation_sums(action: LinearAction, images: tuple[int, ...]) -> tuple[int, ...]:
    """h's power sums on the relations K: fix(h^k) - tr(M_h^k), k = 1..s - dim, with D tr(M_h^k) = sum_a X[a][h^k(basis[a])]."""
    basis, table, den = action._span
    image = (0,) + images
    n = len(images) - action.dim
    traces, fixed = [0] * n, [0] * n
    for start, row in zip(basis, table):
        point = start
        for k in range(n):
            point = image[point]
            traces[k] += row[point]
    if any(x % den for x in traces):
        shown = ", ".join(str(Fraction(x, den)) for x in traces)
        raise InconsistentAction(f"{Permutation._trusted(images)!r} has span traces {shown}, not all integers")
    for start in range(1, len(image)):
        point = start
        for k in range(n):
            point = image[point]
            fixed[k] += point == start
    return tuple(f - x // den for f, x in zip(fixed, traces))


def det_from_power_sums(traces: Sequence) -> list[int]:
    """Coefficients c_0..c_n of det(1 - tA) from the power traces tr(A^k), k = 1..n.

    Newton's identities: c_0 = 1 and k c_k = -(p_1 c_{k-1} + .. + p_k c_0).
    A rational matrix of finite order has integer c_k; a remainder
    raises InconsistentAction.
    """
    c = [1]
    for k in range(1, len(traces) + 1):
        q, rem = divmod(-sum(map(mul, traces, reversed(c))), k)
        if rem:
            raise InconsistentAction(
                f"power traces {', '.join(map(str, traces))} are not those of a matrix of finite order"
            )
        c.append(int(q))
    return c


def _class_term(key: tuple, order: int) -> list[int]:
    """The integer coefficients through t^order of det(1 - th | K) prod 1/(1 - t^m), key = (the m, K's power sums)."""
    cycle_type, sums = key
    term = (det_from_power_sums(sums) + [0] * order)[: order + 1]
    for m in cycle_type:
        for k in range(m, order + 1):
            term[k] += term[k - m]
    return term


def _not_a_dimension(k: int, c) -> ArithmeticError:
    return ArithmeticError(f"Molien series must have non-negative integer coefficients, got {c} at t^{k}")


def _validated(series: TruncatedSeries) -> TruncatedSeries:
    for k, c in enumerate(series.coefficients):
        if type(c) is not int or c < 0:
            raise _not_a_dimension(k, c)
    return series


def molien_series(action: LinearAction, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Molien sum over H with one term per key, weighted by its count, added up in ints.

    The key of h is its class-weighted cycle type and, for an action on
    a span, its power sums on the relations.  An action given by
    explicit matrices raises TypeError: molien_series_naive sums it.
    """
    if action._matrices is not None:
        raise TypeError("explicit matrices have no keyed Molien sum: use molien_series_naive")
    group = action.group
    leaders = _class_leaders(group)
    if action._span is None:
        counts = Counter((_cycle_type(p, leaders), ()) for p in group.quotient_images())
    else:
        counts = Counter((_cycle_type(p, leaders), _relation_sums(action, p)) for p in group.quotient_images())
    total = [0] * (order + 1)
    for key, count in counts.items():
        for k, c in enumerate(_class_term(key, order)):
            total[k] += count * c
    summed = sum(counts.values())
    for k, x in enumerate(total):
        total[k], rem = divmod(x, summed)
        if rem or x < 0:
            raise _not_a_dimension(k, Fraction(x, summed))
    return TruncatedSeries(total)


def molien_series_naive(action: LinearAction, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Element-by-element Molien sum; an oracle for the keyed sum."""
    if action.group.order > NAIVE_CAP:
        raise CapExceeded(None, "naive Molien sum", NAIVE_CAP, action.group.order)
    acc = TruncatedSeries.zero(order)
    for g in action.group:
        if action.is_permutation_action:
            term = product_form(Counter(g.cycle_type()), order)
        else:
            term = det_one_minus_tA(action.matrix(g)).as_order(order).inverse()
        acc = acc + term
    return _validated(acc / action.group.order)
