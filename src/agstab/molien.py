"""Molien series of finite linear actions.

For a finite group G acting on Q^n the invariant-dimension generating
series is (1/|G|) sum_{A in G} 1/det(1 - tA).  The sum groups the
elements by a key that determines their term and evaluates one term
per key, weighted by the number of elements sharing it.

For a permutation action the sum runs over H = G/N alone, N the
symmetric groups of the clone classes (see perms): averaging over the
coset hN folds a cycle of h of length l through classes of size c into
h_c[1/(1 - t)](t^l) = prod_{k=1..c} 1/(1 - t^(kl)).  The key of h is
therefore its class-weighted cycle type, which lists l, 2l, .., cl for
each such cycle, and its term is prod 1/(1 - t^m) over the key.  A group
with no clone classes has c = 1 and H = G, and the key is the cycle
type.

For an action on the span of vectors that the group permutes
(LinearAction.on_span) the key is the power traces tr(A^k), k = 1..n,
read from the vectors' coordinates with no matrix built; Newton's
identities turn them into the integer coefficients of det(1 - tA).
Conjugate elements share their key, so the sum reads one element of
each orbit of N acting on G by conjugation, weighted by the orbit's
size (PermGroup.conjugacy_representatives), and G is not listed.  Each
term is expanded and added up in ints, and the sum is divided by the
number of elements summed once, at the end, in integers: each
coefficient is a dimension, so a remainder or a negative quotient is
an error.
molien_series_naive inverts det(1 - tA) of every element of G, from
Permutation.cycles() or the matrix, in fractions instead: an
independent oracle, and the one sum of explicit matrices.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .errors import CapExceeded, InconsistentAction
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

    With no explicit matrices and no span the natural permutation action
    on Q^degree is used and Molien terms come from class-weighted cycle
    types.  Explicit matrices (from_matrices) serve molien_series_naive
    alone; matrix() reads them or the span (on_span).
    """

    __slots__ = ("group", "dim", "_matrices", "_span")

    def __init__(
        self,
        group: PermGroup,
        dim: int,
        matrices: Mapping[Permutation, RationalMatrix] | None = None,
    ):
        if dim < 1:
            raise ValueError("the action dimension must be positive")
        self.group = group
        self.dim = dim
        self._matrices = dict(matrices) if matrices is not None else None
        self._span = None
        if self._matrices is not None:
            self._spot_check()

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
        return cls(group, dims.pop(), matrices)

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
        checked; a failure raises InconsistentAction.
        """
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
        if self._span is not None:
            basis, table, den = self._span
            return RationalMatrix([[Fraction(row[p(b)], den) for b in basis] for row in table])
        try:
            return self._matrices[p]
        except KeyError:
            raise KeyError(f"no matrix assigned to {p!r}") from None


def _cycle_type(images: tuple[int, ...], leaders: Sequence[int] | None = None) -> tuple[int, ...]:
    """The class-weighted cycle type of the permutation with these images, weakly increasing.

    leaders[p - 1] is the size c of the clone class whose least point is
    p, and 0 at the other points; the permutation keeps every class in
    order, so a cycle through a leader meets leaders only, and it adds
    l, 2l, .., cl for its length l.  With leaders None every point is a
    class of its own and this is the cycle type.
    """
    image = (0,) + images
    seen = [False] * len(image)
    lengths = []
    for start, size in enumerate(leaders or (1,) * len(images), 1):
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


def _det_key(action: LinearAction, images: tuple[int, ...]) -> tuple:
    """g's key, its power traces on the span, fixing det(1 - t M_g): D tr(M_g^k) = sum_a X[a][g^k(basis[a])]."""
    basis, table, den = action._span
    image = (0,) + images
    sums = [0] * action.dim
    for start, row in zip(basis, table):
        point = start
        for k in range(action.dim):
            point = image[point]
            sums[k] += row[point]
    if any(x % den for x in sums):
        traces = ", ".join(str(Fraction(x, den)) for x in sums)
        raise InconsistentAction(f"{Permutation._trusted(images)!r} has power traces {traces}, not all integers")
    return tuple(x // den for x in sums)


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


def _class_term(action: LinearAction, key: tuple, order: int) -> list[int]:
    """The integer coefficients of the term of every element of this key through t^order."""
    if action.is_permutation_action:  # prod 1/(1 - t^m) over the class-weighted cycle type
        term = [1] + [0] * order
        for m in key:
            for k in range(m, order + 1):
                term[k] += term[k - m]
        return term
    tail = det_from_power_sums(key)[1:]
    inverse = [1]
    for _ in range(order):
        inverse.append(-sum(map(mul, tail, reversed(inverse))))
    return inverse


def _not_a_dimension(k: int, c) -> ArithmeticError:
    return ArithmeticError(f"Molien series must have non-negative integer coefficients, got {c} at t^{k}")


def _validated(series: TruncatedSeries) -> TruncatedSeries:
    for k, c in enumerate(series.coefficients):
        if type(c) is not int or c < 0:
            raise _not_a_dimension(k, c)
    return series


def molien_series(action: LinearAction, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Molien sum with one term per key, weighted by its count, added up in ints.

    A permutation action sums over H with class-weighted cycle types, an
    action on a span over the orbits of N on G with power traces.  An
    action given by explicit matrices raises TypeError:
    molien_series_naive sums it.
    """
    group = action.group
    if action.is_permutation_action:
        leaders = _class_leaders(group)
        counts = Counter(_cycle_type(p, leaders) for p in group.quotient_images())
    elif action._span is None:
        raise TypeError("explicit matrices have no keyed Molien sum: use molien_series_naive")
    else:
        counts = Counter()
        for images, size in group.conjugacy_representatives():
            counts[_det_key(action, images)] += size
    total = [0] * (order + 1)
    for key, count in counts.items():
        for k, c in enumerate(_class_term(action, key, order)):
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
