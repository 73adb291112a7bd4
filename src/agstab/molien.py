"""Molien series of finite linear actions.

For a finite group G acting on Q^r the invariant-dimension generating
series is (1/|G|) sum_{A in G} 1/det(1 - tA).  The sum groups the
elements by a key that determines det(1 - tA) and evaluates one term
per key, weighted by the number of elements sharing it.  For a
permutation action the key is the cycle type, since det(1 - tA) =
prod_j (1 - t^{l_j}) over the cycle lengths.  For a matrix action on
Q^n it is the power traces tr(A^k), k = 1..n, which fix the
characteristic polynomial by Newton's identities.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from .errors import CapExceeded
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
    """A permutation group together with a matrix for each element.

    With no explicit matrices the natural permutation action on
    Q^degree is used and Molien denominators come from cycle types.
    """

    __slots__ = ("group", "dim", "_matrices")

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
        return self._matrices is None

    def matrix(self, p: Permutation) -> RationalMatrix:
        if self._matrices is None:
            return RationalMatrix.permutation(p.images)
        try:
            return self._matrices[p]
        except KeyError:
            raise KeyError(f"no matrix assigned to {p!r}") from None


def _det_key(action: LinearAction, g: Permutation) -> tuple:
    """Elements with equal keys have equal det(1 - t * rho(g))."""
    if action.is_permutation_action:
        return g.cycle_type()
    traces, power = [], g
    for _ in range(action.dim):
        traces.append(action.matrix(power).trace())
        power = power * g
    return tuple(traces)


def _class_term(action: LinearAction, rep: Permutation, order: int) -> TruncatedSeries:
    """1 / det(1 - t * rho(rep)) truncated at the requested order."""
    if action.is_permutation_action:
        return product_form(Counter(rep.cycle_type()), order)
    poly = det_one_minus_tA(action.matrix(rep))
    return poly.as_order(order).inverse()


def _validated(series: TruncatedSeries) -> TruncatedSeries:
    for k, c in enumerate(series.coefficients):
        if c.denominator != 1 or c < 0:
            raise ArithmeticError(
                f"Molien series must have non-negative integer coefficients, got {c} at t^{k}"
            )
    return series


def molien_series(action: LinearAction, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Molien sum with one term per det(1 - tA) key, weighted by its count."""
    counts: Counter = Counter()
    representative: dict[tuple, Permutation] = {}
    for g in action.group:
        key = _det_key(action, g)
        counts[key] += 1
        representative.setdefault(key, g)
    acc = TruncatedSeries.zero(order)
    for key, count in counts.items():
        acc = acc + count * _class_term(action, representative[key], order)
    return _validated(acc / action.group.order)


def molien_series_naive(action: LinearAction, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Element-by-element Molien sum; an oracle for the keyed sum."""
    if action.group.order > NAIVE_CAP:
        raise CapExceeded(
            f"naive Molien sum capped at order {NAIVE_CAP}, group has {action.group.order}"
        )
    acc = TruncatedSeries.zero(order)
    for g in action.group:
        acc = acc + _class_term(action, g, order)
    return _validated(acc / action.group.order)
