"""Truncated formal power series over exact rationals.

A series is stored densely: ``order`` N means the coefficients of
t^0 .. t^N are known exactly.  Arithmetic between series of different
orders truncates to the smaller order, so a result never claims more
precision than its inputs support.  A coefficient is an `int`, or a
`fractions.Fraction` only when it is not an integer (its denominator is
greater than 1); every division is exact, and no floats appear
anywhere.  An integer series is therefore added and multiplied in ints.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError, NonIntegralCoefficient, ZeroConstantTerm, json_int, json_list, json_object

DEFAULT_ORDER = 32
SERIES_KEYS = ("order", "coefficients")


def _frac(x) -> int | Fraction:
    """An exact coefficient: an int, or a Fraction whose denominator is greater than 1.

    x is an int, a Fraction or a string Fraction reads exactly ("3/2",
    "0.3"); anything else, a float or a bool included, is a TypeError.
    """
    if type(x) is int:
        return x
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


class TruncatedSeries:
    """A power series known exactly through t^order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable, order: int | None = None):
        coeffs = [_frac(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            if len(coeffs) <= order:
                coeffs.extend([0] * (order + 1 - len(coeffs)))
            else:
                coeffs = coeffs[: order + 1]
        elif not coeffs:
            raise ValueError("need at least the constant coefficient")
        self._coeffs = tuple(coeffs)

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls([1], order)

    # -- basic accessors -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[int | Fraction, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> int | Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient t^{k} is outside truncation order {self.order}")
        return self._coeffs[k]

    def integer_coefficients(self) -> list[int]:
        for k, c in enumerate(self._coeffs):
            if type(c) is not int:
                raise NonIntegralCoefficient(f"coefficient of t^{k} is {c}, not an integer")
        return list(self._coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("truncate cannot extend a series; TruncatedSeries(coefficients, order) pads a polynomial")
        return TruncatedSeries(self._coeffs[: order + 1])

    # -- arithmetic ------------------------------------------------------

    def _common(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = self._common(other)
            return TruncatedSeries([self._coeffs[k] + other._coeffs[k] for k in range(n + 1)])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            n = self._common(other)
            return TruncatedSeries([self._coeffs[k] - other._coeffs[k] for k in range(n + 1)])
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = self._common(other)
            a, b = self._coeffs, other._coeffs
            out = [0] * (n + 1)
            for i in range(n + 1):
                ai = a[i]
                if ai == 0:
                    continue
                for j in range(n + 1 - i):
                    bj = b[j]
                    if bj != 0:
                        out[i + j] += ai * bj
            return TruncatedSeries(out)
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return TruncatedSeries([c * x for x in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            c = _frac(scalar)
            if c == 0:
                raise ZeroDivisionError("division of a series by zero")
            return TruncatedSeries([Fraction(x, c) for x in self._coeffs])
        return NotImplemented

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse, by the standard convolution recurrence.

        Each coefficient is normalized as it is found, so the recurrence
        runs in ints wherever the inverse is integral.
        """
        a = self._coeffs
        if a[0] == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        n = self.order
        b = [0] * (n + 1)
        b[0] = _frac(Fraction(1, a[0]))
        for m in range(1, n + 1):
            s = 0
            for k in range(1, m + 1):
                if a[k] != 0:
                    s += a[k] * b[m - k]
            b[m] = _frac(Fraction(-s, a[0]))
        return TruncatedSeries(b)

    # -- comparison / presentation --------------------------------------

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"TruncatedSeries({self.polynomial_string()!r}, order={self.order})"

    def polynomial_string(self) -> str:
        terms = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        if not terms:
            return "0"
        out = terms[0]
        for term in terms[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coefficients": [str(c) for c in self._coeffs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TruncatedSeries":
        """The series of {"order": N, "coefficients": [c_0, .., c_N]}; each c_k is read by _frac, so no float passes."""
        json_object(payload, SERIES_KEYS, "series payload")
        order = json_int(payload.get("order"), "series order")
        try:
            coeffs = [_frac(c) for c in json_list(payload.get("coefficients"), "coefficients")]
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise InputError(f"coefficients must be JSON integers or strings of exact rationals: {exc}") from exc
        if order < 0:
            raise InputError(f"series payload order must be non-negative, got {order}")
        if len(coeffs) != order + 1:
            raise InputError(
                f"series payload claims order {order} but carries {len(coeffs)} coefficients"
            )
        return cls(coeffs, order)

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(payload)


def product_form(exponents: Mapping[int, int], order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """prod_i (1 - t^i)^(-c_i) for a map {i: c_i} with c_i >= 0.

    Each factor is expanded with the binomial recurrence
    C(c-1+m, m) = C(c-2+m, m-1) * (c-1+m) / m, so the cost is
    independent of the size of c.
    """
    acc = [1] + [0] * order
    for step in sorted(exponents):
        count = exponents[step]
        if step < 1:
            raise ValueError(f"product_form step {step} must be at least 1")
        if count < 0:
            raise ValueError(f"product_form exponent for step {step} must be non-negative")
        if count == 0:
            continue
        factor = [0] * (order + 1)
        val = 1
        for m in range(order // step + 1):
            factor[step * m] = val
            val = val * (count + m) // (m + 1)
        out = [0] * (order + 1)
        for i, ai in enumerate(acc):
            if ai == 0:
                continue
            for j in range(0, order + 1 - i, step):
                fj = factor[j]
                if fj:
                    out[i + j] += ai * fj
        acc = out
    return TruncatedSeries(acc)


def expand_rational_form(
    numerator: Sequence[int], denominator: Mapping[int, int], order: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Expand poly(t) / prod_i (1 - t^i)^{c_i} to the requested order."""
    num = TruncatedSeries(list(numerator), order)
    return num * product_form(denominator, order)


class RationalMatrix:
    """A small square matrix over the rationals; each entry is kept as a series coefficient is."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.rows = rows

    @property
    def size(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        n = self.size
        if other.size != n:
            raise ValueError("size mismatch")
        b_cols = list(zip(*other.rows))
        return RationalMatrix(
            [[sum(ra[k] * cb[k] for k in range(n)) for cb in b_cols] for ra in self.rows]
        )

    def trace(self) -> int | Fraction:
        return sum(self.rows[i][i] for i in range(self.size))

    def __eq__(self, other):
        if isinstance(other, RationalMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.rows]})"


def det_one_minus_tA(matrix: RationalMatrix) -> TruncatedSeries:
    """det(1 - t*A) as an exact polynomial of degree <= size.

    This is the coefficient-reversed characteristic polynomial; the
    characteristic coefficients come from the Faddeev-LeVerrier
    recurrence M_{k+1} = A M_k + c_k I, c_k = -tr(A M_k)/k, which is
    exact over the rationals.
    """
    r = matrix.size
    coeffs = [1]
    m = RationalMatrix.identity(r)
    for k in range(1, r + 1):
        am = matrix @ m
        ck = Fraction(-am.trace(), k)
        coeffs.append(ck)
        if k < r:
            m = RationalMatrix(
                [
                    [am.rows[i][j] + (ck if i == j else 0) for j in range(r)]
                    for i in range(r)
                ]
            )
    # char poly x^r + coeffs[1] x^{r-1} + ... + coeffs[r]; reversal gives
    # det(1 - tA) = 1 + coeffs[1] t + ... + coeffs[r] t^r.
    return TruncatedSeries(coeffs)
