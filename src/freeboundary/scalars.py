"""Exact arithmetic in the real quadratic extension Q(sqrt(w)).

Matrix coefficients of the word-metric boundary representation of a free
group live in Q(sqrt(w)) where w is the growth rate (an integer): the
Radon-Nikodym derivative is an integer power of w, so its square root
contributes at most one factor of sqrt(w).  ``QSqrt`` keeps such values as
an exact pair (p, q) of rationals meaning p + q*sqrt(w), with decidable
comparisons.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QSqrt"]


@functools.lru_cache(maxsize=64)
def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


class QSqrt:
    """p + q*sqrt(base) with p, q rational and base a positive integer.

    If ``base`` is a perfect square the root part is folded into the
    rational part, so equality stays canonical.
    """

    __slots__ = ("p", "q", "base")

    def __init__(self, p: RationalLike = 0, q: RationalLike = 0, base: int = 3) -> None:
        if base < 2:
            raise ValueError(f"base must be an integer >= 2, got {base}")
        if type(p) is not Fraction:
            p = Fraction(p)
        if type(q) is not Fraction:
            q = Fraction(q)
        if q and _is_square(base):
            p, q = p + q * math.isqrt(base), Fraction(0)
        self.p = p
        self.q = q
        self.base = base

    @classmethod
    def root_power(cls, j: int, base: int = 3) -> "QSqrt":
        """sqrt(base)**j for any integer j, exactly."""
        half, odd = divmod(j, 2)
        w = Fraction(base) ** half
        return cls(0, w, base) if odd else cls(w, 0, base)

    def _coerce(self, other: ScalarLike) -> "QSqrt":
        if isinstance(other, QSqrt):
            if other.base != self.base and other.q and self.q:
                raise ValueError(f"mixed bases {self.base} and {other.base}")
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrt(other, 0, self.base)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: ScalarLike) -> "QSqrt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt(self.p + o.p, self.q + o.q, self.base)

    __radd__ = __add__

    def __neg__(self) -> "QSqrt":
        return QSqrt(-self.p, -self.q, self.base)

    def __sub__(self, other: ScalarLike) -> "QSqrt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: ScalarLike) -> "QSqrt":
        return (-self) + other

    def __mul__(self, other: ScalarLike) -> "QSqrt":
        if isinstance(other, (int, Fraction)):
            return QSqrt(self.p * other, self.q * other, self.base)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt(
            self.p * o.p + self.q * o.q * self.base,
            self.p * o.q + self.q * o.p,
            self.base,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt":
        norm = self.p * self.p - self.q * self.q * self.base
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(w))")
        return QSqrt(self.p / norm, -self.q / norm, self.base)

    def __truediv__(self, other: ScalarLike) -> "QSqrt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: ScalarLike) -> "QSqrt":
        return self.inverse() * other

    def __pow__(self, n: int) -> "QSqrt":
        if n < 0:
            return self.inverse() ** (-n)
        out = QSqrt(1, 0, self.base)
        tmp = self
        while n:
            if n & 1:
                out = out * tmp
            tmp = tmp * tmp
            n >>= 1
        return out

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(base)."""
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return 1 if self.q > 0 else -1
        lhs = self.p * self.p
        rhs = self.q * self.q * self.base
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        if self.p > 0:  # q < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)  # p < 0, q > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other
        if isinstance(other, QSqrt):
            if self.q == 0 and other.q == 0:
                return self.p == other.p
            return self.base == other.base and self.p == other.p and self.q == other.q
        if isinstance(other, float):
            return float(self) == other
        return NotImplemented

    def __lt__(self, other: ScalarLike) -> bool:
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other: ScalarLike) -> bool:
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other: ScalarLike) -> bool:
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __abs__(self) -> "QSqrt":
        return -self if self.sign() < 0 else self

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.base))

    def __bool__(self) -> bool:
        return bool(self.p) or bool(self.q)

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.base)

    def __repr__(self) -> str:
        return f"QSqrt({self.p!r}, {self.q!r}, base={self.base})"

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        return f"{self.p}+{self.q}*sqrt({self.base})"


def as_float(x) -> float:
    """Render any scalar backend value as a float (reporting only)."""
    return float(x)


def exact_str(x) -> str:
    """Canonical text form of an exact scalar, 'p+q*sqrt(w)' or 'p/q'."""
    if isinstance(x, QSqrt):
        return str(x)
    if isinstance(x, (int, Fraction)):
        return str(x)
    return repr(x)
