"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Elements are a + b*sqrt(d) with rational a, b and a fixed non-square d >= 2.
All sign decisions are made without floating point: the sign of a + b*sqrt(d)
with a, b of opposite signs reduces to comparing a*a against d*b*b.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction


class UnsupportedFieldError(ValueError):
    """Raised when a computation would leave the configured quadratic field."""


def _square_free_part(value: int) -> int:
    """The square-free part of a positive integer."""
    if value < 1:
        raise ValueError("value must be positive")
    part = value
    k = 2
    while k * k <= part:
        while part % (k * k) == 0:
            part //= k * k
        k += 1
    return part


@functools.lru_cache(maxsize=256)
def _is_square_free(d: int) -> bool:
    # every QuadRat construction asks, but only a handful of fields occur
    return d >= 2 and _square_free_part(d) == d


@functools.total_ordering
@dataclass(frozen=True)
class QuadRat:
    """a + b*sqrt(d), exact."""

    a: Fraction
    b: Fraction
    d: int = 2

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not _is_square_free(self.d):
            raise UnsupportedFieldError(f"d must be square-free and >= 2, got {self.d}")

    @classmethod
    def of(cls, a, b=0, d: int = 2) -> "QuadRat":
        return cls(Fraction(a), Fraction(b), d)

    @classmethod
    def root(cls, d: int = 2) -> "QuadRat":
        return cls(Fraction(0), Fraction(1), d)

    def _coerce(self, other) -> "QuadRat":
        if isinstance(other, QuadRat):
            if other.d != self.d:
                raise UnsupportedFieldError(f"mixed fields: d={self.d} vs d={other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadRat(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadRat(self.a * o.a + self.d * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    @property
    def norm(self) -> Fraction:
        # field norm (a + b*sqrt(d))(a - b*sqrt(d))
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> "QuadRat":
        n = self.norm
        if n == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("inverse of zero")
            # impossible for square-free d unless the element is zero
            raise UnsupportedFieldError("zero norm for nonzero element; d is not square-free")
        return QuadRat(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with d*b^2 (equality impossible, d non-square)
        if a > 0:
            return 1 if a * a > self.d * b * b else -1
        return 1 if a * a < self.d * b * b else -1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self - o).sign() < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"√{self.d}"
        if self.b == 1:
            bs = root
        elif self.b == -1:
            bs = f"-{root}"
        else:
            bs = f"{self.b}{root}"
        if self.a == 0:
            return bs
        joiner = "+" if self.b > 0 else ""
        return f"{self.a}{joiner}{bs}"

    def __repr__(self):
        return f"QuadRat({self.a!r}, {self.b!r}, d={self.d})"
