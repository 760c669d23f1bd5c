"""Exact values a + b*sqrt(D) in a real quadratic ring.

Cosine tables such as 2cos(2k*pi/5) - 2cos(6k*pi/5) = sqrt(5) * (k|5) are
read back from the cyclotomic ring as QuadValue (`cyclo.recognize_quad`,
`discovery.profile_from_angles`), with zero tolerance.  D is kept
squarefree; a purely rational value always has D == 0 and b == 0, which
makes equality testing canonical.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, d') with d == s*s*d' and d' squarefree."""
    s, rest, f = 1, d, 2
    while f * f <= rest:
        while rest % (f * f) == 0:
            rest //= f * f
            s *= f
        f += 1
    return s, rest


@dataclass(frozen=True)
class QuadValue:
    """a + b*sqrt(d) with exact rational a, b and squarefree d >= 0."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d < 0:
            raise ValueError("discriminant must be >= 0")
        s, rest = _squarefree_split(self.d) if self.d else (1, 0)
        b = self.b * s
        if rest <= 1:
            # sqrt(0) and sqrt(1) collapse into the rational part
            object.__setattr__(self, "a", self.a + (b if rest == 1 else 0))
            b, rest = Fraction(0), 0
        if b == 0:
            rest = 0
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", rest)

    @staticmethod
    def of(x) -> "QuadValue":
        if isinstance(x, QuadValue):
            return x
        if isinstance(x, Rational):
            return QuadValue(Fraction(x))
        raise TypeError(f"cannot interpret {x!r} as a quadratic value")

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _join(self, other: "QuadValue") -> int:
        if self.d and other.d and self.d != other.d:
            raise ValueError(f"mixed discriminants {self.d} and {other.d}")
        return self.d or other.d

    def __add__(self, other) -> "QuadValue":
        other = QuadValue.of(other)
        return QuadValue(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __neg__(self) -> "QuadValue":
        return QuadValue(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "QuadValue":
        return self + (-QuadValue.of(other))

    def __rsub__(self, other) -> "QuadValue":
        return QuadValue.of(other) + (-self)

    def __mul__(self, other) -> "QuadValue":
        other = QuadValue.of(other)
        d = self._join(other)
        return QuadValue(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{self.a}{sign}{abs(self.b)}√{self.d}"
