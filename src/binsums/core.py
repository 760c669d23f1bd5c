"""Exact integer kernels: binomial coefficients, Kronecker symbols, linear recurrences.

Everything in this module is exact; no floating point is used anywhere.
Frozen, the immutable base of the package's value classes, lives here too.
"""
from __future__ import annotations

import numbers
import operator
from collections import deque
from collections.abc import Iterator
from math import comb


def _is_integer(x) -> bool:
    # the int test first: an ABC isinstance check costs about 20 times more
    return isinstance(x, int) or isinstance(x, numbers.Integral)


def _integer(*xs) -> None:
    """Refuse each value that must be exact (an integer field, coefficient or
    seed) unless it is an int, so no float can stand in for it."""
    for x in xs:
        if not _is_integer(x):
            raise TypeError(f"an integer field must be an int, not {x!r}")


class Frozen:
    """Base of the package's immutable values.  A subclass's __init__ checks
    and normalises its arguments, then passes them to _set by keyword, in
    field order.  As on a frozen dataclass, the fields then compare and hash
    as one tuple, equal only within one class, print as Name(field=value,
    ...), and can be neither assigned nor deleted."""

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple(self.__dict__.values()) == tuple(other.__dict__.values())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that k < 0 or k > n gives 0 exactly."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def class_sums(period: int, row_odd: bool = False) -> Iterator[tuple[int, list[int]]]:
    """For n = 0, 1, 2, ... yield (C(row, n), sums) with row = 2n or 2n+1 and
    sums[r] = sum of C(row, n+k) over k >= 1, k = r (mod period).

    The sums S_r of row 2n step from n to n+1 by Pascal's rule applied
    twice, with the boundary terms c0 = C(2n, n) and c1 = C(2n, n+1):
    O(period) integer additions per step.  Odd rows read
    C(2n+1, n+k) = C(2n, n+k-1) + C(2n, n+k), so their sums are
    S_(r-1) + S_r (+ c0 when r = 1) and their middle term is c0 + c1.
    Every yielded list is new; the generator never touches it again.
    """
    if period < 1:
        raise ValueError("class_sums requires period >= 1")
    one = 1 % period
    s = [0] * period
    c0, c1 = 1, 0
    n = 0
    while True:
        if row_odd:
            t = [s[r - 1] + s[r] for r in range(period)]
            t[one] += c0
            yield c0 + c1, t
        else:
            yield c0, s
        s = [s[r - 1] + 2 * s[r] + s[(r + 1) % period] for r in range(period)]
        s[one] += c0
        s[0] -= c1
        c0 = 2 * (c0 + c1)
        c1 = c0 * (n + 1) // (n + 2)
        n += 1


def weighted_class_sums(period: int, spec: RecurrenceSpec,
                        row_odd: bool = False) -> Iterator[tuple[int, list[int]]]:
    """class_sums with each summand C(row, n+k) times g(k), for a C-finite g
    with g(k+1) = spec(k): the seeds are g(1..d), and g(0) is never read.

    S_(r,j) = sum of C(2n, n+k) g(k+j) over k >= 1, k = r (mod period),
    steps for j = 0..d-1 by Pascal's rule applied twice, with c0 and c1 as
    in class_sums: S_(r,j)(n+1) = S_(r-1,j+1) + 2 S_(r,j) + S_(r+1,j-1)
    + [r = 1] c0 g(j+1) - [r = 0] c1 g(j).  S_(.,d) is g's recurrence going
    forward; S_(.,-1) less its k = 1 summand c1 g(0) goes backward over
    k >= 2, one exact division by the last coefficient.  O(period * d)
    operations per step; odd rows are read as in class_sums.
    """
    coeffs, g = spec.coeffs, (0, *spec.seeds)  # g[j] = g(j) for j = 1..d
    *head, last = coeffs
    if period < 1 or not last:
        raise ValueError(f"weighted_class_sums of {spec.name} needs period >= 1 and a "
                         f"nonzero last coefficient, for the backward step")
    d, one = len(coeffs), 1 % period
    last_g0 = g[d] - sum(c * g[d - i] for i, c in enumerate(head, 1))  # c_d g(0)
    s = [[0] * period for _ in range(d)]  # s[j][r] = S_(r,j)
    c0, c1, n = 1, 0, 0
    while True:
        up = [sum(c * s[-i][r] for i, c in enumerate(coeffs, 1)) for r in range(period)]
        if row_odd:
            t = [(s[1] if d > 1 else up)[r - 1] + s[0][r] for r in range(period)]
            t[one] += c0 * g[1]
            yield c0 + c1, t
        else:
            yield c0, s[0]
        down = [s[-1][r] - sum(c * s[-1 - i][r] for i, c in enumerate(head, 1))
                for r in range(period)]
        down[one] -= c1 * last_g0
        ext = [[x // last for x in down], *s, up]  # ext[j + 1] = S_(., j)
        s = [[ext[j + 2][r - 1] + 2 * ext[j + 1][r] + ext[j][(r + 1) % period]
              for r in range(period)] for j in range(d)]
        for j in range(d):
            s[j][one] += c0 * g[j + 1]
            s[j][0] -= c1 * g[j]  # g[0] = 0: ext[0] already left out c1 g(0)
        c0 = 2 * (c0 + c1)
        c1 = c0 * (n + 1) // (n + 2)
        n += 1


def pascal_rows(g: list[int], stride: int = 1, alternate: bool = False) -> Iterator[list[int]]:
    """For m = 0, 1, 2, ... yield [sum_i s^i C(m, i) g[x + stride*i] for x in
    range(len(g) - m*stride)], s = -1 if alternate else 1, until it is empty.

    By Pascal's rule row m+1 is row m plus s times row m shifted by stride:
    one addition or subtraction per entry.  Every yielded list is new.
    """
    if stride < 1:
        raise ValueError("pascal_rows requires stride >= 1")
    step = operator.sub if alternate else operator.add
    row = list(g)
    while row:
        yield row
        row = list(map(step, row, row[stride:]))


def kronecker(a: int, m: int) -> int:
    """Kronecker-Jacobi symbol (a|m) for any nonzero modulus m.

    Uses the standard convention (a|2) = 0 for even a, +1 for a = +-1 (mod 8)
    and -1 for a = +-3 (mod 8).  For odd prime m this is the Legendre symbol.
    """
    if m == 0:
        raise ValueError("kronecker symbol undefined for m = 0")
    result = 1
    if m < 0:
        m = -m
        if a < 0:
            result = -1
    while m % 2 == 0:
        m //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


# Reflection rules for indices below zero.  "odd" means a(-t) = (-1)^(t+1) a(t)
# (Fibonacci-style), "even" means a(-t) = (-1)^t a(t) (Lucas-style).
_NEGATIVE_RULES = ("odd", "even")


class RecurrenceSpec(Frozen):
    """Linear recurrence a(n) = coeffs[0] a(n-1) + ... + coeffs[d-1] a(n-d).

    ``seeds`` are a(0), ..., a(d-1).  ``negative_rule`` optionally extends the
    sequence to negative indices by a sign reflection.
    """

    def __init__(self, name: str, coeffs: tuple[int, ...], seeds: tuple[int, ...],
                 negative_rule: str | None = None) -> None:
        coeffs, seeds = tuple(coeffs), tuple(seeds)
        _integer(*coeffs, *seeds)
        if len(seeds) != len(coeffs) or not coeffs:
            raise ValueError("need len(seeds) == len(coeffs) >= 1")
        if negative_rule is not None and negative_rule not in _NEGATIVE_RULES:
            raise ValueError(f"unknown negative rule {negative_rule!r}")
        self._set(name=name, coeffs=coeffs, seeds=seeds, negative_rule=negative_rule)

    def reflection_sign(self, n: int) -> int:
        """The sign s with a(n) = s a(-n), for n < 0, by the negative rule."""
        if self.negative_rule is None:
            raise ValueError(f"{self.name} is not defined for n < 0")
        return -1 if (n + (self.negative_rule == "odd")) % 2 else 1


def rec_steps(spec: RecurrenceSpec) -> Iterator[int]:
    """a(0), a(1), a(2), ... of spec: the seeds, then each value from the d
    values before it."""
    back = deque(reversed(spec.seeds), maxlen=len(spec.seeds))  # a(n-1), ..., a(n-d)
    yield from spec.seeds
    while True:
        back.appendleft(sum(map(operator.mul, spec.coeffs, back)))
        yield back[0]

