"""Exact integer kernels: binomial coefficients, the Pascal-rule class,
row and diagonal sums, Kronecker symbols, linear recurrences.

Everything in this module is exact; no floating point is used anywhere.
Frozen, the immutable base of the package's value classes, lives here too.
"""
from __future__ import annotations

import numbers
import operator
from collections import deque
from collections.abc import Iterator
from itertools import count
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


def _flag(x) -> None:
    """Refuse a flag field unless it is a bool, so no 2 can stand in for True."""
    if not isinstance(x, bool):
        raise TypeError(f"a flag field must be a bool, not {x!r}")


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


def half_row_steps(spec: RecurrenceSpec, row_odd: bool = False) -> Iterator[tuple[int, int]]:
    """For n = 0, 1, 2, ... yield (C(row, n), sum of C(row, n+k) h(k) over k >= 1),
    row = 2n or 2n+1, for a C-finite h with h(k+1) = spec(k): its seeds are h(1..d).

    S_j = sum of C(2n, n+k) h(k+j) over k >= 1, j = 0..d-1, steps by Pascal's rule
    applied twice, with c0 and c1 as in class_sums: S_j(n+1) = S_(j+1) + 2 S_j +
    S_(j-1) + c0 h(j+1) - c1 h(j).  S_d is h's recurrence going forward; S_(-1) less
    its k = 1 summand c1 h(0) goes backward over k >= 2, one exact division by the
    last coefficient.  O(d) operations per step; odd rows read S_1 + S_0 + c0 h(1).
    """
    *head, last = coeffs = spec.coeffs
    if not last:
        raise ValueError(f"{spec.name}: a backward step needs a nonzero last coefficient")
    h = (0, *spec.seeds)  # h(1..d), and 0 for the h(0) that S_(-1) below leaves out
    last_h0 = h[-1] - sum(map(operator.mul, head, reversed(h[1:-1])))  # c_d h(0)
    s, c0, c1 = [0] * len(coeffs), 1, 0  # s[j] = S_j
    for n in count():
        down = s[-1] - sum(map(operator.mul, head, reversed(s[:-1]))) - c1 * last_h0
        ext = [down // last, *s, sum(map(operator.mul, coeffs, reversed(s)))]  # ext[j] = S_(j-1)
        yield (c0 + c1, ext[2] + ext[1] + c0 * h[1]) if row_odd else (c0, s[0])
        s = [a + 2 * b + c + c0 * x - c1 * y
             for a, b, c, x, y in zip(ext[2:], ext[1:], ext, h[1:], h)]
        c0 = 2 * (c0 + c1)
        c1 = c0 * (n + 1) // (n + 2)


def row_steps(spec: RecurrenceSpec, s: int, sign: int, b: int, t: int, x0: int,
              m0: int) -> Iterator[int]:
    """For n = 0, 1, 2, ... yield (Q^(m0 + b*n) u)(x0 + t*n), u the sequence of
    spec and Q = 1 + sign*E^s, E the shift u(x) -> u(x + 1), sign = +-1.

    Q commutes with the shift, so every row Q^m u has spec's recurrence and
    is held as its d values from its read position on: the seeds move to x0
    and take Q m0 times, then each n moves by t and takes Q b times, in
    O(d * (|t| + b*|s|)) operations.  A value above the d held is a dot
    product, one below them an exact division by the last coefficient: a
    remainder or a last coefficient of 0 raises ValueError.
    """
    if sign not in (1, -1) or b < 0 or m0 < 0:
        raise ValueError(f"row_steps of {spec.name} needs sign +-1, b >= 0 and m0 >= 0")
    *head, last = coeffs = spec.coeffs
    d, lo, op = len(coeffs), min(s, 0), operator.add if sign > 0 else operator.sub

    def extend(w: list[int], lo: int, hi: int) -> list[int]:
        # the values at lo..hi of the row whose values at 0..d-1 are w; w is extended in place
        while len(w) <= hi:
            w.append(sum(map(operator.mul, coeffs, reversed(w[-d:]))))
        for _ in range(-lo):
            if not last:
                raise ValueError(f"{spec.name}: a backward step needs a nonzero last coefficient")
            below, r = divmod(w[d - 1] - sum(map(operator.mul, head, reversed(w[:d - 1]))), last)
            if r:
                raise ValueError(f"{spec.name}: a backward step leaves a remainder mod {last}")
            w.insert(0, below)
        return w[max(lo, 0):][:hi - lo + 1]

    w, times = extend(list(spec.seeds), x0, x0 + d - 1), m0
    while True:
        for _ in range(times):  # Q once: the row at lo..d-1+max(s, 0), two terms per value
            e = extend(w, lo, max(s, 0) + d - 1)
            w = list(map(op, e[-lo:], e[s - lo:]))
        yield w[0]
        w, times = extend(w, t, t + d - 1), b


def diagonal_steps(base: int) -> Iterator[int]:
    """For n = 0, 1, 2, ... yield D(n) = sum_r (-1)^r C(2n-r, r) base^(n-r).

    a(m) = sum_r C(m-r, r) t^r has a(m+1) = a(m) + t*a(m-1) by Pascal's rule
    on the shallow diagonals.  With t = -1/base, D(n) = base^n a(2n) and
    E(n) = base^n a(2n+1) are integers: E(n) = D(n) - E(n-1) and
    D(n+1) = base*E(n) - D(n), two integer steps per n, for any base.
    """
    d, e = 1, 0  # D(0), E(-1)
    while True:
        yield d
        e = d - e
        d = base * e - d


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

