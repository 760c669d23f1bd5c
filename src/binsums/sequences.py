"""Named exact integer sequences: the ground truth side of every identity.

Each C-finite oracle (a linear recurrence with constant coefficients, Newton
power sums of an integer characteristic polynomial included) is defined by
its ``RecurrenceSpec``; the rest step from index 0 as well (A, B and C from
core.class_sums(5), scriptL(m) its power sums over m, halfrow and
halfcentral C(2n, n)), but for scriptLdiag's per-index rule, scriptL(n) at
n.  At even n = 2h that rule reads the power sums of scriptl_poly(h)
through D_2h(x) = D_h(x^2 - 2), a quarter of the Newton steps of
scriptl_poly(n); odd n, where D_n is no polynomial in x^2 - 2, keep the
full-degree route.  All of them return exact integers on their domain; one
memo keeps what the stepped ones yield.  seq_values is the one reader of
their values: it reads a list of indices in one memo read, reflecting a
negative index of fib or lucas by its spec's backward rule; seq_eval reads
one index through it.
"""
from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from itertools import accumulate, count
from types import MappingProxyType

from .core import Frozen, RecurrenceSpec, _is_integer, binomial, class_sums, rec_steps
from .cyclo import IntPolynomial, chebyshev_monic, power_sums


class SequenceOracle(Frozen):
    """A named exact sequence, defined by exactly one of ``recurrence`` (a
    RecurrenceSpec, or for a parameterized family a pure function from the
    parameter to one), ``steps(param)``, a new iterator of its values from
    index 0 on, and ``rule(param, n)``, which must be pure."""

    def __init__(self, name: str,
                 recurrence: RecurrenceSpec | Callable[[int], RecurrenceSpec] | None = None,
                 rule: Callable[[int | None, int], int] | None = None, start: int = 0,
                 param_name: str | None = None, param_min: int = 0,
                 steps: Callable[[int | None], Iterator[int]] | None = None) -> None:
        if [recurrence, steps, rule].count(None) != 2:
            raise ValueError(f"sequence {name} needs exactly one of recurrence, steps, rule")
        self._set(name=name, recurrence=recurrence, rule=rule, start=start,
                  param_name=param_name, param_min=param_min, steps=steps)

    @property
    def negative_ok(self) -> bool:
        return getattr(self.recurrence, "negative_rule", None) is not None

    def domain(self, a: int, b: int) -> tuple[int, int | None]:
        """(start, stop) of the n >= 0 where the index a*n + b is defined, stop
        None for no end and below start for none.  An index is defined exactly
        where the oracle has a backward rule or it is at least the start."""
        if self.negative_ok or (a == 0 and b >= self.start):
            return 0, None
        if a > 0:
            return max(0, -((b - self.start) // a)), None
        return 0, (b - self.start) // -a if a else -1  # a = 0 below the start: no n

    def check_param(self, param: int | None) -> None:
        """Refuse a parameter this sequence cannot take, with its own message."""
        if param is not None and not _is_integer(param):
            raise TypeError(f"{self.name}: {self.param_name or 'a parameter'} must be an int, not {param!r}")
        if self.param_name is not None:
            if param is None:
                raise ValueError(f"sequence {self.name} needs parameter {self.param_name}")
            if param < self.param_min:
                raise ValueError(f"{self.name}: {self.param_name} must be >= {self.param_min}")
        elif param is not None:
            raise ValueError(f"sequence {self.name} takes no parameter")

    def spec(self, param: int | None = None) -> RecurrenceSpec | None:
        """The recurrence of the sequence at param, or None for steps or a
        rule; a family's is built anew on each call."""
        self.check_param(param)
        return self.recurrence(param) if callable(self.recurrence) else self.recurrence

    def dilate(self, param: int | None, a: int, b: int) -> RecurrenceSpec:
        """The recurrence of k -> self(a*k + b, param), a >= 1, seeded by
        this oracle.  Its polynomial's roots are the a-th powers of the
        spec's, so its power sums are every a-th one of the spec's
        polynomial, and Newton's identities give back its coefficients."""
        spec = self.spec(param)
        if spec is None or a < 1:
            raise ValueError(f"{self.name}: a dilation needs a recurrence and a >= 1, not {a}")
        d = len(spec.coeffs)
        p = power_sums(IntPolynomial((*(-c for c in reversed(spec.coeffs)), 1)), a * d)[::a]
        e = [1]  # e[i] is the coefficient of x^(d-i) of the dilated polynomial
        for k in range(1, d + 1):
            e.append(-sum(e[i] * p[k - i] for i in range(k)) // k)
        return RecurrenceSpec(f"{spec.name}({a}k{b:+})", tuple(-c for c in e[1:]),
                              tuple(seq_values(self.name, range(b, a * d + b, a), param)))


# (oracle name, parameter) -> (values read so far, iterator of the rest), extended
# only under _MEMO_LOCK: a generator stepped by two threads at once raises.
_MEMO: dict[tuple[str, int | None], tuple[list[int], Iterator[int]]] = {}
_MEMO_LOCK = threading.Lock()


def _memo_values(name: str, param: int | None, n: int) -> list[int]:
    """The stored values of the oracle's steps, or of its recurrence, at
    param, holding index n >= 0.  A list already long enough costs one dict
    lookup and takes no lock, since the list only ever grows; otherwise it
    is extended under the lock.  A new iterator is made before the lock is
    taken, since building a family's spec may read the memo; stepping one
    must not.  The stored values are shared by every reader, and no reader
    may change them."""
    entry = _MEMO.get((name, param))
    if entry is not None and n < len(entry[0]):
        return entry[0]
    oracle = _REGISTRY[name]
    fresh = entry or ([], oracle.steps(param) if oracle.steps else rec_steps(oracle.spec(param)))
    with _MEMO_LOCK:
        values, rest = _MEMO.setdefault((name, param), fresh)
        while len(values) <= n:
            values.append(next(rest))
    return values


def genlucas_poly(m: int) -> IntPolynomial:
    """Characteristic polynomial of the 2cos((2t+1)pi/(2m+1)) family, from
    its closed form: with h = ceil(j/2), the coefficient of x^(m-j) is
    (-1)^h C(m-h, floor(j/2))."""
    coeffs = [0] * (m + 1)
    for j in range(m + 1):
        h = (j + 1) // 2
        coeffs[m - j] = (-1) ** h * binomial(m - h, j // 2)
    return IntPolynomial(tuple(coeffs))


def scriptl_poly(m: int) -> IntPolynomial:
    """Monic polynomial of degree floor(m/2) whose roots are the distinct
    nonzero squares (2cos((2t-1)pi/(2m)))^2, for m >= 2.

    D_m = chebyshev_monic(m) is even in x for even m and odd for odd m, so
    D_m(x) = E(x^2) or x*E(x^2); E is the parity split of D_m's
    coefficients.  Each root square of D_m other than 0 is a root of E once.
    """
    return IntPolynomial(chebyshev_monic(m).coeffs[m % 2::2])


def _power_sum_spec(name: str, poly: IntPolynomial) -> RecurrenceSpec:
    """The recurrence of the sums of the n-th powers of poly's roots.

    By Newton's identities the power sums satisfy the polynomial's own
    recurrence: with x^d + a_1 x^(d-1) + ... + a_d the coefficients are
    -a_1..-a_d, seeded with the power sums p_0..p_(d-1).
    """
    d = poly.degree
    coeffs = tuple(-poly.coeffs[d - i] for i in range(1, d + 1))
    return RecurrenceSpec(name, coeffs, tuple(power_sums(poly, d - 1)))


def _divide_by_m(total: int, m: int, n: int) -> int:
    # scriptl_poly has each distinct nonzero root square of D_m once, so for
    # n >= 1 its power sum is half the sum over the m roots of D_m of their
    # 2n-th powers; hence the divisor m.
    q, r = divmod(total, m)
    if r:
        raise ValueError(f"scriptL({m}) power sum not divisible by {m} at n = {n}")
    return q


def _scriptl_steps(m: int) -> Iterator[int]:
    # p_0/m is no integer, so scriptL starts at n = 1; index 0 keeps p_0, never read
    powers = rec_steps(_power_sum_spec(f"scriptL({m})", scriptl_poly(m)))
    return (_divide_by_m(p, m, n) if n else p for n, p in enumerate(powers))


def _scriptl_diag(n: int) -> int:
    # m = n: a spec built for this read would never be read again, so nothing
    # is stored.  Odd n, where D_n is no polynomial in x^2 - 2, run Newton's
    # identities on scriptl_poly(n) up to n, about 3n^2/8 multiply-adds.
    # Even n = 2h halve the degree: D_2h(x) = D_h(x^2 - 2), so the roots of
    # scriptl_poly(n) are 2 + z over the roots z of D_h, which come in +-
    # pairs (and 0 for odd h).  Their odd power sums vanish, q_0 = h and
    # q_2i = 2 p_i(scriptl_poly(h)), and the sum of (2 + z)^n is
    # sum_i C(n, 2i) 4^(h-i) q_2i, summed by Horner's rule in 4.  Newton's
    # identities then run on degree h // 2 up to h, about 3n^2/32 of them.
    # D_1 = x has only the root 0, so h = 1 has no p_i.
    if n % 2:
        return _divide_by_m(power_sums(scriptl_poly(n), n)[n], n, n)
    h = n // 2
    p = power_sums(scriptl_poly(h), h) if h > 1 else [0, 0]
    total, c = h, 1  # q_0 and C(n, 0); c steps to C(n, 2i) by exact ratios
    for i in range(1, h + 1):
        c = c * (n - 2 * i + 2) * (n - 2 * i + 1) // ((2 * i - 1) * 2 * i)
        total = 4 * total + 2 * c * p[i]
    return _divide_by_m(total, n, n)


def _central() -> Iterator[int]:
    """C(2n, n) for n = 0, 1, ..., by C(2n+2, n+1) = C(2n, n) (4n+2)/(n+1).
    Not read from core.class_sums: the right side of half-row sums it."""
    return accumulate(count(), lambda c, n: c * (4 * n + 2) // (n + 1), initial=1)


_REGISTRY: dict[str, SequenceOracle] = {
    o.name: o
    for o in [
        SequenceOracle("fib", RecurrenceSpec("fib", (1, 1), (0, 1), negative_rule="odd")),
        SequenceOracle("lucas", RecurrenceSpec("lucas", (1, 1), (2, 1), negative_rule="even")),
        SequenceOracle("pell", RecurrenceSpec("pell", (2, 1), (0, 1))),
        SequenceOracle("pellX", RecurrenceSpec("pellX", (4, -1), (1, 2))),
        SequenceOracle("pellY", RecurrenceSpec("pellY", (4, -1), (0, 1))),
        SequenceOracle("W", RecurrenceSpec("W", (-1, 2, 1), (3, -1, 5))),
        SequenceOracle("Q", RecurrenceSpec("Q", (5, -6, 1), (1, 1, 2))),
        SequenceOracle("R", RecurrenceSpec("R", (5, -6, 1), (1, 2, 6))),
        SequenceOracle("S", RecurrenceSpec("S", (6, -9, 1), (1, 2, 6))),
        SequenceOracle("genlucas", lambda m: _power_sum_spec(f"genlucas({m})", genlucas_poly(m)),
                       param_name="m", param_min=2),
        SequenceOracle("scriptL", steps=_scriptl_steps, start=1, param_name="m", param_min=2),
        SequenceOracle("scriptLdiag", rule=lambda _, n: _scriptl_diag(n), start=2),
        # the central-row sums over k >= 1 by k (mod 5), read from core.class_sums(5)
        SequenceOracle("A", steps=lambda _: (s[1] + s[4] for _, s in class_sums(5))),
        SequenceOracle("B", steps=lambda _: (s[2] + s[3] for _, s in class_sums(5))),
        SequenceOracle("C", steps=lambda _: (s[0] for _, s in class_sums(5))),
        SequenceOracle("halfrow",
                       steps=lambda _: ((4**n - c) // 2 for n, c in enumerate(_central()))),
        # C(2n-1, n-1) = C(2n, n)/2 for n >= 1
        SequenceOracle("halfcentral", steps=lambda _: (c // 2 for c in _central()), start=1),
        *(SequenceOracle(f"pow{b}", RecurrenceSpec(f"pow{b}", (b,), (1,))) for b in range(2, 6)),
        SequenceOracle("pelltrans", RecurrenceSpec("pelltrans", (4, -2), (0, 1))),
        SequenceOracle("fib2trans", RecurrenceSpec("fib2trans", (5, -5), (0, 1))),
        SequenceOracle("fibscaled", RecurrenceSpec("fibscaled", (2, 4), (0, 1))),
        SequenceOracle("lucasscaled", RecurrenceSpec("lucasscaled", (2, 4), (1, 1))),
        SequenceOracle("lewis", lambda t: RecurrenceSpec(
                           f"lewis({t})", (5 * seq_eval("fib", t) ** 2,), (1,)),
                       param_name="t", param_min=1),
        SequenceOracle("fiboddpow", lambda p: RecurrenceSpec(
                           f"fiboddpow({p})", (5 * seq_eval("fib", 2 * p) ** 2,),
                           (2 * seq_eval("fib", 2 * p),)),
                       param_name="p", param_min=1),
        # R and Q share their recurrence, so R - Q has it too
        SequenceOracle("A094789", RecurrenceSpec("A094789", (5, -6, 1), (0, 1, 4)), start=1),
        SequenceOracle("A094667", RecurrenceSpec("A094667", (8, -21, 20, -5), (0, 1, 4, 14))),
        SequenceOracle("A216597", RecurrenceSpec("A216597", (13, -65, 156, -182, 91, -13),
                                                 (0, -1, -5, -22, -91, -364))),
    ]
}


def registry() -> MappingProxyType:
    """Immutable name -> SequenceOracle map."""
    return MappingProxyType(_REGISTRY)


def get_oracle(name: str) -> SequenceOracle:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown sequence {name!r}; known: {', '.join(sorted(_REGISTRY))}") from None


def seq_eval(name: str, n: int, param: int | None = None) -> int:
    """Exact value of a registered sequence at index n."""
    return seq_values(name, [n], param)[0]


def seq_values(name: str, indices: list[int] | range, param: int | None = None) -> list[int]:
    """The exact values of a registered sequence at the indices, in one memo
    read up to the largest |n|, a negative n of fib or lucas reflected by
    its spec's backward rule; scriptLdiag's rule is read per index.  Errors
    are those of reading one index at a time: the first index that is no
    int, or lies below the start of an oracle with no backward rule, raises,
    and a refused parameter raises at the first index."""
    oracle = get_oracle(name)
    if not indices:
        return []
    lo = min(indices) if set(map(type, indices)) == {int} else None
    if lo is None or (lo < oracle.start and not oracle.negative_ok):
        for i, n in enumerate(indices):  # the first bad index raises here
            if not _is_integer(n):
                raise TypeError(f"{name}: n must be an int, not {n!r}")
            if not i:
                oracle.check_param(param)
            if n < oracle.start and not oracle.negative_ok:
                raise ValueError(f"{name} is not defined at n = {n}")
        lo = min(indices)  # integers of another type, such as bool
    oracle.check_param(param)
    if oracle.rule is not None:
        return [oracle.rule(param, n) for n in indices]
    values = _memo_values(name, param, max(max(indices), -lo))
    return [values[n] if n >= 0 else oracle.recurrence.reflection_sign(n) * values[-n]
            for n in indices]
