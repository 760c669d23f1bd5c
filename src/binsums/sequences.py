"""Named exact integer sequences: the ground truth side of every identity.

Each oracle is backed by a linear recurrence, a Newton power sum over an
integer characteristic polynomial, a partial-row sum over Pascal's triangle,
or a small closed rule.  All of them return exact integers on their domain.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

from .core import RecurrenceSpec, binomial, central_row, rec_eval
from .cyclo import IntPolynomial, char_poly_from_roots, chebyshev_monic, power_sums, squared_root_poly


@dataclass(frozen=True)
class SequenceOracle:
    """A named exact sequence.  ``rule(param, n)`` must be pure."""

    name: str
    rule: Callable[[int | None, int], int]
    start: int = 0
    param_name: str | None = None
    param_min: int = 0
    negative_ok: bool = False
    oeis_id: str | None = None
    description: str = ""

    def __call__(self, n: int, param: int | None = None) -> int:
        if self.param_name is not None:
            if param is None:
                raise ValueError(f"sequence {self.name} needs parameter {self.param_name}")
            if param < self.param_min:
                raise ValueError(f"{self.name}: {self.param_name} must be >= {self.param_min}")
        elif param is not None:
            raise ValueError(f"sequence {self.name} takes no parameter")
        if n < self.start and not self.negative_ok:
            raise ValueError(f"{self.name} is not defined at n = {n}")
        return self.rule(param, n)


FIB = RecurrenceSpec("fib", (1, 1), (0, 1), negative_rule="odd")
LUCAS = RecurrenceSpec("lucas", (1, 1), (2, 1), negative_rule="even")
PELL = RecurrenceSpec("pell", (2, 1), (0, 1))
PELL_X = RecurrenceSpec("pellX", (4, -1), (1, 2))
PELL_Y = RecurrenceSpec("pellY", (4, -1), (0, 1))
W_SEQ = RecurrenceSpec("W", (-1, 2, 1), (3, -1, 5))
Q_SEQ = RecurrenceSpec("Q", (5, -6, 1), (1, 1, 2))
R_SEQ = RecurrenceSpec("R", (5, -6, 1), (1, 2, 6))
S_SEQ = RecurrenceSpec("S", (6, -9, 1), (1, 2, 6))


def fib(n: int) -> int:
    return rec_eval(FIB, n)


def lucas(n: int) -> int:
    return rec_eval(LUCAS, n)


# characteristic polynomials and power-sum tables, cached per parameter
_GENLUCAS_POLY: dict[int, IntPolynomial] = {}
_SCRIPTL_POLY: dict[int, IntPolynomial] = {}
_POWER_TABLE: dict[tuple[str, int], list[int]] = {}
_POWER_LOCK = threading.Lock()


def _powers(kind: str, m: int, poly: IntPolynomial, n: int) -> int:
    # A published table is never changed: a longer one replaces it, built
    # and published under the lock, so no thread ever sees a table shrink.
    table = _POWER_TABLE.get((kind, m), ())
    if len(table) <= n:
        with _POWER_LOCK:
            table = _POWER_TABLE.get((kind, m), ())
            if len(table) <= n:
                table = power_sums(poly, max(n, 2 * len(table)))
                _POWER_TABLE[(kind, m)] = table
    return table[n]


def genlucas_poly(m: int) -> IntPolynomial:
    """Characteristic polynomial of the 2cos((2t+1)pi/(2m+1)) family."""
    poly = _GENLUCAS_POLY.get(m)
    if poly is None:
        poly = char_poly_from_roots(2 * m + 1, list(range(1, 2 * m, 2)))
        _GENLUCAS_POLY[m] = poly
    return poly


def _genlucas(m: int, n: int) -> int:
    return _powers("genlucas", m, genlucas_poly(m), n)


def scriptl_poly(m: int) -> IntPolynomial:
    """Polynomial whose roots are the squares (2cos((2t-1)pi/(2m)))^2."""
    poly = _SCRIPTL_POLY.get(m)
    if poly is None:
        poly = squared_root_poly(chebyshev_monic(m))
        _SCRIPTL_POLY[m] = poly
    return poly


def _scriptl(m: int, n: int) -> int:
    # every root square occurs twice (the middle zero root for odd m
    # contributes nothing once n >= 1), hence the divisor 2m
    total = _powers("scriptL", m, scriptl_poly(m), n)
    q, r = divmod(total, 2 * m)
    if r:
        raise ValueError(f"scriptL({m}) power sum not divisible by {2 * m} at n = {n}")
    return q


def _partial_row(n: int, residues: set[int], modulus: int) -> int:
    row = central_row(n)
    return sum(row[k] for k in range(1, n + 1) if k % modulus in residues)


def _pell_transform(n: int) -> int:
    return sum(binomial(n, k) * rec_eval(PELL, k) for k in range(n + 1))


def _fib2_transform(n: int) -> int:
    return sum(binomial(n, k) * fib(2 * k) for k in range(n + 1))


def _bfile_value(seq_id: str, n: int) -> int:
    from . import oeis  # deferred: oeis also consults this registry

    table = oeis.load_fixture(seq_id)
    if n not in table.entries:
        raise ValueError(f"{seq_id} fixture has no index {n}")
    return table.entries[n]


def _o(name, rule, **kw) -> SequenceOracle:
    return SequenceOracle(name, rule, **kw)


_REGISTRY: dict[str, SequenceOracle] = {
    o.name: o
    for o in [
        _o("fib", lambda _, n: fib(n), negative_ok=True, oeis_id="A000045", description="Fibonacci numbers"),
        _o("lucas", lambda _, n: lucas(n), negative_ok=True, oeis_id="A000032", description="Lucas numbers"),
        _o("pell", lambda _, n: rec_eval(PELL, n), oeis_id="A000129", description="Pell numbers"),
        _o("pellX", lambda _, n: rec_eval(PELL_X, n), oeis_id="A001075",
           description="x solving x^2 - 3y^2 = 1"),
        _o("pellY", lambda _, n: rec_eval(PELL_Y, n), oeis_id="A001353",
           description="y solving x^2 - 3y^2 = 1"),
        _o("W", lambda _, n: rec_eval(W_SEQ, n), oeis_id="A094648",
           description="signed Lucas-type sequence for the heptagon cosines"),
        _o("Q", lambda _, n: rec_eval(Q_SEQ, n), oeis_id="A080937",
           description="bounded-height Catalan path counts"),
        _o("R", lambda _, n: rec_eval(R_SEQ, n), oeis_id="A052975",
           description="closed walk counts at the middle of the 6-path"),
        _o("S", lambda _, n: rec_eval(S_SEQ, n), oeis_id="A094831",
           description="sequence with kernel x^3 - 6x^2 + 9x - 1"),
        _o("qrdiff", lambda _, n: rec_eval(R_SEQ, n) - rec_eval(Q_SEQ, n), start=1,
           oeis_id="A094789", description="R minus Q"),
        _o("genlucas", lambda m, n: _genlucas(m, n), param_name="m", param_min=2,
           description="sum of n-th powers of 2cos((2t+1)pi/(2m+1))"),
        _o("scriptL", lambda m, n: _scriptl(m, n), start=1, param_name="m", param_min=2,
           description="(1/m) sum of 2n-th powers of 2cos((2t-1)pi/(2m))"),
        _o("A", lambda _, n: _partial_row(n, {1, 4}, 5), oeis_id="A095930",
           description="central-row sum over k = 1,4 (mod 5)"),
        _o("B", lambda _, n: _partial_row(n, {2, 3}, 5), oeis_id="A095931",
           description="central-row sum over k = 2,3 (mod 5)"),
        _o("C", lambda _, n: _partial_row(n, {0}, 5),
           description="central-row sum over positive multiples of 5"),
        _o("halfrow", lambda _, n: (4**n - binomial(2 * n, n)) // 2,
           description="(4^n - C(2n,n))/2, the half row sum"),
        _o("halfcentral", lambda _, n: binomial(2 * n - 1, n - 1), start=1,
           description="C(2n-1, n-1), half the central binomial coefficient"),
        _o("pow2", lambda _, n: 2**n, description="powers of 2"),
        _o("pow3", lambda _, n: 3**n, oeis_id="A000244", description="powers of 3"),
        _o("pow4", lambda _, n: 4**n, description="powers of 4"),
        _o("pow5", lambda _, n: 5**n, description="powers of 5"),
        _o("pelltrans", lambda _, n: _pell_transform(n),
           description="binomial transform of the Pell numbers"),
        _o("fib2trans", lambda _, n: _fib2_transform(n),
           description="binomial transform of the even-index Fibonacci numbers"),
        _o("fibscaled", lambda _, n: 0 if n == 0 else 2 ** (n - 1) * fib(n),
           description="2^(n-1) F(n)"),
        _o("lucasscaled", lambda _, n: 1 if n == 0 else 2 ** (n - 1) * lucas(n),
           description="2^(n-1) L(n)"),
        _o("lewis", lambda t, n: 5**n * fib(t) ** (2 * n), param_name="t", param_min=1,
           description="5^n F(t)^(2n)"),
        _o("fiboddpow", lambda p, n: 2 * 5**n * fib(2 * p) ** (2 * n + 1),
           param_name="p", param_min=1, description="2 * 5^n F(2p)^(2n+1)"),
        _o("A094789", lambda _, n: _bfile_value("A094789", n), start=1,
           oeis_id="A094789", description="pinned b-file values of A094789"),
        _o("A094667", lambda _, n: _bfile_value("A094667", n),
           oeis_id="A094667", description="pinned b-file values of A094667"),
        _o("A216597", lambda _, n: _bfile_value("A216597", n),
           oeis_id="A216597", description="pinned b-file values of A216597"),
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
    return get_oracle(name)(n, param)


def seq_slice(name: str, count: int, param: int | None = None) -> list[int]:
    """First ``count`` values from the oracle's natural starting index."""
    if count < 1:
        raise ValueError("count must be >= 1")
    oracle = get_oracle(name)
    return [oracle(oracle.start + i, param) for i in range(count)]
