"""Named exact integer sequences: the ground truth side of every identity.

Each oracle is backed by a linear recurrence (Newton power sums of an
integer characteristic polynomial included), a partial-row sum over
Pascal's triangle, or a small closed rule.  All of them return exact
integers on their domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

from .core import RecurrenceSpec, binomial, central_row, rec_eval
from .cyclo import IntPolynomial, char_poly_from_roots, chebyshev_monic, power_sums


@dataclass(frozen=True)
class SequenceOracle:
    """A named exact sequence.  ``rule(param, n)`` must be pure."""

    name: str
    rule: Callable[[int | None, int], int]
    start: int = 0
    param_name: str | None = None
    param_min: int = 0
    negative_ok: bool = False
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
# binomial transforms of the Pell numbers and of F(2k)
PELL_TRANS = RecurrenceSpec("pelltrans", (4, -2), (0, 1))
FIB2_TRANS = RecurrenceSpec("fib2trans", (5, -5), (0, 1))
# the Kronecker mod 20 and sign-alternating mod 13 central-row sums
A094667_SEQ = RecurrenceSpec("A094667", (8, -21, 20, -5), (0, 1, 4, 14))
A216597_SEQ = RecurrenceSpec("A216597", (13, -65, 156, -182, 91, -13),
                             (0, -1, -5, -22, -91, -364))


def fib(n: int) -> int:
    return rec_eval(FIB, n)


def lucas(n: int) -> int:
    return rec_eval(LUCAS, n)


def genlucas_poly(m: int) -> IntPolynomial:
    """Characteristic polynomial of the 2cos((2t+1)pi/(2m+1)) family."""
    return char_poly_from_roots(2 * m + 1, list(range(1, 2 * m, 2)))


def scriptl_poly(m: int) -> IntPolynomial:
    """Monic polynomial of degree floor(m/2) whose roots are the distinct
    nonzero squares (2cos((2t-1)pi/(2m)))^2, for m >= 2.

    D_m = chebyshev_monic(m) is even in x for even m and odd for odd m, so
    D_m(x) = E(x^2) or x*E(x^2); E is the parity split of D_m's
    coefficients.  Each root square of D_m other than 0 is a root of E once.
    """
    return IntPolynomial(chebyshev_monic(m).coeffs[m % 2::2])


# one power-sum recurrence per (family, m), built on first use
_POWER_SUM_SPECS: dict[tuple[str, int], RecurrenceSpec] = {}


def _power_sum_at(family: str, make_poly: Callable[[int], IntPolynomial], m: int, n: int) -> int:
    """Sum of the n-th powers of the roots of make_poly(m).

    By Newton's identities the power sums satisfy the polynomial's own
    recurrence: with x^d + a_1 x^(d-1) + ... + a_d the coefficients are
    -a_1..-a_d, seeded with the power sums p_0..p_(d-1).
    """
    spec = _POWER_SUM_SPECS.get((family, m))
    if spec is None:
        poly = make_poly(m)
        d = poly.degree
        coeffs = tuple(-poly.coeffs[d - i] for i in range(1, d + 1))
        spec = RecurrenceSpec(f"{family}({m})", coeffs, tuple(power_sums(poly, d - 1)))
        # setdefault keeps the first spec published, so threads share one memo
        spec = _POWER_SUM_SPECS.setdefault((family, m), spec)
    return rec_eval(spec, n)


def _divide_by_m(total: int, m: int, n: int) -> int:
    # scriptl_poly has each distinct nonzero root square of D_m once, so for
    # n >= 1 its power sum is half the sum over the m roots of D_m of their
    # 2n-th powers; hence the divisor m.
    q, r = divmod(total, m)
    if r:
        raise ValueError(f"scriptL({m}) power sum not divisible by {m} at n = {n}")
    return q


def _scriptl(m: int, n: int) -> int:
    return _divide_by_m(_power_sum_at("scriptL", scriptl_poly, m, n), m, n)


def _scriptl_diag(n: int) -> int:
    # m = n: a spec built for this read would never be read again, so Newton's
    # identities run up to n and nothing is stored
    return _divide_by_m(power_sums(scriptl_poly(n), n)[n], n, n)


def _partial_row(n: int, residues: set[int], modulus: int) -> int:
    row = central_row(n)
    return sum(row[k] for k in range(1, n + 1) if k % modulus in residues)


_REGISTRY: dict[str, SequenceOracle] = {
    o.name: o
    for o in [
        SequenceOracle("fib", lambda _, n: fib(n), negative_ok=True,
                       description="Fibonacci numbers"),
        SequenceOracle("lucas", lambda _, n: lucas(n), negative_ok=True,
                       description="Lucas numbers"),
        SequenceOracle("pell", lambda _, n: rec_eval(PELL, n), description="Pell numbers"),
        SequenceOracle("pellX", lambda _, n: rec_eval(PELL_X, n),
                       description="x solving x^2 - 3y^2 = 1"),
        SequenceOracle("pellY", lambda _, n: rec_eval(PELL_Y, n),
                       description="y solving x^2 - 3y^2 = 1"),
        SequenceOracle("W", lambda _, n: rec_eval(W_SEQ, n),
                       description="signed Lucas-type sequence for the heptagon cosines"),
        SequenceOracle("Q", lambda _, n: rec_eval(Q_SEQ, n),
                       description="bounded-height Catalan path counts"),
        SequenceOracle("R", lambda _, n: rec_eval(R_SEQ, n),
                       description="closed walk counts at the middle of the 6-path"),
        SequenceOracle("S", lambda _, n: rec_eval(S_SEQ, n),
                       description="sequence with kernel x^3 - 6x^2 + 9x - 1"),
        SequenceOracle("genlucas", lambda m, n: _power_sum_at("genlucas", genlucas_poly, m, n),
                       param_name="m", param_min=2,
                       description="sum of n-th powers of 2cos((2t+1)pi/(2m+1))"),
        SequenceOracle("scriptL", lambda m, n: _scriptl(m, n), start=1,
                       param_name="m", param_min=2,
                       description="(1/m) sum of 2n-th powers of 2cos((2t-1)pi/(2m))"),
        SequenceOracle("scriptLdiag", lambda _, n: _scriptl_diag(n), start=2,
                       description="scriptL with m = n, read at n"),
        SequenceOracle("A", lambda _, n: _partial_row(n, {1, 4}, 5),
                       description="central-row sum over k = 1,4 (mod 5)"),
        SequenceOracle("B", lambda _, n: _partial_row(n, {2, 3}, 5),
                       description="central-row sum over k = 2,3 (mod 5)"),
        SequenceOracle("C", lambda _, n: _partial_row(n, {0}, 5),
                       description="central-row sum over positive multiples of 5"),
        SequenceOracle("halfrow", lambda _, n: (4**n - binomial(2 * n, n)) // 2,
                       description="(4^n - C(2n,n))/2, the half row sum"),
        SequenceOracle("halfcentral", lambda _, n: binomial(2 * n - 1, n - 1), start=1,
                       description="C(2n-1, n-1), half the central binomial coefficient"),
        SequenceOracle("pow2", lambda _, n: 2**n, description="powers of 2"),
        SequenceOracle("pow3", lambda _, n: 3**n, description="powers of 3"),
        SequenceOracle("pow4", lambda _, n: 4**n, description="powers of 4"),
        SequenceOracle("pow5", lambda _, n: 5**n, description="powers of 5"),
        SequenceOracle("pelltrans", lambda _, n: rec_eval(PELL_TRANS, n),
                       description="binomial transform of the Pell numbers"),
        SequenceOracle("fib2trans", lambda _, n: rec_eval(FIB2_TRANS, n),
                       description="binomial transform of the even-index Fibonacci numbers"),
        SequenceOracle("fibscaled", lambda _, n: 0 if n == 0 else 2 ** (n - 1) * fib(n),
                       description="2^(n-1) F(n)"),
        SequenceOracle("lucasscaled", lambda _, n: 1 if n == 0 else 2 ** (n - 1) * lucas(n),
                       description="2^(n-1) L(n)"),
        SequenceOracle("lewis", lambda t, n: 5**n * fib(t) ** (2 * n),
                       param_name="t", param_min=1, description="5^n F(t)^(2n)"),
        SequenceOracle("fiboddpow", lambda p, n: 2 * 5**n * fib(2 * p) ** (2 * n + 1),
                       param_name="p", param_min=1, description="2 * 5^n F(2p)^(2n+1)"),
        SequenceOracle("A094789", lambda _, n: rec_eval(R_SEQ, n) - rec_eval(Q_SEQ, n),
                       start=1, description="R minus Q"),
        SequenceOracle("A094667", lambda _, n: rec_eval(A094667_SEQ, n),
                       description="Kronecker mod 20 central-row sums, by their order-4 "
                                   "recurrence"),
        SequenceOracle("A216597", lambda _, n: rec_eval(A216597_SEQ, n),
                       description="sign-alternating Kronecker mod 13 central-row sums, "
                                   "by their order-6 recurrence"),
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
