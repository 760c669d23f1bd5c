"""Declarative catalogue of periodic weighted binomial-sum identities.

An Identity pairs a ground-truth oracle (its left side) with a list of sum
terms (its right side).  Every centered sum is kept in one canonical shape,

    center * C(row, n) + sum_{k >= 1} C(row, n+k) * w(k mod M) * sign(n, k),

optionally carrying an extra oracle-valued factor per summand.  The
evaluator works in exact rational (or quadratic-ring) arithmetic, so a
verification failure is a genuine counterexample, never round-off.
"""
from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import ClassVar

from .core import binomial, binomial_row, central_row, class_sums, kronecker
from .cyclo import cos_product_resultant
from .quadratic import QuadValue
from .sequences import get_oracle, seq_eval

SIGN_NONE = "none"
SIGN_ALT_K = "(-1)^k"
SIGN_ALT_J = "(-1)^j"
SIGN_ALT_NK = "(-1)^(n-k)"

_SIGNS = (SIGN_NONE, SIGN_ALT_K, SIGN_ALT_J, SIGN_ALT_NK)


def _affine_str(a: int, b: int, var: str) -> str:
    """a*var + b as written in the JSON format: "n", "-n", "2n", "3k-1"."""
    lead = {1: var, -1: f"-{var}"}.get(a, f"{a}{var}")
    if b == 0:
        return lead
    return f"{lead}{'+' if b > 0 else '-'}{abs(b)}"


@dataclass(frozen=True)
class OracleRef:
    """A sequence evaluated along an affine index a*v + b of the running
    variable (n for identity sides, k or j inside sum terms)."""

    name: str
    param: int | None = None
    a: int = 1
    b: int = 0

    def value(self, v: int) -> int:
        return seq_eval(self.name, self.a * v + self.b, self.param)

    def index_str(self, var: str = "n") -> str:
        return _affine_str(self.a, self.b, var)


@dataclass(frozen=True)
class CenteredSum:
    """Periodic weighted slice of a centered binomial row."""

    weights: tuple
    period: int
    row_odd: bool = False
    center: Fraction = Fraction(0)
    sign: str = SIGN_NONE
    weight_oracle: OracleRef | None = None  # extra factor, affine in k

    def __post_init__(self) -> None:
        if len(self.weights) != self.period:
            raise ValueError("weight table must have exactly `period` entries")
        if self.sign not in _SIGNS:
            raise ValueError(f"unknown sign rule {self.sign!r}")
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(
            self,
            "weights",
            tuple(w if isinstance(w, QuadValue) else Fraction(w) for w in self.weights),
        )

    @property
    def has_surd(self) -> bool:
        return any(isinstance(w, QuadValue) and not w.is_rational for w in self.weights)

    def _sign_at(self, n: int, k: int) -> int:
        if self.sign == SIGN_ALT_K:
            return -1 if k % 2 else 1
        if self.sign == SIGN_ALT_J:
            return -1 if (k // self.period) % 2 else 1
        if self.sign == SIGN_ALT_NK:
            return -1 if (n + k) % 2 else 1
        return 1

    def evaluate(self, n: int):
        """Exact value at n."""
        k_max = n + 1 if self.row_odd else n
        if self.row_odd:
            row_vals = [binomial(2 * n + 1, n + k) for k in range(0, k_max + 1)]
        else:
            row_vals = central_row(n)
        total = QuadValue(Fraction(0)) if self.has_surd else Fraction(0)
        if self.center:
            total = total + self.center * self._sign_at(n, 0) * row_vals[0]
        for k in range(1, k_max + 1):
            w = self.weights[k % self.period]
            if not w:
                continue
            b = row_vals[k]
            if not b:
                continue
            piece = w * self._sign_at(n, k) * b
            if self.weight_oracle is not None:
                piece = piece * self.weight_oracle.value(k)
            total = total + piece
        return total

    def terms_at(self, n: int) -> list[tuple[int, int, Fraction]]:
        """The nonzero (row, column, coefficient) entries of the sum at n,
        in k order.  Only defined for rational tables without extra factors."""
        if self.has_surd or self.weight_oracle is not None:
            raise ValueError("term expansion needs a plain rational table")
        row = 2 * n + 1 if self.row_odd else 2 * n
        k_max = n + 1 if self.row_odd else n
        out = []
        for k in range(1, k_max + 1):
            w = self.weights[k % self.period] * self._sign_at(n, k)
            if w:
                out.append((row, n + k, w))
        return out

    def signed_table(self) -> tuple:
        """The weight table with the k-dependent sign folded in, over period
        lcm(M, 2) for (-1)^k and (-1)^(n-k), or 2M for (-1)^j.  The (-1)^n
        part of (-1)^(n-k) is left to the caller."""
        m = self.period
        if self.sign == SIGN_NONE:
            return self.weights
        if self.sign == SIGN_ALT_J:
            return tuple(self.weights[r % m] * (-1) ** (r // m) for r in range(2 * m))
        return tuple(self.weights[r % m] * (-1) ** r for r in range(math.lcm(m, 2)))

    def _combine(self, groups: list, n: int, middle: int, class_sums: list[int]):
        """center * C(row, n) plus each weight times its classes' sums, signed."""
        total = sum(w * sum(class_sums[r] for r in rs) for w, rs in groups)
        if self.center:
            total = total + self.center * middle
        return -total if self.sign == SIGN_ALT_NK and n % 2 else total

    @staticmethod
    def _weight_groups(table: tuple) -> list:
        """(weight, residues carrying it) for each distinct nonzero weight,
        so a step costs one exact multiply per distinct weight."""
        groups: dict = {}
        for r, w in enumerate(table):
            if w:
                groups.setdefault(w, []).append(r)
        return list(groups.items())

    def sweep(self, ns: list[int]) -> list:
        """evaluate(n) for every n in ns, in one pass over n = 0..max(ns).

        Without a weight oracle, the class sums of each row come from the
        Pascal-step kernel core.class_sums, at O(P) integer additions per
        step, and are combined with the signed table.  With a weight oracle
        each row is read once as integers instead.
        """
        if self.weight_oracle is not None:
            return self._oracle_weighted_sweep(ns)
        table = self.signed_table()
        groups = self._weight_groups(table)
        wanted = set(ns)
        out = {}
        for n, (middle, sums) in zip(range(max(ns) + 1), class_sums(len(table), self.row_odd)):
            if n in wanted:
                out[n] = self._combine(groups, n, middle, sums)
        return [out[n] for n in ns]

    def _oracle_weighted_sweep(self, ns: list[int]) -> list:
        table = self.signed_table()
        groups = self._weight_groups(table)
        p = len(table)
        # k = 0..k_max; k = 0 is the center, which the oracle does not weight
        k_max = max(ns) + 1 if self.row_odd else max(ns)
        f = [self.weight_oracle.value(k) if k and table[k % p] else 0 for k in range(k_max + 1)]
        out = []
        for n in ns:
            row = binomial_row(2 * n + 1)[n:] if self.row_odd else central_row(n)
            sums = [sum(map(operator.mul, row[r::p], f[r::p])) for r in range(p)]
            out.append(self._combine(groups, n, row[0], sums))
        return out


@dataclass(frozen=True)
class ScaledBinomial:
    """coeff * C(...) for one of the four fixed column shapes."""

    coeff: Fraction
    which: str

    _SHAPES = {
        "C(2n,n)": (2, 0, 1, 0),
        "C(2n-1,n)": (2, -1, 1, 0),
        "C(2n-1,n-1)": (2, -1, 1, -1),
        "C(2n+1,n+1)": (2, 1, 1, 1),
    }

    def __post_init__(self) -> None:
        if self.which not in self._SHAPES:
            raise ValueError(f"unknown binomial shape {self.which!r}")
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def evaluate(self, n: int) -> Fraction:
        ra, rb, ka, kb = self._SHAPES[self.which]
        return self.coeff * binomial(ra * n + rb, ka * n + kb)


@dataclass(frozen=True)
class Power:
    """coeff * base^(ea*n + eb); negative exponents give exact rationals."""

    coeff: Fraction
    base: int
    ea: int
    eb: int = 0

    def evaluate(self, n: int) -> Fraction:
        return Fraction(self.coeff) * Fraction(self.base) ** (self.ea * n + self.eb)


@dataclass(frozen=True)
class Constant:
    value: Fraction

    def evaluate(self, n: int) -> Fraction:
        return Fraction(self.value)


@dataclass(frozen=True)
class ScaledOracle:
    """coeff * oracle(a*n + b): lets a right side cite another sequence."""

    coeff: Fraction
    oracle: OracleRef

    def evaluate(self, n: int) -> Fraction:
        return Fraction(self.coeff) * self.oracle.value(n)


@dataclass(frozen=True)
class BinomialTransform:
    """sum_{j >= 0} C(n, stride*j + offset) * oracle(j)."""

    oracle: OracleRef
    stride: int = 1
    offset: int = 0

    def evaluate(self, n: int) -> Fraction:
        total = Fraction(0)
        j = 0
        while self.stride * j + self.offset <= n:
            c = binomial(n, self.stride * j + self.offset)
            if c:
                total += c * self.oracle.value(j)
            j += 1
        return total

    def sweep(self, ns: list[int]) -> list[Fraction]:
        """evaluate(n) for every n in ns: each row stepped multiplicatively,
        summed in integers, the oracle read once per j."""
        f = [self.oracle.value(j) for j in range((max(ns) - self.offset) // self.stride + 1)]
        out = []
        for n in ns:
            row = binomial_row(n)[self.offset::self.stride]
            out.append(Fraction(sum(map(operator.mul, row, f))))
        return out


@dataclass(frozen=True)
class SignedRowConvolution:
    """sum_{k=0}^{2n+1} (-1)^k C(2n+1, k) * oracle(an*n + ak*k + c).

    The oracle index may run negative for large k, so the cited sequence
    must carry a backward extension rule.
    """

    oracle_name: str
    an: int
    ak: int
    c: int = 0

    def evaluate(self, n: int) -> Fraction:
        row = 2 * n + 1
        total = Fraction(0)
        for k in range(row + 1):
            sign = -1 if k % 2 else 1
            total += sign * binomial(row, k) * seq_eval(self.oracle_name, self.an * n + self.ak * k + self.c)
        return total

    def sweep(self, ns: list[int]) -> list[Fraction]:
        """evaluate(n) for every n in ns: each row stepped multiplicatively,
        summed in integers, the oracle read once per distinct index."""
        oracle = functools.cache(lambda i: seq_eval(self.oracle_name, i))
        out = []
        for n in ns:
            total = 0
            for k, c in enumerate(binomial_row(2 * n + 1)):
                v = c * oracle(self.an * n + self.ak * k + self.c)
                total += -v if k % 2 else v
            out.append(Fraction(total))
        return out


@dataclass(frozen=True)
class DiagonalSum:
    """sum_{r=0}^n (-1)^r C(2n-r, r) * base^(n-r)."""

    base: int = 5

    def evaluate(self, n: int) -> Fraction:
        return Fraction(
            sum((-1) ** r * binomial(2 * n - r, r) * self.base ** (n - r) for r in range(n + 1))
        )

    def sweep(self, ns: list[int]) -> list[Fraction]:
        """evaluate(n) for every n in ns, stepping C(2n-r+1, r-1) to
        C(2n-r, r) multiplicatively and summing in integers."""
        powers = [self.base ** e for e in range(max(ns) + 1)]
        out = []
        for n in ns:
            total, c = powers[n], 1
            for r in range(1, n + 1):
                c = c * (2 * n - 2 * r + 2) * (2 * n - 2 * r + 1) // ((2 * n - r + 1) * r)
                total += (-c if r % 2 else c) * powers[n - r]
            out.append(Fraction(total))
        return out


@dataclass(frozen=True)
class CosProduct:
    """prod_{s=1}^n (3 - 2cos(2 pi s/(2n+1))), evaluated exactly.

    Factors s and 2n+1-s are equal, so the product over s = 1..2n, the
    resultant `cos_product_resultant(2n+1)`, is the square of this one; every
    factor is at least 1, so this product is its positive square root.
    """

    def evaluate(self, n: int) -> Fraction:
        full = cos_product_resultant(2 * n + 1)
        half = math.isqrt(full)
        if half * half != full:
            raise ValueError(f"cosine product: resultant {full} is not a square at n = {n}")
        return Fraction(half)


@dataclass(frozen=True)
class Domain:
    """Integer index range, optionally restricted to even n."""

    start: int = 0
    stop: int | None = None  # inclusive
    even_only: bool = False

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"a domain starts at n >= 0, not {self.start}")

    def indices(self, lo: int, hi: int) -> list[int]:
        lo = max(lo, self.start)
        hi = hi if self.stop is None else min(hi, self.stop)
        step = 2 if self.even_only else 1
        if self.even_only and lo % 2:
            lo += 1
        return list(range(lo, hi + 1, step))

    def __str__(self) -> str:
        upper = "" if self.stop is None else str(self.stop)
        tag = ", even" if self.even_only else ""
        return f"{self.start}..{upper}{tag}"


@dataclass(frozen=True)
class Identity:
    """One verifiable statement: oracle(lhs index) == sum of terms."""

    family: str
    lhs: OracleRef
    terms: tuple
    domain: Domain = field(default_factory=Domain)
    description: str = ""
    kind: ClassVar[str] = "sum"  # no other kind; the JSON format and perfbench still read it

    @property
    def label(self) -> str:
        pname = None if self.lhs.param is None else get_oracle(self.lhs.name).param_name
        if pname is None:
            return self.family
        return f"{self.family}[{pname}={self.lhs.param}]"


@dataclass(frozen=True)
class VerificationReport:
    label: str
    checked: tuple[int, ...]
    per_n: tuple[bool, ...]
    first_divergence: int | None
    lhs_at_divergence: str | None
    rhs_at_divergence: str | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.first_divergence is None


def rhs_eval(identity: Identity, n: int) -> int:
    """Exact value of the right side at n.

    Raises if a quadratic part survives (a mis-specified weight table) or if
    the final rational is not an integer (a mis-typed coefficient).
    """
    total = Fraction(0)
    for term in identity.terms:
        total = total + term.evaluate(n)  # stays a Fraction unless a QuadValue enters
    return _integer_total(identity, n, total)


_SWEPT_TERMS = (CenteredSum, BinomialTransform, SignedRowConvolution, DiagonalSum)


def rhs_values(identity: Identity, ns) -> list[int]:
    """[rhs_eval(identity, n) for n in ns], with each term swept over all of
    ns at once instead of evaluated directly at each n.

    The surd and integrality checks still run per n, on the summed terms,
    and raise the same errors as rhs_eval.  The sweeps start from row 0, so
    a negative n raises ValueError.
    """
    ns = list(ns)
    if not ns:
        return []
    if min(ns) < 0:
        raise ValueError(f"{identity.label}: the right side is not defined at n = {min(ns)}")
    columns = [t.sweep(ns) if isinstance(t, _SWEPT_TERMS) else [t.evaluate(n) for n in ns]
               for t in identity.terms]
    return [_integer_total(identity, n, sum(values, Fraction(0)))
            for n, *values in zip(ns, *columns)]


def _integer_total(identity: Identity, n: int, total) -> int:
    if isinstance(total, QuadValue):
        # surds may cancel across terms, but any leftover is a registry typo
        if not total.is_rational:
            raise ValueError(f"{identity.label}: nonzero quadratic part {total} at n = {n}")
        total = total.a
    if total.denominator != 1:
        raise ValueError(f"{identity.label}: right side {total} is not an integer at n = {n}")
    return total.numerator


def verify(identity: Identity, n_max: int, n_min: int = 0) -> VerificationReport:
    """Compare the two sides at every admissible n in [n_min, n_max], by
    exact equality."""
    t0 = time.perf_counter()
    ns = identity.domain.indices(n_min, n_max)
    sides = zip((identity.lhs.value(n) for n in ns), rhs_values(identity, ns))
    per_n: list[bool] = []
    first = lhs_s = rhs_s = None
    for n, (lhs, rhs) in zip(ns, sides):
        ok = lhs == rhs
        per_n.append(ok)
        if not ok and first is None:
            first, lhs_s, rhs_s = n, str(lhs), str(rhs)
    return VerificationReport(
        label=identity.label,
        checked=tuple(ns),
        per_n=tuple(per_n),
        first_divergence=first,
        lhs_at_divergence=lhs_s,
        rhs_at_divergence=rhs_s,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# the built-in catalogue
# ---------------------------------------------------------------------------

def _kron_weights(m: int, scale: int = 1, alt_half_turn: bool = False) -> tuple[Fraction, ...]:
    """Period-m table scale*(r|m), optionally times (-1)^((r-1)/2) on odd r."""
    out = []
    for r in range(m):
        w = kronecker(r, m) * scale
        if alt_half_turn and r % 2 and ((r - 1) // 2) % 2:
            w = -w
        out.append(Fraction(w))
    return tuple(out)


def _single_residue(m: int, residue: int, value) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * m
    out[residue] = Fraction(value)
    return tuple(out)


def _build_registry() -> tuple[Identity, ...]:
    ids: list[Identity] = []

    def add(family, lhs, terms, domain=Domain(), description=""):
        ids.append(Identity(family, lhs, tuple(terms), domain, description))

    fifth = Fraction(1, 5)

    add("fib-even", OracleRef("fib", a=2),
        [CenteredSum(_kron_weights(5), 5)],
        description="even-index Fibonacci as the Legendre-weighted central row")
    add("fib-odd", OracleRef("fib", a=2, b=1),
        [CenteredSum(tuple(Fraction(-kronecker(r + 2, 5)) for r in range(5)), 5, row_odd=True)],
        description="odd-index Fibonacci from the shifted Legendre weights")
    add("lucas-even", OracleRef("lucas", a=2),
        [ScaledBinomial(5, "C(2n-1,n)"), Power(-1, 2, 2, -1),
         CenteredSum(_single_residue(5, 0, 5), 5)],
        domain=Domain(1),
        description="even-index Lucas from the multiples-of-five slice")
    add("lucas-odd", OracleRef("lucas", a=2, b=1),
        [Power(1, 2, 2), CenteredSum(_single_residue(5, 3, -5), 5, row_odd=True)],
        description="odd-index Lucas from one residue class of the odd row")
    add("half-row", OracleRef("halfrow"),
        [CenteredSum((Fraction(1),), 1)],
        description="the half row sum in closed form")
    add("prop1-A", OracleRef("A"),
        [Power(fifth, 2, 2), ScaledOracle(fifth, OracleRef("lucas", a=2, b=-1))],
        description="positive-weight residue classes of the Fibonacci slice")
    add("prop1-B", OracleRef("B"),
        [Power(fifth, 2, 2), ScaledOracle(-fifth, OracleRef("lucas", a=2, b=1))],
        description="negative-weight residue classes of the Fibonacci slice")
    add("prop1-C", OracleRef("C"),
        [Power(fifth, 2, 2, -1), ScaledOracle(fifth, OracleRef("lucas", a=2)),
         ScaledBinomial(-1, "C(2n-1,n)")],
        domain=Domain(1),
        description="the missing multiples-of-five terms of the Fibonacci slice")
    add("pow3", OracleRef("pow3", b=-1),
        [ScaledBinomial(1, "C(2n-1,n)"),
         CenteredSum(_single_residue(3, 0, 1), 3, sign=SIGN_ALT_J)],
        domain=Domain(1),
        description="powers of three as an alternating stride-3 slice")
    add("catalan-paths-Q", OracleRef("Q"),
        [CenteredSum((2, -1, 0, 0, 0, 0, -1), 7, center=1)],
        description="height-bounded Catalan counts from residues 0, 1, 6 mod 7")
    add("p6-paths-R", OracleRef("R"),
        [CenteredSum((2, 0, 0, -1, -1, 0, 0), 7, center=1)],
        description="6-path walk counts from residues 0, 3, 4 mod 7")
    add("qr-difference", OracleRef("A094789"),
        [CenteredSum((0, 1, 0, -1, -1, 0, 1), 7)],
        domain=Domain(1),
        description="difference of the two walk-count slices")
    add("W-even", OracleRef("W", a=2),
        [ScaledBinomial(Fraction(7, 2), "C(2n,n)"), Power(-1, 2, 2, -1),
         CenteredSum(_single_residue(7, 0, 7), 7)],
        description="even-index heptagonal Lucas analogue")
    add("W-odd", OracleRef("W", a=2, b=1),
        [CenteredSum(_single_residue(7, 4, 7), 7, row_odd=True), Power(-1, 2, 2)],
        description="odd-index heptagonal Lucas analogue")
    for m in range(2, 9):
        mm = 2 * m + 1
        add("genlucas-even", OracleRef("genlucas", param=m, a=2),
            [ScaledBinomial(Fraction(mm, 2), "C(2n,n)"), Power(-1, 2, 2, -1),
             CenteredSum(_single_residue(mm, 0, mm), mm)],
            description="even-index generalized Lucas from multiples of 2m+1")
        add("genlucas-odd", OracleRef("genlucas", param=m, a=2, b=1),
            [Power(1, 2, 2),
             CenteredSum(_single_residue(mm, m + 1, -mm), mm, row_odd=True)],
            description="odd-index generalized Lucas from one odd-row residue")
    add("pellX-alternating", OracleRef("pellX"),
        [ScaledBinomial(1, "C(2n,n)"),
         CenteredSum(_single_residue(2, 0, -1), 2, sign=SIGN_ALT_J),
         CenteredSum(_single_residue(6, 0, 3), 6, sign=SIGN_ALT_J)],
        description="x-side Pell solutions, alternating strides 2 and 6")
    add("pellX-cosine", OracleRef("pellX"),
        [ScaledBinomial(1, "C(2n,n)"),
         CenteredSum((2, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0), 12)],
        description="x-side Pell solutions with the period-12 cosine table")
    add("pellY-kronecker", OracleRef("pellY"),
        [CenteredSum(_kron_weights(12, alt_half_turn=True), 12)],
        description="y-side Pell solutions, quarter-turn signed Kronecker weights mod 12")
    add("pellY-stride6", OracleRef("pellY"),
        [CenteredSum((0, 1, 0, 0, 0, -1), 6, sign=SIGN_ALT_J)],
        description="y-side Pell solutions, alternating stride-6 pairs")
    for m in range(2, 9):
        add("scriptL-merca", OracleRef("scriptL", param=m),
            [ScaledBinomial(1, "C(2n-1,n-1)"),
             CenteredSum(_single_residue(m, 0, 1), m, sign=SIGN_ALT_J)],
            domain=Domain(1),
            description="even-denominator cosine family as an alternating stride-m slice")
    add("central-delight", OracleRef("halfcentral"),
        [Constant(1), ScaledOracle(1, OracleRef("scriptLdiag"))],
        domain=Domain(2, even_only=True),
        description="half central binomial from its own cosine power sum")
    add("kron8-pell", OracleRef("pelltrans"),
        [CenteredSum(_kron_weights(8), 8)],
        description="Kronecker mod 8 weights give the Pell binomial transform")
    add("kron9-pow4", OracleRef("pow4"),
        [Constant(1), CenteredSum(_kron_weights(9, scale=3), 9)],
        description="three times the Kronecker mod 9 slice is 4^n - 1")
    add("kron20-A094667", OracleRef("A094667"),
        [CenteredSum(_kron_weights(20), 20)],
        description="Kronecker mod 20 slice against the order-4 recurrence of A094667")
    add("kron5-alt-fib", OracleRef("fib2trans"),
        [CenteredSum(_kron_weights(5, scale=-1), 5, sign=SIGN_ALT_K)],
        description="sign-alternating Legendre slice gives the F(2k) binomial transform")
    add("kron13-alt-A216597", OracleRef("A216597"),
        [CenteredSum(_kron_weights(13), 13, sign=SIGN_ALT_K)],
        description="sign-alternating Kronecker mod 13 slice against the order-6 recurrence "
                    "of A216597")
    for t in range(1, 6):
        add("lewis-family", OracleRef("lewis", param=t),
            [CenteredSum((Fraction(1),), 1, center=1,
                         sign=SIGN_NONE if t % 2 else SIGN_ALT_NK,
                         weight_oracle=OracleRef("lucas", a=2 * t))],
            description="powers of 5 F(t)^2 from Lucas-weighted central rows")
    add("lucas1878-F", OracleRef("fibscaled"),
        [BinomialTransform(OracleRef("pow5"), stride=2, offset=1)],
        description="2^(n-1) F(n) as the odd-column row sum in powers of 5")
    add("lucas1878-L", OracleRef("lucasscaled"),
        [BinomialTransform(OracleRef("pow5"), stride=2, offset=0)],
        description="2^(n-1) L(n) as the even-column row sum in powers of 5")
    for p in range(1, 4):
        add("lucas1878-odd-power", OracleRef("fiboddpow", param=p),
            [SignedRowConvolution("fib", an=4 * p, ak=-4 * p, c=2 * p)],
            description="odd powers of F(2p) as a signed full-row Fibonacci convolution")
    add("sury-diagonal", OracleRef("lucas", a=2, b=1),
        [DiagonalSum(base=5)],
        description="odd-index Lucas as a signed shallow-diagonal sum")
    add("sury-product", OracleRef("lucas", a=2, b=1),
        [CosProduct()],
        description="odd-index Lucas as a cosine product")
    add("A094831-S", OracleRef("S"),
        [CenteredSum((2, 0, 0, -1, 0, 0, -1, 0, 0), 9, center=1)],
        description="the x^3-6x^2+9x-1 sequence from residues mod 3 and mod 9")
    return tuple(ids)


_REGISTRY: tuple[Identity, ...] = _build_registry()

FAMILIES: tuple[str, ...] = tuple(dict.fromkeys(i.family for i in _REGISTRY))


def builtin_registry() -> tuple[Identity, ...]:
    """Every built-in identity, parameterized families expanded."""
    return _REGISTRY


def find(family: str) -> list[Identity]:
    out = [i for i in _REGISTRY if i.family == family]
    if not out:
        raise KeyError(f"unknown identity {family!r}; known: {', '.join(FAMILIES)}")
    return out


def expand_terms(identity: Identity, n: int) -> list[tuple[int, int, Fraction]]:
    """Signed binomial entries C(row, col) of all centered sums at n."""
    out: list[tuple[int, int, Fraction]] = []
    for term in identity.terms:
        if isinstance(term, CenteredSum):
            out.extend(term.terms_at(n))
    return out


def folded_profile(identity: Identity) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Normalize an even-row identity to a single (center, weight table).

    Power-of-two terms fold through the full row sum 4^n = C(2n,n) +
    2*sum_{k>=1} C(2n,n+k); half-central binomials fold through
    C(2n-1,n) = C(2n,n)/2; alternating sign rules fold by doubling the
    period.  Anything else is rejected.
    """
    center = Fraction(0)
    tables: list[tuple[Fraction, ...]] = []
    for term in identity.terms:
        if isinstance(term, CenteredSum):
            if term.row_odd or term.weight_oracle is not None or term.has_surd:
                raise ValueError("not a foldable centered sum")
            if term.sign == SIGN_ALT_NK:
                raise ValueError("n-dependent signs cannot be folded")
            tables.append(term.signed_table())
            center += term.center
        elif isinstance(term, ScaledBinomial):
            if term.which == "C(2n,n)":
                center += term.coeff
            elif term.which in ("C(2n-1,n)", "C(2n-1,n-1)"):
                center += term.coeff / 2
            else:
                raise ValueError(f"cannot fold {term.which}")
        elif isinstance(term, Power):
            if term.base != 2 or term.ea != 2:
                raise ValueError("only powers 2^(2n+e) fold through the row sum")
            c = term.coeff * Fraction(2) ** term.eb
            center += c
            tables.append((2 * c,))
        else:
            raise ValueError(f"cannot fold a {type(term).__name__} term")
    period = math.lcm(*(len(t) for t in tables))
    weights = tuple(sum((t[r % len(t)] for t in tables), Fraction(0)) for r in range(period))
    return center, weights


# ---------------------------------------------------------------------------
# JSON interchange format
# ---------------------------------------------------------------------------

def _oracle_json(ref: OracleRef, var: str) -> dict:
    """A sequence reference, its index written in the running variable var."""
    return {"sequence": ref.name, "param": ref.param, "index": ref.index_str(var)}


def _term_json(term) -> dict:
    if isinstance(term, CenteredSum):
        return {
            "kind": "centered-sum",
            "row": "2n+1" if term.row_odd else "2n",
            "center": str(term.center),
            "period": term.period,
            "weights": [str(w) for w in term.weights],
            "sign": term.sign,
            "weight_oracle": None if term.weight_oracle is None else _oracle_json(
                term.weight_oracle, "k"),
        }
    if isinstance(term, ScaledBinomial):
        return {"kind": "scaled-binomial", "coeff": str(term.coeff), "which": term.which}
    if isinstance(term, Power):
        return {"kind": "power", "coeff": str(term.coeff), "base": term.base,
                "exponent": _affine_str(term.ea, term.eb, "n")}
    if isinstance(term, Constant):
        return {"kind": "constant", "value": str(term.value)}
    if isinstance(term, ScaledOracle):
        return {"kind": "scaled-oracle", "coeff": str(term.coeff),
                **_oracle_json(term.oracle, "n")}
    if isinstance(term, BinomialTransform):
        return {"kind": "binomial-transform", "stride": term.stride, "offset": term.offset,
                **_oracle_json(term.oracle, "j")}
    if isinstance(term, SignedRowConvolution):
        k_part = _affine_str(term.ak, term.c, "k")
        return {"kind": "signed-row-convolution", "sequence": term.oracle_name, "param": None,
                "index": _affine_str(term.an, 0, "n") + ("+" if term.ak > 0 else "") + k_part}
    if isinstance(term, DiagonalSum):
        return {"kind": "diagonal-sum", "base": term.base}
    if isinstance(term, CosProduct):
        return {"kind": "cos-product"}
    raise TypeError(f"unknown term {term!r}")


def identity_json(identity: Identity) -> dict:
    """One identity in the documented interchange format.

    Weights are decimal strings of the form "a", "a+b√d" so arbitrary
    precision survives the round trip.
    """
    return {
        "id": identity.family,
        "param": identity.lhs.param,
        "kind": identity.kind,
        "description": identity.description,
        "domain": {"start": identity.domain.start, "stop": identity.domain.stop,
                   "even_only": identity.domain.even_only},
        "lhs": _oracle_json(identity.lhs, "n"),
        "terms": [_term_json(t) for t in identity.terms],
    }


def registry_json() -> dict:
    return {"identities": [identity_json(i) for i in builtin_registry()]}


def perturbed(identity: Identity, residue: int, new_weight) -> Identity:
    """Copy of a one-sum identity with one weight flipped (test helper)."""
    cs = next(t for t in identity.terms if isinstance(t, CenteredSum))
    weights = list(cs.weights)
    weights[residue] = Fraction(new_weight)
    new_cs = replace(cs, weights=tuple(weights))
    terms = tuple(new_cs if t is cs else t for t in identity.terms)
    return replace(identity, terms=terms)
