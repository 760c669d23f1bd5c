"""Declarative catalogue of periodic weighted binomial-sum identities.

An Identity pairs a ground-truth oracle (its left side) with a list of sum
terms (its right side).  Every centered sum is kept in one canonical shape,

    center * C(row, n) + sum_{k >= 1} C(row, n+k) * w(k mod M) * sign(n, k),

optionally carrying an extra oracle-valued factor per summand.  The
center and the weights are rationals and every value is exact, so a
verification failure is a genuine counterexample, never round-off.
Every term has one route to its values, `values(ns)`, a list for all the n
`verify` checks, in ints wherever the term's coefficients are integral, and
writes its own JSON object, `json()`.  A centered sum reads core.class_sums,
or core.half_row_steps with a weight oracle, scales its table and center by
D, the lcm of their denominators, and divides by D once per n.
A binomial transform and a row convolution read core.row_steps along their
oracle's recurrence, the diagonal sum core.diagonal_steps, and the cosine
product cyclo.cos_product_resultants.  Each oracle a side reads comes from
one bulk read, sequences.seq_values (OracleRef.read for an index a*n + b);
rhs_values sums the terms' columns in one pass and checks that the totals
are integers once per batch.  The tests hold every term to a direct
reference: tests/identities_reference.py and tests/cyclo_reference.py.
"""
from __future__ import annotations

import math
import numbers
import operator
import time
from fractions import Fraction
from itertools import accumulate, islice

from .core import (Frozen, RecurrenceSpec, _flag, _integer, class_sums, diagonal_steps,
                   half_row_steps, kronecker, row_steps)
from .cyclo import cos_product_resultants
from .sequences import get_oracle, seq_values

SIGN_NONE = "none"
SIGN_ALT_K = "(-1)^k"
SIGN_ALT_J = "(-1)^j"
SIGN_ALT_NK = "(-1)^(n-k)"

_SIGNS = (SIGN_NONE, SIGN_ALT_K, SIGN_ALT_J, SIGN_ALT_NK)


def _affine_str(slopes: dict[str, int], b: int) -> str:
    """The sum of a*var over the slopes, plus b, as written in the JSON
    format: "n", "-n", "2n", "3k-1", "4n-4k+2"; a zero slope is left out,
    so with every slope 0 only b is written, as in "3"."""
    out = ""
    for var, a in slopes.items():
        if a:
            out += ("+" if out and a > 0 else "") + {1: var, -1: f"-{var}"}.get(a, f"{a}{var}")
    if b or not out:
        out += ("+" if out and b > 0 else "") + str(b)
    return out


def _rational(x) -> Fraction:
    """A term's coefficient as a Fraction: ints and Fractions only, so no
    float, string or complex can stand in for an exact value."""
    if not isinstance(x, numbers.Rational):
        raise TypeError(f"a coefficient must be an int or a Fraction, not {x!r}")
    return Fraction(x)


def _exact(q: int | Fraction) -> int | Fraction:
    """q as an int when it is integral, else as it is."""
    return q.numerator if q.denominator == 1 else q


def _max_n(ns: list[int]) -> int:
    """max(ns), or -1 for no ns, once no n in ns is negative: a list of the
    values at n = 0..max(ns) indexed by a negative n would read from its end."""
    if (low := min(ns, default=0)) < 0:
        raise ValueError(f"a term is not defined at n = {low}; its sum starts at n = 0")
    return max(ns, default=-1)


def _pick(values, ns: list[int]) -> list:
    """[v_n for n in ns] from the iterator values of v_0, v_1, ..., read
    once up to v_max(ns); a negative n raises ValueError."""
    read = list(islice(values, _max_n(ns) + 1))
    return [read[n] for n in ns]


class OracleRef(Frozen):
    """A sequence evaluated along an affine index a*v + b of the running
    variable (n for identity sides, k or j inside sum terms)."""

    def __init__(self, name: str, param: int | None = None, a: int = 1, b: int = 0) -> None:
        _integer(a, b)
        if param is not None:
            _integer(param)
        self._set(name=name, param=param, a=a, b=b)

    def read(self, ns: list[int] | range) -> list[int]:
        """The sequence at a*n + b for each n of ns, in one seq_values read."""
        return seq_values(self.name, [self.a * n + self.b for n in ns], self.param)

    def value(self, v: int) -> int:
        return self.read([v])[0]

    def index_str(self, var: str = "n") -> str:
        return _affine_str({var: self.a}, self.b)


def _oracle_json(ref: OracleRef, var: str) -> dict:
    """A sequence reference, its index written in the running variable var."""
    return {"sequence": ref.name, "param": ref.param, "index": ref.index_str(var)}


def _refuse_unsteppable(ref: OracleRef, var: str, what: str, by: str, backward=True,
                        first: int | None = None) -> None:
    """Refuse a `what` oracle no `by` can step: it has no recurrence, a backward step
    divides by its last coefficient 0, or its index in var has a < 1 or no value at first."""
    spec = get_oracle(ref.name).spec(ref.param)
    why = ("it has no recurrence" if spec is None else
           "its recurrence's last coefficient is 0" if backward and not spec.coeffs[-1] else
           f"its index {ref.index_str(var)} needs a >= 1" if ref.a < 1 else
           f"its index {ref.index_str(var)} has no value at {var} = {first}"
           if first is not None and get_oracle(ref.name).domain(ref.a, ref.b)[0] > first else None)
    if why:
        raise ValueError(f"{what} oracle {ref.name}: {why}, so no {by} can step it")


class CenteredSum(Frozen):
    """Periodic weighted slice of a centered binomial row; a weight oracle,
    affine in k, is an extra factor of each summand."""

    def __init__(self, weights: tuple, period: int, row_odd: bool = False,
                 center: Fraction = Fraction(0), sign: str = SIGN_NONE,
                 weight_oracle: OracleRef | None = None) -> None:
        _integer(period)
        _flag(row_odd)
        if period < 1:
            raise ValueError(f"a weight table needs period >= 1, not {period}")
        if len(weights) != period:
            raise ValueError("weight table must have exactly `period` entries")
        if sign not in _SIGNS:
            raise ValueError(f"unknown sign rule {sign!r}")
        center, weights = _rational(center), tuple(map(_rational, weights))
        if weight_oracle is not None:  # values steps it by its recurrence from k = 1
            _refuse_unsteppable(weight_oracle, "k", "weight", "sum", first=1)
        self._set(weights=weights, period=period, row_odd=row_odd, center=center, sign=sign,
                  weight_oracle=weight_oracle)

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

    def json(self) -> dict:
        return {"kind": "centered-sum", "row": "2n+1" if self.row_odd else "2n",
                "center": str(self.center), "period": self.period,
                "weights": [str(w) for w in self.weights], "sign": self.sign,
                "weight_oracle": self.weight_oracle and _oracle_json(self.weight_oracle, "k")}

    def values(self, ns: list[int]) -> list:
        """The sum at every n in ns, in one list pass over n = 0..max(ns).

        The class sums of core.class_sums meet the scaled table T in one dot
        product; with a weight g, T(k) g(k) has g's recurrence dilated by T's
        period P, at lags P, 2P, ..., and core.half_row_steps sums it.  The
        (-1)^n of (-1)^(n-k) negates the odd n by slice, and only the totals
        read at ns are divided by D, unless D is 1.
        """
        # D, the lcm of the center's and the table's denominators, makes both integral
        table = self.signed_table()
        d, top = math.lcm(*(q.denominator for q in (self.center, *table))), _max_n(ns) + 1
        table, center = [(w * d).numerator for w in table], (self.center * d).numerator
        if self.weight_oracle is None:
            totals = [center * middle + sum(map(operator.mul, table, sums))
                      for middle, sums in islice(class_sums(len(table), self.row_odd), top)]
        else:
            ref, p = self.weight_oracle, len(table)
            g = get_oracle(ref.name).dilate(ref.param, ref.a * p, ref.a + ref.b)
            coeffs = [c if j == p - 1 else 0 for c in g.coeffs for j in range(p)]  # lags p, 2p, ...
            seeds = [table[k % p] * v
                     for k, v in enumerate(ref.read(range(1, len(coeffs) + 1)), 1)]
            rows = half_row_steps(RecurrenceSpec(g.name, coeffs, seeds), self.row_odd)
            totals = [center * middle + s for middle, s in islice(rows, top)]
        if self.sign == SIGN_ALT_NK:
            totals[1::2] = [-v for v in totals[1::2]]
        return [totals[n] for n in ns] if d == 1 else [Fraction(totals[n], d) for n in ns]


class ScaledBinomial(Frozen):
    """coeff * C(...) for one of the three fixed column shapes, each C(2n, n)
    over a divisor from its first n."""

    _SHAPES = {"C(2n,n)": (1, 0), "C(2n-1,n)": (2, 1), "C(2n-1,n-1)": (2, 1)}

    def __init__(self, coeff: Fraction, which: str) -> None:
        if which not in self._SHAPES:
            raise ValueError(f"unknown binomial shape {which!r}")
        self._set(coeff=_rational(coeff), which=which)

    def json(self) -> dict:
        return {"kind": "scaled-binomial", "coeff": str(self.coeff), "which": self.which}

    def values(self, ns: list[int]) -> list:
        """C(2n, n) stepped by one exact ratio per n, times coeff over the
        divisor: an int wherever that is integral."""
        divisor, first = self._SHAPES[self.which]
        if (low := min(ns, default=first)) < first:
            raise ValueError(f"{self.which} is not defined at n = {low}")
        central = [*accumulate(range(_max_n(ns)), lambda c, n: c * (4 * n + 2) // (n + 1), initial=1)]
        p, d = self.coeff.numerator, self.coeff.denominator * divisor
        return [v // d if (v := p * central[n]) % d == 0 else Fraction(v, d) for n in ns]


class Power(Frozen):
    """coeff * base^(ea*n + eb); negative exponents give exact rationals."""

    def __init__(self, coeff: Fraction, base: int, ea: int, eb: int = 0) -> None:
        coeff = _rational(coeff)
        _integer(base, ea, eb)
        if base == 0 and (ea < 0 or eb < 0):
            raise ValueError(f"a power of base 0 needs an exponent that is never negative, "
                             f"not {_affine_str({'n': ea}, eb)}")
        self._set(coeff=coeff, base=base, ea=ea, eb=eb)

    def json(self) -> dict:
        return {"kind": "power", "coeff": str(self.coeff), "base": self.base,
                "exponent": _affine_str({"n": self.ea}, self.eb)}

    def values(self, ns: list[int]) -> list:
        coeff, base = _exact(self.coeff), self.base
        return [coeff * base ** e if (e := self.ea * n + self.eb) >= 0
                else self.coeff * Fraction(base) ** e for n in ns]


class Constant(Frozen):
    def __init__(self, value: Fraction) -> None:
        self._set(value=_rational(value))

    def json(self) -> dict:
        return {"kind": "constant", "value": str(self.value)}

    def values(self, ns: list[int]) -> list:
        return [_exact(self.value)] * len(ns)


class ScaledOracle(Frozen):
    """coeff * oracle(a*n + b): lets a right side cite another sequence."""

    def __init__(self, coeff: Fraction, oracle: OracleRef) -> None:
        self._set(coeff=_rational(coeff), oracle=oracle)

    def json(self) -> dict:
        return {"kind": "scaled-oracle", "coeff": str(self.coeff), **_oracle_json(self.oracle, "n")}

    def values(self, ns: list[int]) -> list:
        coeff = _exact(self.coeff)
        return [coeff * v for v in self.oracle.read(ns)]


class BinomialTransform(Frozen):
    """sum_{j >= 0} C(n, stride*j + offset) * oracle(j), the oracle a
    recurrence read at an index a*j + b with a >= 1."""

    def __init__(self, oracle: OracleRef, stride: int = 1, offset: int = 0) -> None:
        _integer(stride, offset)
        if stride < 1 or offset < 0:
            raise ValueError(f"a binomial transform needs stride >= 1 and offset >= 0, "
                             f"not {stride} and {offset}")
        _refuse_unsteppable(oracle, "j", "binomial transform", "row", backward=False)
        self._set(oracle=oracle, stride=stride, offset=offset)

    def json(self) -> dict:
        return {"kind": "binomial-transform", "stride": self.stride, "offset": self.offset,
                **_oracle_json(self.oracle, "j")}

    def values(self, ns: list[int]) -> list[int]:
        """The transform at every n in ns, ((1 + E)^n v)(0) by core.row_steps: v is
        u, the oracle dilated to its index, of order d, on the columns offset +
        stride*j and 0 elsewhere, a recurrence at lags stride, 2*stride, ... of
        order stride*(d + offset//stride), so that its seeds hold every column
        the lags miss.  Its last coefficient may be 0: the row steps forward only."""
        if _max_n(ns) < self.offset:  # no row reaches a placed column
            return [0] * len(ns)
        ref, step = self.oracle, self.stride
        u = get_oracle(ref.name).dilate(ref.param, ref.a, ref.b)
        d, q = len(u.coeffs), self.offset // step
        coeffs, seeds = [0] * (step * (d + q)), [0] * (step * (d + q))
        coeffs[step - 1:step * d:step], seeds[self.offset::step] = u.coeffs, u.seeds
        return _pick(row_steps(RecurrenceSpec(u.name, coeffs, seeds), 1, 1, 1, 0, 0, 0), ns)


class SignedRowConvolution(Frozen):
    """sum_{k=0}^{2n+1} (-1)^k C(2n+1, k) * oracle(an*n + ak*k + c), the oracle a recurrence
    with a nonzero last coefficient, and a backward rule where an index runs negative."""

    def __init__(self, oracle_name: str, an: int, ak: int, c: int = 0) -> None:
        _integer(an, ak, c)
        _refuse_unsteppable(OracleRef(oracle_name), "k", "row convolution", "row")
        self._set(oracle_name=oracle_name, an=an, ak=ak, c=c)

    def json(self) -> dict:
        return {"kind": "signed-row-convolution", "sequence": self.oracle_name, "param": None,
                "index": _affine_str({"n": self.an, "k": self.ak}, self.c)}

    def values(self, ns: list[int]) -> list[int]:
        """The convolution at every n in ns, by core.row_steps with Q = 1 - E^s:
        row 2n+1 of Q at an/g*n - low, g = gcd(an, ak) and s = ak/g, of u(x), the
        oracle dilated to c + g*(low + x), low the lowest position on the lattice
        c + g*Z the direct sum reads over ns, so that no step reads below u(0)."""
        # no n, or every summand reads g(an*n + c) and sum_k (-1)^k C(2n+1, k) = 0
        if not (self.ak and ns):
            _max_n(ns)  # a negative n is refused here too
            return [0 * v for v in seq_values(self.oracle_name, [self.an * n + self.c for n in ns])]
        g, first, last = math.gcd(self.an, self.ak), min(ns), _max_n(ns)
        t, s = self.an // g, self.ak // g
        # each summand of first..last lies above the lowest at n = first or last
        low = min(t * first, t * first + s * (2 * first + 1), t * last, t * last + s * (2 * last + 1))
        u = get_oracle(self.oracle_name).dilate(None, g, self.c + g * low)
        return _pick(row_steps(u, s, -1, 2, t, t * first - low, 2 * first + 1),
                     [n - first for n in ns])


class DiagonalSum(Frozen):
    """sum_{r=0}^n (-1)^r C(2n-r, r) * base^(n-r)."""

    def __init__(self, base: int = 5) -> None:
        _integer(base)
        self._set(base=base)

    def json(self) -> dict:
        return {"kind": "diagonal-sum", "base": self.base}

    def values(self, ns: list[int]) -> list[int]:
        """The sum at every n in ns, from one run of core.diagonal_steps up
        to max(ns)."""
        return _pick(diagonal_steps(self.base), ns)


class CosProduct(Frozen):
    """prod_{s=1}^n (3 - 2cos(2 pi s/(2n+1))), evaluated exactly.

    Factors s and 2n+1-s are equal, so the product over s = 1..2n, the
    resultant that `cos_product_resultants` steps to at n, is the square of
    this one; every factor is at least 1, so this product is its positive
    square root.
    """

    def json(self) -> dict:
        return {"kind": "cos-product"}

    def values(self, ns: list[int]) -> list[int]:
        """The product at every n in ns, from one run of the stepped
        resultants up to max(ns)."""
        out = []
        for n, full in zip(ns, _pick(cos_product_resultants(), ns)):
            half = math.isqrt(full)
            if half * half != full:
                raise ValueError(f"cosine product: resultant {full} is not a square at n = {n}")
            out.append(half)
        return out


class Domain(Frozen):
    """Integer index range, its stop inclusive, optionally restricted to even n."""

    def __init__(self, start: int = 0, stop: int | None = None, even_only: bool = False) -> None:
        _integer(start)
        _flag(even_only)
        if start < 0:
            raise ValueError(f"a domain starts at n >= 0, not {start}")
        if stop is not None:
            _integer(stop)
        if stop is not None and stop < start:
            raise ValueError(f"a domain cannot stop at {stop}, before its start {start}")
        self._set(start=start, stop=stop, even_only=even_only)

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


class Identity(Frozen):
    """One verifiable statement: oracle(lhs index) == sum of terms."""

    kind = "sum"  # no other kind; the JSON format and perfbench still read it

    # one Domain() is every default domain, which is safe since no Domain changes
    def __init__(self, family: str, lhs: OracleRef, terms: tuple, domain: Domain = Domain(),
                 description: str = "") -> None:
        self._set(family=family, lhs=lhs, terms=tuple(terms), domain=domain,
                  description=description)

    @property
    def label(self) -> str:
        pname = None if self.lhs.param is None else get_oracle(self.lhs.name).param_name
        if pname is None:
            return self.family
        return f"{self.family}[{pname}={self.lhs.param}]"

    def indices(self, n_min: int, n_max: int) -> list[int]:
        """The n of the domain in n_min..n_max.  None raises ValueError: a
        report that checked nothing would read as a pass."""
        ns = self.domain.indices(n_min, n_max)
        if not ns:
            raise ValueError(f"{self.label}: its domain {self.domain} "
                             f"admits no n in {n_min}..{n_max}")
        return ns


class VerificationReport(Frozen):
    def __init__(self, label: str, checked: tuple[int, ...], first_divergence: int | None,
                 lhs_at_divergence: str | None, rhs_at_divergence: str | None,
                 elapsed: float) -> None:
        self._set(label=label, checked=checked, first_divergence=first_divergence,
                  lhs_at_divergence=lhs_at_divergence, rhs_at_divergence=rhs_at_divergence,
                  elapsed=elapsed)

    @property
    def passed(self) -> bool:
        return self.first_divergence is None


def rhs_values(identity: Identity, ns) -> list[int]:
    """The right side at every n in ns: each term's values(ns), summed per n
    in one pass over the columns, a single column passing straight through.

    A total that is not an integer (a mis-typed coefficient) raises at the
    first such n; the check runs per n only when some total is not an int.
    The kernels start from row 0, so a negative n raises ValueError.
    """
    ns = list(ns)
    if not ns:
        return []
    if min(ns) < 0:
        raise ValueError(f"{identity.label}: the right side is not defined at n = {min(ns)}")
    cols = [t.values(ns) for t in identity.terms] or [[0] * len(ns)]
    totals = cols[0] if len(cols) == 1 else list(map(sum, zip(*cols)))
    if all(type(v) is int for v in totals):
        return totals
    for n, total in zip(ns, totals):
        if total.denominator != 1:
            raise ValueError(f"{identity.label}: right side {total} is not an integer at n = {n}")
    return [total.numerator for total in totals]


def verify(identity: Identity, n_max: int, n_min: int = 0) -> VerificationReport:
    """Compare the two sides at every n of `identity.indices(n_min, n_max)`,
    by exact equality, and keep the first mismatch.  The left side is read
    at every n, past a mismatch too.
    """
    t0 = time.perf_counter()
    ns = identity.indices(n_min, n_max)
    rhs = rhs_values(identity, ns)
    first = lhs_s = rhs_s = None
    for n, left, right in zip(ns, identity.lhs.read(ns), rhs):
        if left != right:
            first, lhs_s, rhs_s = n, str(left), str(right)
            break
    return VerificationReport(identity.label, tuple(ns), first, lhs_s, rhs_s,
                              time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# the built-in catalogue
# ---------------------------------------------------------------------------

def _kron_weights(m: int, scale: int = 1, alt_half_turn: bool = False) -> tuple[Fraction, ...]:
    """Period-m table scale*(r|m), optionally times (-1)^((r-1)/2) on odd r."""
    return tuple(Fraction(kronecker(r, m) * (-scale if alt_half_turn and r % 4 == 3 else scale))
                 for r in range(m))


def _single_residue(m: int, residue: int, value) -> tuple[Fraction, ...]:
    return tuple(Fraction(value if r == residue else 0) for r in range(m))


def _build_registry() -> tuple[Identity, ...]:
    ids: list[Identity] = []

    def add(family, lhs, terms, domain=Domain(), description=""):
        ids.append(Identity(family, lhs, terms, domain, description))

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
    """The built-in identities of one family, in catalogue order."""
    out = [i for i in _REGISTRY if i.family == family]
    if not out:
        raise KeyError(f"unknown identity {family!r}; known: {', '.join(FAMILIES)}")
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
            if term.row_odd or term.weight_oracle is not None:
                raise ValueError("not a foldable centered sum")
            if term.sign == SIGN_ALT_NK:
                raise ValueError("n-dependent signs cannot be folded")
            tables.append(term.signed_table())
            center += term.center
        elif isinstance(term, ScaledBinomial):
            # C(2n-1,n) and C(2n-1,n-1) are both C(2n,n)/2
            center += term.coeff if term.which == "C(2n,n)" else term.coeff / 2
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

def identity_json(identity: Identity) -> dict:
    """One identity in the documented interchange format.

    Weights, centers and coefficients are exact rationals written as
    strings, "a" or "a/b", so arbitrary precision survives the round trip.
    """
    return {
        "id": identity.family,
        "param": identity.lhs.param,
        "kind": identity.kind,
        "description": identity.description,
        "domain": dict(vars(identity.domain)),
        "lhs": _oracle_json(identity.lhs, "n"),
        "terms": [t.json() for t in identity.terms],
    }


def registry_json() -> dict:
    return {"identities": [identity_json(i) for i in builtin_registry()]}


def perturbed(identity: Identity, residue: int, new_weight) -> Identity:
    """Copy of a one-sum identity with one weight flipped (test helper)."""
    cs = next(t for t in identity.terms if isinstance(t, CenteredSum))
    weights = list(cs.weights)
    weights[residue] = new_weight
    new_cs = CenteredSum(tuple(weights), cs.period, cs.row_odd, cs.center, cs.sign,
                         cs.weight_oracle)
    terms = tuple(new_cs if t is cs else t for t in identity.terms)
    return Identity(identity.family, identity.lhs, terms, identity.domain, identity.description)
