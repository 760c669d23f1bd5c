"""Direct references for the right sides of binsums identities, in Fraction
arithmetic and one n at a time.

The package evaluates every term by one `values(ns)` route that steps a
kernel (core.class_sums, core.half_row_steps, core.row_steps,
core.diagonal_steps) or a closed rule across all n at once.  These are
the slow routes the tests hold those values to: each centered-sum summand
as its own binomial, times its weight oracle read at that k and not
stepped by a recurrence, each row sum term by term in math.comb, and a
row convolution at large n also over one window of its oracle and the
alternating Pascal triangle.  Nothing here reads a kernel.
"""
from fractions import Fraction
from math import comb, gcd

from binsums.identities import (
    SIGN_ALT_J,
    SIGN_ALT_K,
    SIGN_ALT_NK,
    BinomialTransform,
    CenteredSum,
    Constant,
    CosProduct,
    DiagonalSum,
    Power,
    ScaledBinomial,
    ScaledOracle,
    SignedRowConvolution,
)
from binsums.sequences import seq_eval, seq_values


def binomial(n: int, k: int) -> int:
    """C(n, k), 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    return comb(n, k) if 0 <= k <= n else 0


def sign_at(term: CenteredSum, n: int, k: int) -> int:
    """The sign rule of a centered sum at summand k of row n."""
    if term.sign == SIGN_ALT_K:
        return -1 if k % 2 else 1
    if term.sign == SIGN_ALT_J:
        return -1 if (k // term.period) % 2 else 1
    if term.sign == SIGN_ALT_NK:
        return -1 if (n + k) % 2 else 1
    return 1


def terms_at(term: CenteredSum, n: int) -> list[tuple[int, int, Fraction]]:
    """The nonzero (row, column, coefficient) entries of the sum at n for
    k >= 1, in k order, each coefficient carrying its weight, its sign and
    the weight oracle's factor."""
    row = 2 * n + 1 if term.row_odd else 2 * n
    k_max = n + 1 if term.row_odd else n
    out = []
    for k in range(1, k_max + 1):
        w = term.weights[k % term.period] * sign_at(term, n, k)
        if w and term.weight_oracle is not None:
            w *= term.weight_oracle.value(k)
        if w:
            out.append((row, n + k, w))
    return out


def centered_sum(term: CenteredSum, n: int) -> Fraction:
    """The center entry plus one binomial for each entry of terms_at(n)."""
    row = 2 * n + 1 if term.row_odd else 2 * n
    middle = term.center * sign_at(term, n, 0) * binomial(row, n)
    return sum((w * binomial(r, c) for r, c, w in terms_at(term, n)), middle)


def binomial_transform(term: BinomialTransform, n: int) -> Fraction:
    """sum_{j >= 0} C(n, stride*j + offset) * oracle(j), term by term."""
    total = Fraction(0)
    j = 0
    while term.stride * j + term.offset <= n:
        c = binomial(n, term.stride * j + term.offset)
        if c:
            total += c * term.oracle.value(j)
        j += 1
    return total


def signed_row_convolution(term: SignedRowConvolution, n: int) -> Fraction:
    """sum_{k=0}^{2n+1} (-1)^k C(2n+1, k) oracle(an*n + ak*k + c), term by term."""
    row = 2 * n + 1
    total = Fraction(0)
    for k in range(row + 1):
        sign = -1 if k % 2 else 1
        total += sign * binomial(row, k) * seq_eval(term.oracle_name,
                                                    term.an * n + term.ak * k + term.c)
    return total


def signed_row_convolution_window(term: SignedRowConvolution, ns: list[int]) -> list[int]:
    """The convolution at every n of ns from one window of the oracle and
    the alternating Pascal triangle over it, for n where the term-by-term
    route is too slow.

    Every index lies on the lattice c + g*Z, g = gcd(an, ak), so the oracle
    is read once over one window w of it, reversed when the k step is
    negative so that the step runs up the window.  Row m of the triangle is
    sum_i (-1)^i C(m, i) w(x + q*i), q = |ak| / g, each row from the last by
    one subtraction per entry, and the value at n is entry x_n of row
    2n+1, x_n the place of n's k = 0 summand in w.  Nothing is stepped by a
    recurrence.
    """
    g = gcd(term.an, term.ak)
    t, s = term.an // g, term.ak // g
    first, last = min(ns), max(ns)
    # every summand of an n with first <= n <= last lies between the lowest
    # and the highest of those at n = first and n = last
    ends = (t * first, t * first + s * (2 * first + 1), t * last, t * last + s * (2 * last + 1))
    lo, hi = min(ends), max(ends)
    row = seq_values(term.oracle_name, [term.c + g * x for x in range(lo, hi + 1)])
    if s < 0:
        row.reverse()
    q, at = abs(s), {}
    for m in range(2 * last + 2):
        if m % 2 and m // 2 >= first:
            at[m // 2] = row[t * (m // 2) - lo if s > 0 else hi - t * (m // 2)]
        row = [a - b for a, b in zip(row, row[q:])]
    return [at[n] for n in ns]


def diagonal_sum(term: DiagonalSum, n: int) -> Fraction:
    """The diagonal sum written out term by term in math.comb."""
    return Fraction(sum((-1) ** r * comb(2 * n - r, r) * term.base ** (n - r)
                        for r in range(n + 1)))


_SHAPES = {"C(2n,n)": lambda n: binomial(2 * n, n),
           "C(2n-1,n)": lambda n: binomial(2 * n - 1, n),
           "C(2n-1,n-1)": lambda n: binomial(2 * n - 1, n - 1)}


def term_at(term, n: int) -> Fraction:
    """One term at one n.  The cosine product has no direct route cheap
    enough for every n; its reference is the group-ring product of
    tests/cyclo_reference.py, held to it in test_identities.py."""
    if isinstance(term, CenteredSum):
        return centered_sum(term, n)
    if isinstance(term, BinomialTransform):
        return binomial_transform(term, n)
    if isinstance(term, SignedRowConvolution):
        return signed_row_convolution(term, n)
    if isinstance(term, DiagonalSum):
        return diagonal_sum(term, n)
    if isinstance(term, ScaledBinomial):
        return term.coeff * _SHAPES[term.which](n)
    if isinstance(term, Power):
        return term.coeff * Fraction(term.base) ** (term.ea * n + term.eb)
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, ScaledOracle):
        return term.coeff * term.oracle.value(n)
    if isinstance(term, CosProduct):
        return Fraction(term.values([n])[0])
    raise TypeError(f"unknown term {term!r}")


def rhs_eval(identity, n: int) -> int:
    """Exact value of the right side at n, raising as rhs_values does when
    the total is not an integer."""
    total = sum((term_at(t, n) for t in identity.terms), Fraction(0))
    if total.denominator != 1:
        raise ValueError(f"{identity.label}: right side {total} is not an integer at n = {n}")
    return total.numerator
