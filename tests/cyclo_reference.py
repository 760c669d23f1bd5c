"""Slow, list-based references for the cosine values behind binsums.cyclo.

An element of the group ring Z[z]/(z^N - 1) is a length-N list of integers,
and z^a + z^-a stands for 2cos(2*pi*a/N) at z = e^(2*pi*i/N).  A value is
read back by reducing modulo the N-th cyclotomic polynomial Phi_N, which is
built by dividing z^N - 1 by every Phi_d with d a proper divisor of N.  The
cosine power vector places each binomial coefficient of (z^e + z^-e)^power
directly, as the independent oracle of core.class_sums.  The per-m
remainder loop of the cosine product is the reference of the stepped
cyclo.cos_product_resultants.  None of this shares code with the package.
"""
from functools import cache


def scalar(n: int, c: int) -> list[int]:
    return [c] + [0] * (n - 1)


def monomial(n: int, j: int, c: int = 1) -> list[int]:
    v = [0] * n
    v[j % n] += c
    return v


def two_cos(n: int, a: int) -> list[int]:
    """z^a + z^-a, the exact stand-in for 2cos(2*pi*a/n)."""
    v = [0] * n
    v[a % n] += 1
    v[-a % n] += 1
    return v


def add(x: list[int], y: list[int]) -> list[int]:
    return [a + b for a, b in zip(x, y, strict=True)]


def sub(x: list[int], y: list[int]) -> list[int]:
    return [a - b for a, b in zip(x, y, strict=True)]


def mul(x: list[int], y: list[int]) -> list[int]:
    """x * y mod z^N - 1."""
    n = len(x)
    assert len(y) == n
    out = [0] * n
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[(i + j) % n] += a * b
    return out


def divmod_monic(p: list[int], d: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder (ascending, remainder of length deg d) of p by
    the monic d, by schoolbook long division."""
    assert d[-1] == 1
    deg = len(d) - 1
    rem = list(p) + [0] * max(0, deg - len(p))
    q = [0] * max(1, len(rem) - deg)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            q[i - deg] = c
            for j, b in enumerate(d):
                rem[i - deg + j] -= c * b
    return q, rem[:deg]


@cache
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    p = [-1] + [0] * (n - 1) + [1]  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            p, rem = divmod_monic(p, list(cyclotomic(d)))
            assert not any(rem)
    return tuple(p)


def reduce(v: list[int]) -> tuple[int, ...]:
    """v at z = e^(2*pi*i/N), in the power basis of Z[zeta_N]: two elements
    stand for the same complex number iff these agree."""
    return tuple(divmod_monic(v, list(cyclotomic(len(v))))[1])


def as_integer(v: list[int]) -> int:
    """The rational integer v evaluates to, or ValueError if it is not one."""
    c = reduce(v)
    if any(c[1:]):
        raise ValueError("element does not evaluate to a rational integer")
    return c[0]


def chebyshev_by_recurrence(m: int) -> tuple[int, ...]:
    """D_m from D_0 = 2, D_1 = x and D_(k+1) = x*D_k - D_(k-1)."""
    prev, cur = [2], [0, 1]
    for _ in range(m - 1):
        shifted = [0] + cur
        padded = prev + [0] * (len(shifted) - len(prev))
        prev, cur = cur, [s - p for s, p in zip(shifted, padded)]
    return tuple(cur)


def cos_power_vector(n_mod: int, e: int, power: int) -> tuple[int, ...]:
    """(z^e + z^(-e))^power reduced mod z^n_mod - 1, as its coefficients.

    Entry j collects the binomial coefficients C(power, i) of every i whose
    exponent e*(2i - power) lands on residue j, which is the exact vector
    form of the cosine power expansion; each C(power, i) is placed directly.
    """
    if n_mod < 1:
        raise ValueError("modulus must be >= 1")
    if power < 0:
        raise ValueError("negative powers are not defined here")
    out = [0] * n_mod
    c = 1  # C(power, 0), stepped multiplicatively
    for i in range(power + 1):
        out[(e * (2 * i - power)) % n_mod] += c
        c = c * (power - i) // (i + 1)
    return tuple(out)


def fold_class_sums(n_mod: int, e: int, odd: bool, middle: int, sums: list[int]) -> list[int]:
    """The class sums of row 2n (or 2n+1) from core.class_sums placed on the
    exponents of (z^e + z^-e)^row mod z^n_mod - 1: class r of k >= 1 goes to
    +-2er on row 2n, whose center goes to 0, and to +-e(2r-1) on row 2n+1,
    whose classes cover the whole row."""
    out = [0] * n_mod
    if not odd:
        out[0] = middle
    for r, s in enumerate(sums):
        j = e * (2 * r - 1) if odd else 2 * e * r
        out[j % n_mod] += s
        out[-j % n_mod] += s
    return out


def cos_product_resultant(m: int) -> int:
    """prod_{s=1}^{m-1} (3 - 2cos(2*pi*s/m)) for one m >= 1, from m = 1 on:
    the remainder c0 + c1*z of 1 + z + ... + z^(m-1) modulo z^2 - 3z + 1,
    one power per step, then the resultant c0^2 + 3*c0*c1 + c1^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    c0 = c1 = 0
    a, b = 1, 0  # z^0
    for _ in range(m):
        c0 += a
        c1 += b
        a, b = -b, a + 3 * b
    return c0 * c0 + 3 * c0 * c1 + c1 * c1
