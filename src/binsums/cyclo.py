"""Exact integer polynomials for the paper's cosine values.

The double-angle cosine value 2cos(a*pi/N) reaches the package in two
integer forms: the monic Chebyshev polynomial D_m whose roots are the
odd-numerator cosines, with the Newton power sums of such polynomials, and
one remainder modulo z^2 - 3z + 1 for the cosine product, stepped across n
by two powers at a time.  Both stay in exact integer arithmetic.
"""
from __future__ import annotations

import operator
from collections.abc import Iterator
from .core import Frozen, _integer


def cos_product_resultants() -> Iterator[int]:
    """For n = 0, 1, 2, ... yield prod_{s=1}^{m-1} (3 - 2cos(2*pi*s/m)) at
    m = 2n+1, exactly.

    With zeta = e^(2*pi*i/m), each factor is -zeta^(-s) * g(zeta^s) for
    g(z) = z^2 - 3z + 1, and the -zeta^(-s) multiply to 1.  The product is
    therefore Res(1 + z + ... + z^(m-1), g) = (c0 + c1*b1)(c0 + c1*b2) over
    the roots b1, b2 of g (sum 3, product 1), where c0 + c1*z is the
    remainder of 1 + z + ... + z^(m-1) modulo g.  Modulo g, z^j = a + b*z
    gives z^(j+1) = -b + (a + 3b)*z, so from m = 2n+1 to 2n+3 the remainder
    gains two powers: two integer steps per n.
    """
    c0, c1 = 1, 0  # the remainder of 1, at m = 1
    a, b = 0, 1  # z^1
    while True:
        yield c0 * c0 + 3 * c0 * c1 + c1 * c1
        for _ in range(2):
            c0 += a
            c1 += b
            a, b = -b, a + 3 * b


class IntPolynomial(Frozen):
    """Monic polynomial with integer coefficients, stored ascending."""

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        coeffs = tuple(coeffs)
        _integer(*coeffs)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("polynomial must be monic of degree >= 1")
        self._set(coeffs=coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def chebyshev_monic(m: int) -> IntPolynomial:
    """The monic Chebyshev-style polynomial D_m with D_m(2cos t) = 2cos(mt).

    Its roots are exactly 2cos((2t-1)*pi/(2m)) for t = 1..m, so it is the
    fast route to the odd-numerator cosine families.  Built from the closed
    form: the coefficient of x^(m-2j) is (-1)^j m/(m-j) C(m-j, j), each
    stepped from the last by one exact multiply and divide, so the whole
    polynomial costs O(m) big-integer steps (the tests check it against the
    recurrence D_(k+1) = x*D_k - D_(k-1)).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = [0] * (m + 1)
    coeffs[m] = c = 1
    for j in range(m // 2):
        c = -c * (m - 2 * j) * (m - 2 * j - 1) // ((j + 1) * (m - j - 1))
        coeffs[m - 2 * j - 2] = c
    return IntPolynomial(tuple(coeffs))


def power_sums(poly: IntPolynomial, upto: int) -> list[int]:
    """[p_0, ..., p_upto] where p_k is the sum of k-th powers of the roots.

    Newton's identities: p_k is determined by the coefficients for k <= deg
    and by the linear recurrence of the polynomial afterwards.
    """
    d = poly.degree
    # a[i] is the coefficient of x^(d-i), so P = x^d + a1 x^(d-1) + ... + ad
    a = [0] + [poly.coeffs[d - i] for i in range(1, d + 1)]
    p = [d]
    for k in range(1, upto + 1):
        j = min(k - 1, d)  # a_1..a_j pair with p_(k-1)..p_(k-j)
        val = -sum(map(operator.mul, a[1:j + 1], p[k - 1:k - j - 1:-1]))
        if k <= d:
            val -= k * a[k]
        p.append(val)
    return p
