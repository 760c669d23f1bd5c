"""Exact cyclotomic and Chebyshev machinery.

The double-angle cosine value 2cos(a*pi/N) is realized as z^a + z^(-a) in the
group ring Z[z]/(z^(2N) - 1), with z standing for the primitive (2N)-th root
of unity e^(2*pi*i/(2N)).  Powers, products and symmetric functions of such
values then stay in exact integer arithmetic; a value is read back out by
reducing modulo the cyclotomic polynomial of the modulus.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class CycloVec:
    """Element of Z[z]/(z^N - 1) as its length-N coefficient vector."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if len(self.coeffs) != self.modulus:
            raise ValueError("coefficient vector must have length N")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @staticmethod
    def zero(n: int) -> "CycloVec":
        return CycloVec(n, (0,) * n)

    @staticmethod
    def one(n: int) -> "CycloVec":
        return CycloVec(n, (1,) + (0,) * (n - 1))

    @staticmethod
    def monomial(n: int, j: int, c: int = 1) -> "CycloVec":
        v = [0] * n
        v[j % n] += c
        return CycloVec(n, tuple(v))

    @staticmethod
    def two_cos(n: int, a: int) -> "CycloVec":
        """z^a + z^(-a), the exact stand-in for 2cos(2*pi*a/n)."""
        v = [0] * n
        v[a % n] += 1
        v[-a % n] += 1
        return CycloVec(n, tuple(v))

    @property
    def eval_at_one(self) -> int:
        return sum(self.coeffs)

    def __add__(self, other: "CycloVec") -> "CycloVec":
        self._check(other)
        return CycloVec(self.modulus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloVec") -> "CycloVec":
        self._check(other)
        return CycloVec(self.modulus, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloVec":
        return CycloVec(self.modulus, tuple(-a for a in self.coeffs))

    def scale(self, c: int) -> "CycloVec":
        return CycloVec(self.modulus, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "CycloVec") -> "CycloVec":
        self._check(other)
        n = self.modulus
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % n] += a * b
        return CycloVec(n, tuple(out))

    def _check(self, other: "CycloVec") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"mismatched moduli {self.modulus} and {other.modulus}")


def cyclo_pow(x: CycloVec, n: int) -> CycloVec:
    """x^n by binary powering (O(log n) convolutions)."""
    if n < 0:
        raise ValueError("negative powers are not defined here")
    result = CycloVec.one(x.modulus)
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def cos_power_vector(n_mod: int, e: int, power: int) -> CycloVec:
    """(z^e + z^(-e))^power reduced mod z^n_mod - 1, by binary powering.

    Entry j collects the binomial coefficients C(power, i) of every i whose
    exponent e*(2i - power) lands on residue j, which is the exact vector
    form of the cosine power expansion.
    """
    return cyclo_pow(CycloVec.two_cos(n_mod, e), power)


def centered_reduction(n_mod: int, e: int, power: int) -> CycloVec:
    """Direct one-pass oracle for cos_power_vector: place each C(power, i)
    on residue e*(2i - power) mod n_mod.  Independent of cyclo_pow."""
    out = [0] * n_mod
    c = 1  # C(power, 0), stepped multiplicatively
    for i in range(power + 1):
        out[(e * (2 * i - power)) % n_mod] += c
        c = c * (power - i) // (i + 1)
    return CycloVec(n_mod, tuple(out))


# ---------------------------------------------------------------------------
# integer polynomials and cyclotomic reduction
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_monic(p: list[int], d: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of p by a monic divisor d (exact, integer)."""
    assert d[-1] == 1
    rem = list(p)
    deg_d = len(d) - 1
    q = [0] * max(1, len(p) - deg_d)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[i]
        if c:
            q[i - deg_d] = c
            for j, b in enumerate(d):
                rem[i - deg_d + j] -= c * b
    return _poly_trim(q), _poly_trim(rem[:deg_d] or [0])


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("m must be >= 1")
    cached = _CYCLOTOMIC_CACHE.get(m)
    if cached is not None:
        return cached
    p = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            p, rem = _poly_divmod_monic(p, list(cyclotomic_polynomial(d)))
            assert rem == [0]
    result = tuple(p)
    _CYCLOTOMIC_CACHE[m] = result
    return result


def canonical_coeffs(vec: CycloVec) -> tuple[int, ...]:
    """Image of vec under z -> e^(2*pi*i/N), in the power basis of Z[zeta_N].

    Reduces the coefficient vector modulo the N-th cyclotomic polynomial;
    two vectors represent the same complex number iff these agree.
    """
    phi = list(cyclotomic_polynomial(vec.modulus))
    _, rem = _poly_divmod_monic(list(vec.coeffs), phi)
    rem += [0] * (len(phi) - 1 - len(rem))
    return tuple(rem)


def cos_product_resultant(m: int) -> int:
    """prod_{s=1}^{m-1} (3 - 2cos(2*pi*s/m)), exactly, for m >= 1.

    With zeta = e^(2*pi*i/m), each factor is -zeta^(-s) * g(zeta^s) for
    g(z) = z^2 - 3z + 1, and the -zeta^(-s) multiply to 1.  The product is
    therefore Res(1 + z + ... + z^(m-1), g) = (c0 + c1*b1)(c0 + c1*b2) over
    the roots b1, b2 of g (sum 3, product 1), where c0 + c1*z is the
    remainder of 1 + z + ... + z^(m-1) modulo g: O(m) integer steps.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _, rem = _poly_divmod_monic([1] * m, [1, -3, 1])
    c0, c1 = (rem + [0])[:2]
    return c0 * c0 + 3 * c0 * c1 + c1 * c1


def as_integer(vec: CycloVec) -> int:
    """The rational integer a vector evaluates to, or ValueError if it is
    not rational."""
    c = canonical_coeffs(vec)
    if any(c[1:]):
        raise ValueError("vector does not evaluate to a rational integer")
    return c[0]


@dataclass(frozen=True)
class IntPolynomial:
    """Monic polynomial with integer coefficients, stored ascending."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) < 2 or self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic of degree >= 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def char_poly_from_roots(n_angle: int, multiples: list[int]) -> IntPolynomial:
    """Monic product of (x - 2cos(a*pi/n_angle)) over the given multiples a.

    The product is expanded with coefficients living in Z[z]/(z^(2N) - 1)
    and each coefficient is then required to reduce to a rational integer;
    if the multiset of angles is not closed under the Galois action this
    fails loudly rather than rounding.
    """
    m = 2 * n_angle
    coeffs: list[CycloVec] = [CycloVec.one(m)]
    for a in multiples:
        root = CycloVec.two_cos(m, a)
        nxt = [CycloVec.zero(m)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * root
        coeffs = nxt
    try:
        ints = [as_integer(c) for c in coeffs]
    except ValueError as exc:
        raise ValueError("root set not Galois-closed") from exc
    return IntPolynomial(tuple(ints))


def chebyshev_monic(m: int) -> IntPolynomial:
    """The monic Chebyshev-style polynomial D_m with D_m(2cos t) = 2cos(mt).

    Its roots are exactly 2cos((2t-1)*pi/(2m)) for t = 1..m, so it is the
    fast route to the odd-numerator cosine families; char_poly_from_roots
    on the same angles must agree (cross-checked in the tests).  Built from
    the closed form: the coefficient of x^(m-2j) is (-1)^j m/(m-j) C(m-j, j),
    each stepped from the last by one exact multiply and divide, so the
    whole polynomial costs O(m) big-integer steps.
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
