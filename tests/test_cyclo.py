import pytest

from binsums.core import binomial, class_sums, kronecker
from binsums.cyclo import (
    CycloVec,
    IntPolynomial,
    as_integer,
    canonical_coeffs,
    centered_reduction,
    char_poly_from_roots,
    chebyshev_monic,
    cos_power_vector,
    cos_product_resultant,
    cyclotomic_polynomial,
    power_sums,
)
from binsums.identities import find


def test_cyclo_mul_examples():
    z1 = CycloVec(5, (0, 1, 0, 0, 0))
    z4 = CycloVec(5, (0, 0, 0, 0, 1))
    assert (z1 * z4).coeffs == (1, 0, 0, 0, 0)  # z * z^4 = 1
    x = CycloVec(5, (3, 1, 4, 1, 5))
    assert x * CycloVec.one(5) == x
    fib_root = CycloVec(5, (0, 1, 0, 0, 1))
    assert (fib_root * fib_root).coeffs == (2, 0, 1, 1, 0)


def test_cyclo_mul_rejects_mismatched_moduli():
    with pytest.raises(ValueError):
        CycloVec.one(5) * CycloVec.one(7)


def test_eval_at_one_is_multiplicative():
    x = CycloVec(6, (1, -2, 0, 3, 0, 1))
    y = CycloVec(6, (0, 1, 1, 0, -1, 2))
    assert (x * y).eval_at_one == x.eval_at_one * y.eval_at_one


def test_cos_power_vector_examples():
    assert cos_power_vector(5, 1, 1).coeffs == (0, 1, 0, 0, 1)
    assert cos_power_vector(5, 1, 2).coeffs == (2, 0, 1, 1, 0)
    assert cos_power_vector(12, 1, 0).coeffs == (1,) + (0,) * 11


def test_cos_power_vector_matches_direct_reduction():
    # the exhaustive sweep lives in the acceptance suite; spot ranges here
    for n_mod in (1, 2, 3, 5, 8, 12):
        for e in range(0, 4):
            for power in range(0, 24):
                assert cos_power_vector(n_mod, e, power) == centered_reduction(n_mod, e, power)


def test_cos_power_vector_row_sums():
    for n_mod in (4, 7, 13):
        for power in range(0, 20):
            assert cos_power_vector(n_mod, 3, power).eval_at_one == 2**power


def test_direct_reduction_collects_central_row():
    # entry j of the even power is the sum of C(2n, n+k) over 2ek = j (mod N)
    n_mod, e, n = 9, 2, 7
    vec = centered_reduction(n_mod, e, 2 * n)
    for j in range(n_mod):
        want = sum(
            binomial(2 * n, n + k)
            for k in range(-n, n + 1)
            if (2 * e * k) % n_mod == j
        )
        assert vec.coeffs[j] == want


# (modulus, exponent) pairs at which the cosine power expansion is checked
_COSPOW_MODULI = ((5, 1), (7, 2), (12, 1), (24, 5))


def _fold_class_sums(n_mod: int, e: int, odd: bool, middle: int, sums: list[int]) -> list[int]:
    """The class sums of row 2n (or 2n+1) placed on the exponents of
    (z^e + z^-e)^row mod z^n_mod - 1: class r of k >= 1 goes to +-2er on row
    2n, whose center goes to 0, and to +-e(2r-1) on row 2n+1, whose classes
    cover the whole row."""
    out = [0] * n_mod
    if not odd:
        out[0] = middle
    for r, s in enumerate(sums):
        j = e * (2 * r - 1) if odd else 2 * e * r
        out[j % n_mod] += s
        out[-j % n_mod] += s
    return out


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("n_mod, e", _COSPOW_MODULI)
def test_folded_class_sums_equal_the_cosine_power_expansion(n_mod, e, odd):
    """The Pascal-step class sums that verify sweeps, folded onto the ring,
    against the direct reduction and the binary-powered ring power; the
    coefficients of (z^e + z^-e)^row sum to 2^row."""
    for n, (middle, sums) in zip(range(201), class_sums(n_mod, odd)):
        row = 2 * n + odd
        fold = _fold_class_sums(n_mod, e, odd, middle, sums)
        assert fold == list(centered_reduction(n_mod, e, row).coeffs), row
        assert fold == list(cos_power_vector(n_mod, e, row).coeffs), row
        assert sum(fold) == 2**row, row


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_canonical_reduction_identifies_equal_values():
    # z + z^3 + z^7 + z^9 is the full sum of primitive 10th roots, i.e. 1
    v = CycloVec(10, (0, 1, 0, 1, 0, 0, 0, 1, 0, 1))
    assert canonical_coeffs(v) == canonical_coeffs(CycloVec.one(10))
    assert as_integer(v) == 1
    with pytest.raises(ValueError):
        as_integer(CycloVec.monomial(10, 1))


def test_cos_product_resultant_matches_the_direct_product():
    # every m = 2n+1 for n <= 30, and the even m in between
    for m in range(1, 62):
        prod = CycloVec.one(m)
        for s in range(1, m):
            prod = prod * (CycloVec.one(m).scale(3) - CycloVec.two_cos(m, s))
        assert cos_product_resultant(m) == as_integer(prod), m
    assert [cos_product_resultant(m) for m in range(1, 8)] == [1, 5, 16, 45, 121, 320, 841]
    with pytest.raises(ValueError):
        cos_product_resultant(0)


def test_char_poly_examples():
    assert char_poly_from_roots(5, [1, 3]).coeffs == (-1, -1, 1)      # x^2 - x - 1
    assert char_poly_from_roots(7, [2, 4, 8]).coeffs == (-1, -2, 1, 1)  # x^3 + x^2 - 2x - 1
    assert char_poly_from_roots(7, [1, 3, 5]).coeffs == (1, -2, -1, 1)  # x^3 - x^2 - 2x + 1


def test_char_poly_rejects_partial_orbits():
    with pytest.raises(ValueError, match="Galois"):
        char_poly_from_roots(7, [1])
    with pytest.raises(ValueError, match="Galois"):
        char_poly_from_roots(5, [1])


def test_power_sum_examples():
    assert power_sums(char_poly_from_roots(5, [1, 3]), 4)[4] == 7
    assert power_sums(IntPolynomial((-1, 6, -5, 1)), 1)[1] == 5
    assert power_sums(IntPolynomial((-3, 1)), 2)[2] == 9


def test_power_sums_satisfy_the_recurrence():
    for coeffs in [(-1, -1, 1), (1, -2, -1, 1), (-1, 6, -5, 1)]:
        poly = IntPolynomial(coeffs)
        d = poly.degree
        p = power_sums(poly, 40)
        rec = [-poly.coeffs[d - i] for i in range(1, d + 1)]
        for n in range(d + 1, 41):
            assert p[n] == sum(rec[i - 1] * p[n - i] for i in range(1, d + 1))


def test_power_sums_give_lucas_numbers():
    poly = char_poly_from_roots(5, [1, 3])
    lucas = [2, 1]
    while len(lucas) < 31:
        lucas.append(lucas[-1] + lucas[-2])
    assert power_sums(poly, 30) == lucas


def test_chebyshev_matches_generic_construction():
    # two independent routes to the odd-numerator cosine polynomials
    for m in range(1, 11):
        fast = chebyshev_monic(m)
        generic = char_poly_from_roots(2 * m, list(range(1, 2 * m, 2)))
        assert fast == generic, m


def _chebyshev_by_recurrence(m: int) -> tuple[int, ...]:
    """D_m from D_0 = 2, D_1 = x and D_(k+1) = x*D_k - D_(k-1)."""
    prev, cur = [2], [0, 1]
    for _ in range(m - 1):
        shifted = [0] + cur
        padded = prev + [0] * (len(shifted) - len(prev))
        prev, cur = cur, [s - p for s, p in zip(shifted, padded)]
    return tuple(cur)


def test_chebyshev_closed_form_matches_the_recurrence():
    for m in range(1, 81):
        assert chebyshev_monic(m).coeffs == _chebyshev_by_recurrence(m), m
    with pytest.raises(ValueError):
        chebyshev_monic(0)


def _power_sums_by_newton(coeffs: tuple[int, ...], upto: int) -> list[int]:
    """Newton's identities term by term: p_k = -k*a_k - sum a_i p_(k-i)."""
    d = len(coeffs) - 1
    a = [coeffs[d - i] if i <= d else 0 for i in range(upto + 1)]
    p = [d]
    for k in range(1, upto + 1):
        p.append(-k * a[k] - sum(a[i] * p[k - i] for i in range(1, k)))
    return p


def test_power_sums_match_newtons_identities_term_by_term():
    for coeffs in [(-1, -1, 1), (1, -2, -1, 1), (-1, 6, -5, 1), (-3, 1), (2, 0, -4, 0, 1),
                   (5, -1, 0, 3, -2, 7, 1)]:
        for upto in (0, 1, len(coeffs) - 1, 30):
            assert power_sums(IntPolynomial(coeffs), upto) == _power_sums_by_newton(coeffs, upto)


def test_chebyshev_known_values():
    assert chebyshev_monic(2).coeffs == (-2, 0, 1)
    assert chebyshev_monic(3).coeffs == (0, -3, 0, 1)
    assert chebyshev_monic(5).coeffs == (0, 5, 0, -5, 0, 1)


# The paper's cosine tables, read in Z[z]/(z^10 - 1) and Z[z]/(z^24 - 1),
# where z^a + z^-a stands for 2cos(2*pi*a/N).

def _mod5_gauss_sum() -> CycloVec:
    """sum_{t=1..4} (t|5) z^(2t): the primitive 5th roots weighted by the
    Legendre symbol, which is sqrt(5)."""
    g = CycloVec.zero(10)
    for t in range(1, 5):
        g = g + CycloVec.monomial(10, 2 * t, kronecker(t, 5))
    return g


def test_mod5_cosine_difference_is_the_legendre_table_times_the_gauss_sum():
    gauss = _mod5_gauss_sum()
    assert canonical_coeffs(gauss) == (1, 0, 2, -2)
    assert as_integer(gauss * gauss) == 5
    for k in range(12):
        diff = CycloVec.two_cos(10, 2 * k) - CycloVec.two_cos(10, 6 * k)
        want = tuple(kronecker(k, 5) * c for c in canonical_coeffs(gauss))
        assert canonical_coeffs(diff) == want, k
    # scaled by 1/sqrt(5), the table is the Legendre table of fib-even
    assert find("fib-even")[0].terms[0].weights == tuple(kronecker(k, 5) for k in range(5))


def test_mod5_cosine_sum_is_the_lucas_block():
    for k in range(12):
        total = as_integer(CycloVec.two_cos(10, 2 * k) + CycloVec.two_cos(10, 6 * k))
        assert total == (4, -1, -1, -1, -1)[k % 5], k


def test_mod24_cosine_sum_is_twice_the_pell_cosine_table():
    table = find("pellX-cosine")[0].terms[1].weights
    assert table == (2, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0)
    for k in range(36):
        total = as_integer(CycloVec.two_cos(24, 2 * k) + CycloVec.two_cos(24, 10 * k))
        assert total == 2 * table[k % 12], k
