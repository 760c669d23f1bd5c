from fractions import Fraction
from itertools import islice

import pytest

import cyclo_reference as ring
from binsums.core import binomial, class_sums, kronecker
from binsums.cyclo import IntPolynomial, chebyshev_monic, cos_product_resultants, power_sums
from binsums.identities import find


def test_cos_power_vector_examples():
    assert ring.cos_power_vector(5, 1, 1) == (0, 1, 0, 0, 1)
    assert ring.cos_power_vector(5, 1, 2) == (2, 0, 1, 1, 0)
    assert ring.cos_power_vector(12, 1, 0) == (1,) + (0,) * 11


def test_cos_power_vector_returns_a_tuple_and_refuses_bad_input():
    vec = ring.cos_power_vector(7, 2, 9)
    assert type(vec) is tuple and len(vec) == 7
    assert all(type(c) is int for c in vec)
    with pytest.raises(ValueError, match="modulus"):
        ring.cos_power_vector(0, 1, 2)
    with pytest.raises(ValueError, match="negative"):
        ring.cos_power_vector(5, 1, -1)


def test_cos_power_vector_row_sums():
    for n_mod in (4, 7, 13):
        for power in range(0, 20):
            assert sum(ring.cos_power_vector(n_mod, 3, power)) == 2**power


def test_direct_reduction_collects_central_row():
    # entry j of the even power is the sum of C(2n, n+k) over 2ek = j (mod N)
    n_mod, e, n = 9, 2, 7
    vec = ring.cos_power_vector(n_mod, e, 2 * n)
    for j in range(n_mod):
        want = sum(
            binomial(2 * n, n + k)
            for k in range(-n, n + 1)
            if (2 * e * k) % n_mod == j
        )
        assert vec[j] == want


# (modulus, exponent) pairs at which the cosine power expansion is checked
_COSPOW_MODULI = ((5, 1), (7, 2), (12, 1), (24, 5))


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("n_mod, e", _COSPOW_MODULI)
def test_folded_class_sums_equal_the_cosine_power_expansion(n_mod, e, odd):
    """The Pascal-step class sums that verify sweeps, folded onto the ring,
    against the direct placement; the coefficients of (z^e + z^-e)^row sum
    to 2^row."""
    for n, (middle, sums) in zip(range(201), class_sums(n_mod, odd)):
        row = 2 * n + odd
        fold = ring.fold_class_sums(n_mod, e, odd, middle, sums)
        assert tuple(fold) == ring.cos_power_vector(n_mod, e, row), row
        assert sum(fold) == 2**row, row


def test_reference_cyclotomic_polynomials():
    assert ring.cyclotomic(1) == (-1, 1)
    assert ring.cyclotomic(2) == (1, 1)
    assert ring.cyclotomic(5) == (1, 1, 1, 1, 1)
    assert ring.cyclotomic(10) == (1, -1, 1, -1, 1)
    assert ring.cyclotomic(12) == (1, 0, -1, 0, 1)


def test_reference_reduction_identifies_equal_values():
    # z + z^3 + z^7 + z^9 is the full sum of primitive 10th roots, i.e. 1
    v = [0, 1, 0, 1, 0, 0, 0, 1, 0, 1]
    assert ring.reduce(v) == ring.reduce(ring.scalar(10, 1))
    assert ring.as_integer(v) == 1
    with pytest.raises(ValueError):
        ring.as_integer(ring.monomial(10, 1))


def test_cos_product_resultant_matches_the_direct_product():
    # the per-m reference at every m = 2n+1 for n <= 30 and the even m in
    # between, and the stepped kernel at every odd m
    stepped = list(islice(cos_product_resultants(), 31))
    for m in range(1, 62):
        prod = ring.scalar(m, 1)
        for s in range(1, m):
            prod = ring.mul(prod, ring.sub(ring.scalar(m, 3), ring.two_cos(m, s)))
        assert ring.cos_product_resultant(m) == ring.as_integer(prod), m
        if m % 2:
            assert stepped[m // 2] == ring.as_integer(prod), m
    assert [ring.cos_product_resultant(m) for m in range(1, 8)] == [1, 5, 16, 45, 121, 320, 841]
    assert stepped[:4] == [1, 16, 121, 841]
    with pytest.raises(ValueError):
        ring.cos_product_resultant(0)


def test_cos_product_resultant_steps_the_division_remainder():
    """The pair stepping against schoolbook division of 1 + ... + z^(m-1)
    by z^2 - 3z + 1, for every m up to 401: the per-m reference at each,
    and the stepped kernel at every m = 2n+1 that verify reads at n_max 200."""
    stepped = list(islice(cos_product_resultants(), 201))
    for m in range(1, 402):
        c0, c1 = ring.divmod_monic([1] * m, [1, -3, 1])[1]
        assert ring.cos_product_resultant(m) == c0 * c0 + 3 * c0 * c1 + c1 * c1, m
        if m % 2:
            assert stepped[m // 2] == c0 * c0 + 3 * c0 * c1 + c1 * c1, m


def test_power_sum_examples():
    assert power_sums(IntPolynomial((-1, -1, 1)), 4)[4] == 7
    assert power_sums(IntPolynomial((-1, 6, -5, 1)), 1)[1] == 5
    assert power_sums(IntPolynomial((-3, 1)), 2)[2] == 9


@pytest.mark.parametrize("coeffs", [(0.5, -1.5, 1), (-1, -1, 1.0), (Fraction(1, 2), 1)],
                         ids=repr)
def test_polynomials_refuse_inexact_coefficients(coeffs):
    # (0.5, -1.5, 1) once gave float power sums
    with pytest.raises(TypeError, match="must be an int"):
        IntPolynomial(coeffs)


def test_power_sums_satisfy_the_recurrence():
    for coeffs in [(-1, -1, 1), (1, -2, -1, 1), (-1, 6, -5, 1)]:
        poly = IntPolynomial(coeffs)
        d = poly.degree
        p = power_sums(poly, 40)
        rec = [-poly.coeffs[d - i] for i in range(1, d + 1)]
        for n in range(d + 1, 41):
            assert p[n] == sum(rec[i - 1] * p[n - i] for i in range(1, d + 1))


def test_power_sums_give_lucas_numbers():
    # x^2 - x - 1 has the roots 2cos(pi/5) and 2cos(3pi/5)
    poly = IntPolynomial((-1, -1, 1))
    lucas = [2, 1]
    while len(lucas) < 31:
        lucas.append(lucas[-1] + lucas[-2])
    assert power_sums(poly, 30) == lucas


def test_chebyshev_closed_form_matches_the_recurrence():
    for m in range(1, 81):
        assert chebyshev_monic(m).coeffs == ring.chebyshev_by_recurrence(m), m
    with pytest.raises(ValueError):
        chebyshev_monic(0)


def _composed_with_x2_minus_2(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """P(x^2 - 2) for P ascending, by Horner's rule in plain integer
    polynomial multiplication."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out = [a - 2 * b for a, b in zip([0, 0, *out], [*out, 0, 0])]  # out * (x^2 - 2)
        out[0] += c
    return tuple(out)


def test_chebyshev_doubles_by_composing_with_x2_minus_2():
    # D_2h(x) = D_h(x^2 - 2): 2cos(2t) = (2cos t)^2 - 2, so T_2h = T_h o T_2
    for h in range(1, 101):
        assert chebyshev_monic(2 * h).coeffs == _composed_with_x2_minus_2(
            chebyshev_monic(h).coeffs), h


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

def _mod5_gauss_sum() -> list[int]:
    """sum_{t=1..4} (t|5) z^(2t): the primitive 5th roots weighted by the
    Legendre symbol, which is sqrt(5)."""
    g = [0] * 10
    for t in range(1, 5):
        g = ring.add(g, ring.monomial(10, 2 * t, kronecker(t, 5)))
    return g


def test_mod5_cosine_difference_is_the_legendre_table_times_the_gauss_sum():
    gauss = _mod5_gauss_sum()
    assert ring.reduce(gauss) == (1, 0, 2, -2)
    assert ring.as_integer(ring.mul(gauss, gauss)) == 5
    for k in range(12):
        diff = ring.sub(ring.two_cos(10, 2 * k), ring.two_cos(10, 6 * k))
        want = tuple(kronecker(k, 5) * c for c in ring.reduce(gauss))
        assert ring.reduce(diff) == want, k
    # scaled by 1/sqrt(5), the table is the Legendre table of fib-even
    assert find("fib-even")[0].terms[0].weights == tuple(kronecker(k, 5) for k in range(5))


def test_mod5_cosine_sum_is_the_lucas_block():
    for k in range(12):
        total = ring.as_integer(ring.add(ring.two_cos(10, 2 * k), ring.two_cos(10, 6 * k)))
        assert total == (4, -1, -1, -1, -1)[k % 5], k


def test_mod24_cosine_sum_is_twice_the_pell_cosine_table():
    table = find("pellX-cosine")[0].terms[1].weights
    assert table == (2, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0)
    for k in range(36):
        total = ring.as_integer(ring.add(ring.two_cos(24, 2 * k), ring.two_cos(24, 10 * k)))
        assert total == 2 * table[k % 12], k
