import pytest

from binsums.core import binomial, kronecker
from binsums.cyclo import char_poly_from_roots, chebyshev_monic, power_sums, squared_root_poly
from binsums.sequences import get_oracle, registry, scriptl_poly, seq_eval, seq_slice


def test_registry_contains_the_documented_names():
    names = set(registry())
    assert {"fib", "lucas", "pell", "pellX", "pellY", "W", "Q", "R", "S",
            "genlucas", "scriptL", "A", "B", "C"} <= names


def test_spec_values():
    assert seq_eval("pellX", 4) == 97
    assert seq_eval("Q", 7) == 417
    assert seq_eval("genlucas", 2, param=3) == 5
    assert seq_eval("pellY", 3) == 15
    assert seq_eval("scriptL", 2, param=3) == 3
    assert seq_eval("scriptL", 4, param=4) == 34
    assert seq_eval("fib", -2) == -1
    assert seq_eval("S", 5) == 207


def test_slices():
    assert seq_slice("W", 8) == [3, -1, 5, -4, 13, -16, 38, -57]
    assert seq_slice("S", 6) == [1, 2, 6, 19, 62, 207]
    assert seq_slice("R", 8) == [1, 2, 6, 19, 61, 197, 638, 2069]
    assert seq_slice("Q", 8) == [1, 1, 2, 5, 14, 42, 131, 417]
    assert seq_slice("pellX", 7) == [1, 2, 7, 26, 97, 362, 1351]
    assert seq_slice("pellY", 7) == [0, 1, 4, 15, 56, 209, 780]
    assert seq_slice("pell", 9) == [0, 1, 2, 5, 12, 29, 70, 169, 408]


def test_pell_invariant():
    for n in range(0, 51):
        assert seq_eval("pellX", n) ** 2 - 3 * seq_eval("pellY", n) ** 2 == 1


def test_genlucas_specializations():
    for n in range(0, 41):
        assert seq_eval("genlucas", n, param=2) == seq_eval("lucas", n)
    for n in range(0, 21):
        assert seq_eval("genlucas", 2 * n, param=3) == seq_eval("W", 2 * n)
        assert seq_eval("genlucas", 2 * n + 1, param=3) == -seq_eval("W", 2 * n + 1)


def test_scriptl_small_parameters_are_geometric():
    for n in range(1, 31):
        assert seq_eval("scriptL", n, param=2) == 2 ** (n - 1)
        assert seq_eval("scriptL", n, param=3) == 3 ** (n - 1)


def test_partial_row_sums_fill_the_half_row():
    for n in range(1, 41):
        total = seq_eval("A", n) + seq_eval("B", n) + seq_eval("C", n)
        assert total == 2 ** (2 * n - 1) - binomial(2 * n - 1, n)
        assert total == seq_eval("halfrow", n)


def test_partial_row_sums_match_their_definitions():
    for n in range(0, 25):
        row = [binomial(2 * n, n + k) for k in range(n + 1)]
        assert seq_eval("A", n) == sum(row[k] for k in range(1, n + 1) if k % 5 in (1, 4))
        assert seq_eval("B", n) == sum(row[k] for k in range(1, n + 1) if k % 5 in (2, 3))
        assert seq_eval("C", n) == sum(row[k] for k in range(1, n + 1) if k % 5 == 0)


def test_qrdiff_is_r_minus_q():
    for n in range(1, 40):
        assert seq_eval("qrdiff", n) == seq_eval("R", n) - seq_eval("Q", n)
    assert seq_slice("qrdiff", 6) == [1, 4, 14, 47, 155, 507]


def test_transform_recurrences_match_their_binomial_transforms():
    for n in range(0, 61):
        assert seq_eval("pelltrans", n) == sum(
            binomial(n, k) * seq_eval("pell", k) for k in range(n + 1))
        assert seq_eval("fib2trans", n) == sum(
            binomial(n, k) * seq_eval("fib", 2 * k) for k in range(n + 1))


def test_kronecker_recurrences_match_the_direct_sums():
    for n in range(0, 81):
        row = [binomial(2 * n, n + k) for k in range(n + 1)]
        assert seq_eval("A094667", n) == sum(c * kronecker(k, 20) for k, c in enumerate(row))
        assert seq_eval("A216597", n) == sum(
            (-1) ** k * c * kronecker(k, 13) for k, c in enumerate(row))


def test_power_sum_recurrences_match_newton_power_sums():
    for m in range(2, 9):
        genlucas = power_sums(char_poly_from_roots(2 * m + 1, list(range(1, 2 * m, 2))), 100)
        scriptl = power_sums(squared_root_poly(chebyshev_monic(m)), 100)
        for n in range(0, 101):
            assert seq_eval("genlucas", n, param=m) == genlucas[n]
        for n in range(1, 101):
            assert seq_eval("scriptL", n, param=m) * 2 * m == scriptl[n]
        # a read with n <= m uses the spec once a read past m has built it
        for n in range(1, m + 1):
            assert seq_eval("scriptL", n, param=m) * 2 * m == scriptl[n]
    # central-delight reads scriptL with m = n, by Newton's identities up to n
    for n in range(2, 61):
        assert seq_eval("scriptL", n, param=n) * 2 * n == power_sums(
            squared_root_poly(chebyshev_monic(n)), n)[n]


def test_scriptl_poly_halves_the_squared_root_power_sums():
    """The parity split of D_m has each nonzero root square of D_m once;
    squared_root_poly has each twice (and the zero root of odd m once)."""
    for m in range(2, 61):
        poly = scriptl_poly(m)
        assert poly.degree == m // 2
        split = power_sums(poly, 60)
        doubled = power_sums(squared_root_poly(chebyshev_monic(m)), 60)
        for n in range(1, 61):
            assert 2 * split[n] == doubled[n], (m, n)


def test_parameter_validation():
    with pytest.raises(ValueError):
        seq_eval("genlucas", 3)  # missing m
    with pytest.raises(ValueError):
        seq_eval("scriptL", 3, param=1)  # m below 2
    with pytest.raises(ValueError):
        seq_eval("fib", 3, param=4)  # unexpected parameter
    with pytest.raises(KeyError):
        seq_eval("unheard-of", 1)


def test_domain_validation():
    with pytest.raises(ValueError):
        seq_eval("scriptL", 0, param=4)
    with pytest.raises(ValueError):
        seq_eval("pell", -1)
    with pytest.raises(ValueError):
        seq_slice("fib", 0)


def test_natural_start_indices():
    assert get_oracle("scriptL").start == 1
    assert get_oracle("qrdiff").start == 1
    assert get_oracle("halfcentral").start == 1
    assert get_oracle("fib").start == 0


def test_scaled_helpers_are_integral_at_zero():
    assert seq_eval("fibscaled", 0) == 0
    assert seq_eval("lucasscaled", 0) == 1
    for n in range(1, 20):
        assert seq_eval("fibscaled", n) == 2 ** (n - 1) * seq_eval("fib", n)
        assert seq_eval("lucasscaled", n) == 2 ** (n - 1) * seq_eval("lucas", n)
