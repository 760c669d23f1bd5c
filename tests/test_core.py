import random
import sys
import threading
from fractions import Fraction
from itertools import islice

import pytest

from binsums.core import (
    RecurrenceSpec,
    binomial,
    class_sums,
    kronecker,
    pascal_rows,
    rec_steps,
    weighted_class_sums,
)
from binsums.discovery import _FACTORS, _factor, derive_profile
from binsums.identities import OracleRef
from binsums.sequences import _MEMO, get_oracle, seq_eval
from recurrence_reference import rec_eval


def pascal_triangle(rows):
    """Independent oracle: Pascal's triangle by the addition recurrence."""
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return tri


TRI = pascal_triangle(121)


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(6, -1) == 0
    assert binomial(6, 7) == 0
    # frozen values, recomputed by the Pascal oracle
    assert TRI[12][7] == 792
    assert binomial(12, 7) == 792
    assert TRI[19][9] == 92378
    assert binomial(19, 9) == 92378


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_matches_pascal_oracle():
    for n in range(0, 40):
        for k in range(-2, n + 3):
            want = TRI[n][k] if 0 <= k <= n else 0
            assert binomial(n, k) == want


def test_row_symmetry():
    for n in range(0, 41):
        for k in range(0, n + 1):
            assert binomial(2 * n, n - k) == binomial(2 * n, n + k)


def test_row_sum_and_half_row():
    for n in range(0, 41):
        assert sum(binomial(2 * n, j) for j in range(2 * n + 1)) == 2 ** (2 * n)
        half = sum(binomial(2 * n, n + k) for k in range(1, n + 1))
        assert 2 * half == 2 ** (2 * n) - binomial(2 * n, n)


def test_central_doubling():
    for n in range(1, 41):
        assert binomial(2 * n, n) == 2 * binomial(2 * n - 1, n)


# --- Kronecker symbol ------------------------------------------------------

def legendre_by_residues(k, p):
    """Brute-force Legendre symbol from the quadratic residue table."""
    r = k % p
    if r == 0:
        return 0
    return 1 if r in {pow(t, 2, p) for t in range(1, p)} else -1


def kronecker_by_factoring(k, m):
    """Brute-force Kronecker symbol for m > 0 via the prime factorization."""
    result = 1
    rest = m
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest
        while rest % p == 0:
            rest //= p
            if p == 2:
                result *= 0 if k % 2 == 0 else (1 if k % 8 in (1, 7) else -1)
            else:
                result *= legendre_by_residues(k, p)
        p += 1
    return result


def test_kronecker_examples():
    assert kronecker(2, 5) == -1
    assert kronecker(7, 12) == 1
    assert kronecker(0, 5) == 0
    assert kronecker(3, 9) == 0
    assert kronecker(3, 9) == kronecker_by_factoring(3, 9)


def test_kronecker_explicit_tables():
    # the two patterns quoted with the Fibonacci and Pell identities
    assert [kronecker(k, 5) for k in range(5)] == [0, 1, -1, -1, 1]
    assert [kronecker(k, 12) for k in range(12)] == [0, 1, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1]


@pytest.mark.parametrize("p", [5, 13])
def test_kronecker_is_legendre_for_odd_primes(p):
    for k in range(0, 10 * p + 1):
        assert kronecker(k, p) == legendre_by_residues(k, p)


@pytest.mark.parametrize("m", [5, 8, 9, 12, 13, 20])
def test_kronecker_brute_force_all_moduli(m):
    for k in range(0, 3 * m + 1):
        assert kronecker(k, m) == kronecker_by_factoring(k, m)


def test_kronecker_equals_the_factored_symbol_for_small_moduli():
    # every (a|m) for 0 <= a < 60 and 1 <= m < 60; (7|11) = -1 needs the
    # reciprocity sign of two moduli that are both 3 mod 4
    assert kronecker(7, 11) == -1 and kronecker(11, 7) == 1
    for m in range(1, 60):
        for a in range(60):
            assert kronecker(a, m) == kronecker_by_factoring(a, m), (a, m)


def test_kronecker_of_a_negative_modulus():
    # (a|-m) = (a|-1) (a|m), and (a|-1) is the sign of a, with sign(0) = 1
    def sign(a):
        return -1 if a < 0 else 1

    for m in range(1, 40):
        for a in range(-60, 60):
            assert kronecker(a, -m) == sign(a) * kronecker_by_factoring(a, m), (a, -m)


@pytest.mark.parametrize("m", [5, 8, 9, 12, 13, 20])
def test_kronecker_multiplicative(m):
    for a in range(-50, 51):
        for b in range(-50, 51, 7):
            assert kronecker(a * b, m) == kronecker(a, m) * kronecker(b, m)


@pytest.mark.parametrize("m", [5, 8, 9, 12, 13, 20])
def test_kronecker_periodic(m):
    for k in range(0, 10 * m):
        assert kronecker(k, m) == kronecker(k % m, m)


def test_kronecker_rejects_zero_modulus():
    with pytest.raises(ValueError):
        kronecker(3, 0)


# --- recurrences ------------------------------------------------------------

FIB = RecurrenceSpec("fib", (1, 1), (0, 1), negative_rule="odd")
LUCAS = RecurrenceSpec("lucas", (1, 1), (2, 1), negative_rule="even")
W = RecurrenceSpec("W", (-1, 2, 1), (3, -1, 5))
S = RecurrenceSpec("S", (6, -9, 1), (1, 2, 6))


def steps(spec, count):
    return list(islice(rec_steps(spec), count))


def test_rec_steps_examples():
    assert steps(FIB, 13)[12] == 144
    assert steps(W, 8)[7] == -57
    assert steps(S, 6)[5] == 207
    assert seq_eval("fib", -2) == -1


def test_rec_steps_restarts_from_the_seeds_on_each_call():
    spec = RecurrenceSpec("f", (1, 1), (0, 1))
    first = steps(spec, 31)
    assert [first[30], first[5]] == [832040, 5]
    assert steps(spec, 31) == first
    assert spec == RecurrenceSpec("f", (1, 1), (0, 1))


def test_backward_extension_satisfies_recurrence():
    # a(n) = a(n-1) + a(n-2) must keep holding through negative indices
    for name in ("fib", "lucas"):
        for n in range(-20, 41):
            assert seq_eval(name, n) == seq_eval(name, n - 1) + seq_eval(name, n - 2)


def test_backward_reflection_rules():
    for t in range(1, 21):
        assert FIB.reflection_sign(-t) == (-1) ** (t + 1)
        assert LUCAS.reflection_sign(-t) == (-1) ** t
        assert seq_eval("fib", -t) == (-1) ** (t + 1) * seq_eval("fib", t)
        assert seq_eval("lucas", -t) == (-1) ** t * seq_eval("lucas", t)


def test_negative_index_rejected_without_rule():
    with pytest.raises(ValueError, match="W is not defined for n < 0"):
        W.reflection_sign(-1)
    with pytest.raises(ValueError, match="W is not defined at n = -1"):
        seq_eval("W", -1)


def run_threads(work):
    """Run work(barrier) on 4 threads with a tiny switch interval, so that
    the interpreter interleaves them as often as it can."""
    barrier = threading.Barrier(4)
    errors = []

    def guarded():
        try:
            work(barrier)
        except Exception as exc:  # reported to the test below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


def test_recurrence_memo_survives_concurrent_extension():
    # Every thread extends the same fresh memo entries of fib and lewis(3),
    # whose spec reads fib while it is built; a lost check-then-append race
    # shows as a duplicated entry, and one generator stepped by two threads
    # at once raises.
    lewis = get_oracle("lewis").spec(3)
    expected = {key: [rec_eval(spec, n) for n in range(400)]
                for key, spec in ((("fib", None), FIB), (("lewis", 3), lewis))}
    for _ in range(10):
        _MEMO.clear()

        def work(barrier):
            barrier.wait()
            for n in range(0, 400, 3):
                seq_eval("fib", n)
                seq_eval("lewis", n, 3)

        run_threads(work)
        assert {key: _MEMO[key][0] for key in expected} == expected


def test_partial_row_memo_survives_concurrent_extension():
    # Each thread reads A, B and C at n = 0..300 in its own order from an
    # empty memo; a lost check-then-append race shows as a wrong value or a
    # duplicated row.
    names, ns = ("A", "B", "C"), range(301)
    _MEMO.clear()
    expected = {(name, n): seq_eval(name, n) for n in ns for name in names}
    shuffled = [list(ns) for _ in range(2)]
    for seed, order in enumerate(shuffled):
        random.Random(seed).shuffle(order)
    for _ in range(20):
        _MEMO.clear()
        orders = [list(ns), list(reversed(ns)), *shuffled]
        lock = threading.Lock()
        got = []

        def work(barrier):
            with lock:
                order = orders.pop()
            barrier.wait()
            got.append({(name, n): seq_eval(name, n) for n in order for name in names})

        run_threads(work)
        assert len(got) == 4 and all(values == expected for values in got)
        assert [_MEMO[name, None][0] for name in names] == [
            [expected[name, n] for n in ns] for name in names]


def test_derive_factors_survive_concurrent_use():
    # Each thread derives the same profiles from an empty factor cache and
    # an empty memo in its own order, so the threads factor and read the
    # shared systems of one (period, row_odd) at once; a lost or corrupted
    # system shows as a wrong profile, a cached system that differs from a
    # fresh one, or a cache past its bound.  No equation row is kept in the
    # memo of sequences.
    jobs = [(OracleRef(name, a=a), period, row_odd) for name, a in (("fib", 2), ("pow3", 1))
            for period in range(1, 11) for row_odd in (False, True)]
    _MEMO.clear()
    _factor.cache_clear()
    expected = {i: derive_profile(*job) for i, job in enumerate(jobs)}
    shuffled = [list(expected) for _ in range(2)]
    for seed, order in enumerate(shuffled):
        random.Random(seed).shuffle(order)
    for _ in range(5):
        _MEMO.clear()
        _factor.cache_clear()
        orders = [list(expected), list(reversed(expected)), *shuffled]
        lock = threading.Lock()
        got = []

        def work(barrier):
            with lock:
                order = orders.pop()
            barrier.wait()
            profiles = {}
            for i in order:
                profiles[i] = derive_profile(*jobs[i])
                assert _factor.cache_info().currsize <= _FACTORS
            got.append(profiles)

        run_threads(work)
        assert len(got) == 4 and all(profiles == expected for profiles in got)
        assert not any(name == "class_sums" for name, _ in _MEMO)
        keys = {(period, row_odd, 1, period + 4, 20) for _, period, row_odd in jobs}
        assert _factor.cache_info().currsize == len(keys) == 20
        assert all(_factor(*key) == _factor.__wrapped__(*key) for key in keys)


def test_recurrence_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec("bad", (1, 1), (0,))
    with pytest.raises(ValueError):
        RecurrenceSpec("bad", (), ())
    with pytest.raises(ValueError):
        RecurrenceSpec("bad", (1,), (0,), negative_rule="sideways")


def test_a_recurrence_spec_is_a_frozen_value():
    # the memo of stepped values lives in sequences, so a spec holds no state
    with pytest.raises(AttributeError, match="cannot assign to field"):
        FIB.seeds = (1, 1)
    assert RecurrenceSpec("fib", [1, 1], [0, 1], negative_rule="odd") == FIB

@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(1, 2), "1"], ids=repr)
def test_recurrence_spec_refuses_an_inexact_coefficient_or_seed(bad):
    with pytest.raises(TypeError, match="must be an int"):
        RecurrenceSpec("x", (bad,), (1,))
    with pytest.raises(TypeError, match="must be an int"):
        RecurrenceSpec("x", (1, 1), (0, bad))


def test_a_float_coefficient_is_refused_before_any_value_is_stepped():
    # a float coefficient once gave a(3) == 3.375; no spec holding one is built,
    # so neither rec_steps nor an oracle can step it
    with pytest.raises(TypeError, match="must be an int"):
        steps(RecurrenceSpec("x", (1.5,), (1,)), 4)


def test_class_sums_match_folded_rows():
    # folding each whole row of the Pascal oracle is the independent route
    for period in range(1, 13):
        for row_odd in (False, True):
            for n, (middle, sums) in zip(range(61), class_sums(period, row_odd)):
                row = TRI[2 * n + 1 if row_odd else 2 * n]
                folded = [0] * period
                for k in range(1, len(row) - n):
                    folded[k % period] += row[n + k]
                assert (middle, sums) == (row[n], folded), (period, row_odd, n)


def test_class_sums_rejects_empty_period():
    with pytest.raises(ValueError):
        next(class_sums(0))


# order 1 (last coefficient 3), Pell-like, a double root (x - 2)^2, and
# order 3 with last coefficient -5
_WEIGHT_SPECS = [RecurrenceSpec("geo", (3,), (2,)), RecurrenceSpec("pellish", (2, 1), (1, -3)),
                 RecurrenceSpec("double", (4, -4), (1, 0)),
                 RecurrenceSpec("cubic", (1, 2, -5), (4, -1, 7))]


@pytest.mark.parametrize("spec", _WEIGHT_SPECS, ids=lambda s: s.name)
def test_weighted_class_sums_match_folded_rows(spec):
    # g(1), g(2), ... by the forward recurrence alone, from the seeds
    g = [None, *spec.seeds]
    while len(g) < 64:
        g.append(sum(c * g[-i] for i, c in enumerate(spec.coeffs, 1)))
    for period in range(1, 8):
        for row_odd in (False, True):
            steps = weighted_class_sums(period, spec, row_odd)
            for n, (middle, sums) in zip(range(61), steps):
                row = TRI[2 * n + 1 if row_odd else 2 * n]
                folded = [0] * period
                for k in range(1, len(row) - n):
                    folded[k % period] += row[n + k] * g[k]
                assert (middle, sums) == (row[n], folded), (period, row_odd, n)


def test_weighted_class_sums_refuse_what_they_cannot_step():
    with pytest.raises(ValueError, match="period >= 1"):
        next(weighted_class_sums(0, _WEIGHT_SPECS[0]))
    with pytest.raises(ValueError, match="last coefficient"):
        next(weighted_class_sums(2, RecurrenceSpec("stops", (1, 0), (1, 1))))


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("alternate", [False, True])
@pytest.mark.parametrize("length", [1, 2, 7, 30])
def test_pascal_rows_equal_the_direct_binomial_sums(stride, alternate, length):
    g = [(-2) ** x + 3 * x * x - 5 for x in range(length)]
    sign = -1 if alternate else 1
    rows = list(pascal_rows(g, stride, alternate))
    assert len(rows) == (length - 1) // stride + 1
    for m, row in enumerate(rows):
        assert row == [sum(sign ** i * binomial(m, i) * g[x + stride * i]
                           for i in range((length - 1 - x) // stride + 1))
                       for x in range(length - m * stride)], m


def test_pascal_rows_rejects_a_stride_below_one():
    with pytest.raises(ValueError, match="stride >= 1"):
        next(pascal_rows([1, 2, 3], 0))
