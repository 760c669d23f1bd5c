import math
import random
from fractions import Fraction

import pytest

import cyclo_reference as ring
from binsums.core import RecurrenceSpec, binomial, kronecker
from binsums.cyclo import IntPolynomial, chebyshev_monic, power_sums
from binsums.sequences import (
    _MEMO,
    SequenceOracle,
    genlucas_poly,
    get_oracle,
    registry,
    scriptl_poly,
    seq_eval,
    seq_values,
)
from recurrence_reference import read_one, rec_eval


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
    assert seq_values("W", range(8)) == [3, -1, 5, -4, 13, -16, 38, -57]
    assert seq_values("S", range(6)) == [1, 2, 6, 19, 62, 207]
    assert seq_values("R", range(8)) == [1, 2, 6, 19, 61, 197, 638, 2069]
    assert seq_values("Q", range(8)) == [1, 1, 2, 5, 14, 42, 131, 417]
    assert seq_values("pellX", range(7)) == [1, 2, 7, 26, 97, 362, 1351]
    assert seq_values("pellY", range(7)) == [0, 1, 4, 15, 56, 209, 780]
    assert seq_values("pell", range(9)) == [0, 1, 2, 5, 12, 29, 70, 169, 408]
    assert seq_values("pell", [0]) == [0] and seq_values("halfcentral", [1]) == [1]


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
    """A, B and C against the direct math.comb row sums for n <= 200, each
    order read from an empty memo."""
    descending = list(range(200, -1, -1))
    shuffled = list(range(201))
    random.Random(1).shuffle(shuffled)
    for order in (descending, shuffled):
        _MEMO.clear()
        for n in order:
            row = [math.comb(2 * n, n + k) for k in range(n + 1)]
            assert seq_eval("A", n) == sum(row[k] for k in range(1, n + 1) if k % 5 in (1, 4)), n
            assert seq_eval("B", n) == sum(row[k] for k in range(1, n + 1) if k % 5 in (2, 3)), n
            assert seq_eval("C", n) == sum(row[k] for k in range(1, n + 1) if k % 5 == 0), n



def test_every_stepped_oracle_read_from_an_empty_memo_equals_rec_eval():
    """Every recurrence oracle (n < 0 too for fib and lucas), each family at
    two parameters, read in one shuffled order from an empty memo, equals
    rec_eval of its spec stepped from the seeds; scriptL equals Newton's
    identities divided by m."""
    reads = []
    for name, oracle in registry().items():
        if oracle.recurrence is None and name != "scriptL":
            continue
        params = [None] if oracle.param_name is None else [oracle.param_min, 5]
        lo = -30 if oracle.negative_ok else oracle.start
        reads += [(name, param, n) for param in params for n in range(lo, 61)]
    assert {r[0] for r in reads if r[2] < 0} == {"fib", "lucas"}
    random.Random(2).shuffle(reads)
    _MEMO.clear()
    for name, param, n in reads:
        expected = (power_sums(scriptl_poly(param), n)[n] // param if name == "scriptL"
                    else rec_eval(get_oracle(name).spec(param), n))
        assert seq_eval(name, n, param) == expected, (name, param, n)

def test_qrdiff_is_r_minus_q():
    for n in range(1, 201):
        assert seq_eval("A094789", n) == seq_eval("R", n) - seq_eval("Q", n)
    assert seq_values("A094789", range(1, 7)) == [1, 4, 14, 47, 155, 507]


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


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def squared_root_poly(poly: IntPolynomial) -> IntPolynomial:
    """Monic polynomial whose roots are the squares of poly's roots.

    Resultant-free: split P(x) = E(x^2) + x*O(x^2); then E(y)^2 - y*O(y)^2
    vanishes at every root square, and has degree deg P with leading
    coefficient +-1.  The independent reference for scriptl_poly.
    """
    even = list(poly.coeffs[0::2])
    odd = list(poly.coeffs[1::2])
    e2 = _poly_mul(even, even)
    o2 = [0] + _poly_mul(odd, odd)
    out = [0] * (poly.degree + 1)
    for i, c in enumerate(e2):
        out[i] += c
    for i, c in enumerate(o2):
        out[i] -= c
    if out[-1] == -1:
        out = [-c for c in out]
    return IntPolynomial(tuple(out))


def test_squared_root_poly_examples():
    assert squared_root_poly(IntPolynomial((-1, -1, 1))).coeffs == (1, -3, 1)
    assert squared_root_poly(IntPolynomial((1, -2, -1, 1))).coeffs == (-1, 6, -5, 1)
    assert squared_root_poly(IntPolynomial((-2, 1))).coeffs == (-4, 1)


def test_squared_root_poly_power_sum_consistency():
    for coeffs in [(-1, -1, 1), (1, -2, -1, 1), (-1, 6, -5, 1)]:
        poly = IntPolynomial(coeffs)
        squared = power_sums(squared_root_poly(poly), 20)
        assert squared == power_sums(poly, 40)[::2]


def _chebyshev_plus_two(m: int) -> list[int]:
    """D_(2m+1)(x) + 2, from the recurrence: its roots are 2cos((2t+1)pi/(2m+1))
    for t = 0..m, each twice but for the simple root -2 at t = m."""
    shifted = list(ring.chebyshev_by_recurrence(2 * m + 1))
    shifted[0] += 2
    return shifted


def test_power_sum_recurrences_match_newton_power_sums():
    for m in range(2, 9):
        doubled = power_sums(IntPolynomial(_chebyshev_plus_two(m)), 100)
        scriptl = power_sums(squared_root_poly(chebyshev_monic(m)), 100)
        for n in range(0, 101):
            assert 2 * seq_eval("genlucas", n, param=m) + (-2) ** n == doubled[n]
        for n in range(1, 101):
            assert seq_eval("scriptL", n, param=m) * 2 * m == scriptl[n]
    for n in range(2, 61):
        assert seq_eval("scriptL", n, param=n) * 2 * n == power_sums(
            squared_root_poly(chebyshev_monic(n)), n)[n]


def test_scriptl_diagonal_reads_scriptl_at_m_equal_to_n():
    # the full-degree route is the oracle of the half-degree one at even n
    for n in [*range(2, 201), 255, 256, 300, 301]:
        direct = power_sums(scriptl_poly(n), n)[n] // n
        assert seq_eval("scriptLdiag", n) == direct, n
        if n <= 60:
            assert direct == seq_eval("scriptL", n, param=n), n
    assert get_oracle("scriptLdiag").start == 2


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


@pytest.mark.parametrize("args, message", [
    (("fib", 2.5), "fib: n must be an int, not 2.5"),
    (("genlucas", 3, 2.5), "genlucas: m must be an int, not 2.5"),
    (("scriptLdiag", 4.0), "scriptLdiag: n must be an int, not 4.0"),
    (("fib", 3, Fraction(1)), "fib: a parameter must be an int, not Fraction(1, 1)"),
], ids=["fib-index", "genlucas-param", "rule-index", "unexpected-param"])
def test_non_integer_index_or_parameter_is_refused_before_evaluation(args, message):
    with pytest.raises(TypeError) as exc:
        seq_eval(*args)
    assert str(exc.value) == message


def test_domain_validation():
    with pytest.raises(ValueError):
        seq_eval("scriptL", 0, param=4)
    with pytest.raises(ValueError):
        seq_eval("pell", -1)


def test_natural_start_indices():
    assert get_oracle("scriptL").start == 1
    assert get_oracle("A094789").start == 1
    assert get_oracle("halfcentral").start == 1
    assert get_oracle("fib").start == 0


def test_scaled_helpers_are_integral_at_zero():
    assert seq_eval("fibscaled", 0) == 0
    assert seq_eval("lucasscaled", 0) == 1
    for n in range(1, 201):
        assert seq_eval("fibscaled", n) == 2 ** (n - 1) * seq_eval("fib", n)
        assert seq_eval("lucasscaled", n) == 2 ** (n - 1) * seq_eval("lucas", n)


# --- every C-finite oracle is the recurrence it declares ----------------------

_STEPPED_ORACLES = {"halfrow", "halfcentral", "A", "B", "C", "scriptL"}
_RULE_ORACLES = {"scriptLdiag"}


def test_only_the_oracles_without_an_index_0_integer_recurrence_keep_a_rule():
    # an oracle that steps from index 0 without a recurrence gives its own
    # steps; only scriptLdiag, whose polynomial changes with n, keeps a rule
    for name, oracle in registry().items():
        assert (oracle.recurrence is None) == (name in _STEPPED_ORACLES | _RULE_ORACLES), name
        assert (oracle.steps is not None) == (name in _STEPPED_ORACLES), name
        assert (oracle.rule is not None) == (name in _RULE_ORACLES), name


_POW2 = RecurrenceSpec("pow2", (2,), (1,))


@pytest.mark.parametrize("recurrence, rule, steps", [
    (None, None, None), (_POW2, lambda _, n: 2**n, None), (_POW2, None, lambda _: iter([1])),
    (None, lambda _, n: 2**n, lambda _: iter([1]))])
def test_an_oracle_needs_exactly_one_of_a_recurrence_steps_and_a_rule(recurrence, rule, steps):
    with pytest.raises(ValueError, match="exactly one of recurrence, steps, rule"):
        SequenceOracle("pow2", recurrence, rule, steps=steps)


def test_the_backward_rule_is_read_from_the_declared_spec():
    ok = {name for name, oracle in registry().items() if oracle.negative_ok}
    assert ok == {"fib", "lucas"}
    assert get_oracle("fib").recurrence.negative_rule == "odd"
    assert get_oracle("lucas").recurrence.negative_rule == "even"


def _dilations():
    for name, oracle in registry().items():
        if oracle.recurrence is None:
            continue
        for param in [None] if oracle.param_name is None else [oracle.param_min, 3, 5]:
            bs = range(-7, 4) if oracle.negative_ok else range(4)
            for a in range(1, 5):
                for b in bs:
                    yield name, param, a, b


def test_a_dilated_spec_reads_its_oracle_along_the_affine_index():
    seen = set()
    for name, param, a, b in _dilations():
        oracle = get_oracle(name)
        if b < oracle.start and not oracle.negative_ok:
            with pytest.raises(ValueError, match=f"not defined at n = {b}"):
                oracle.dilate(param, a, b)
            continue
        spec = oracle.dilate(param, a, b)
        assert len(spec.coeffs) == len(oracle.spec(param).coeffs)
        assert [rec_eval(spec, k) for k in range(61)] == [
            seq_eval(name, a * k + b, param) for k in range(61)], (name, param, a, b)
        seen.add(name)
    assert seen == set(registry()) - _STEPPED_ORACLES - _RULE_ORACLES


@pytest.mark.parametrize("name, a", [("fib", 0), ("fib", -1), ("halfrow", 1)])
def test_dilate_refuses_a_rule_or_a_step_below_one(name, a):
    with pytest.raises(ValueError, match="a dilation needs a recurrence and a >= 1"):
        get_oracle(name).dilate(None, a, 1)


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lucas(n: int) -> int:
    return _fib(n - 1) + _fib(n + 1) if n else 2


def _closed_form(name: str, param: int | None, n: int) -> int:
    """The closed rules the declared recurrences replaced."""
    if name.startswith("pow"):
        return int(name[3:]) ** n
    if name == "lewis":
        return 5**n * _fib(param) ** (2 * n)
    assert name == "fiboddpow"
    return 2 * 5**n * _fib(2 * param) ** (2 * n + 1)


@pytest.mark.parametrize("name, param", [
    *((f"pow{b}", None) for b in range(2, 6)),
    *(("lewis", t) for t in range(1, 6)), *(("fiboddpow", p) for p in range(1, 4))], ids=str)
def test_declared_recurrences_equal_their_closed_forms(name, param):
    for n in range(get_oracle(name).start, 201):
        assert seq_eval(name, n, param) == _closed_form(name, param, n), n


def test_fib_and_lucas_reflect_to_negative_indices():
    for t in range(61):
        assert seq_eval("fib", -t) == (-1) ** (t + 1) * _fib(t)
        assert seq_eval("lucas", -t) == (-1) ** t * _lucas(t)
    # the reflection is the recurrence run backward
    for name in ("fib", "lucas"):
        for n in range(-58, 61):
            assert seq_eval(name, n) == seq_eval(name, n - 1) + seq_eval(name, n - 2), (name, n)


def berlekamp_massey_length(values: list[int]) -> int:
    """Length of the shortest linear recurrence over Q that generates values
    (Massey, IEEE Trans. Inform. Theory 15 (1969); Kauers and Paule, The
    Concrete Tetrahedron, ch. 4)."""
    c, b = [Fraction(1)], [Fraction(1)]  # connection polynomials, constant term first
    length, gap, last = 0, 1, Fraction(1)
    for n, v in enumerate(values):
        d = v + sum(c[i] * values[n - i] for i in range(1, min(length, len(c) - 1) + 1))
        if d == 0:
            gap += 1
            continue
        prev = list(c)
        c += [Fraction(0)] * (len(b) + gap - len(c))
        for i, x in enumerate(b):
            c[i + gap] -= d / last * x
        if 2 * length <= n:
            length, b, last, gap = n + 1 - length, prev, d, 1
        else:
            gap += 1
    return length


def test_berlekamp_massey_finds_the_least_order():
    assert berlekamp_massey_length([_fib(n) for n in range(20)]) == 2
    assert berlekamp_massey_length([3**n for n in range(20)]) == 1
    assert berlekamp_massey_length([n**3 for n in range(20)]) == 4
    assert berlekamp_massey_length([0] * 9 + [1]) == 10


_FAMILY_PARAMS = {"genlucas": range(2, 9), "lewis": range(1, 6), "fiboddpow": range(1, 4)}


def _declared_oracles():
    for name, oracle in registry().items():
        if oracle.recurrence is None:
            continue
        if oracle.param_name is None:
            yield name, None
        else:
            yield from ((name, p) for p in _FAMILY_PARAMS[name])


@pytest.mark.parametrize("name, param", list(_declared_oracles()), ids=str)
def test_declared_order_is_the_berlekamp_massey_length(name, param):
    oracle = get_oracle(name)
    spec = oracle.recurrence if param is None else oracle.recurrence(param)
    d = len(spec.coeffs)
    values = [seq_eval(name, oracle.start + i, param) for i in range(2 * d + 10)]
    assert berlekamp_massey_length(values) == d


def test_genlucas_poly_squared_is_the_shifted_chebyshev_polynomial():
    """(x + 2) G_m(x)^2 = D_(2m+1)(x) + 2, so G_m has exactly the roots
    2cos((2t+1)pi/(2m+1)) for t = 0..m-1."""
    for m in range(1, 41):
        g = list(genlucas_poly(m).coeffs)
        assert _poly_mul([2, 1], _poly_mul(g, g)) == _chebyshev_plus_two(m), m


def _index_lists(oracle: SequenceOracle) -> list[list[int]]:
    """Ascending, descending and gapped index lists from the oracle's
    start, and for fib and lucas lists that cross below 0, one of them with
    bools, which are ints too."""
    lo = oracle.start
    lists = [list(range(lo, lo + 30)), list(range(lo + 40, lo - 1, -3)),
             [lo + 17, lo, lo + 5, lo + 5, lo + 60, lo + 2]]
    if oracle.negative_ok:
        lists += [list(range(-20, 21)), list(range(15, -16, -5)), [-7, 3, -1, 40, -40],
                  [-7, True, False, 3]]
    return lists


@pytest.mark.parametrize("name", sorted(registry()))
def test_the_bulk_reader_equals_the_per_index_reads(name):
    """Every registered oracle, and two parameters of each family, read
    from an empty memo and again from the filled one, against read_one."""
    oracle = get_oracle(name)
    params = [None] if oracle.param_name is None else [oracle.param_min, oracle.param_min + 1]
    for param in params:
        for indices in _index_lists(oracle):
            want = [read_one(name, n, param) for n in indices]
            _MEMO.clear()
            assert seq_values(name, indices, param) == want, (param, indices)
            assert seq_values(name, indices, param) == want, (param, indices)
    assert seq_values(name, [], params[0]) == []


@pytest.mark.parametrize("name, param, indices", [
    ("A094789", None, [3, 1, 0, 5]),  # below the start
    ("A094789", None, [6, -1, 0]),  # below 0 before below the start
    ("halfcentral", None, [2, 0]),  # stepped, below its start
    ("halfrow", None, [300, 4, -1]),  # stepped, below 0
    ("C", None, [7, "7"]),  # stepped, a non-int index
    ("scriptLdiag", None, [9, 1]),  # a rule, below its start
    ("pell", None, [4, 2, -1, -2]),  # below 0 without a backward rule
    ("pell", None, [4, 2.5, -1]),  # a non-int index before a negative one
    ("fib", None, [-3, 2, "5", 2.5]),  # a non-int index after a reflected one
    ("lucas", None, [1.0, 2]),  # a non-int first index
    ("genlucas", None, [1, 2]),  # a missing parameter
    ("genlucas", 1, [1, 2]),  # a refused parameter
    ("genlucas", 1, [1.5, 2]),  # a non-int first index and a refused parameter
    ("genlucas", 2.5, [1, 2]),  # a non-int parameter
    ("lewis", 0, [-1, 3]),  # a refused parameter and an index below 0
    ("fib", 3, [0, 1]),  # a parameter the oracle does not take
    ("scriptL", 1, [1]),  # stepped, with a refused parameter
    ("scriptL", 3, [2, 0]),  # stepped, below its start
    ("unheard-of", None, [1]),  # no such oracle
], ids=str)
def test_the_bulk_reader_raises_like_the_per_index_reads(name, param, indices):
    """The same exception type and message as read_one, so the same first
    bad index."""
    with pytest.raises(Exception) as per_index:
        for n in indices:
            read_one(name, n, param)
    _MEMO.clear()
    with pytest.raises(Exception) as bulk:
        seq_values(name, indices, param)
    assert (type(bulk.value), str(bulk.value)) == (type(per_index.value), str(per_index.value))


def test_the_bulk_reader_checks_the_parameter_over_a_filled_memo():
    # 2.0 is equal to 2 as a memo key, so only the parameter check refuses it
    seq_eval("genlucas", 9, 2)
    with pytest.raises(TypeError, match="genlucas: m must be an int, not 2.0"):
        seq_values("genlucas", [1, 2], 2.0)


def _tested_params(oracle: SequenceOracle) -> list[int | None]:
    return [None] if oracle.param_name is None else [oracle.param_min, oracle.param_min + 1, 5]


def test_the_domain_rule_matches_the_oracle():
    """For every oracle, each tested parameter and every index in -8..60,
    domain(a, b) says that a*n + b is defined at n exactly where seq_eval
    raises no ValueError, for every step a in -3..3."""
    for name, oracle in registry().items():
        for param in _tested_params(oracle):
            defined = {}
            for index in range(-8, 61):
                try:
                    seq_eval(name, index, param)
                except ValueError:
                    defined[index] = False
                else:
                    defined[index] = True
            for a in range(-3, 4):
                for b in range(-8, 61):
                    start, stop = oracle.domain(a, b)
                    for n in range(69):
                        if a * n + b in defined:
                            rule = start <= n and (stop is None or n <= stop)
                            assert rule == defined[a * n + b], (name, param, a, b, n)
            assert not all(defined.values()) or oracle.negative_ok, name


def _outcome(read):
    try:
        return read()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _class_sums_by_comb(n_max: int) -> dict[str, list[int]]:
    """A, B and C at n = 0..n_max, each row summed by math.comb."""
    out = {"A": [], "B": [], "C": []}
    for n in range(n_max + 1):
        sums = [0] * 5
        for k in range(1, n + 1):
            sums[k % 5] += math.comb(2 * n, n + k)
        out["A"].append(sums[1] + sums[4])
        out["B"].append(sums[2] + sums[3])
        out["C"].append(sums[0])
    return out


@pytest.mark.parametrize("name, param", [
    ("A", None), ("B", None), ("C", None), ("halfrow", None), ("halfcentral", None),
    ("scriptL", 2), ("scriptL", 3), ("scriptL", 8)], ids=str)
def test_a_stepped_oracle_reads_in_bulk_as_per_index(name, param):
    """seq_values over 0..300 from an empty memo equals the read_one reads,
    or raises the same error at the same first bad index; from the start
    on, both equal an independent closed form."""
    oracle = get_oracle(name)
    indices = list(range(301))
    per_index = _outcome(lambda: [read_one(name, n, param) for n in indices])
    _MEMO.clear()
    assert _outcome(lambda: seq_values(name, indices, param)) == per_index
    if oracle.start:
        assert per_index == (ValueError, f"{name} is not defined at n = 0")
    ns = range(oracle.start, 301)
    if name in ("A", "B", "C"):
        want = _class_sums_by_comb(300)[name][oracle.start:]
    elif name == "halfrow":
        want = [(4**n - math.comb(2 * n, n)) // 2 for n in ns]
    elif name == "halfcentral":
        want = [math.comb(2 * n - 1, n - 1) for n in ns]
    else:
        want = [p // param for p in power_sums(scriptl_poly(param), 300)[oracle.start:]]
    _MEMO.clear()
    assert seq_values(name, list(reversed(ns)), param) == want[::-1]
    assert [read_one(name, n, param) for n in ns] == want
