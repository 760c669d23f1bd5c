import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import count, islice
from math import comb, gcd, lcm

import pytest

from binsums import discovery, identities
from binsums.discovery import (
    _FACTORS,
    ProfileSolution,
    _equation_rows,
    _factor,
    derive_profile,
    identity_from_profile,
    profile_json,
)
from binsums.identities import (
    OracleRef,
    builtin_registry,
    find,
    folded_profile,
    identity_json,
    verify,
)
from binsums.sequences import _MEMO, get_oracle, seq_eval


def test_legendre_profile_for_even_fibonacci():
    sol = derive_profile(OracleRef("fib", a=2), 5, solve_start=1, solve_stop=8)
    assert sol.status == "unique"
    assert sol.center == 0
    assert sol.weights == (0, 1, -1, -1, 1)
    assert sol.holdout_range == (9, 28)


def test_period6_profile_for_powers_of_three():
    sol = derive_profile(OracleRef("pow3"), 6, solve_start=1, solve_stop=9)
    assert sol.status == "unique"
    assert sol.center == 1
    assert sol.weights == (2, 1, -1, -2, -1, 1)


def test_normalized_profile_for_bounded_catalan():
    sol = derive_profile(OracleRef("Q"), 7, solve_start=1, solve_stop=10)
    assert sol.status == "unique"
    assert sol.center == 1
    assert sol.weights == (2, -1, 0, 0, 0, 0, -1)


def test_odd_row_profile():
    sol = derive_profile(OracleRef("fib", a=2, b=1), 5, row_odd=True,
                         solve_start=0, solve_stop=8)
    assert sol.status == "unique"
    assert sol.center == 0
    assert sol.weights == (1, 1, -1, 0, -1)


def test_infeasible_period():
    sol = derive_profile(OracleRef("fib", a=2), 3, solve_start=1, solve_stop=8)
    assert sol.status == "infeasible"
    assert sol.violated_n is not None


def test_underdetermined_without_an_index_zero_anchor():
    # C(2n-1, n-1) = C(2n,n)/2 is hit by the whole alternating-row kernel
    # when the center cannot be pinned at n = 0
    sol = derive_profile(OracleRef("halfcentral"), 2, solve_start=1, solve_stop=8)
    assert sol.status == "underdetermined"
    assert sol.dimension == 1


def test_anchor_resolves_even_period_degeneracy():
    sol = derive_profile(OracleRef("pow4"), 2, solve_start=1, solve_stop=8)
    assert sol.status == "unique"
    assert (sol.center, sol.weights) == (1, (2, 2))


def test_solve_range_precondition():
    with pytest.raises(ValueError, match="at least"):
        derive_profile(OracleRef("fib", a=2), 5, solve_start=1, solve_stop=5)


def test_a_solve_range_of_exactly_period_plus_two_equations_is_accepted():
    fib2 = OracleRef("fib", a=2)
    for period in (1, 5, 12):
        sol = derive_profile(fib2, period, solve_start=3, solve_stop=period + 4)
        assert sol.solve_range == (3, period + 4) and sol.status in ("unique", "infeasible")
        with pytest.raises(ValueError, match=f"at least {period + 2} equations"):
            derive_profile(fib2, period, solve_start=3, solve_stop=period + 3)
    assert derive_profile(fib2, 5, solve_start=1, solve_stop=7).status == "unique"


def test_the_last_held_out_index_is_fed(monkeypatch):
    # fib(2n) at period 5 holds for every n; a target value moved by 1 at
    # the last held-out n must make the profile infeasible there, and one
    # moved just past the holdout must not be read at all.
    fib2 = OracleRef("fib", a=2)
    sol = derive_profile(fib2, 5)
    assert sol.status == "unique" and sol.holdout_range == (10, 29)
    real = identities.seq_values
    for moved, expected in ((29, ("infeasible", 29)), (30, ("unique", None))):
        def tampered(name, indices, param=None, moved=moved):
            return [v + (i == 2 * moved) for i, v in zip(indices, real(name, indices, param))]
        monkeypatch.setattr(identities, "seq_values", tampered)
        sol = derive_profile(fib2, 5)
        assert (sol.status, sol.violated_n) == expected
        assert sol.holdout_range == (10, 29)


def test_every_solve_equation_past_full_rank_keeps_a_check(monkeypatch):
    # fib(2n) at its period 5 has 6 unknowns, the center and 5 weights; its
    # value at n = 0 fixes the center, which enters each check as a leading
    # pivot value.  Of the solve range 1..40 the first 5 equations are the
    # weights' pivots, and the other 35 (n = 6..40) keep stored checks: the
    # first pins the center of a target with no value at 0.  Only the 20
    # held out keep their rows (C(2n, n), *coeffs).  A target value moved by
    # 1 at any check or held-out n makes the profile infeasible at that n, as
    # it does for the eliminator that decides every equation the same way.
    fib2 = OracleRef("fib", a=2)
    system = _factor(5, False, 1, 40, 20)
    assert [check is None for check in system.checks] == [True] * 5 + [False] * 35
    assert [len(check[0]) for check in system.checks[5:]] == [6] * 35  # center and 5 pivots
    assert system.checks[5][0][0] != 0  # the check that pins a center not yet known
    assert system.rank == 5 and len(system.rows) == 20
    assert [len(row) for row in system.rows] == [6] * 20
    assert [len(row) for row in system.inverse] == [6] * 5  # the center and each pivot equation
    odd = _factor(5, True, 1, 40, 20)  # no center: 5 pivots and 35 checks
    assert [check is None for check in odd.checks] == [True] * 5 + [False] * 35
    assert len(odd.rows) == 20
    assert derive_profile(fib2, 5, solve_stop=40).status == "unique"
    real = identities.seq_values
    for moved in (6, 8, 11, 12, 13, 30, 60):
        def tampered(name, indices, param=None, moved=moved):
            return [v + (i == 2 * moved) for i, v in zip(indices, real(name, indices, param))]
        monkeypatch.setattr(identities, "seq_values", tampered)
        sol = derive_profile(fib2, 5, solve_stop=40)
        assert (sol.status, sol.violated_n) == ("infeasible", moved)
        assert sol == eliminator_derive(fib2, 5, solve_stop=40)


def test_negative_solve_start_is_rejected_up_front():
    with pytest.raises(ValueError, match="solve_start must be >= 0"):
        derive_profile(OracleRef("fib", a=2), 5, solve_start=-1, solve_stop=8)


def test_negative_holdout_is_rejected_up_front():
    # holdout -5 would make the holdout range (10, 4), which checks nothing
    with pytest.raises(ValueError, match="holdout must be >= 0"):
        derive_profile(OracleRef("fib", a=2), 5, holdout=-5)
    assert derive_profile(OracleRef("fib", a=2), 5, holdout=0).holdout_range == (10, 9)


@pytest.mark.parametrize("bad", [2, 1, 0, None, "odd"], ids=repr)
def test_a_non_bool_row_odd_is_refused_up_front(bad):
    # before the name is looked up, and before any system is factored
    for name in ("fib", "no-such-sequence"):
        with pytest.raises(TypeError, match=f"a flag field must be a bool, not {bad!r}"):
            derive_profile(OracleRef(name, a=2), 5, row_odd=bad)


def test_target_that_runs_out_in_the_holdout_names_it():
    # C vanishes below index 5, so C(4-n) is the zero sum on the solve range
    # 0..4 and solves uniquely; the holdout 5..24 then asks for C(-1)
    with pytest.raises(ValueError) as info:
        derive_profile(OracleRef("C", a=-1, b=4), 1, solve_start=0, solve_stop=4)
    message = str(info.value)
    assert "C(-n+4)" in message and "n = 5" in message
    assert "holdout range 5..24" in message
    with pytest.raises(ValueError, match=r"n = 71, needed by the solve range 1\.\.84"):
        derive_profile(OracleRef("pell", a=-1, b=70), 80)


def test_a_target_that_runs_out_later_keeps_its_earlier_verdict():
    # The target is read in one bulk read per range; where that read fails,
    # an equation before the first n with no value still decides.
    # pell(-n+70) has no value at n = 71 in the solve range 1..80.
    for period, n in ((1, 2), (3, 4), (5, 6)):
        sol = derive_profile(OracleRef("pell", a=-1, b=70), period, solve_stop=80)
        assert (sol.status, sol.violated_n) == ("infeasible", n)
    # pow2(-n+30) has no value at n = 31 in the solve range 1..40
    sol = derive_profile(OracleRef("pow2", a=-1, b=30), 2, solve_stop=40, holdout=30)
    assert (sol.status, sol.violated_n) == ("infeasible", 3)


def factor_key(period, row_odd):
    """The key under which derive_profile factors its default ranges."""
    return period, row_odd, 1, period + 4, 20


def test_derive_from_the_factor_cache_equals_derive_from_an_empty_cache():
    # Factored systems are shared by every derivation.  Each result over a
    # shuffled scan, with whatever systems the scan left in the cache, equals
    # the result from an empty cache; a cached system still equals one
    # factored afresh, since a reader that changed one would corrupt every
    # later derivation; the cache holds no more systems than its bound; and
    # no equation row is left in the memo of sequences.
    triples = [(t, p, row_odd) for t in foldable_left_sides() for p in range(1, 21)
               for row_odd in (False, True)]
    random.Random(25).shuffle(triples)
    _MEMO.clear()
    _factor.cache_clear()
    warm = []
    for triple in triples:
        warm.append(derive_profile(*triple))
        assert _factor.cache_info().currsize <= _FACTORS
    assert not any(name == "class_sums" for name, _ in _MEMO)
    keys = {factor_key(period, row_odd) for _, period, row_odd in triples}
    assert len(keys) == 40 and _factor.cache_info().currsize == min(40, _FACTORS)
    for key in sorted(keys):
        assert _factor(*key) == _factor.__wrapped__(*key), key
    for triple, sol in zip(triples, warm):
        _factor.cache_clear()
        assert derive_profile(*triple) == sol, triple


def test_the_factor_cache_is_bounded_and_releases_what_it_drops():
    fib2 = OracleRef("fib", a=2)
    expected = {holdout: derive_profile(fib2, 1, holdout=holdout)
                for holdout in range(2 * _FACTORS)}
    assert _factor.cache_info().currsize == _FACTORS
    for holdout, sol in expected.items():
        _factor.cache_clear()
        assert derive_profile(fib2, 1, holdout=holdout) == sol
    # A long system's memory goes when it is evicted, and when the cache is
    # cleared; the memo's fib values, read first, stay.
    derive_profile(fib2, 5, solve_stop=600)
    for release in ("evict", "clear"):
        _factor.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            derive_profile(fib2, 5, solve_stop=600)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            if release == "evict":  # by as many small systems as the cache holds
                for start in range(_FACTORS):
                    derive_profile(fib2, 1, solve_start=start, solve_stop=start + 2, holdout=0)
            else:
                _factor.cache_clear()
            gc.collect()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held > 200_000 and left < held / 4, (release, held, left)


def test_one_system_serves_targets_with_and_without_a_value_at_zero():
    # The center is no unknown of a factored system: fib(2n), whose value at
    # n = 0 fixes it, and halfcentral, which has none, share one system at
    # P = 7, and a seed-1 derive scan of the 26 scan targets (the b-file
    # targets left out) at P = 1..20 factors one system per period.
    _factor.cache_clear()
    for target in (OracleRef("fib", a=2), OracleRef("halfcentral")):
        assert derive_profile(target, 7) == eliminator_derive(target, 7)
    assert (_factor.cache_info().misses, _factor.cache_info().hits) == (1, 1)
    targets = [t for t in foldable_left_sides() if t.name not in ("A094789", "A094667", "A216597")]
    ops = [(target, period) for target in targets for period in range(1, 21)]
    random.Random(1).shuffle(ops)
    _factor.cache_clear()
    for target, period in ops:
        derive_profile(target, period)
    assert len(targets) == 26 and _factor.cache_info().misses == 20


def test_even_row_systems_at_the_default_ranges_scale_no_row():
    # Every pivot entry of an even-row system at the default ranges is 1, so
    # its denominator is 1, up to period 40.  Odd rows have no such property.
    for period in range(1, 41):
        assert _factor.__wrapped__(period, False, 1, period + 4, 20).denominator == 1, period
    assert _factor.__wrapped__(5, True, 1, 9, 20).denominator == -12


def test_a_center_with_no_value_at_zero_is_pinned_by_a_check_at_odd_periods(monkeypatch):
    # halfcentral(n) = C(2n-1, n-1) = C(2n, n) / 2 for n >= 1 has no value at
    # n = 0.  At an odd period the first equation past full rank keeps a check
    # whose center coefficients do not cancel, and it pins the center at 1/2.
    # A target value moved at that equation pins another center, which a
    # later check refuses; one moved at a later check or held-out n is
    # refused there.
    target = OracleRef("halfcentral")
    for period in (1, 3, 5, 7):
        system = _factor(period, False, 1, period + 4, 20)
        assert system.checks[period][0][0] != 0  # its entry for the center
        # one check for each solve equation past the pivots; rows only held out
        long = _factor(period, False, 1, 40, 20)
        assert len(long.checks) == 40 and long.checks.count(None) == period
        assert len(long.rows) == 20
        sol = derive_profile(target, period)
        assert (sol.status, sol.center, set(sol.weights)) == ("unique", Fraction(1, 2), {0})
        assert sol == eliminator_derive(target, period)
    real = identities.seq_values
    for moved, violated_n in ((4, 5), (5, 5), (6, 6), (7, 7), (20, 20)):
        def tampered(name, indices, param=None, moved=moved):
            return [v + (i == moved) for i, v in zip(indices, real(name, indices, param))]
        monkeypatch.setattr(identities, "seq_values", tampered)
        sol = derive_profile(target, 3)
        assert (sol.status, sol.violated_n) == ("infeasible", violated_n), moved
        assert sol == eliminator_derive(target, 3)


def test_a_center_never_pinned_leaves_an_even_period_underdetermined(monkeypatch):
    # At an even period every equation from n = 1 on has center coefficients
    # that cancel (C(2n, n) = -2 sum_{k>=1} (-1)^k C(2n, n+k)), so without a
    # value at 0 the center is never pinned: one more dimension than the
    # weights leave.  Every solve equation past the pivots keeps a check that
    # cancels the center, and decides with the center left at 0.
    target = OracleRef("halfcentral")
    for period, solve_stop in ((2, 6), (2, 40), (4, 8), (6, 30)):
        system = _factor(period, False, 1, solve_stop, 20)
        assert system.rank == period and len(system.rows) == 20
        # a check for each solve equation past the pivots
        assert len(system.checks) == solve_stop and system.checks.count(None) == period
        assert all(check[0][0] == 0 for check in system.checks if check is not None)
        sol = derive_profile(target, period, solve_stop=solve_stop)
        assert (sol.status, sol.dimension) == ("underdetermined", 1)
        assert sol == eliminator_derive(target, period, solve_stop=solve_stop)
    real = identities.seq_values
    for moved in (3, 5, 30):
        def tampered(name, indices, param=None, moved=moved):
            return [v + (i == moved) for i, v in zip(indices, real(name, indices, param))]
        monkeypatch.setattr(identities, "seq_values", tampered)
        sol = derive_profile(target, 2, solve_stop=40)
        assert (sol.status, sol.violated_n) == ("infeasible", moved)
        assert sol == eliminator_derive(target, 2, solve_stop=40)


@pytest.fixture
def plant(monkeypatch):
    """plant(table) makes derive and the eliminator read the even row
    table(n) at each n; the factor cache is emptied before and after."""
    def plant(table):
        def rows(period, row_odd, start):
            return map(table, count(start))
        monkeypatch.setattr(discovery, "_equation_rows", rows)
        monkeypatch.setitem(globals(), "_equation_rows", rows)
        _factor.cache_clear()
    yield plant
    _factor.cache_clear()


def pinned_after_full_rank(n):
    # (C(2n, n)'s place, coeffs) for halfcentral = 1/2 * that + 0 * coeffs:
    # the center coefficients cancel in the checks at n = 2, 3, past full
    # rank, and first fail to at n = 4.
    v = comb(2 * n - 1, n - 1)
    return 2 * v, v + (n >= 4)


def pinned_before_full_rank(n):
    # halfcentral = 1/2 * C(2n, n)'s place + (1, -1) . coeffs; n = 1 has no
    # weight term, so its check pins the center before the pivots at n = 2, 3.
    coeffs = {1: (0, 0), 2: (1, 0), 3: (0, 1)}.get(n, (n, 1))
    return 2 * (comb(2 * n - 1, n - 1) - coeffs[0] + coeffs[1]), *coeffs


@pytest.mark.parametrize("period, table, weights, pins", [
    (1, pinned_after_full_rank, (0,), [False, False, True, True]),
    (2, pinned_before_full_rank, (1, -1), [True, True, True, True]),
])
def test_a_center_pinned_where_no_real_system_pins_it(monkeypatch, plant, period, table, weights,
                                                      pins):
    # Planted rows give halfcentral the profile center 1/2 and the weights
    # given, and the eliminator reads the same rows.  A check past full rank
    # can still pin the center, and a center pinned before full rank scales
    # the pivots' right sides after it.  Each solve value moved by 1 gives
    # what the eliminator gives.
    target = OracleRef("halfcentral")
    plant(table)
    system = _factor(period, False, 1, period + 4, 20)
    assert [check[0][0] != 0 for check in system.checks if check is not None] == pins
    sol = derive_profile(target, period)
    assert (sol.status, sol.center, sol.weights) == ("unique", Fraction(1, 2), weights)
    assert sol == eliminator_derive(target, period)
    real = identities.seq_values
    for moved in range(1, period + 5):  # the whole solve range
        def tampered(name, indices, param=None, moved=moved):
            return [v + (i == moved) for i, v in zip(indices, real(name, indices, param))]
        monkeypatch.setattr(identities, "seq_values", tampered)
        assert derive_profile(target, period) == eliminator_derive(target, period)
        monkeypatch.setattr(identities, "seq_values", real)


@pytest.mark.parametrize("table, dimension", [
    (lambda n: (2 * (comb(2 * n - 1, n - 1) - n), n, 0), 1),
    (lambda n: (2 * comb(2 * n - 1, n - 1), comb(2 * n - 1, n - 1), 0), 2),
], ids=["center-pinned", "center-free"])
def test_a_weight_rank_shortfall_adds_to_an_unpinned_center(plant, table, dimension):
    # Planted rows with a second weight column of 0 leave the weights one
    # short of full rank at P = 2.  In the first table halfcentral is 1/2 *
    # the center's column + 1 * the first weight's, and a check pins the
    # center.  In the second the center's column is twice the first
    # weight's, so every check cancels it and the center adds a dimension.
    target = OracleRef("halfcentral")
    plant(table)
    assert _factor(2, False, 1, 6, 20).rank == 1
    sol = derive_profile(target, 2)
    assert (sol.status, sol.dimension) == ("underdetermined", dimension)
    assert sol == eliminator_derive(target, 2)


@pytest.mark.parametrize("name, param, message", [
    ("fib", 2, "sequence fib takes no parameter"),
    ("genlucas", 1, "genlucas: m must be >= 2"),
    ("genlucas", None, "sequence genlucas needs parameter m"),
])
def test_a_bad_parameter_is_refused_up_front_with_the_oracles_message(name, param, message):
    # the n = 0 probe once swallowed the refusal, and the solve loop blamed n = 1
    with pytest.raises(ValueError) as info:
        derive_profile(OracleRef(name, param=param, a=2), 5, solve_start=1, solve_stop=8)
    assert str(info.value) == message


# --- the integer solver against a rational reference --------------------------

class FractionEliminator:
    """Reference: incremental rational Gaussian elimination, each pivot row
    normalized to a leading 1."""

    def __init__(self, unknowns):
        self.unknowns = unknowns
        self.rows = {}  # pivot -> (row, rhs)

    def add(self, coeffs, rhs):
        coeffs, rhs = [Fraction(c) for c in coeffs], Fraction(rhs)
        for pivot, (prow, prhs) in self.rows.items():
            c = coeffs[pivot]
            if c:
                coeffs = [a - c * b for a, b in zip(coeffs, prow)]
                rhs = rhs - c * prhs
        pivot = next((j for j, c in enumerate(coeffs) if c), None)
        if pivot is None:
            return rhs == 0
        inv = 1 / coeffs[pivot]
        self.rows[pivot] = ([c * inv for c in coeffs], rhs * inv)
        return True

    @property
    def rank(self):
        return len(self.rows)

    def solve(self):
        sol = [Fraction(0)] * self.unknowns
        for pivot in sorted(self.rows, reverse=True):
            prow, prhs = self.rows[pivot]
            sol[pivot] = prhs - sum(prow[j] * sol[j] for j in range(pivot + 1, self.unknowns))
        return sol


class DenseEliminator:
    """Reference: fraction-free elimination that rebuilds the whole row,
    p*row - c*prow, at every pivot it reduces by."""

    def __init__(self, unknowns):
        self.unknowns = unknowns
        self.rows = {}  # pivot -> [coeffs..., rhs]

    def add(self, coeffs, rhs):
        row = [*coeffs, rhs]
        for pivot, prow in self.rows.items():
            c = row[pivot]
            if c:
                p = prow[pivot]
                row = [p * a - c * b for a, b in zip(row, prow)]
        pivot = next((j for j in range(self.unknowns) if row[j]), None)
        if pivot is None:
            return row[-1] == 0
        g = gcd(*row)
        if row[pivot] < 0:
            g = -g
        self.rows[pivot] = [a // g for a in row]
        return True

    @property
    def rank(self):
        return len(self.rows)


class SparseEliminator:
    """Reference: incremental fraction-free elimination over the integers,
    reducing by each pivot row only at the columns where it is nonzero.

    Equations are fed one at a time so that an inconsistency can be blamed
    on the exact index that introduced it.  A row [coeffs..., rhs] is
    reduced by each stored pivot row as p*row - c*prow, where p is the
    pivot entry and c the row's entry in the pivot column: scaled only when
    p is not 1, and c*prow subtracted only at the pivot row's nonzero
    columns, found once when it is stored.  The reduced row is divided by
    its content and its pivot made positive.  At full rank a new row
    reduces to [0, ..., 0 | r], r a nonzero multiple of rhs - coeffs . x
    for solve()'s x, so add stores nothing and returns whether x satisfies
    the equation.  derive_profile fed its equations to this eliminator, one
    target at a time, before it factored each system once.
    """

    def __init__(self, unknowns):
        self.unknowns = unknowns
        self.rows = {}  # pivot -> [coeffs..., rhs]
        self._nonzero = {}  # pivot -> columns where its row is nonzero

    def add(self, coeffs, rhs):
        """Absorb one equation; False means it contradicts the others."""
        row = [*coeffs, rhs]
        for pivot, nonzero in self._nonzero.items():
            c = row[pivot]
            if c:
                prow = self.rows[pivot]
                p = prow[pivot]
                if p != 1:
                    row = [p * a for a in row]
                for j in nonzero:
                    row[j] -= c * prow[j]
        pivot = next((j for j in range(self.unknowns) if row[j]), None)
        if pivot is None:
            return row[-1] == 0
        g = gcd(*row)
        if row[pivot] < 0:
            g = -g
        self.rows[pivot] = prow = [a // g for a in row]
        self._nonzero[pivot] = [j for j, b in enumerate(prow) if b]
        return True

    @property
    def rank(self):
        return len(self.rows)

    def solve(self):
        """The one solution at full rank, by back-substitution from the last
        pivot over each pivot row's nonzero columns past the pivot."""
        assert self.rank == self.unknowns
        sol = [Fraction(0)] * self.unknowns
        for pivot in sorted(self.rows, reverse=True):
            prow = self.rows[pivot]
            rest = sum(prow[j] * sol[j] for j in self._nonzero[pivot] if pivot < j < self.unknowns)
            sol[pivot] = Fraction(prow[-1] - rest, prow[pivot])
        return sol


def eliminate_alongside(unknowns, equations, fractions=True):
    """Feed equations to SparseEliminator and to the dense reference (and,
    unless fractions is False, the Fraction reference) until one contradicts
    the rest.  Every add must agree, with the same rank, and SparseEliminator
    must store the dense reference's rows in its order.  Returns the
    outcome, "inconsistent", "full" (the solutions agree too) or
    "deficient", and the SparseEliminator."""
    ints, dense = SparseEliminator(unknowns), DenseEliminator(unknowns)
    ref = FractionEliminator(unknowns) if fractions else None
    for row, rhs in equations:
        ok = ints.add(row, rhs)
        assert ok == dense.add(row, rhs)
        assert list(ints.rows.items()) == list(dense.rows.items())
        assert ints.rank == dense.rank
        if ref is not None:
            assert ok == ref.add(row, rhs)
            assert ints.rank == ref.rank
        if not ok:
            return "inconsistent", ints
    if ints.rank < unknowns:
        return "deficient", ints
    if ref is not None:
        assert ints.solve() == ref.solve()
    return "full", ints


def comb_equation(n, period, row_odd):
    """Coefficient row at n, folded from math.comb one k at a time."""
    if row_odd:
        coeffs = [0] * period
        for k in range(1, n + 2):
            coeffs[k % period] += comb(2 * n + 1, n + k)
        return coeffs
    coeffs = [comb(2 * n, n)] + [0] * period
    for k in range(1, n + 1):
        coeffs[1 + k % period] += comb(2 * n, n + k)
    return coeffs


def test_equation_rows_of_both_parities_lead_with_the_center_coefficient():
    # (C(2n, n), *weights) on even rows, (0, *weights) on odd rows, which
    # have no center column, at each n from the start on
    for period in range(1, 9):
        for row_odd in (False, True):
            for start in (0, 1, 5):
                rows = list(islice(_equation_rows(period, row_odd, start), 16))
                want = [(0, *comb_equation(n, period, True)) if row_odd
                        else tuple(comb_equation(n, period, False))
                        for n in range(start, start + 16)]
                assert rows == want, (period, row_odd, start)


def rows_at(period, row_odd, ns):
    """_equation_rows at each n of the ascending ns, from one sweep that
    starts at the first."""
    rows, at = _equation_rows(period, row_odd, ns[0]), ns[0]
    for n in ns:
        yield next(islice(rows, n - at, None))
        at = n + 1


def reference_derive(target, period, row_odd):
    """derive_profile's default ranges, solved and held out in Fractions."""
    solve_stop = period + 4
    unknowns = period if row_odd else period + 1
    elim = FractionEliminator(unknowns)
    ns = list(range(1, solve_stop + 1))
    if not row_odd:
        try:
            target.value(0)
        except (ValueError, KeyError):
            pass
        else:
            ns.insert(0, 0)
    out = {"status": "unique", "violated_n": None, "dimension": 0,
           "center": None, "weights": None, "solve_range": (1, solve_stop),
           "holdout_range": (0, 0)}
    for n in ns:
        if not elim.add(comb_equation(n, period, row_odd), target.value(n)):
            return {**out, "status": "infeasible", "violated_n": n}
    if elim.rank < unknowns:
        return {**out, "status": "underdetermined", "dimension": unknowns - elim.rank}
    sol = elim.solve()
    hold = (solve_stop + 1, solve_stop + 20)
    for n in range(hold[0], hold[1] + 1):
        predicted = sum(c * x for c, x in zip(comb_equation(n, period, row_odd), sol))
        if predicted != target.value(n):
            return {**out, "status": "infeasible", "violated_n": n, "holdout_range": hold}
    center, weights = (Fraction(0), tuple(sol)) if row_odd else (sol[0], tuple(sol[1:]))
    return {**out, "center": center, "weights": weights, "holdout_range": hold}


def foldable_left_sides():
    out = []
    for ident in builtin_registry():
        try:
            folded_profile(ident)
        except ValueError:
            continue
        if ident.lhs not in out:
            out.append(ident.lhs)
    return out


def derive_statuses(target, periods):
    """derive_profile against reference_derive at each period and both row
    parities; the set of statuses met."""
    statuses = set()
    for period in periods:
        for row_odd in (False, True):
            sol = derive_profile(target, period, row_odd)
            got = {"status": sol.status, "violated_n": sol.violated_n,
                   "dimension": sol.dimension, "center": sol.center,
                   "weights": sol.weights, "solve_range": sol.solve_range,
                   "holdout_range": sol.holdout_range}
            assert got == reference_derive(target, period, row_odd), (target, period, row_odd)
            statuses.add(sol.status)
    return statuses


def test_integer_derive_equals_the_fraction_reference():
    targets = foldable_left_sides()
    assert len(targets) == 29
    statuses = set().union(*(derive_statuses(target, range(1, 11)) for target in targets))
    assert statuses == {"unique", "underdetermined", "infeasible"}


@pytest.mark.parametrize("target, statuses", [
    (OracleRef("fib", a=2), {"unique", "infeasible"}),
    (OracleRef("Q"), {"unique", "infeasible"}),
    (OracleRef("A216597"), {"infeasible"}),  # its registry table alternates in k: period 26
    (OracleRef("pow3", b=-1), {"unique", "underdetermined", "infeasible"}),
], ids=["fib(2n)", "Q", "A216597", "pow3(n-1)"])
def test_integer_derive_equals_the_fraction_reference_up_to_period_20(target, statuses):
    # the periods of the derive scan past the ten the test above covers
    assert derive_statuses(target, range(11, 21)) == statuses


def random_system(rng, unknowns, rank, inconsistent):
    """Equations whose coefficient rows span a space of the given rank;
    an inconsistent system gets one right side off by 1."""
    basis = [[rng.randint(-9, 9) for _ in range(unknowns)] for _ in range(rank)]
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(unknowns)]
    denominator = lcm(*(v.denominator for v in x))
    equations = []
    for _ in range(unknowns + 3):
        mix = [rng.randint(-3, 3) for _ in range(rank)]
        row = [sum(m * b[j] for m, b in zip(mix, basis)) for j in range(unknowns)]
        row = [c * denominator for c in row]
        equations.append((row, int(sum(c * v for c, v in zip(row, x)))))
    if inconsistent:
        at = rng.randrange(len(equations))
        row, rhs = equations[at]
        equations[at] = (row, rhs + 1)
    return equations


def sparse_triangular_system(rng, unknowns):
    """Lower-triangular equations with few nonzeros below the diagonal and
    a diagonal of mostly 1s, some rows scaled by 2 or 3 with their right
    sides, in a shuffled order; then combinations of two of them, with an
    occasional right side off by 1.  Now and then one triangular equation
    is dropped."""
    x = [rng.randint(-5, 5) for _ in range(unknowns)]
    equations = []
    for i in range(unknowns):
        row = [rng.choice((0, 0, 0, 0, rng.randint(-4, 4))) for _ in range(i)]
        row += [1 if rng.random() < 0.7 else rng.choice((-3, -2, 2, 3, 4))]
        row += [0] * (unknowns - i - 1)
        scale = rng.choice((1, 1, 1, 2, 3))
        row = [scale * c for c in row]
        equations.append((row, sum(c * v for c, v in zip(row, x))))
    rng.shuffle(equations)
    for _ in range(3):
        (r1, b1), (r2, b2) = rng.choices(equations, k=2)
        m1, m2 = rng.randint(-3, 3), rng.randint(-3, 3)
        off = 1 if rng.random() < 0.2 else 0
        equations.append(([m1 * a + m2 * b for a, b in zip(r1, r2)], m1 * b1 + m2 * b2 + off))
    if rng.random() < 0.3:
        del equations[rng.randrange(unknowns)]
    return equations


@pytest.mark.parametrize("seed", range(6))
def test_integer_eliminator_equals_the_fraction_reference(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(60):
        unknowns = rng.randint(1, 6)
        rank = rng.randint(0, unknowns)
        inconsistent = rng.random() < 0.3
        outcome, _ = eliminate_alongside(unknowns, random_system(rng, unknowns, rank, inconsistent))
        seen.add(outcome)
    assert seen == {"full", "deficient", "inconsistent"}
    sparse_seen, unit_pivots, mixed_rows_solved = set(), set(), 0
    for _ in range(15):
        unknowns = rng.randint(1, 21)
        outcome, elim = eliminate_alongside(unknowns, sparse_triangular_system(rng, unknowns))
        sparse_seen.add(outcome)
        unit_pivots.update(row[pivot] == 1 for pivot, row in elim.rows.items())
        if outcome == "full":  # solve() skipped the zeros and still equalled the reference
            mixed_rows_solved += sum(0 in past and any(past) for past in (
                row[pivot + 1:unknowns] for pivot, row in elim.rows.items()))
    assert sparse_seen >= {"full", "inconsistent"}
    assert unit_pivots == {True, False}
    assert mixed_rows_solved  # pivot rows with zero and nonzero entries past the pivot


def test_a_full_rank_eliminator_absorbs_exactly_the_equations_its_solution_satisfies():
    """Once every column is a pivot, add stores nothing and returns whether
    solve()'s solution satisfies the new equation: the one consistency test
    derive_profile's holdout relies on."""
    rng = random.Random(24)
    seen, full = set(), 0
    for _ in range(40):
        unknowns = rng.randint(1, 6)
        elim = SparseEliminator(unknowns)
        for row, rhs in random_system(rng, unknowns, unknowns, False):
            assert elim.add(row, rhs)
        if elim.rank < unknowns:
            continue
        full += 1
        x = elim.solve()
        rows = {pivot: list(row) for pivot, row in elim.rows.items()}
        scale = lcm(*(v.denominator for v in x))
        for _ in range(8):
            row = [scale * rng.randint(-4, 4) for _ in range(unknowns)]
            rhs = int(sum(c * v for c, v in zip(row, x))) + rng.choice((0, 0, -1, 1))
            holds = sum(c * v for c, v in zip(row, x)) == rhs
            assert elim.add(row, rhs) == holds, (row, rhs, x)
            seen.add(holds)
            assert elim.rows == rows and elim.rank == unknowns
        assert elim.solve() == x
    assert full >= 20 and seen == {True, False}


def test_integer_eliminator_equals_the_dense_reference_on_derive_rows():
    """The rows derive_profile feeds at its default solve range, P = 1..20,
    for a few registry left sides and both row parities.  The Fraction
    reference sees these periods through derive_profile, in
    test_integer_derive_equals_the_fraction_reference."""
    seen = set()
    for target in (OracleRef("fib", a=2), OracleRef("Q"), OracleRef("A216597"),
                   OracleRef("pow3", b=-1), OracleRef("genlucas", param=5, a=2)):
        anchor = [] if target.name == "pow3" else [0]  # pow3(n - 1) has no value at n = 0
        for period in range(1, 21):
            for row_odd in (False, True):
                ns = [*([] if row_odd else anchor), *range(1, period + 5)]
                # an odd row's leading center coefficient is 0, with no column here
                equations = [(coeffs[row_odd:], target.value(n))
                             for n, coeffs in zip(ns, rows_at(period, row_odd, ns))]
                outcome, _ = eliminate_alongside(period if row_odd else period + 1, equations,
                                                 fractions=False)
                seen.add(outcome)
    assert seen == {"full", "deficient", "inconsistent"}


def probing_target_values(target, ns, stage, span):
    """The target at each n of ns, read as derive_profile read it before
    its oracles had a domain rule: one bulk read, and where that raises, one
    read per n as it is asked for, so the first n with no value raises only
    then.  The bulk read goes through identities' seq_values, the one
    OracleRef.read calls, so a test that tampers with that tampers with this
    too."""
    try:
        values = identities.seq_values(target.name, [target.a * n + target.b for n in ns],
                                       target.param)
    except ValueError:
        values = None
    if values is not None:
        yield from values
        return
    for n in ns:
        try:
            yield target.value(n)
        except ValueError as exc:
            raise ValueError(
                f"target {target.name}({target.index_str()}) has no value at n = {n}, "
                f"needed by the {stage} range {span[0]}..{span[1]}: {exc}") from exc


def eliminator_derive(target, period, row_odd=False, solve_start=1, solve_stop=None, holdout=20):
    """derive_profile as it was before it factored each system once: every
    equation goes through a SparseEliminator of its own, the solve range
    and then, at full rank, the holdout, and a system that passes them all
    is solved by back-substitution.  The same checks and messages; n = 0 is
    probed and the target read by probing_target_values, as they were before
    the domain rule."""
    if period < 1:
        raise ValueError("period must be >= 1")
    if solve_start < 0:
        raise ValueError("solve_start must be >= 0")
    if holdout < 0:
        raise ValueError("holdout must be >= 0")
    if solve_stop is None:
        solve_stop = solve_start + period + 3
    if solve_stop - solve_start + 1 < period + 2:
        raise ValueError(f"solve range must supply at least {period + 2} equations")
    get_oracle(target.name).check_param(target.param)
    unknowns = period if row_odd else period + 1
    elim = SparseEliminator(unknowns)
    solve, hold = (solve_start, solve_stop), (solve_stop + 1, solve_stop + holdout)
    ns = list(range(solve_start, solve_stop + 1))
    if not row_odd and 0 not in ns:
        try:
            target.value(0)
        except ValueError:
            pass
        else:
            ns.insert(0, 0)
    hold_ns = range(hold[0], hold[1] + 1)
    # an odd row's leading center coefficient is 0, with no column here
    rows = (coeffs[row_odd:] for coeffs in rows_at(period, row_odd, [*ns, *hold_ns]))
    out = {"target": target, "period": period, "row_odd": row_odd, "solve_range": solve}
    for n, coeffs, value in zip(ns, rows, probing_target_values(target, ns, "solve", solve)):
        if not elim.add(coeffs, value):
            return ProfileSolution(**out, status="infeasible", violated_n=n)
    if elim.rank < unknowns:
        return ProfileSolution(**out, status="underdetermined", dimension=unknowns - elim.rank)
    hold_values = probing_target_values(target, hold_ns, "holdout", hold)
    for n, coeffs, value in zip(hold_ns, rows, hold_values):
        if not elim.add(coeffs, value):
            return ProfileSolution(**out, status="infeasible", violated_n=n, holdout_range=hold)
    sol = elim.solve()
    center, weights = (Fraction(0), tuple(sol)) if row_odd else (sol[0], tuple(sol[1:]))
    return ProfileSolution(**out, status="unique", center=center, weights=weights,
                           holdout_range=hold)


def outcome(derive, *args, **kwargs):
    """Every field of derive's ProfileSolution, or the type and message of
    what it raised."""
    try:
        return derive(*args, **kwargs).__dict__
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, str(exc)


# Targets whose affine index leaves the oracle, or that read a parameter
ODD_TARGETS = [
    OracleRef("pell", a=-1, b=70), OracleRef("C", a=-1, b=4), OracleRef("C", a=-2, b=6),
    OracleRef("pow2", a=-1, b=30), OracleRef("fib", a=2, b=-3), OracleRef("pow3", b=-1),
    OracleRef("halfcentral"), OracleRef("halfcentral", a=3, b=-2),
    OracleRef("scriptL", param=2, a=2, b=-4), OracleRef("A094789", a=0, b=2),
    OracleRef("A094789", a=-1, b=30), OracleRef("genlucas", param=1, a=2),
    OracleRef("genlucas", a=2), OracleRef("nosuch"),
]

ERROR_AND_EARLY_VERDICT_CASES = [
    *(((OracleRef("pell", a=-1, b=70), p), {"solve_stop": 80}) for p in (1, 3, 5, 80)),
    ((OracleRef("pow2", a=-1, b=30), 2), {"solve_stop": 40, "holdout": 30}),
    ((OracleRef("C", a=-1, b=4), 1), {"solve_start": 0, "solve_stop": 4}),
    ((OracleRef("fib", param=2, a=2), 5), {"solve_start": 1, "solve_stop": 8}),
    ((OracleRef("fib", a=2), 0), {}),
    ((OracleRef("fib", a=2), 5), {"solve_start": -1, "solve_stop": 8}),
    ((OracleRef("fib", a=2), 5), {"holdout": -5}),
    ((OracleRef("fib", a=2), 5), {"solve_stop": 6}),
    *(((target, 3), {}) for target in ODD_TARGETS),
]


def test_derive_equals_the_eliminator_it_replaced():
    """Factored once per system, derive_profile gives every field and every
    error message the per-target SparseEliminator gave: every scan target at
    P = 1..30 and both parities, the error and early-verdict cases, and
    seeded random ranges."""
    cases = [((target, period, row_odd), {}) for target in foldable_left_sides()
             for period in range(1, 31) for row_odd in (False, True)]
    cases += ERROR_AND_EARLY_VERDICT_CASES
    rng = random.Random(26)
    pool = foldable_left_sides() + ODD_TARGETS
    for _ in range(400):
        period, start = rng.randint(1, 12), rng.randint(0, 5)
        kwargs = {"solve_start": start, "solve_stop": start + period + rng.randint(-1, 30),
                  "holdout": rng.randint(-1, 40)}
        cases.append(((rng.choice(pool), period, rng.random() < 0.4), kwargs))
    seen = set()
    for args, kwargs in cases:
        got = outcome(derive_profile, *args, **kwargs)
        assert got == outcome(eliminator_derive, *args, **kwargs), (args, kwargs)
        seen.add(got["status"] if isinstance(got, dict) else got[0])
    assert seen == {"unique", "underdetermined", "infeasible", "ValueError", "KeyError"}


ROUND_TRIP_FAMILIES = [
    "fib-even", "lucas-even", "catalan-paths-Q", "p6-paths-R", "qr-difference",
    "W-even", "half-row", "pellX-cosine", "pellY-kronecker", "A094831-S",
    "kron8-pell", "kron20-A094667", "kron5-alt-fib", "kron13-alt-A216597",
    "genlucas-even",
]


@pytest.mark.parametrize("family", ROUND_TRIP_FAMILIES)
def test_round_trip_recovers_registry_profiles(family):
    """Solving for the profile of each built-in left side must recover the
    registry's normalized weight table, uniquely."""
    for ident in find(family):
        center, weights = folded_profile(ident)
        period = len(weights)
        sol = derive_profile(ident.lhs, period,
                             solve_start=1, solve_stop=period + 4)
        assert sol.status == "unique", (ident.label, sol.status, sol.dimension)
        assert sol.center == center, ident.label
        assert sol.weights == weights, ident.label


def test_pow4_profile_is_the_full_row_sum():
    # 4^n has a pure profile (the whole row), so the solver prefers it over
    # the constant-plus-slice form the registry keeps for kron9-pow4
    sol = derive_profile(OracleRef("pow4"), 9, solve_start=1, solve_stop=13)
    assert sol.status == "unique"
    assert sol.center == 1 and sol.weights == (2,) * 9
    # At P = 13 from n = 4 the back-substitution scales the inverse by 2
    sol = derive_profile(OracleRef("pow4"), 13, solve_start=4)
    assert sol.center == 1 and sol.weights == (2,) * 13
    assert _factor(13, False, 4, 20, 20).denominator not in (1, -1)


def test_holdout_runs_twenty_indices():
    sol = derive_profile(OracleRef("pellX"), 12, solve_start=1, solve_stop=16)
    assert sol.status == "unique"
    lo, hi = sol.holdout_range
    assert hi - lo + 1 == 20


def test_identity_from_profile_feeds_back_into_verify():
    sol = derive_profile(OracleRef("fib", a=2), 5, solve_start=1, solve_stop=8)
    ident = identity_from_profile(sol)
    assert verify(ident, 50).passed
    with pytest.raises(ValueError):
        identity_from_profile(derive_profile(OracleRef("fib", a=2), 3,
                                             solve_start=1, solve_stop=8))


def test_solution_carries_the_target_it_solved_for():
    pell = OracleRef("pell", a=-1, b=70)
    for period in (1, 5, 12):
        assert derive_profile(pell, period).target == pell
    fib_odd = OracleRef("fib", a=2, b=1)
    sol = derive_profile(fib_odd, 5, row_odd=True)
    assert sol.status == "unique" and sol.target == fib_odd
    assert identity_from_profile(sol).lhs == fib_odd


def test_derived_domain_ends_where_a_decreasing_index_leaves_the_oracle():
    target = OracleRef("C", a=-1, b=4)
    sol = derive_profile(target, 1, solve_start=0, solve_stop=4, holdout=0)
    ident = identity_from_profile(sol)
    assert ident.lhs == target and (ident.domain.start, ident.domain.stop) == (0, 4)
    rep = verify(ident, 10)
    assert rep.passed and rep.checked == (0, 1, 2, 3, 4)


def test_derived_domain_of_an_increasing_index_starts_at_zero_with_a_backward_rule():
    # fib(2n-3) reads fib(-3) and fib(-1) in its solve rows n = 0 and 1
    sol = derive_profile(OracleRef("fib", a=2, b=-3), 5)
    assert sol.status == "unique"
    ident = identity_from_profile(sol)
    assert ident.domain.start == 0
    rep = verify(ident, 30)
    assert rep.passed and rep.checked[0] == 0
    # pow4 has no backward rule, so pow4(n-1) still starts where n-1 = 0
    assert identity_from_profile(derive_profile(OracleRef("pow4", b=-1), 1)).domain.start == 1


def test_derived_domain_of_a_steeper_index_on_an_oracle_that_starts_at_one():
    # scriptL(2)(n) = 2^(n-1) from n = 1, so scriptL(2)(2n-4) = 4^n / 32:
    # 2n - 4 >= 1 first at n = 3 (5/2 rounded up), where the index is 2
    target = OracleRef("scriptL", param=2, a=2, b=-4)
    assert get_oracle("scriptL").start == 1 and target.value(3) == 2
    with pytest.raises(ValueError, match="not defined at n = 0"):
        target.value(2)
    sol = derive_profile(target, 1, solve_start=3)
    assert (sol.status, sol.center, sol.weights) == ("unique", Fraction(1, 32), (Fraction(1, 16),))
    ident = identity_from_profile(sol)
    assert (ident.domain.start, ident.domain.stop) == (3, None)
    rep = verify(ident, 40)
    assert rep.passed and rep.checked == tuple(range(3, 41))
    # scriptL(2)(2n+1) = 4^n has its index 1 at n = 0 already
    ident = identity_from_profile(derive_profile(OracleRef("scriptL", param=2, a=2, b=1), 1))
    assert (ident.domain.start, ident.domain.stop) == (0, None)
    assert verify(ident, 40).passed


def test_derived_domain_of_a_falling_index_on_an_oracle_that_starts_at_one():
    # No falling index into A094789 has a unique profile, so the solution is
    # built by hand: 7 - 2n >= 1 last at n = 3, and n = 4 reads index -1.
    target = OracleRef("A094789", a=-2, b=7)
    sol = ProfileSolution(target, 1, False, "unique", Fraction(1), (Fraction(0),))
    ident = identity_from_profile(sol)
    assert (ident.domain.start, ident.domain.stop) == (0, 3)
    assert [target.value(n) for n in range(4)] == [seq_eval("A094789", i) for i in (7, 5, 3, 1)]
    with pytest.raises(ValueError, match="not defined at n = -1"):
        target.value(4)


def test_derived_domain_of_an_index_falling_by_two_ends_at_the_oracles_start():
    # C(m) is 0 for m < 5, so C(6-2n) is 12 at n = 0 and 0 at n = 1, 2, 3:
    # 12 times the alternating sum of row 2n, which is 1 at n = 0 and 0
    # after.  6 - 2n >= 0 last at n = 3 (index 0).
    target = OracleRef("C", a=-2, b=6)
    assert [target.value(n) for n in range(4)] == [12, 0, 0, 0]
    with pytest.raises(ValueError, match="not defined at n = -2"):
        target.value(4)
    sol = derive_profile(target, 2, solve_start=0, solve_stop=3, holdout=0)
    assert (sol.status, sol.center, sol.weights) == ("unique", 12, (24, -24))
    ident = identity_from_profile(sol)
    assert (ident.domain.start, ident.domain.stop) == (0, 3)
    rep = verify(ident, 10)
    assert rep.passed and rep.checked == (0, 1, 2, 3)


def test_derived_domain_of_a_constant_index_is_every_n():
    # A094789(0n+2) is the constant 4, which the period-3 table takes
    # (1 = the row 2n against cos(2k*pi/3)); A094789 starts at 1, and its
    # index 2 is read at every n, so the domain has neither start nor stop.
    target = OracleRef("A094789", a=0, b=2)
    assert get_oracle("A094789").start == 1 and target.value(0) == target.value(50) == 4
    sol = derive_profile(target, 3)
    assert (sol.status, sol.center, sol.weights) == ("unique", 4, (8, -4, -4))
    ident = identity_from_profile(sol)
    assert (ident.domain.start, ident.domain.stop) == (0, None)
    rep = verify(ident, 40)
    assert rep.passed and rep.checked == tuple(range(41))
    with pytest.raises(ValueError, match=r"A094789\(0\) has no value at n = 1"):
        derive_profile(OracleRef("A094789", a=0, b=0), 3)


def test_derived_identity_keeps_its_parameter():
    ident = identity_from_profile(derive_profile(OracleRef("genlucas", param=3, a=2), 7))
    assert ident.label == "derived-genlucas-M7[m=3]"
    doc = identity_json(ident)
    assert doc["param"] == doc["lhs"]["param"] == 3


def test_profile_json_shapes():
    unique = profile_json(derive_profile(OracleRef("Q"), 7, solve_start=1, solve_stop=10))
    assert unique["status"] == "unique"
    assert unique["weights"] == ["2", "-1", "0", "0", "0", "0", "-1"]
    assert unique["identity"]["terms"][0]["kind"] == "centered-sum"
    bad = profile_json(derive_profile(OracleRef("fib", a=2), 3, solve_start=1, solve_stop=8))
    assert bad["status"] == "infeasible" and "violated_n" in bad
