import random
from fractions import Fraction
from math import comb, lcm

import pytest

from binsums.cyclo import CycloVec, recognize_quad
from binsums.discovery import (
    _Eliminator,
    derive_profile,
    identity_from_profile,
    profile_from_angles,
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
from binsums.quadratic import QuadValue


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


def test_negative_solve_start_is_rejected_up_front():
    with pytest.raises(ValueError, match="solve_start must be >= 0"):
        derive_profile(OracleRef("fib", a=2), 5, solve_start=-1, solve_stop=8)


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


def test_integer_derive_equals_the_fraction_reference():
    targets = foldable_left_sides()
    assert len(targets) == 29
    statuses = set()
    for target in targets:
        for period in range(1, 11):
            for row_odd in (False, True):
                sol = derive_profile(target, period, row_odd)
                got = {"status": sol.status, "violated_n": sol.violated_n,
                       "dimension": sol.dimension, "center": sol.center,
                       "weights": sol.weights, "solve_range": sol.solve_range,
                       "holdout_range": sol.holdout_range}
                assert got == reference_derive(target, period, row_odd), (
                    target, period, row_odd)
                statuses.add(sol.status)
    assert statuses == {"unique", "underdetermined", "infeasible"}


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


@pytest.mark.parametrize("seed", range(6))
def test_integer_eliminator_equals_the_fraction_reference(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(60):
        unknowns = rng.randint(1, 6)
        rank = rng.randint(0, unknowns)
        inconsistent = rng.random() < 0.3
        ints, ref = _Eliminator(unknowns), FractionEliminator(unknowns)
        for row, rhs in random_system(rng, unknowns, rank, inconsistent):
            ok = ints.add(row, rhs)
            assert ok == ref.add(row, rhs)
            assert ints.rank == ref.rank
            if not ok:
                seen.add("inconsistent")
                break
        else:
            if ints.rank == unknowns:
                seen.add("full")
                assert ints.solve() == ref.solve()
            else:
                seen.add("deficient")
    assert seen == {"full", "deficient", "inconsistent"}


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


# --- exact angle profiles ----------------------------------------------------

def test_profile_from_angles_legendre():
    scale = QuadValue(0, Fraction(1, 5), 5)  # 1/sqrt(5)
    table = profile_from_angles(5, [(1, 1), (3, -1)], scale, 5)
    assert table == [QuadValue(k) for k in (0, 1, -1, -1, 1)]


def test_profile_from_angles_lucas_block():
    table = profile_from_angles(5, [(1, 1), (3, 1)], 1, 5)
    assert table == [QuadValue(k) for k in (4, -1, -1, -1, -1)]


def test_profile_from_angles_pell_cosine_table():
    table = profile_from_angles(12, [(1, 1), (5, 1)], Fraction(1, 2), 3)
    assert [w.a for w in table] == [2, 0, 1, 0, -1, 0, -2, 0, -1, 0, 1, 0]
    assert all(w.is_rational for w in table)
    # matches the period-12 registry table for the x-side Pell identity
    registry_table = find("pellX-cosine")[0].terms[1].weights
    assert tuple(w.a for w in table) == registry_table


def test_profile_from_angles_periodicity():
    n_angle = 12
    table = profile_from_angles(n_angle, [(1, 1), (5, 1)], Fraction(1, 2), 3)
    for k in range(3 * n_angle):
        entry = QuadValue(Fraction(1, 2)) * (
            recognize_quad(CycloVec.two_cos(2 * n_angle, 2 * k * 1), 3)
            + recognize_quad(CycloVec.two_cos(2 * n_angle, 2 * k * 5), 3)
        )
        assert entry == table[k % n_angle]


def test_profile_from_angles_reports_offending_residue():
    # the golden-ratio cosines do not live in Q(sqrt 2)
    with pytest.raises(ValueError, match="residue 0"):
        profile_from_angles(5, [(1, 1), (3, -1)], 1, 2)
