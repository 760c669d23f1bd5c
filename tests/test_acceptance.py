"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison is exact, with no tolerance anywhere.
"""
import time

import cyclo_reference as ring
import identities_reference as ref
from binsums.core import binomial, class_sums, kronecker
from binsums.discovery import derive_profile
from binsums.identities import (
    FAMILIES,
    OracleRef,
    builtin_registry,
    find,
    verify,
)
from binsums.oeis import FIXTURES, compare, load_fixture
from binsums.sequences import seq_eval

SWEEP_LIMIT = 60


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_full_registry_sweep():
    t0 = time.perf_counter()
    failures = []
    total = 0
    for ident in builtin_registry():
        rep = verify(ident, SWEEP_LIMIT)
        total += len(rep.checked)
        if not rep.passed:
            failures.append((ident.label, rep.first_divergence))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report(1, ok, f"{len(FAMILIES)} families / {len(builtin_registry())} identities, "
                  f"{total} instances on domain ∩ [0, {SWEEP_LIMIT}], "
                  f"{elapsed:.2f}s (budget 10s), failures: {failures}")


def test_criterion_2_displayed_expansions():
    term = find("fib-even")[0].terms[0]
    want_12 = [(12, 7, 1), (12, 8, -1), (12, 9, -1), (12, 10, 1), (12, 12, 1)]
    want_14 = [(14, 8, 1), (14, 9, -1), (14, 10, -1), (14, 11, 1), (14, 13, 1), (14, 14, -1)]
    got_12 = [(r, c, int(w)) for r, c, w in ref.terms_at(term, 6)]
    got_14 = [(r, c, int(w)) for r, c, w in ref.terms_at(term, 7)]
    ok = (got_12 == want_12 and got_14 == want_14
          and sum(w * binomial(r, c) for r, c, w in got_12) == 144 == seq_eval("fib", 12)
          and sum(w * binomial(r, c) for r, c, w in got_14) == 377 == seq_eval("fib", 14))
    report(2, ok, "F(12) and F(14) signed expansions reproduced term for term")


def test_criterion_3_cosine_power_oracle_equivalence():
    """The reference cosine power vector against the class sums of
    core.class_sums folded onto the exponents of the cosine power."""
    checked = 0
    for n_mod in range(1, 25):
        for odd in (False, True):
            for n, (middle, sums) in zip(range(16), class_sums(n_mod, odd)):
                power = 2 * n + odd  # both parities of n <= 15
                for e in range(0, 6):
                    fold = ring.fold_class_sums(n_mod, e, odd, middle, sums)
                    if ring.cos_power_vector(n_mod, e, power) != tuple(fold):
                        report(3, False, f"divergence at N={n_mod}, e={e}, power={power}")
                    checked += 1
    report(3, True, f"{checked} vector comparisons, zero tolerance")


def test_criterion_4_pell():
    ok = all(seq_eval("pellX", n) ** 2 - 3 * seq_eval("pellY", n) ** 2 == 1
             for n in range(0, 51))
    x_pref = [ref.rhs_eval(find("pellX-alternating")[0], n) for n in range(7)]
    y_pref = [ref.rhs_eval(find("pellY-kronecker")[0], n) for n in range(7)]
    ok = ok and x_pref == [1, 2, 7, 26, 97, 362, 1351]
    ok = ok and y_pref == [0, 1, 4, 15, 56, 209, 780]
    report(4, ok, f"x^2 - 3y^2 = 1 for n <= 50; identity prefixes {x_pref[:5]} / {y_pref[:5]}")


def test_criterion_5_partial_row_propositions():
    bad = []
    for family in ("prop1-A", "prop1-B", "prop1-C"):
        rep = verify(find(family)[0], 50, n_min=1)
        if not rep.passed:
            bad.append((family, rep.first_divergence))
    report(5, not bad, f"partial-row sums vs closed forms, 1 <= n <= 50, failures: {bad}")


def test_criterion_6_central_binomial():
    tri = [[1]]
    for n in range(1, 80):
        prev = tri[-1]
        tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    ok = True
    for n in range(2, 41, 2):
        lhs = binomial(2 * n - 1, n - 1)
        rhs = 1 + seq_eval("scriptL", n, param=n)
        ok = ok and lhs == rhs == tri[2 * n - 1][n - 1]
    instance = 1 + seq_eval("scriptL", 10, param=10)
    ok = ok and instance == 92378 == tri[19][9]
    report(6, ok, f"C(2n-1, n-1) power-sum form for even n <= 40; n = 10 gives {instance}")


def test_criterion_7_discovery_round_trip():
    results = []
    for target, period, stop, want in [
        (OracleRef("fib", a=2), 5, 8, (0, (0, 1, -1, -1, 1))),
        (OracleRef("pow3"), 6, 9, (1, (2, 1, -1, -2, -1, 1))),
        (OracleRef("Q"), 7, 10, (1, (2, -1, 0, 0, 0, 0, -1))),
    ]:
        sol = derive_profile(target, period, solve_start=1, solve_stop=stop)
        hold = sol.holdout_range[1] - sol.holdout_range[0] + 1 if sol.status == "unique" else 0
        results.append(sol.status == "unique" and (sol.center, sol.weights) == want
                       and hold == 20)
    report(7, all(results), "Legendre mod 5, period-6 powers of 3, normalized Q profile; "
                            "each unique with 20 held-out indices")


def test_criterion_8_kronecker_against_brute_force():
    def legendre(k, p):
        r = k % p
        if r == 0:
            return 0
        return 1 if r in {pow(t, 2, p) for t in range(1, p)} else -1

    ok = all(kronecker(k, p) == legendre(k, p)
             for p in (5, 13) for k in range(0, 10 * p + 1))
    ok = ok and [kronecker(k, 5) for k in range(5)] == [0, 1, -1, -1, 1]
    ok = ok and [kronecker(k, 12) for k in range(12)] == [0, 1, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1]
    report(8, ok, "quadratic-residue brute force for p = 5, 13; explicit mod 5 / mod 12 tables")


def test_criterion_9_oeis_fixtures():
    bad = []
    twelve = [(sid, seq, param) for sid, (seq, param) in FIXTURES.items()
              if sid not in ("A007052", "A081567")]
    assert len(twelve) == 12
    for sid, seq, param in twelve:
        rep = compare(seq, load_fixture(sid), count=50, param=param)
        if not (rep.is_match and rep.matched >= 50):
            bad.append(sid)
    signed = load_fixture("A094648")[7] == -57
    control = compare("pellX", load_fixture("A001353"), count=50)
    ok = not bad and signed and not control.is_match and control.first_mismatch is not None
    report(9, ok, f"12 bundled fixtures match >= 50 terms (failures: {bad}); "
                  f"signed prefix kept; wrong pairing diverges at n={control.first_mismatch[0]}")


def test_criterion_10_cosine_product():
    from binsums.identities import CosProduct

    products = CosProduct().values(list(range(201)))
    bad = []
    for n in range(0, 201):
        product = products[n]
        lucas_val = seq_eval("lucas", 2 * n + 1)
        diagonal = ref.rhs_eval(find("sury-diagonal")[0], n)
        if not product == lucas_val == diagonal:
            bad.append(n)
    report(10, not bad, f"product equals L(2n+1) and the diagonal form exactly for "
                        f"n <= 200, failures: {bad}")
