import json
from dataclasses import replace
from fractions import Fraction

import pytest

from binsums import identities
from binsums.core import binomial, kronecker
from binsums.cyclo import CycloVec, as_integer, centered_reduction, cos_power_vector
from binsums.identities import (
    _COSPOW_MODULI,
    _SIGNS,
    FAMILIES,
    BinomialTransform,
    CenteredSum,
    CosProduct,
    Domain,
    Identity,
    OracleRef,
    Power,
    SIGN_ALT_NK,
    SIGN_NONE,
    VerificationReport,
    builtin_registry,
    expand_terms,
    find,
    folded_profile,
    identity_json,
    perturbed,
    registry_json,
    rhs_eval,
    rhs_values,
    verify,
)
from binsums.quadratic import QuadValue
from binsums.sequences import _POWER_SUM_SPECS, seq_eval


def test_registry_shape():
    assert len(FAMILIES) == 37
    reg = builtin_registry()
    assert len(reg) == 61  # 32 singles + 7 + 7 + 7 + 5 + 3 parameter expansions
    assert [i.family for i in reg if i.family == "genlucas-even"] == ["genlucas-even"] * 7
    assert [i.param for i in find("lewis-family")] == [1, 2, 3, 4, 5]
    assert [i.param for i in find("lucas1878-odd-power")] == [1, 2, 3]


def test_rhs_eval_examples():
    assert rhs_eval(find("fib-even")[0], 3) == 8          # C(6,4)-C(6,5)-C(6,6)
    assert rhs_eval(find("fib-even")[0], 6) == 144
    assert rhs_eval(find("lucas-odd")[0], 2) == 11        # 2^4 - 5 C(5,5)
    assert rhs_eval(find("pellY-kronecker")[0], 3) == 15  # C(6,4)
    assert rhs_eval(find("W-even")[0], 2) == 13           # (7/2) C(4,2) - 2^3
    assert rhs_eval(find("pow3")[0], 3) == 9              # C(5,3) - C(6,6)
    assert find("pow3")[0].lhs.value(3) == 9
    assert rhs_eval(find("kron9-pow4")[0], 2) == 16       # 1 + 3(C(4,3) + C(4,4))


def test_displayed_fibonacci_expansions():
    """The two printed signed expansions, reproduced term for term."""
    fib_even = find("fib-even")[0]
    assert expand_terms(fib_even, 6) == [
        (12, 7, 1), (12, 8, -1), (12, 9, -1), (12, 10, 1), (12, 12, 1),
    ]
    assert sum(w * binomial(r, c) for r, c, w in expand_terms(fib_even, 6)) == 144
    assert expand_terms(fib_even, 7) == [
        (14, 8, 1), (14, 9, -1), (14, 10, -1), (14, 11, 1), (14, 13, 1), (14, 14, -1),
    ]
    assert sum(w * binomial(r, c) for r, c, w in expand_terms(fib_even, 7)) == 377


def test_full_registry_passes():
    for ident in builtin_registry():
        report = verify(ident, 40)
        assert report.passed, (ident.label, report.first_divergence,
                               report.lhs_at_divergence, report.rhs_at_divergence)


def test_perturbed_weight_is_caught():
    bad = perturbed(find("fib-even")[0], 2, +1)
    report = verify(bad, 10, n_min=1)
    assert not report.passed
    assert report.first_divergence == 2


def test_exit_values_of_reports():
    report = verify(find("fib-even")[0], 12)
    assert report.passed
    assert report.checked == tuple(range(13))
    assert all(report.per_n)
    assert report.first_divergence is None
    assert report.elapsed >= 0


def test_truncation_soundness():
    """Widening any sum's cutoff by three extra periods changes nothing."""
    for family in ("fib-even", "fib-odd", "lucas-odd", "catalan-paths-Q",
                   "pellY-stride6", "A094831-S", "kron20-A094667"):
        ident = find(family)[0]
        period = max(t.period for t in ident.terms if isinstance(t, CenteredSum))
        for n in ident.domain.indices(0, 20):
            assert rhs_eval(ident, n) == rhs_eval(ident, n, extra=3 * period)


def test_equivalence_pairs():
    x1, x2 = find("pellX-alternating")[0], find("pellX-cosine")[0]
    y1, y2 = find("pellY-kronecker")[0], find("pellY-stride6")[0]
    for n in range(0, 61):
        assert rhs_eval(x1, n) == rhs_eval(x2, n)
        assert rhs_eval(y1, n) == rhs_eval(y2, n)


def test_prop1_left_sides_fill_the_half_row():
    for n in range(1, 41):
        total = sum(find(f)[0].lhs.value(n) for f in ("prop1-A", "prop1-B", "prop1-C"))
        assert total == 2 ** (2 * n - 1) - binomial(2 * n - 1, n)


def test_mod5_profile_table():
    from binsums.discovery import profile_from_angles

    table = profile_from_angles(5, [(1, 1), (3, -1)], 1, 5)
    from binsums.core import kronecker

    assert table == [QuadValue(0, kronecker(k, 5), 5) for k in range(5)]
    assert verify(find("mod5-profile")[0], 20).passed


def test_lewis_sign_rules():
    # odd t: t + 1 even, so every sign degenerates to +1
    for ident in find("lewis-family"):
        term = ident.terms[0]
        assert term.sign == (SIGN_NONE if ident.param % 2 else SIGN_ALT_NK)
    alt = CenteredSum((Fraction(1),), 1, sign=SIGN_ALT_NK)
    assert [alt._sign_at(3, k) for k in range(4)] == [-1, 1, -1, 1]
    assert [alt._sign_at(4, k) for k in range(4)] == [1, -1, 1, -1]


def _assert_verify_raises_like_rhs_eval(ident, first_bad_n):
    with pytest.raises(ValueError) as direct:
        rhs_eval(ident, first_bad_n)
    with pytest.raises(ValueError) as swept:
        verify(ident, first_bad_n + 5)
    assert str(swept.value) == str(direct.value)
    assert str(swept.value).endswith(f"at n = {first_bad_n}")


def test_surviving_surd_is_an_error():
    # sqrt(5) times the Legendre weights cannot sum to a rational
    weights = tuple(QuadValue(0, seq_eval("fib", 0) + w, 5) for w in (0, 1, -1, -1, 1))
    ident = Identity("synthetic-surd", OracleRef("fib", a=2),
                     (CenteredSum(weights, 5),), Domain(1))
    with pytest.raises(ValueError, match="quadratic part"):
        rhs_eval(ident, 2)
    _assert_verify_raises_like_rhs_eval(ident, 1)


def test_non_integer_total_is_an_error():
    ident = Identity("synthetic-half", OracleRef("fib", a=2),
                     (CenteredSum((Fraction(1, 2),), 1),), Domain(1))
    with pytest.raises(ValueError, match="not an integer"):
        rhs_eval(ident, 1)
    _assert_verify_raises_like_rhs_eval(ident, 1)


def test_quadratic_weights_that_cancel_across_terms_are_fine():
    # phi + psi = 1: the surd parts of two sums cancel, leaving the half row
    phi = QuadValue(Fraction(1, 2), Fraction(1, 2), 5)
    psi = QuadValue(Fraction(1, 2), Fraction(-1, 2), 5)
    ident = Identity("synthetic-cancel", OracleRef("halfrow"),
                     (CenteredSum((phi,), 1), CenteredSum((psi,), 1)), Domain(0))
    for n in range(0, 10):
        direct = sum(binomial(2 * n, n + k) for k in range(1, n + 1))
        assert rhs_eval(ident, n) == direct
    assert rhs_values(ident, range(10)) == [rhs_eval(ident, n) for n in range(10)]


@pytest.mark.parametrize("n_min", [0, 7])
def test_sweep_equals_direct_evaluation_on_the_registry(n_min):
    for ident in builtin_registry():
        if ident.kind != "sum":
            continue
        ns = ident.domain.indices(n_min, 80)
        assert rhs_values(ident, ns) == [rhs_eval(ident, n) for n in ns], ident.label


def test_cos_product_equals_the_product_in_the_group_ring():
    """The slow, independent route: multiply out prod_{s=1}^n (3 - z^s - z^-s)
    in Z[z]/(z^(2n+1) - 1) and read it back as a rational integer."""
    for n in range(0, 31):
        m = 2 * n + 1
        prod = CycloVec.one(m)
        for s in range(1, n + 1):
            prod = prod * (CycloVec.one(m).scale(3) - CycloVec.two_cos(m, s))
        assert CosProduct().evaluate(n) == as_integer(prod), n


def test_cos_product_failure_reports_exact_values():
    ident = Identity("synthetic-cos-product", OracleRef("lucas", a=2, b=3), (CosProduct(),))
    rep = verify(ident, 10)
    assert rep.first_divergence == 0
    assert (rep.lhs_at_divergence, rep.rhs_at_divergence) == ("4", "1")


def _synthetic_sums():
    fractional = (Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 7))
    root5 = QuadValue(Fraction(1, 2), Fraction(1, 2), 5)
    for sign in _SIGNS:
        for row_odd in (False, True):
            yield CenteredSum(fractional[:3], 3, row_odd, Fraction(3, 4), sign)
            yield CenteredSum(fractional, 4, row_odd, Fraction(-1, 6), sign)
            yield CenteredSum((root5, 0, QuadValue(0, -2, 5)), 3, row_odd, 2, sign)
            yield CenteredSum((1, Fraction(1, 3)), 2, row_odd, 1, sign,
                              weight_oracle=OracleRef("lucas", a=3, b=-1))
            yield CenteredSum((0, 2, -1), 3, row_odd, 0, sign,
                              weight_oracle=OracleRef("lewis", param_from_n=True))


def test_sweep_equals_direct_evaluation_on_synthetic_sums():
    """Every sign rule, both row parities, fractional and surd weights, and
    weight oracles with and without an n-dependent parameter."""
    ns = list(range(2, 40)) + [45, 52]
    for term in _synthetic_sums():
        swept = term.sweep(ns)
        direct = [term.evaluate(n) for n in ns]
        assert [QuadValue.of(v) for v in swept] == [QuadValue.of(v) for v in direct], term


def test_stepped_binomial_transform_equals_direct_evaluation():
    for term in (BinomialTransform(OracleRef("lewis", param_from_n=True), 3, 4),
                 BinomialTransform(OracleRef("fib", a=2, b=-3), 2, 1)):
        ns = list(range(2, 30))
        assert term.sweep(ns) == [term.evaluate(n) for n in ns]


def _reference_sides(ident: Identity, n: int) -> tuple:
    """Both sides at n the direct way, one n at a time, for every kind."""
    if ident.kind == "profile":
        table = identities._mod5_profile_table()
        return QuadValue(0, kronecker(n % 5, 5), 5), table[n % 5]
    if ident.kind == "vector":
        power = 2 * n + ident.param
        for n_mod, e in _COSPOW_MODULI:
            direct = centered_reduction(n_mod, e, power)
            fast = cos_power_vector(n_mod, e, power)
            if direct != fast:
                return list(direct.coeffs), list(fast.coeffs)
        return ident.lhs.value(n, n), 2**power
    return ident.lhs.value(n, n), rhs_eval(ident, n)


def _reference_report(ident: Identity, n_max: int, n_min: int = 0) -> VerificationReport:
    ns = ident.domain.indices(n_min, n_max)
    sides = [_reference_sides(ident, n) for n in ns]
    bad = [(n, lhs, rhs) for n, (lhs, rhs) in zip(ns, sides) if lhs != rhs]
    first, lhs, rhs = bad[0] if bad else (None, None, None)
    per_n = tuple(left == right for left, right in sides)
    return VerificationReport(ident.label, tuple(ns), per_n, first,
                              None if first is None else str(lhs),
                              None if first is None else str(rhs), 0.0)


_REPORT_FIELDS = ("label", "checked", "per_n", "first_divergence",
                  "lhs_at_divergence", "rhs_at_divergence")


def _assert_same_report(got: VerificationReport, want: VerificationReport, *context) -> None:
    for name in _REPORT_FIELDS:
        assert getattr(got, name) == getattr(want, name), (*context, name)


def test_registry_reports_equal_the_reference():
    for ident in builtin_registry():
        _assert_same_report(verify(ident, 40), _reference_report(ident, 40), ident.label)


def test_stepped_cospow_vectors_equal_the_per_n_vectors():
    for n_mod, e in _COSPOW_MODULI:
        for odd in (False, True):
            walk = identities._cospow_vectors(n_mod, e, odd)
            for n, (fold, power) in zip(range(61), walk):
                row = 2 * n + odd
                assert fold == list(centered_reduction(n_mod, e, row).coeffs), (n_mod, e, row)
                assert power == cos_power_vector(n_mod, e, row), (n_mod, e, row)


def _cospow_variants():
    for family in ("cospow-even", "cospow-odd"):
        ident = find(family)[0]
        yield ident
        for lhs in (OracleRef("pow2", a=2, b=1 - ident.param), OracleRef("pow3", a=2)):
            yield replace(ident, lhs=lhs)
        yield replace(ident, domain=Domain(start=3, even_only=True))


def test_stepped_cospow_reports_equal_the_per_n_route():
    for ident in _cospow_variants():
        for n_min in (0, 7, 33):
            _assert_same_report(verify(ident, 60, n_min), _reference_report(ident, 60, n_min),
                                ident.label, ident.lhs, n_min)


def test_cospow_compares_its_left_side():
    ident = find("cospow-even")[0]
    assert verify(ident, 60).passed
    wrong = replace(ident, lhs=OracleRef("pow2", a=2, b=1))
    rep = verify(wrong, 30)
    assert (rep.first_divergence, rep.lhs_at_divergence, rep.rhs_at_divergence) == (0, "2", "1")
    rep = verify(wrong, 30, n_min=5)
    assert (rep.first_divergence, rep.lhs_at_divergence, rep.rhs_at_divergence) == (5, "2048", "1024")


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("slipped", range(5))
def test_cospow_fold_slip_is_caught_at_its_first_n(monkeypatch, odd, slipped):
    """Class r of k >= 1 first reaches row 2n at n = k and row 2n+1 at
    n = k - 1, with k = r or, for r = 0, the smallest modulus 5; moving it
    by one residue must fail there, on the first modulus."""
    fold = identities._cospow_fold

    def slipped_fold(n_mod, e, odd_row, middle, sums):
        out = fold(n_mod, e, odd_row, middle, sums)
        j = e * (2 * slipped - 1) if odd_row else 2 * e * slipped
        out[j % n_mod] -= sums[slipped]
        out[(j + 1) % n_mod] += sums[slipped]
        return out

    monkeypatch.setattr(identities, "_cospow_fold", slipped_fold)
    ident = find("cospow-odd" if odd else "cospow-even")[0]
    first = (slipped or 5) - odd
    rep = verify(ident, 40)
    assert rep.first_divergence == first
    assert rep.per_n[:first] == (True,) * first
    assert rep.rhs_at_divergence == str(list(cos_power_vector(5, 1, 2 * first + odd).coeffs))
    assert rep.lhs_at_divergence != rep.rhs_at_divergence


@pytest.mark.parametrize("odd", [False, True])
def test_wrong_cospow_step_is_caught_at_the_first_step(monkeypatch, odd):
    ident = find("cospow-odd" if odd else "cospow-even")[0]
    for wrong in (lambda n_mod, e: CycloVec.two_cos(n_mod, 2 * e) + CycloVec.one(n_mod),
                  lambda n_mod, e: (CycloVec.two_cos(n_mod, 2 * e + 1)
                                    + CycloVec.one(n_mod).scale(2))):
        monkeypatch.setattr(identities, "_cospow_step", wrong)
        assert verify(ident, 20).first_divergence == 1
        assert verify(ident, 20, n_min=3).first_divergence == 3


def test_central_delight_keeps_no_power_sum_spec_per_n():
    assert verify(find("central-delight")[0], 200).passed
    assert not [key for key in _POWER_SUM_SPECS if key[0] == "scriptL" and key[1] > 8]


def test_perturbed_reports_equal_direct_evaluation():
    for ident in builtin_registry():
        cs = next((t for t in ident.terms if isinstance(t, CenteredSum)), None)
        if cs is None:
            continue
        for residue, weight in enumerate(cs.weights):
            if not weight:
                continue
            for change in (-1, 1):
                bad = perturbed(ident, residue, weight + change)
                swept = verify(bad, 40)
                assert not swept.passed
                _assert_same_report(swept, _reference_report(bad, 40), bad.label, residue)


def test_domains():
    assert find("lucas-even")[0].domain.start == 1
    assert find("prop1-C")[0].domain.start == 1
    assert find("pow3")[0].domain.start == 1
    assert find("scriptL-merca")[0].domain.start == 1
    assert find("qr-difference")[0].domain.start == 1
    dom = find("central-delight")[0].domain
    assert dom.start == 2 and dom.even_only
    assert dom.indices(0, 11) == [2, 4, 6, 8, 10]
    # no left side is read from bundled data, so no domain stops short
    assert all(i.domain.stop is None for i in builtin_registry())


def test_folded_profiles():
    assert folded_profile(find("W-even")[0]) == (3, (6, -1, -1, -1, -1, -1, -1))
    assert folded_profile(find("lucas-even")[0]) == (2, (4, -1, -1, -1, -1))
    for ident in find("genlucas-even"):
        center, weights = folded_profile(ident)
        m = ident.param
        assert center == m
        assert weights == (2 * m,) + (-1,) * (2 * m)
    center, weights = folded_profile(find("pow3")[0])
    assert center == Fraction(1, 2)
    assert weights == (1, 0, 0, -1, 0, 0)


def test_folded_profile_evaluates_like_the_identity():
    for family in ("W-even", "lucas-even", "pellX-cosine", "kron5-alt-fib"):
        ident = find(family)[0]
        center, weights = folded_profile(ident)
        period = len(weights)
        for n in ident.domain.indices(0, 25):
            direct = center * binomial(2 * n, n) + sum(
                weights[k % period] * binomial(2 * n, n + k) for k in range(1, n + 1)
            )
            assert direct == rhs_eval(ident, n)


def test_unfoldable_terms_are_rejected():
    with pytest.raises(ValueError):
        folded_profile(find("lewis-family")[0])  # oracle-weighted
    with pytest.raises(ValueError):
        folded_profile(find("sury-diagonal")[0])  # not a centered sum


def test_json_export():
    doc = registry_json()
    assert len(doc["identities"]) == 61
    text = json.dumps(doc)
    assert json.loads(text) == doc
    fib_even = identity_json(find("fib-even")[0])
    assert fib_even["terms"][0]["weights"] == ["0", "1", "-1", "-1", "1"]
    assert fib_even["lhs"] == {"sequence": "fib", "param": None, "index": "2n"}
    surd = json.dumps(identity_json(find("mod5-profile")[0]))
    assert json.loads(surd)["kind"] == "profile"


def test_weight_oracle_index_follows_index_str():
    def index(oracle):
        term = CenteredSum((1,), 1, weight_oracle=oracle)
        return identity_json(Identity("synthetic", OracleRef("fib"), (term,)))[
            "terms"][0]["weight_oracle"]["index"]

    assert index(OracleRef("lucas")) == "k"
    assert index(OracleRef("lucas", b=2)) == "k+2"
    assert index(OracleRef("lucas", a=3, b=-1)) == "3k-1"
    assert identity_json(find("lewis-family")[1])["terms"][0]["weight_oracle"] == {
        "sequence": "lucas", "index": "4k"}
    assert identity_json(find("sury-product")[0])["terms"] == [{"kind": "cos-product"}]


def test_power_exponents_follow_index_str():
    def exported(term):
        return identity_json(Identity("synthetic", OracleRef("fib", a=-1, b=3), (term,)))

    doc = exported(Power(1, 2, 1))
    assert doc["lhs"]["index"] == "-n+3"
    assert doc["terms"][0]["exponent"] == "n"
    assert exported(Power(1, 2, -1, 2))["terms"][0]["exponent"] == "-n+2"
    assert exported(Power(1, 2, 2, -1))["terms"][0]["exponent"] == "2n-1"
    assert exported(Power(1, 2, 2))["terms"][0]["exponent"] == "2n"


def test_labels():
    assert find("fib-even")[0].label == "fib-even"
    assert find("scriptL-merca")[1].label == "scriptL-merca[m=3]"
    assert find("lewis-family")[2].label == "lewis-family[t=3]"
    assert find("cospow-even")[0].label == "cospow-even"
