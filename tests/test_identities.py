import json
from fractions import Fraction

import pytest

from binsums.core import binomial
from binsums.cyclo import CycloVec, as_integer
from binsums.identities import (
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
    SignedRowConvolution,
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
    assert len(FAMILIES) == 34
    reg = builtin_registry()
    assert len(reg) == 58  # 29 singles + 7 + 7 + 7 + 5 + 3 parameter expansions
    assert [i.family for i in reg if i.family == "genlucas-even"] == ["genlucas-even"] * 7
    assert [i.lhs.param for i in find("lewis-family")] == [1, 2, 3, 4, 5]
    assert [i.lhs.param for i in find("lucas1878-odd-power")] == [1, 2, 3]


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


def test_lewis_sign_rules():
    # odd t: t + 1 even, so every sign degenerates to +1
    for ident in find("lewis-family"):
        term = ident.terms[0]
        assert term.sign == (SIGN_NONE if ident.lhs.param % 2 else SIGN_ALT_NK)
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
                              weight_oracle=OracleRef("lewis", param=2))


def test_sweep_equals_direct_evaluation_on_synthetic_sums():
    """Every sign rule, both row parities, fractional and surd weights, and
    weight oracles with and without a parameter."""
    ns = list(range(2, 40)) + [45, 52]
    for term in _synthetic_sums():
        swept = term.sweep(ns)
        direct = [term.evaluate(n) for n in ns]
        assert [QuadValue.of(v) for v in swept] == [QuadValue.of(v) for v in direct], term


def test_stepped_binomial_transform_equals_direct_evaluation():
    for term in (BinomialTransform(OracleRef("lewis", param=2), 3, 4),
                 BinomialTransform(OracleRef("fib", a=2, b=-3), 2, 1)):
        ns = list(range(2, 30))
        assert term.sweep(ns) == [term.evaluate(n) for n in ns]


def _reference_sides(ident: Identity, n: int) -> tuple:
    """Both sides at n the direct way, one n at a time."""
    return ident.lhs.value(n), rhs_eval(ident, n)


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


def test_central_delight_keeps_no_power_sum_spec_per_n():
    before = set(_POWER_SUM_SPECS)
    assert verify(find("central-delight")[0], 200).passed
    assert set(_POWER_SUM_SPECS) == before


def test_domains_and_sweeps_reject_negative_n():
    with pytest.raises(ValueError, match="n >= 0"):
        Domain(-1)
    with pytest.raises(ValueError, match="not defined at n = -1"):
        rhs_values(find("fib-even")[0], [-1, 0])


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
        m = ident.lhs.param
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
    assert len(doc["identities"]) == 58
    text = json.dumps(doc)
    assert json.loads(text) == doc
    assert {i["kind"] for i in doc["identities"]} == {"sum"}
    fib_even = identity_json(find("fib-even")[0])
    assert fib_even["terms"][0]["weights"] == ["0", "1", "-1", "-1", "1"]
    assert fib_even["lhs"] == {"sequence": "fib", "param": None, "index": "2n"}


def test_weight_oracle_index_follows_index_str():
    def index(oracle):
        term = CenteredSum((1,), 1, weight_oracle=oracle)
        return identity_json(Identity("synthetic", OracleRef("fib"), (term,)))[
            "terms"][0]["weight_oracle"]["index"]

    assert index(OracleRef("lucas")) == "k"
    assert index(OracleRef("lucas", b=2)) == "k+2"
    assert index(OracleRef("lucas", a=3, b=-1)) == "3k-1"
    assert identity_json(find("lewis-family")[1])["terms"][0]["weight_oracle"] == {
        "sequence": "lucas", "param": None, "index": "4k"}
    assert identity_json(find("sury-product")[0])["terms"] == [{"kind": "cos-product"}]


def _oracle_refs(doc: dict):
    """Every sequence reference of an exported identity: its left side, each
    weight oracle, and the reference fields of each oracle-citing term."""
    yield doc["lhs"]
    for term in doc["terms"]:
        if term["kind"] in ("scaled-oracle", "binomial-transform", "signed-row-convolution"):
            yield {key: value for key, value in term.items()
                   if key not in ("kind", "coeff", "stride", "offset")}
        elif term["kind"] == "centered-sum" and term["weight_oracle"] is not None:
            yield term["weight_oracle"]


def test_every_oracle_reference_exports_sequence_param_and_index():
    refs = [ref for ident in builtin_registry() for ref in _oracle_refs(identity_json(ident))]
    assert len(refs) == 58 + 4 + 5 + 2 + 3
    assert all(set(ref) == {"sequence", "param", "index"} for ref in refs)
    delight = identity_json(find("central-delight")[0])["terms"][1]
    assert delight == {"kind": "scaled-oracle", "coeff": "1",
                       "sequence": "scriptLdiag", "param": None, "index": "n"}
    transform = BinomialTransform(OracleRef("fib", a=2, b=-3), 2, 1)
    doc = identity_json(Identity("synthetic", OracleRef("fib"), (transform,)))
    assert doc["terms"][0]["index"] == "2j-3"


def test_row_convolution_index_follows_affine_str():
    def index(**kw):
        term = SignedRowConvolution("fib", **kw)
        return identity_json(Identity("synthetic", OracleRef("fib"), (term,)))[
            "terms"][0]["index"]

    assert index(an=1, ak=-1, c=0) == "n-k"
    assert index(an=1, ak=1, c=0) == "n+k"
    assert index(an=-2, ak=3, c=-1) == "-2n+3k-1"
    assert [t["index"] for i in find("lucas1878-odd-power")
            for t in identity_json(i)["terms"]] == ["4n-4k+2", "8n-8k+4", "12n-12k+6"]


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
    assert find("lucas1878-odd-power")[1].label == "lucas1878-odd-power[p=2]"
