import json
from fractions import Fraction

import pytest

import cyclo_reference as ring
import identities_reference as ref
from binsums.core import RecurrenceSpec, binomial
from binsums.identities import (
    _SIGNS,
    FAMILIES,
    BinomialTransform,
    CenteredSum,
    Constant,
    CosProduct,
    DiagonalSum,
    Domain,
    Identity,
    OracleRef,
    Power,
    SIGN_ALT_NK,
    SIGN_NONE,
    ScaledBinomial,
    ScaledOracle,
    SignedRowConvolution,
    VerificationReport,
    builtin_registry,
    find,
    folded_profile,
    identity_json,
    perturbed,
    registry_json,
    rhs_values,
    verify,
)
from binsums.sequences import _MEMO


def test_registry_shape():
    assert len(FAMILIES) == 34
    reg = builtin_registry()
    assert len(reg) == 58  # 29 singles + 7 + 7 + 7 + 5 + 3 parameter expansions
    assert [i.family for i in reg if i.family == "genlucas-even"] == ["genlucas-even"] * 7
    assert [i.lhs.param for i in find("lewis-family")] == [1, 2, 3, 4, 5]
    assert [i.lhs.param for i in find("lucas1878-odd-power")] == [1, 2, 3]


def test_rhs_eval_examples():
    cases = [("fib-even", 3, 8),           # C(6,4)-C(6,5)-C(6,6)
             ("fib-even", 6, 144),
             ("lucas-odd", 2, 11),         # 2^4 - 5 C(5,5)
             ("pellY-kronecker", 3, 15),   # C(6,4)
             ("W-even", 2, 13),            # (7/2) C(4,2) - 2^3
             ("pow3", 3, 9),               # C(5,3) - C(6,6)
             ("kron9-pow4", 2, 16)]        # 1 + 3(C(4,3) + C(4,4))
    for family, n, want in cases:
        assert ref.rhs_eval(find(family)[0], n) == want, (family, n)
        assert rhs_values(find(family)[0], [n]) == [want], (family, n)
    assert find("pow3")[0].lhs.value(3) == 9
    # an identity with no terms sums to 0 at every n
    empty = Identity(family="no-terms", lhs=OracleRef("pow2"), terms=())
    assert rhs_values(empty, range(8)) == [ref.rhs_eval(empty, n) for n in range(8)] == [0] * 8
    # at no n the right side, with or without terms, is the empty list
    assert rhs_values(empty, []) == rhs_values(find("fib-even")[0], []) == []


def test_displayed_fibonacci_expansions():
    """The two printed signed expansions, reproduced term for term."""
    term = find("fib-even")[0].terms[0]
    assert ref.terms_at(term, 6) == [
        (12, 7, 1), (12, 8, -1), (12, 9, -1), (12, 10, 1), (12, 12, 1),
    ]
    assert sum(w * binomial(r, c) for r, c, w in ref.terms_at(term, 6)) == 144
    assert ref.terms_at(term, 7) == [
        (14, 8, 1), (14, 9, -1), (14, 10, -1), (14, 11, 1), (14, 13, 1), (14, 14, -1),
    ]
    assert sum(w * binomial(r, c) for r, c, w in ref.terms_at(term, 7)) == 377


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
    assert report.first_divergence is None
    assert report.elapsed >= 0
    bad = verify(perturbed(find("fib-even")[0], 2, +1), 12)
    assert not bad.passed
    assert bad.checked == tuple(range(13))
    assert (bad.first_divergence, bad.lhs_at_divergence, bad.rhs_at_divergence) == (2, "3", "5")


def test_equivalence_pairs():
    x1, x2 = find("pellX-alternating")[0], find("pellX-cosine")[0]
    y1, y2 = find("pellY-kronecker")[0], find("pellY-stride6")[0]
    for n in range(0, 61):
        assert ref.rhs_eval(x1, n) == ref.rhs_eval(x2, n)
        assert ref.rhs_eval(y1, n) == ref.rhs_eval(y2, n)


def test_prop1_left_sides_fill_the_half_row():
    for n in range(1, 41):
        total = sum(find(f)[0].lhs.value(n) for f in ("prop1-A", "prop1-B", "prop1-C"))
        assert total == 2 ** (2 * n - 1) - binomial(2 * n - 1, n)


def test_lewis_sign_rules():
    # odd t: t + 1 even, so every sign degenerates to +1
    for ident in find("lewis-family"):
        term = ident.terms[0]
        assert term.sign == (SIGN_NONE if ident.lhs.param % 2 else SIGN_ALT_NK)
    alt = CenteredSum((Fraction(1),), 1, sign=SIGN_ALT_NK)
    assert [ref.sign_at(alt, 3, k) for k in range(4)] == [-1, 1, -1, 1]
    assert [ref.sign_at(alt, 4, k) for k in range(4)] == [1, -1, 1, -1]


def _assert_verify_raises_like_rhs_eval(ident, first_bad_n, n_min=0):
    with pytest.raises(ValueError) as direct:
        ref.rhs_eval(ident, first_bad_n)
    with pytest.raises(ValueError) as swept:
        verify(ident, first_bad_n + 5, n_min)
    assert str(swept.value) == str(direct.value)
    assert str(swept.value).endswith(f"at n = {first_bad_n}")


def test_non_integer_total_is_an_error():
    ident = Identity("synthetic-half", OracleRef("fib", a=2),
                     (CenteredSum((Fraction(1, 2),), 1),), Domain(1))
    with pytest.raises(ValueError, match="not an integer"):
        ref.rhs_eval(ident, 1)
    _assert_verify_raises_like_rhs_eval(ident, 1)


def test_fraction_columns_with_an_integral_sum_give_ints():
    # each half row sum (4^n - C(2n, n))/4 is a Fraction at every n, and
    # the two of them sum to halfrow
    half = CenteredSum((Fraction(1, 2),), 1)
    ident = Identity("synthetic-halves", OracleRef("halfrow"), (half, half))
    ns = list(range(41))
    assert all(type(v) is Fraction for v in half.values(ns))
    totals = rhs_values(ident, ns)
    assert all(type(v) is int for v in totals)
    assert totals == [ident.lhs.value(n) for n in ns]
    assert verify(ident, 40).passed


@pytest.mark.parametrize("n_min, first_bad", [(0, 0), (5, 7)])
def test_a_single_fraction_column_raises_at_its_first_non_integer(n_min, first_bad):
    # C(2n, n)/7 is an integer at n = 4, 5, 6 and not at 0..3 or 7
    ident = Identity("synthetic-sevenths", OracleRef("fib", a=2),
                     (ScaledBinomial(Fraction(1, 7), "C(2n,n)"),))
    with pytest.raises(ValueError) as exc:
        rhs_values(ident, range(n_min, 30))
    total = Fraction(binomial(2 * first_bad, first_bad), 7)
    assert str(exc.value) == (f"synthetic-sevenths: right side {total} is not an integer"
                              f" at n = {first_bad}")
    _assert_verify_raises_like_rhs_eval(ident, first_bad, n_min)


_TERM_WITH_COEFFICIENT = {
    "centered-sum weight": lambda c: CenteredSum((c, 0), 2),
    "centered-sum center": lambda c: CenteredSum((0, 0), 2, center=c),
    "scaled-binomial": lambda c: ScaledBinomial(c, "C(2n,n)"),
    "power": lambda c: Power(c, 2, 1),
    "constant": lambda c: Constant(c),
    "scaled-oracle": lambda c: ScaledOracle(c, OracleRef("fib")),
    "perturbed weight": lambda c: perturbed(find("fib-even")[0], 2, c),
}


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/2", 1j], ids=repr)
@pytest.mark.parametrize("term", _TERM_WITH_COEFFICIENT)
def test_non_rational_coefficients_are_refused_when_the_term_is_built(term, bad):
    with pytest.raises(TypeError, match="int or a Fraction"):
        _TERM_WITH_COEFFICIENT[term](bad)


_TERM_WITH_INTEGER = {
    "power base": lambda x: Power(1, x, 1),
    "power exponent slope": lambda x: Power(1, 2, x),
    "power exponent shift": lambda x: Power(1, 2, 1, x),
    "diagonal-sum base": lambda x: DiagonalSum(x),
    "centered-sum period": lambda x: CenteredSum((0,), x),
    "oracle-ref slope": lambda x: OracleRef("fib", a=x),
    "oracle-ref shift": lambda x: OracleRef("fib", b=x),
    "oracle-ref parameter": lambda x: OracleRef("genlucas", param=x),
    "convolution n slope": lambda x: SignedRowConvolution("fib", x, 1),
    "convolution k slope": lambda x: SignedRowConvolution("fib", 1, x),
    "convolution shift": lambda x: SignedRowConvolution("fib", 1, 1, x),
    "transform stride": lambda x: BinomialTransform(OracleRef("fib"), stride=x),
    "transform offset": lambda x: BinomialTransform(OracleRef("fib"), offset=x),
    "domain start": lambda x: Domain(x),
    "domain stop": lambda x: Domain(0, stop=x),
}


@pytest.mark.parametrize("bad", [0.5, 2.0, 1.5, Fraction(1, 2), "2"], ids=repr)
@pytest.mark.parametrize("term", _TERM_WITH_INTEGER)
def test_non_integer_bases_and_exponents_are_refused_when_the_term_is_built(term, bad):
    with pytest.raises(TypeError, match="must be an int"):
        _TERM_WITH_INTEGER[term](bad)


_TERM_WITH_FLAG = {
    "centered-sum row_odd": lambda x: CenteredSum((1,), 1, row_odd=x),
    "domain even_only": lambda x: Domain(even_only=x),
}


@pytest.mark.parametrize("bad", [2, 1, 0, None, "yes", 1.0], ids=repr)
@pytest.mark.parametrize("term", _TERM_WITH_FLAG)
def test_non_bool_flags_are_refused_when_the_term_is_built(term, bad):
    # 2 would export as "2n+1" and compare unequal to True
    with pytest.raises(TypeError, match=f"a flag field must be a bool, not {bad!r}"):
        _TERM_WITH_FLAG[term](bad)
    assert _TERM_WITH_FLAG[term](True) != _TERM_WITH_FLAG[term](False)


@pytest.mark.parametrize("stride, offset", [(0, 0), (-1, 0), (2, -1), (1, -3)])
def test_binomial_transform_refuses_a_stride_below_one_or_a_negative_offset(stride, offset):
    with pytest.raises(ValueError, match="stride >= 1 and offset >= 0"):
        BinomialTransform(OracleRef("fib"), stride, offset)


@pytest.mark.parametrize("oracle, why", [(OracleRef("A"), "it has no recurrence"),
                                         (OracleRef("scriptLdiag"), "it has no recurrence"),
                                         (OracleRef("fib", a=0, b=2), "its index 2 needs a >= 1"),
                                         (OracleRef("pow5", a=-1), "its index -j needs a >= 1")])
def test_a_binomial_transform_oracle_no_row_can_step_is_refused_when_built(oracle, why):
    with pytest.raises(ValueError) as info:
        BinomialTransform(oracle, 2, 1)
    assert str(info.value) == (f"binomial transform oracle {oracle.name}: {why}, "
                               f"so no row can step it")


def test_a_binomial_transform_steps_a_recurrence_ending_in_zero_forward(monkeypatch):
    from binsums import sequences
    spec = RecurrenceSpec("stops", (2, 0), (1, 3))  # 1, then 3 * 2^(j-1)
    monkeypatch.setitem(sequences._REGISTRY, "stops", sequences.SequenceOracle("stops", spec))
    for stride, offset in ((1, 0), (2, 3), (3, 1)):
        term = BinomialTransform(OracleRef("stops", a=2, b=1), stride, offset)
        assert term.values(list(range(30))) == [ref.binomial_transform(term, n) for n in range(30)]


@pytest.mark.parametrize("ea, eb, exponent", [(1, -1, "n-1"), (-1, 0, "-n"), (-2, 5, "-2n+5"),
                                              (0, -3, "-3")])
def test_a_power_of_zero_that_can_take_a_negative_exponent_is_refused(ea, eb, exponent):
    # values once raised ZeroDivisionError, which no CLI handler catches
    with pytest.raises(ValueError) as info:
        Power(1, 0, ea, eb)
    assert str(info.value) == ("a power of base 0 needs an exponent that is never "
                               f"negative, not {exponent}")


def test_powers_of_zero_with_a_non_negative_exponent_and_the_registry_powers_build():
    assert Power(3, 0, 1).values([0, 1, 2]) == [3, 0, 0]
    assert Power(1, 0, 0, 2).values([0, 5]) == [0, 0]
    powers = [t for ident in builtin_registry() for t in ident.terms if isinstance(t, Power)]
    assert powers and all(Power(t.coeff, t.base, t.ea, t.eb) == t for t in powers)


def test_period_below_one_is_refused():
    with pytest.raises(ValueError, match="period >= 1"):
        CenteredSum((), 0)


@pytest.mark.parametrize("build, message", [
    (lambda: CenteredSum((1, 2), 3), "weight table must have exactly `period` entries"),
    (lambda: CenteredSum((1,), 1, sign="(-1)^m"), "unknown sign rule '(-1)^m'"),
    (lambda: ScaledBinomial(1, "C(2n+1,n)"), "unknown binomial shape 'C(2n+1,n)'"),
], ids=["table-length", "sign-rule", "binomial-shape"])
def test_a_term_of_unknown_shape_is_refused_when_built(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_find_of_an_unknown_family_lists_the_families():
    with pytest.raises(KeyError) as info:
        find("nosuch")
    assert info.value.args[0] == f"unknown identity 'nosuch'; known: {', '.join(FAMILIES)}"


def test_a_foreign_term_has_no_json_form():
    foreign = Identity("synthetic", OracleRef("fib"), (object(),))
    with pytest.raises(AttributeError, match="'object' object has no attribute 'json'"):
        identity_json(foreign)


def test_an_identity_built_from_a_list_of_terms_equals_the_tuple_built_one():
    ident = builtin_registry()[0]
    listed = Identity(ident.family, ident.lhs, list(ident.terms), ident.domain,
                      ident.description)
    assert listed == ident and hash(listed) == hash(ident) and repr(listed) == repr(ident)
    assert listed.terms == ident.terms and type(listed.terms) is tuple


def test_terms_at_folds_the_weight_oracle_into_each_coefficient():
    (lewis1,) = [i for i in find("lewis-family") if i.lhs.param == 1]
    (term,) = lewis1.terms
    # sum_{k>=1} C(4, 2+k) L(2k), then the center C(4, 2)
    assert ref.terms_at(term, 2) == [(4, 3, 3), (4, 4, 7)]
    assert ref.centered_sum(term, 2) == 6 + 4 * 3 + 1 * 7 == lewis1.lhs.value(2)
    assert term.values([2]) == [lewis1.lhs.value(2)]


@pytest.mark.parametrize("n_min", [0, 7])
def test_sweep_equals_direct_evaluation_on_the_registry(n_min):
    for ident in builtin_registry():
        ns = ident.domain.indices(n_min, 80)
        swept = rhs_values(ident, ns)
        assert swept == [ref.rhs_eval(ident, n) for n in ns], ident.label
        assert all(type(v) is int for v in swept), ident.label


def _coefficients(term) -> tuple:
    """The rational numbers a term's value is built from, besides integers."""
    if isinstance(term, CenteredSum):
        return (term.center, *term.weights)
    if isinstance(term, Constant):
        return (term.value,)
    return (getattr(term, "coeff", 1),)


_TERM_TYPES = {CenteredSum, BinomialTransform, SignedRowConvolution, ScaledBinomial, Power,
               Constant, ScaledOracle, DiagonalSum, CosProduct}


def test_swept_terms_with_integral_coefficients_yield_ints():
    """Each term's column of rhs_values, its values(ns), against the
    reference at each n.  From n = 1 every Power of the registry has a
    non-negative exponent."""
    int_types = set()
    for ident in builtin_registry():
        ns = ident.domain.indices(1, 80)
        for term in ident.terms:
            values = term.values(ns)
            assert values == [ref.term_at(term, n) for n in ns], (ident.label, term)
            if all(Fraction(c).denominator == 1 for c in _coefficients(term)):
                assert all(type(v) is int for v in values), (ident.label, term)
                int_types.add(type(term))
    assert int_types == _TERM_TYPES


def test_every_term_gives_no_values_at_no_n():
    """values([]) is [] for every term of the registry, all nine classes."""
    types = set()
    for ident in builtin_registry():
        for term in ident.terms:
            assert term.values([]) == [], (ident.label, term)
            types.add(type(term))
    assert types == _TERM_TYPES


@pytest.mark.parametrize("base", range(-3, 8))
def test_diagonal_sum_equals_the_binomial_reference(base):
    term = DiagonalSum(base)
    for n, value in enumerate(term.values(list(range(61)))):
        assert type(value) is int and value == ref.diagonal_sum(term, n), (base, n)


def test_sury_diagonal_equals_the_binomial_reference_to_200():
    (ident,) = find("sury-diagonal")
    ns = list(range(201))
    values = rhs_values(ident, ns)
    assert values == [ref.diagonal_sum(DiagonalSum(5), n) for n in ns]
    assert all(type(v) is int for v in values)


def test_cos_product_equals_the_product_in_the_group_ring():
    """The slow, independent route: multiply out prod_{s=1}^n (3 - z^s - z^-s)
    in Z[z]/(z^(2n+1) - 1) and read it back as a rational integer, at
    n = 0..30 and at an ns that starts late and has gaps, which the stepped
    resultants step over."""
    for ns in (list(range(31)), [3, 7, 8, 30]):
        values = CosProduct().values(ns)
        for n, value in zip(ns, values, strict=True):
            m = 2 * n + 1
            prod = ring.scalar(m, 1)
            for s in range(1, n + 1):
                prod = ring.mul(prod, ring.sub(ring.scalar(m, 3), ring.two_cos(m, s)))
            assert value == ring.as_integer(prod), (ns, n)


def test_cos_product_failure_reports_exact_values():
    ident = Identity("synthetic-cos-product", OracleRef("lucas", a=2, b=3), (CosProduct(),))
    rep = verify(ident, 10)
    assert rep.first_divergence == 0
    assert (rep.lhs_at_divergence, rep.rhs_at_divergence) == ("4", "1")


def _synthetic_sums():
    fractional = (Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 7))
    for sign in _SIGNS:
        for row_odd in (False, True):
            yield CenteredSum(fractional[:3], 3, row_odd, Fraction(3, 4), sign)
            yield CenteredSum(fractional, 4, row_odd, Fraction(-1, 6), sign)
            yield CenteredSum((1, Fraction(1, 3)), 2, row_odd, 1, sign,
                              weight_oracle=OracleRef("lucas", a=3, b=-1))
            yield CenteredSum((0, 2, -1), 3, row_odd, 0, sign,
                              weight_oracle=OracleRef("lewis", param=2))
            # last coefficients not +-1: pelltrans (4, -2) at 2k+1 is (20, -4),
            # A094667 keeps its -5; zero entries in a period > 1 table
            yield CenteredSum((0, 1, 0, -2), 4, row_odd, 3, sign,
                              weight_oracle=OracleRef("pelltrans", a=2, b=1))
            yield CenteredSum((1, 0, 0, 0, -1), 5, row_odd, 0, sign,
                              weight_oracle=OracleRef("A094667"))
            # a >= 2 and b < 0: k = 1, 2 read fib(-3), fib(-1) by its negative rule
            yield CenteredSum((2, 0, -1), 3, row_odd, -1, sign,
                              weight_oracle=OracleRef("fib", a=2, b=-5))


def test_sweep_equals_direct_evaluation_on_synthetic_sums():
    """Every sign rule, both row parities, fractional weights, and weight
    oracles with and without a parameter."""
    ns = list(range(2, 40)) + [45, 52]
    for term in _synthetic_sums():
        swept = term.values(ns)
        direct = [ref.centered_sum(term, n) for n in ns]
        assert swept == direct, term
        if all(w.denominator == 1 for w in (term.center, *term.weights)):
            assert all(type(v) is int for v in swept), term


def test_weight_oracle_sums_equal_direct_evaluation_to_200():
    """Each weight-oracle sum of _synthetic_sums, every sign rule and both
    row parities, stepped to n = 200 and read at a spread of n."""
    ns = list(range(25)) + [64, 127, 198, 199, 200]
    weighted = [term for term in _synthetic_sums() if term.weight_oracle is not None]
    assert len(weighted) == 5 * len(_SIGNS) * 2
    for term in weighted:
        assert term.values(ns) == [ref.centered_sum(term, n) for n in ns], term


@pytest.mark.parametrize("oracle, message", [
    (OracleRef("halfrow"), "weight oracle halfrow: it has no recurrence, so no sum can step it"),
    (OracleRef("A"), "weight oracle A: it has no recurrence"),
    (OracleRef("lucas", a=0, b=3), "weight oracle lucas: its index 3 needs a >= 1"),
    (OracleRef("fib", a=-2), "weight oracle fib: its index -2k needs a >= 1"),
    (OracleRef("pell", a=2, b=-3), "weight oracle pell: its index 2k-3 has no value at k = 1"),
])
def test_a_weight_oracle_the_kernel_cannot_step_is_refused(oracle, message):
    with pytest.raises(ValueError, match=message):
        CenteredSum((1,), 1, weight_oracle=oracle)


def test_a_weight_recurrence_ending_in_zero_is_refused(monkeypatch):
    from binsums import sequences
    spec = RecurrenceSpec("stops", (1, 0), (1, 1))
    monkeypatch.setitem(sequences._REGISTRY, "stops", sequences.SequenceOracle("stops", spec))
    with pytest.raises(ValueError, match="weight oracle stops: its recurrence's last coeff"):
        CenteredSum((1,), 1, weight_oracle=OracleRef("stops"))


def test_a_weight_oracle_with_no_value_at_k_1_is_refused():
    # A094789 starts at 1, so A094789(k - 1) has no value at k = 1, where the
    # sum reads its seeds, even where the table's weight there is 0
    with pytest.raises(ValueError, match="A094789 is not defined at n = 0"):
        OracleRef("A094789", b=-1).value(1)
    for weights, row_odd in (((1,), False), ((1, 0), True)):
        with pytest.raises(ValueError, match=r"weight oracle A094789: its index k-1 has no "
                                             r"value at k = 1, so no sum can step it"):
            CenteredSum(weights, len(weights), row_odd, weight_oracle=OracleRef("A094789", b=-1))
    shifted = CenteredSum((1,), 1, weight_oracle=OracleRef("A094789"))
    assert shifted.values(list(range(30))) == [ref.centered_sum(shifted, n) for n in range(30)]


def test_a_lewis_sum_reads_its_weight_a_fixed_number_of_times(monkeypatch):
    """lewis-family[t=5] steps L(10k) by its order-2 recurrence: the weight
    is read at most d + 1 = 3 times, through OracleRef.value or the memo
    of stepped sequences, however far the rows run, and core.row_steps is
    never read."""
    from binsums import identities, sequences
    (ident,) = [i for i in find("lewis-family") if i.lhs.param == 5]
    (term,) = ident.terms
    reads = []
    value, memo_values = OracleRef.value, sequences._memo_values

    def counted_value(self, v):
        if self == term.weight_oracle:
            reads.append(v)
        return value(self, v)

    def counted_memo_values(name, param, n):
        if name == "lucas":
            reads.append(n)
        return memo_values(name, param, n)

    def no_rows(*args):
        raise AssertionError("a weight-oracle sum read core.row_steps")

    monkeypatch.setattr(OracleRef, "value", counted_value)
    monkeypatch.setattr(sequences, "_memo_values", counted_memo_values)
    monkeypatch.setattr(identities, "row_steps", no_rows)
    counts = []
    for n_max in (100, 400):
        reads.clear()
        assert rhs_values(ident, range(n_max + 1)) == [ident.lhs.value(n) for n in range(n_max + 1)]
        counts.append(len(reads))
    assert counts[0] == counts[1] <= 3


@pytest.mark.parametrize("which", sorted(ScaledBinomial._SHAPES))
def test_scaled_binomial_steps_equal_the_reference_shapes(which):
    first = 0 if which == "C(2n,n)" else 1
    ns = list(range(first, 401))
    for coeff in (1, -3, 0, Fraction(7, 2), Fraction(-5, 3), Fraction(1, 4)):
        term = ScaledBinomial(coeff, which)
        values = term.values(ns)
        assert values == [coeff * ref._SHAPES[which](n) for n in ns], coeff
        assert [type(v) is int for v in values] == [
            (coeff * ref._SHAPES[which](n)).denominator == 1 if isinstance(coeff, Fraction)
            else True for n in ns], coeff
        assert term.values([first + 9, first + 3, first + 3]) == [values[9], values[3], values[3]]


@pytest.mark.parametrize("which", ["C(2n-1,n)", "C(2n-1,n-1)"])
def test_a_scaled_half_binomial_is_not_defined_at_zero(which):
    with pytest.raises(ValueError):
        ref._SHAPES[which](0)
    with pytest.raises(ValueError, match="not defined at n = 0"):
        ScaledBinomial(1, which).values([0, 1])


@pytest.mark.parametrize("n_min", [0, 5])
def test_fractional_tables_raise_through_verify_like_rhs_eval(n_min):
    """Mixed denominators, every sign rule and both row parities: verify
    stops at the first n where the direct route finds no integer, with its
    message."""
    fractional = [term for term in _synthetic_sums()
                  if any(w.denominator != 1 for w in (term.center, *term.weights))]
    assert len(fractional) == 24
    for term in fractional:
        ident = Identity("synthetic-fraction", OracleRef("fib", a=2), (term,))
        first_bad = n_min
        while True:
            try:
                ref.rhs_eval(ident, first_bad)
            except ValueError:
                break
            first_bad += 1
        _assert_verify_raises_like_rhs_eval(ident, first_bad, n_min)


@pytest.mark.parametrize("ns", [list(range(41)), [3, 7, 8, 30]])
def test_row_convolution_steps_equal_direct_evaluation(ns):
    """A zero, a negative and a non-dividing k step, a zero n step, and an
    ns with gaps and a late start."""
    for an in (-3, -2, 0, 1, 4):
        for ak in (-4, -1, 0, 2, 3):
            for c in (-1, 0, 2):
                term = SignedRowConvolution("fib", an, ak, c)
                assert term.values(ns) == [ref.signed_row_convolution(term, n) for n in ns], (
                    an, ak, c)


def test_row_convolution_steps_start_at_the_first_n():
    """pell has no backward rule: ns that start late keep every index the
    rows read at or above the lowest one the reference reads."""
    with pytest.raises(ValueError, match="not defined"):
        ref.signed_row_convolution(SignedRowConvolution("pell", 1, 1, -2), 1)
    for an, ak, c, ns in ((1, 1, -2, [2, 3]), (1, 1, -2, [2, 5, 6, 17]),
                          (3, -1, 0, [3, 4, 9]), (2, 3, -4, [2, 8, 11]), (-1, 4, 14, [5, 6, 12])):
        term = SignedRowConvolution("pell", an, ak, c)
        assert term.values(ns) == [ref.signed_row_convolution(term, n) for n in ns], (
            an, ak, c, ns)


def _count_reads(monkeypatch, oracle: str) -> tuple[list[int], list[tuple]]:
    """The memo reads of the oracle, and the runs of core.row_steps the
    terms start, each recorded as it is made."""
    from binsums import identities, sequences
    reads, runs = [], []
    memo_values, row_steps = sequences._memo_values, identities.row_steps

    def counted_memo_values(name, param, n):
        if name == oracle:
            reads.append(n)
        return memo_values(name, param, n)

    def counted_row_steps(*args):
        runs.append(args)
        return row_steps(*args)

    monkeypatch.setattr(sequences, "_memo_values", counted_memo_values)
    monkeypatch.setattr(identities, "row_steps", counted_row_steps)
    return reads, runs


def test_a_row_convolution_reads_its_oracle_a_fixed_number_of_times(monkeypatch):
    """fib(4n - 4k + 2) steps along its dilated recurrence: fib is read at
    most d + 1 = 3 times, however far the rows run, and core.row_steps runs
    once per values call."""
    term = SignedRowConvolution("fib", 4, -4, 2)
    reads, runs = _count_reads(monkeypatch, "fib")
    counts = []
    for n_max in (100, 400):
        reads.clear()
        runs.clear()
        values = term.values(list(range(n_max + 1)))
        counts.append(len(reads))
        assert len(runs) == 1
    assert counts[0] == counts[1] <= 3
    assert values[:41] == [ref.signed_row_convolution(term, n) for n in range(41)]


def test_a_binomial_transform_reads_its_oracle_a_fixed_number_of_times(monkeypatch):
    """pow5 on the odd columns steps along its placed recurrence: its seed
    pow5(0) is all it reads at n_max 100 and 800 alike, in one run of
    core.row_steps, where a window of its columns would read to n_max/2."""
    term = BinomialTransform(OracleRef("pow5"), 2, 1)
    reads, runs = _count_reads(monkeypatch, "pow5")
    seen = []
    for n_max in (100, 800):
        reads.clear()
        runs.clear()
        values = term.values(list(range(n_max + 1)))
        seen.append(list(reads))  # the largest index of each memo read
        assert len(runs) == 1
    assert seen[0] == seen[1] == [0]
    assert values[:61] == [ref.binomial_transform(term, n) for n in range(61)]


@pytest.mark.parametrize("name", ["A", "scriptLdiag"])  # a steps oracle and a rule oracle
def test_a_row_convolution_oracle_the_kernel_cannot_step_is_refused(name):
    with pytest.raises(ValueError, match=f"row convolution oracle {name}: it has no recurrence, "
                                         f"so no row can step it"):
        SignedRowConvolution(name, 4, -4, 2)


def test_a_row_convolution_recurrence_ending_in_zero_is_refused(monkeypatch):
    from binsums import sequences
    spec = RecurrenceSpec("stops", (1, 0), (1, 1))
    monkeypatch.setitem(sequences._REGISTRY, "stops", sequences.SequenceOracle("stops", spec))
    with pytest.raises(ValueError, match="row convolution oracle stops: its recurrence's last coeff"):
        SignedRowConvolution("stops", 1, 1)


def test_registry_row_convolutions_equal_the_window_route_to_400():
    ns = list(range(401))
    for ident in find("lucas1878-odd-power"):
        (term,) = ident.terms
        assert term.values(ns) == ref.signed_row_convolution_window(term, ns), ident.label


# |s| = 3 with t = 2 (an = 2, ak = 3), |s| = 2 with t = -1 (an = -3, ak = 6),
# negative t over both signs of s, a zero t, and a k step that divides an
_ROW_GRID = [(2, 3), (-3, 6), (-3, 1), (-1, -2), (0, -3), (5, -1), (4, -2)]


@pytest.mark.parametrize("oracle", ["fib", "lucas"])
@pytest.mark.parametrize("an, ak", _ROW_GRID)
def test_row_convolutions_equal_the_window_route_to_60(oracle, an, ak):
    for c in (-1, 0, 3):
        term = SignedRowConvolution(oracle, an, ak, c)
        for ns in (list(range(61)), [4, 9, 10, 33, 60], [60]):
            assert term.values(ns) == ref.signed_row_convolution_window(term, ns), (c, ns)


# no backward rule: pell (order 2, last coefficient 1), pow3 (order 1, last
# coefficient 3) and A094667 (order 4, last coefficient -5)
@pytest.mark.parametrize("oracle", ["pell", "pow3", "A094667"])
@pytest.mark.parametrize("an, ak", _ROW_GRID)
def test_row_convolutions_equal_the_window_route_where_they_start(oracle, an, ak):
    """With c the least that keeps every index over ns at or above 0, the
    lowest read is the oracle at 0, and one less raises on both routes at
    -1.  Where that lowest read is at the last n, the rows of n + 1 would
    read below it, which pow3 and A094667 cannot step to: the rows stop at
    the last n."""
    for ns in ([20, 21, 45, 60], list(range(37, 61))):
        c = -min(an * n + ak * k for n in (ns[0], ns[-1]) for k in (0, 2 * n + 1))
        term = SignedRowConvolution(oracle, an, ak, c)
        assert term.values(ns) == ref.signed_row_convolution_window(term, ns), ns
        short = SignedRowConvolution(oracle, an, ak, c - 1)
        for route in (short.values, lambda ns: ref.signed_row_convolution_window(short, ns)):
            with pytest.raises(ValueError, match=f"{oracle} is not defined at n = -1$"):
                route(ns)


def test_row_convolution_with_no_k_step_reads_its_oracle():
    """With ak = 0 every summand reads g(an*n + c): the sum is 0 only where
    g is defined there, and raises like the reference elsewhere."""
    term = SignedRowConvolution("pell", 1, 0, -5)
    with pytest.raises(ValueError) as direct:
        ref.signed_row_convolution(term, 0)
    with pytest.raises(ValueError) as stepped:
        term.values([0, 1, 2])
    assert str(stepped.value) == str(direct.value) == "pell is not defined at n = -5"
    ns = [5, 6, 9]
    assert term.values(ns) == [ref.signed_row_convolution(term, n) for n in ns] == [0, 0, 0]


def test_lucas_row_convolutions_equal_direct_evaluation_to_120():
    ns = list(range(121))
    for ident in find("lucas1878-odd-power"):
        (term,) = ident.terms
        assert term.values(ns) == [ref.signed_row_convolution(term, n) for n in ns], ident.label


def test_lewis_weighted_sums_equal_direct_evaluation_to_200():
    ns = list(range(201))
    for ident in find("lewis-family"):
        (term,) = ident.terms
        assert term.values(ns) == [ref.centered_sum(term, n) for n in ns], ident.label


@pytest.mark.parametrize("ns", [list(range(2, 30)), [0, 5, 6, 13, 29], [17, 18, 25]])
def test_stepped_binomial_transform_equals_direct_evaluation(ns):
    """Strides 1-4 and offsets 0-4, some past the smallest n, over ns with
    gaps and a late start."""
    for oracle in (OracleRef("lewis", param=2), OracleRef("fib", a=2, b=-3)):
        for stride in range(1, 5):
            for offset in range(5):
                term = BinomialTransform(oracle, stride, offset)
                assert term.values(ns) == [ref.binomial_transform(term, n) for n in ns], (
                    oracle, stride, offset)


def _reference_sides(ident: Identity, n: int) -> tuple:
    """Both sides at n the direct way, one n at a time."""
    return ident.lhs.value(n), ref.rhs_eval(ident, n)


def _reference_report(ident: Identity, ns: list[int], sides: list[tuple]) -> VerificationReport:
    bad = [(n, lhs, rhs) for n, (lhs, rhs) in zip(ns, sides) if lhs != rhs]
    first, lhs, rhs = bad[0] if bad else (None, None, None)
    return VerificationReport(ident.label, tuple(ns), first,
                              None if first is None else str(lhs),
                              None if first is None else str(rhs), 0.0)


_REPORT_FIELDS = ("label", "checked", "first_divergence",
                  "lhs_at_divergence", "rhs_at_divergence")


def _verify_like_the_reference(ident: Identity, n_max: int, *context) -> VerificationReport:
    """verify's report, held equal to the reference's; and the per-n
    equality of the left side with the public rhs_values, held equal to the
    reference's at every n."""
    ns = ident.domain.indices(0, n_max)
    sides = [_reference_sides(ident, n) for n in ns]
    got, want = verify(ident, n_max), _reference_report(ident, ns, sides)
    for name in _REPORT_FIELDS:
        assert getattr(got, name) == getattr(want, name), (*context, name)
    equal = [ident.lhs.value(n) == rhs for n, rhs in zip(ns, rhs_values(ident, ns))]
    assert equal == [lhs == rhs for lhs, rhs in sides], context
    return got


def test_registry_reports_equal_the_reference():
    for ident in builtin_registry():
        _verify_like_the_reference(ident, 40, ident.label)


@pytest.mark.parametrize("family, residue", [("fib-even", 2), ("lucas-even", 0),
                                             ("W-odd", 4), ("lewis-family", 0)])
def test_a_failing_verify_reads_its_left_side_at_every_n(monkeypatch, family, residue):
    """A mismatch does not end the comparison: the benchmark's perturbed
    workload expects `checked` to be the whole domain, read on both sides.
    verify reads its left side through the bulk reader, so the indices that
    reach it are counted: a*n + b for every checked n, once each."""
    from binsums import identities
    reads = []
    bulk = identities.seq_values

    def counted(name, indices, param=None):
        reads.append((name, param, list(indices)))
        return bulk(name, indices, param)

    monkeypatch.setattr(identities, "seq_values", counted)
    ident = find(family)[-1]
    bad = perturbed(ident, residue, next(t for t in ident.terms
                                         if isinstance(t, CenteredSum)).weights[residue] + 1)
    report = verify(bad, 60)
    assert not report.passed and report.first_divergence < 20
    assert report.checked == tuple(bad.domain.indices(0, 60))
    lhs = bad.lhs
    assert [i for name, param, indices in reads if (name, param) == (lhs.name, lhs.param)
            for i in indices] == [lhs.a * n + lhs.b for n in report.checked]


def test_central_delight_keeps_no_power_sum_spec_per_n():
    _MEMO.clear()
    assert verify(find("central-delight")[0], 200).passed
    assert [key for key in _MEMO if key[0] == "scriptL" and key[1] > 8] == []


def test_domains_and_sweeps_reject_negative_n():
    with pytest.raises(ValueError, match="n >= 0"):
        Domain(-1)
    with pytest.raises(ValueError, match="cannot stop at 3, before its start 5"):
        Domain(5, stop=3)
    assert Domain(5, stop=5).indices(0, 10) == [5]
    with pytest.raises(ValueError, match="not defined at n = -1"):
        rhs_values(find("fib-even")[0], [-1, 0])
    with pytest.raises(ValueError, match="not defined at n = -2;"):
        CosProduct().values([3, -2])


@pytest.mark.parametrize("term, ns", [
    (CenteredSum((1,), 1), [-1, 2]),
    (BinomialTransform(OracleRef("pow5"), 2, 1), [-1, 3]),
    (SignedRowConvolution("fib", 4, -4, 2), [-1, 3]),
    (SignedRowConvolution("fib", 1, 0), [-1, 2]),  # ak = 0: every row sums to 0
    (DiagonalSum(), [-1, 3]),
])
def test_a_term_refuses_a_negative_n_and_names_it(term, ns):
    with pytest.raises(ValueError, match="not defined at n = -1;"):
        term.values(ns)
    assert term.values(ns[1:]) == [ref.term_at(term, ns[1])]


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
                assert not _verify_like_the_reference(bad, 40, bad.label, residue).passed


FIB_EVEN = find("fib-even")[0]


@pytest.mark.parametrize("ident, n_max, n_min, message", [
    (find("central-delight")[0], 1, 0, "central-delight: its domain 2.., even admits no n in 0..1"),
    (find("central-delight")[0], 3, 3, "central-delight: its domain 2.., even admits no n in 3..3"),
    (Identity(FIB_EVEN.family, FIB_EVEN.lhs, FIB_EVEN.terms, Domain(20), FIB_EVEN.description),
     10, 0,
     "fib-even: its domain 20.. admits no n in 0..10"),
    (find("fib-even")[0], 4, 5, "fib-even: its domain 0.. admits no n in 5..4"),
], ids=["below-the-start", "between-even-n", "late-start", "reversed-range"])
def test_verify_refuses_a_range_its_domain_does_not_meet(ident, n_max, n_min, message):
    with pytest.raises(ValueError) as exc:
        verify(ident, n_max, n_min)
    assert str(exc.value) == message


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
            assert direct == ref.rhs_eval(ident, n)


def test_unfoldable_terms_are_rejected():
    with pytest.raises(ValueError):
        folded_profile(find("lewis-family")[0])  # oracle-weighted
    with pytest.raises(ValueError):
        folded_profile(find("sury-diagonal")[0])  # not a centered sum
    alternating = CenteredSum((1,), 1, sign=SIGN_ALT_NK)
    with pytest.raises(ValueError, match="n-dependent signs cannot be folded"):
        folded_profile(Identity("synthetic", OracleRef("fib"), (alternating,)))
    for power in (Power(1, 3, 2), Power(1, 2, 1), Power(1, 4, 1)):
        with pytest.raises(ValueError, match=r"only powers 2\^\(2n\+e\) fold"):
            folded_profile(Identity("synthetic", OracleRef("fib"), (power,)))


def test_json_export():
    doc = registry_json()
    assert len(doc["identities"]) == 58
    text = json.dumps(doc)
    assert json.loads(text) == doc
    assert {i["kind"] for i in doc["identities"]} == {"sum"}
    fib_even = identity_json(find("fib-even")[0])
    assert fib_even["terms"][0]["weights"] == ["0", "1", "-1", "-1", "1"]
    assert fib_even["lhs"] == {"sequence": "fib", "param": None, "index": "2n"}


def test_editing_an_exported_identity_leaves_the_identity_as_it_was():
    # every dict and list of the JSON is the export's own, so a caller that
    # edits one (the domain's above all) changes no frozen value
    def clear(node):
        for child in node.values() if isinstance(node, dict) else node:
            if isinstance(child, (dict, list)):
                clear(child)
        node.clear()

    before = repr(builtin_registry())
    clear(registry_json())
    assert repr(builtin_registry()) == before


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
    assert index(an=2, ak=1) == "2n+k"
    assert index(an=1, ak=1, c=0) == "n+k"
    assert index(an=-2, ak=3, c=-1) == "-2n+3k-1"
    # a zero slope drops its part of the index
    assert index(an=3, ak=0, c=2) == "3n+2"
    assert index(an=0, ak=4, c=2) == "4k+2"
    assert index(an=0, ak=-1, c=0) == "-k"
    assert index(an=0, ak=0, c=-2) == "-2"
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
    # a zero slope writes only the constant
    assert exported(Power(1, 2, 0, 3))["terms"][0]["exponent"] == "3"
    assert exported(Power(1, 2, 0, -2))["terms"][0]["exponent"] == "-2"
    assert exported(Power(1, 2, 0))["terms"][0]["exponent"] == "0"
    doc = identity_json(Identity("synthetic", OracleRef("fib", a=0, b=3), (Constant(2),)))
    assert doc["lhs"]["index"] == "3"


def test_labels():
    assert find("fib-even")[0].label == "fib-even"
    assert find("scriptL-merca")[1].label == "scriptL-merca[m=3]"
    assert find("lewis-family")[2].label == "lewis-family[t=3]"
    assert find("lucas1878-odd-power")[1].label == "lucas1878-odd-power[p=2]"
