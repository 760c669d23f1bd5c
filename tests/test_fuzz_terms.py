"""Random terms of all nine classes against the direct references of
tests/identities_reference.py and tests/cyclo_reference.py.

Each test draws its terms and index lists from a fixed seed, so a failure
names the term and the list that show it, and reruns the same way.  A
term's values(ns) must equal the reference at every n of ns, or both must
raise an exception of one type with one message, a type named in RAISES.
Arguments a class refuses must be refused, when the term is built, with the
message the class documents.
"""
import math
import random
from fractions import Fraction

import pytest

import cyclo_reference as ring
import identities_reference as ref
from binsums.identities import (
    _SIGNS,
    BinomialTransform,
    CenteredSum,
    Constant,
    CosProduct,
    DiagonalSum,
    OracleRef,
    Power,
    ScaledBinomial,
    ScaledOracle,
    SignedRowConvolution,
)
from binsums.sequences import get_oracle, registry

N_TOP = 24
# every oracle with a recurrence, a family at its least parameter and the next
RECURRENCES = [(name, param) for name, o in registry().items() if o.recurrence is not None
               for param in ((None,) if o.param_name is None else (o.param_min, o.param_min + 1))]
# the sum terms, which start at n = 0 and refuse a negative n with one message
SUMS = (CenteredSum, BinomialTransform, SignedRowConvolution, DiagonalSum, CosProduct)

# exception type -> why a term and its reference may both raise it
RAISES = {
    ValueError: "the refusals the terms document: a negative n, an n below a shape's "
                "first, an oracle index below its start or a refused parameter",
    ZeroDivisionError: "a power of base 0 at a negative exponent, which only a negative "
                       "n reaches",
}


def index_lists(rng: random.Random) -> dict[str, list[int]]:
    return {"gapped": sorted(rng.sample(range(N_TOP + 1), 5)),
            "single": [rng.randrange(N_TOP + 1)],
            "late": list(range(rng.randrange(3, N_TOP), N_TOP + 1)),
            "empty": [],
            "negative": [rng.randrange(N_TOP + 1), -rng.randrange(1, 4)]}


def cos_product(n: int) -> int:
    """The cosine product at n, the positive square root of the resultant of
    the per-m remainder loop at m = 2n+1."""
    full = ring.cos_product_resultant(2 * n + 1)
    half = math.isqrt(full)
    assert half * half == full, n
    return half


def reference(term, ns: list[int]) -> list:
    """The term at every n of ns by the references, after the refusals the
    classes document: a sum refuses a negative n, and a scaled binomial an n
    below its shape's first.  A convolution with a k step is read from one
    window of its oracle, whose first read is its lowest index, as the
    stepped route's is."""
    low = min(ns, default=None)
    if isinstance(term, ScaledBinomial):
        first = 0 if term.which == "C(2n,n)" else 1
        if low is not None and low < first:
            raise ValueError(f"{term.which} is not defined at n = {low}")
    elif isinstance(term, SUMS) and low is not None and low < 0:
        raise ValueError(f"a term is not defined at n = {low}; its sum starts at n = 0")
    if ns and isinstance(term, SignedRowConvolution) and term.ak:
        return ref.signed_row_convolution_window(term, ns)
    if isinstance(term, CosProduct):
        return [cos_product(n) for n in ns]
    return [ref.term_at(term, n) for n in ns]


def outcome(route, ns: list[int]):
    """route(ns), or the type and message of what it raised."""
    try:
        return route(ns)
    except tuple(RAISES) as exc:
        return type(exc), str(exc)


def assert_like_the_reference(term, rng: random.Random) -> None:
    for kind, ns in index_lists(rng).items():
        assert outcome(term.values, ns) == outcome(lambda ns: reference(term, ns), ns), (
            term, kind, ns)


def refused(build, message: str) -> None:
    """build() must raise ValueError with exactly message."""
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))


def random_oracle(rng: random.Random) -> OracleRef:
    """Any oracle read at a*n + b, at one of its two least parameters, or in
    one draw of eight at a parameter it refuses."""
    name = rng.choice(sorted(registry()))
    low = get_oracle(name).param_min
    if rng.random() < 1 / 8:
        param = rng.choice((None, low - 1, 2))
    else:
        param = None if get_oracle(name).param_name is None else rng.choice((low, low + 1))
    return OracleRef(name, param, a=rng.randint(-3, 3), b=rng.randint(-3, 3))


def test_random_centered_sums_equal_the_reference():
    rng = random.Random(3701)
    for _ in range(120):
        period = rng.randint(1, 12)
        args = (tuple(random_fraction(rng) for _ in range(period)), period,
                rng.choice((False, True)), random_fraction(rng), rng.choice(_SIGNS))
        oracle = None
        if rng.random() < 0.6:
            name, param = rng.choice(RECURRENCES)
            oracle = OracleRef(name, param, a=rng.randint(1, 3), b=rng.randint(-3, 3))
            # the sum steps its weight from k = 1, so one with no value there is refused
            if isinstance(outcome(oracle.read, [1]), tuple):
                refused(lambda: CenteredSum(*args, oracle), f"weight oracle {name}: its index "
                        f"{oracle.index_str('k')} has no value at k = 1, so no sum can step it")
                continue
        assert_like_the_reference(CenteredSum(*args, oracle), rng)


def test_random_binomial_transforms_equal_the_reference():
    rng = random.Random(3601)
    for _ in range(200):
        name, param = rng.choice(RECURRENCES)
        oracle = OracleRef(name, param, a=rng.randint(1, 3), b=rng.randint(-3, 3))
        assert_like_the_reference(BinomialTransform(oracle, rng.randint(1, 4), rng.randint(0, 5)),
                                  rng)


def test_random_row_convolutions_equal_the_reference():
    # a convolution reads no parameter; fib and lucas have a backward rule
    names = [name for name, param in RECURRENCES if param is None]
    assert {"fib", "lucas", "pell", "A094667"} <= set(names)
    rng = random.Random(3602)
    for _ in range(200):
        term = SignedRowConvolution(rng.choice(names), *(rng.randint(-5, 5) for _ in range(3)))
        assert_like_the_reference(term, rng)


def test_random_scaled_binomials_equal_the_reference():
    rng = random.Random(3702)
    for _ in range(40):
        which = rng.choice(sorted(ScaledBinomial._SHAPES))
        assert_like_the_reference(ScaledBinomial(random_fraction(rng), which), rng)
    refused(lambda: ScaledBinomial(1, "C(2n,n+1)"), "unknown binomial shape 'C(2n,n+1)'")


def test_random_powers_equal_the_reference():
    rng = random.Random(3703)
    for _ in range(80):
        coeff, base, ea, eb = random_fraction(rng), *(rng.randint(-3, 3) for _ in range(3))
        if base == 0 and (ea < 0 or eb < 0):
            refused(lambda: Power(coeff, base, ea, eb), "a power of base 0 needs an exponent "
                    f"that is never negative, not {Power(1, 1, ea, eb).json()['exponent']}")
        else:
            assert_like_the_reference(Power(coeff, base, ea, eb), rng)


def test_random_constants_equal_the_reference():
    rng = random.Random(3704)
    for _ in range(20):
        assert_like_the_reference(Constant(random_fraction(rng)), rng)


def test_random_scaled_oracles_equal_the_reference():
    # every oracle, recurrence or not, at refused parameters and indices too
    rng = random.Random(3705)
    for _ in range(150):
        assert_like_the_reference(ScaledOracle(random_fraction(rng), random_oracle(rng)), rng)


def test_random_diagonal_sums_equal_the_reference():
    rng = random.Random(3706)
    for _ in range(30):
        assert_like_the_reference(DiagonalSum(rng.randint(-5, 7)), rng)


def test_random_cos_product_reads_equal_the_reference():
    rng = random.Random(3707)
    for _ in range(10):
        assert_like_the_reference(CosProduct(), rng)
