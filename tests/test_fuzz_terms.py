"""Random binomial transforms and row convolutions against the direct
references of tests/identities_reference.py.

Each test draws its terms and index lists from a fixed seed, so a failure
names the term and the list that show it, and reruns the same way.  A
term's values(ns) must equal the reference at every n of ns, or both must
raise an exception of one type with one message.
"""
import random

import identities_reference as ref
from binsums.identities import BinomialTransform, OracleRef, SignedRowConvolution
from binsums.sequences import registry

N_TOP = 24
# every oracle with a recurrence, a family at its least parameter and the next
RECURRENCES = [(name, param) for name, o in registry().items() if o.recurrence is not None
               for param in ((None,) if o.param_name is None else (o.param_min, o.param_min + 1))]


def index_lists(rng: random.Random) -> dict[str, list[int]]:
    return {"gapped": sorted(rng.sample(range(N_TOP + 1), 5)),
            "single": [rng.randrange(N_TOP + 1)],
            "late": list(range(rng.randrange(3, N_TOP), N_TOP + 1)),
            "empty": [],
            "negative": [rng.randrange(N_TOP + 1), -rng.randrange(1, 4)]}


def reference(term, ns: list[int]) -> list:
    """The term at every n of ns by the references, a negative n refused
    first with the message every term gives.  A convolution with a k step
    is read from one window of its oracle, whose first read is its lowest
    index, as the stepped route's is."""
    if min(ns, default=0) < 0:
        raise ValueError(f"a term is not defined at n = {min(ns)}; its sum starts at n = 0")
    if ns and isinstance(term, SignedRowConvolution) and term.ak:
        return ref.signed_row_convolution_window(term, ns)
    return [ref.term_at(term, n) for n in ns]


def outcome(route, ns: list[int]):
    """route(ns), or the type and message of what it raised."""
    try:
        return route(ns)
    except (TypeError, ValueError) as exc:  # the refusals the terms document
        return type(exc), str(exc)


def assert_like_the_reference(term, rng: random.Random) -> None:
    for kind, ns in index_lists(rng).items():
        assert outcome(term.values, ns) == outcome(lambda ns: reference(term, ns), ns), (
            term, kind, ns)


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
