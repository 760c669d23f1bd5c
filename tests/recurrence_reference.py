"""Slow references for the values of a RecurrenceSpec and of an oracle.

The package reads every recurrence through one memo over core.rec_steps,
and every oracle through one bulk reader, sequences.seq_values; rec_eval
steps a plain list from the seeds on every call instead, and reflects n < 0
from the spec's negative rule by its definition, and read_one reads one
index without the memo, so they share no value code with either.
"""
import numbers
from itertools import islice

from binsums.sequences import get_oracle


def rec_eval(spec, n: int) -> int:
    """a(n) of spec, stepped from the seeds anew: O(n d) operations."""
    if n < 0:
        if spec.negative_rule is None:
            raise ValueError(f"{spec.name} is not defined for n < 0")
        # "odd": a(-t) = (-1)^(t+1) a(t); "even": a(-t) = (-1)^t a(t)
        t = -n
        return (-1) ** (t + (spec.negative_rule == "odd")) * rec_eval(spec, t)
    a = list(spec.seeds)
    while len(a) <= n:
        a.append(sum(c * a[-i] for i, c in enumerate(spec.coeffs, 1)))
    return a[n]


def read_one(name: str, n: int, param: int | None = None) -> int:
    """The registered oracle at index n, read on its own: the index's type,
    the parameter and the oracle's start are checked in that order, with the
    package's messages, then a rule is read at n, a recurrence through
    rec_eval and a stepped oracle from a fresh iterator of its steps.  No
    value of the oracle comes from the memo; only a family's spec (lewis,
    fiboddpow) reads fib through the package to build its coefficients."""
    oracle = get_oracle(name)
    if not isinstance(n, numbers.Integral):
        raise TypeError(f"{name}: n must be an int, not {n!r}")
    oracle.check_param(param)
    if n < oracle.start and getattr(oracle.recurrence, "negative_rule", None) is None:
        raise ValueError(f"{name} is not defined at n = {n}")
    if oracle.rule is not None:
        return oracle.rule(param, n)
    if oracle.steps is not None:
        return next(islice(oracle.steps(param), n, None))
    return rec_eval(oracle.spec(param), n)
