"""Slow reference for the values of a RecurrenceSpec.

The package reads every recurrence through one memo over core.rec_steps;
this module steps a plain list from the seeds on every call instead, and
reflects n < 0 from the spec's negative rule by its definition, so it
shares no code with either.
"""


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
