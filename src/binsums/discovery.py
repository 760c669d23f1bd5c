"""Reverse-engineering of periodic weight profiles.

Given a target sequence and a period M, derive_profile solves exactly for
the center coefficient and weight table that make

    target(n) == center * C(2n, n) + sum_{k>=1} C(2n, n+k) * w(k mod M)

hold on a solve range, classifies the solution by rank, and then insists
that a unique solution keep working on held-out indices it never saw.
The equation rows are the residue-class sums of the same Pascal-step
kernel that verify sweeps (core.class_sums).  All arithmetic is exact:
integers throughout, and Fractions only for the solution itself.

The coefficient rows do not depend on the target, so neither does which
equations add a pivot and which depend on earlier ones: only the right
sides do.  So each system, keyed by (period, row parity, solve range,
holdout), is factored once by fraction-free integer elimination (Bareiss,
Math. Comp. 22, 1968) of the weight columns alone, recording how each
reduced row combines the pivot equations.  Each equation's center
coefficient C(row, n) rides along as a second right side, so one system
serves every target: the center is the target's value at n = 0 where it
has one (that row has no weight term), 0 on odd rows, and otherwise the
first dependent equation whose center coefficients do not cancel pins it.
Every solve equation that depends on earlier ones keeps, as its check,
the integer combination of right sides and center that must vanish for it
to hold, so each is decided by one dot product.  At full rank an
integer back-substitution gives D and X with D*w = X*(center, *b), b the
pivot equations' right sides.  A target then costs a few dot products: one
per check, z = X*(center, *b) once all pass with the center known, and
(C(row, n), *coeffs) . z == D * b_n for each held-out equation; the
weights are z / D.  The factored systems live in one least-recently-used
cache of _FACTORS entries, shared by every caller and never changed once
built.

The target is read in one bulk read per range, the solve range first and
the holdout only once that passes at full rank with the center known,
each up to the first n where the domain rule of
sequences.SequenceOracle.domain gives it no value.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import NamedTuple

from .core import Frozen, _flag, class_sums
from .identities import CenteredSum, Domain, Identity, OracleRef, identity_json
from .sequences import get_oracle

# Factored systems kept at once.  Periods 1..20, each with both row
# parities, are 40 systems at the default ranges.
_FACTORS = 64


class ProfileSolution(Frozen):
    """Outcome of a profile derivation; status is "unique",
    "underdetermined" or "infeasible"."""

    def __init__(self, target: OracleRef, period: int, row_odd: bool, status: str,
                 center: Fraction | None = None, weights: tuple[Fraction, ...] | None = None,
                 dimension: int = 0, violated_n: int | None = None,
                 solve_range: tuple[int, int] = (0, 0),
                 holdout_range: tuple[int, int] = (0, 0)) -> None:
        self._set(target=target, period=period, row_odd=row_odd, status=status, center=center,
                  weights=weights, dimension=dimension, violated_n=violated_n,
                  solve_range=solve_range, holdout_range=holdout_range)


def _equation_rows(period: int, row_odd: bool, start: int):
    """Integer coefficient row (C(row, n), *coeffs) of the sum at each n
    from start on, from one sweep of core.class_sums: the center
    coefficient, then one per weight w_0, ..., w_(M-1).

    Odd rows have no center column (C(2n+1, n) duplicates the k = 1
    column), so their center coefficient is 0 and only the M weights are
    solved for.
    """
    for middle, row in islice(class_sums(period, row_odd), start, None):
        yield (0 if row_odd else middle, *row)


class _System(NamedTuple):
    """What derive_profile needs of one system, none of it depending on the
    target.  Only the period's weights are unknowns; each equation's center
    coefficient gamma_n = C(row, n), 0 on odd rows, rides along beside its
    right side.

    checks has one entry per solve equation, in order.  It is None where
    the equation adds a pivot.
    Where the equation depends on earlier ones it is a pair (vec, own), vec
    = (-g, *lam): the equation holds exactly when vec . (center, *b) + own *
    v == 0, b the right sides of the pivot equations before it and v its
    own, and g = lam . gamma_pivots + own * gamma_n.  A check with g != 0
    pins a center not known before it.  rank is the rank of the weight
    columns.  At full rank the weights are inverse . (center, *b) /
    denominator, inverse having one integer row per weight over the center
    and all the pivot equations, and rows holds the holdout's rows
    (gamma_n, *coeffs).  Below full rank inverse and rows are empty.
    """

    checks: tuple[tuple[tuple[int, ...], int] | None, ...]
    rank: int
    inverse: tuple[tuple[int, ...], ...] = ()
    denominator: int = 1
    rows: tuple[tuple[int, ...], ...] = ()


@functools.lru_cache(maxsize=_FACTORS)
def _factor(period: int, row_odd: bool, solve_start: int, solve_stop: int,
            holdout: int) -> _System:
    """Factor the weight columns of derive_profile's equations at
    solve_start..solve_stop and the holdout after it.

    Each solve equation's row [coeffs | -gamma_n | combination] is reduced
    by each stored pivot row as p*row - c*prow, where p is the pivot entry
    and c the row's entry in the pivot column, only at the columns where the
    pivot row is nonzero.  The combination part starts as 1 in the slot of
    the pivot this equation would be (past full rank, in one last slot), so
    it always says how the reduced coefficients combine the pivot equations
    and this one, and the -gamma entry is the same combination of their
    center coefficients.  A reduced row is divided by its content (the gcd
    of its entries).  Where the coefficients reduce to zero the rest of the
    row is the equation's check; every solve equation is reduced.
    """
    rows = _equation_rows(period, row_odd, solve_start)
    pivots: dict[int, tuple[list[int], list[int]]] = {}  # column -> (row, its nonzero columns)
    checks: list[tuple[tuple[int, ...], int] | None] = []
    for coeffs in islice(rows, solve_stop - solve_start + 1):
        slot = period + 1 + len(pivots)
        row = [*coeffs[1:], -coeffs[0]]
        row += [0] * (period + 1)
        row[slot] = 1
        for pivot, (prow, nonzero) in pivots.items():
            c = row[pivot]
            if c:
                p = prow[pivot]
                if p != 1:
                    row = [p * a for a in row]
                for j in nonzero:
                    row[j] -= c * prow[j]
        pivot = next((j for j in range(period) if row[j]), None)
        g = math.gcd(*row)
        if g != 1:
            row = [a // g for a in row]
        if pivot is None:
            checks.append((tuple(row[period:slot]), row[slot]))
            continue
        pivots[pivot] = row, [j for j, a in enumerate(row) if a]
        checks.append(None)
    if len(pivots) < period:
        return _System(tuple(checks), len(pivots))
    # back-substitution from the last pivot: w_q = inverse[q] . (center, *b) / d
    d, inverse = 1, {}
    for pivot in sorted(pivots, reverse=True):
        prow, nonzero = pivots[pivot]
        num = prow[period:-1] if d == 1 else [d * a for a in prow[period:-1]]
        for j in nonzero:  # ascending: the coefficient columns come first
            if j >= period:
                break
            if j > pivot:
                c = prow[j]
                num = [a - c * b for a, b in zip(num, inverse[j])]
        p = prow[pivot]
        if p != 1:
            g = math.gcd(p, *num)
            scale = p // g
            if scale != 1:
                d *= scale
                for q, known in inverse.items():
                    inverse[q] = [scale * a for a in known]
            num = [a // g for a in num]
        inverse[pivot] = num
    return _System(tuple(checks), period, tuple(tuple(inverse[q]) for q in range(period)), d,
                   tuple(islice(rows, holdout)))


def _target_values(target: OracleRef, ns: list[int] | range,
                   domain: tuple[int, int | None]) -> list[int]:
    """The target at each n of the ascending ns before the first n outside
    its domain (start, stop) from sequences.SequenceOracle.domain, in one
    OracleRef.read."""
    start, stop = domain
    cut = 0 if ns and ns[0] < start else len(ns) if stop is None else bisect_right(ns, stop)
    return target.read(ns[:cut])


def _raise_if_short(target: OracleRef, ns: list[int] | range, values: list[int], stage: str,
                    span: tuple[int, int]) -> None:
    """Where values, read by _target_values, stop short of the ns, raise the
    error of reading the target at the first n it has no value at, naming n
    and the range of the stage ("solve" or "holdout") whose equation needs
    it."""
    if len(values) < len(ns):
        n = ns[len(values)]
        try:
            target.read([n])
        except ValueError as exc:
            raise ValueError(
                f"target {target.name}({target.index_str()}) has no value at n = {n}, "
                f"needed by the {stage} range {span[0]}..{span[1]}: {exc}") from exc


def derive_profile(
    target: OracleRef,
    period: int,
    row_odd: bool = False,
    solve_start: int = 1,
    solve_stop: int | None = None,
    holdout: int = 20,
) -> ProfileSolution:
    """Solve for the weight profile that expresses `target` as a centered sum.

    `target` is an OracleRef (sequence name, optional parameter, affine
    index map).  The solve range must start at n >= 0 and supply at least
    period + 2 equations, and the holdout must be >= 0.
    When the target is defined at n = 0 that trivial row (every side
    binomial vanishes) fixes the center coefficient at the target's value
    there; for even periods the center is otherwise entangled with the
    alternating-sign row identity.  Equations are decided in order of n,
    the solve range and then, at full rank with the center known, the
    `holdout` indices after it; the first one that contradicts those before
    it makes the profile infeasible, and only a system that passes them all
    is solved.
    A non-bool row_odd raises TypeError, an unknown name KeyError and a
    refused parameter ValueError, all up front; a target with no value in
    either range raises ValueError.
    """
    _flag(row_odd)
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
    oracle = get_oracle(target.name)
    oracle.check_param(target.param)  # fail early on a bad name or parameter

    solve = (solve_start, solve_stop)
    hold = (solve_stop + 1, solve_stop + holdout)
    domain = start, stop = oracle.domain(target.a, target.b)
    zero = not row_odd and solve_start > 0 and start == 0 and (stop is None or stop >= 0)
    ns = [*([0] if zero else []), *range(solve_start, solve_stop + 1)]
    system = _factor(period, row_odd, solve_start, solve_stop, holdout)
    result = functools.partial(ProfileSolution, target, period, row_odd, solve_range=solve)
    values = _target_values(target, ns, domain)
    # The center is p / q: the value at 0, 0 on odd rows, or unknown (0
    # here) until a check pins it.  b holds q times each pivot's right side.
    p, q = values[0] if zero else 0, 1
    known = zero or row_odd
    b = [p]
    for n, check, value in zip(ns[zero:], system.checks, values[zero:]):
        if check is None:
            b.append(q * value)
            continue
        vec, own = check
        e = sum(map(mul, vec, b)) + own * q * value
        if not known and vec[0]:  # the check pins the center at e / g
            g = math.gcd(e, vec[0])
            p, q = e // g, -vec[0] // g
            b[0] = p
            if q != 1:
                b[1:] = [q * a for a in b[1:]]
            known = True
        elif e:
            return result("infeasible", violated_n=n)
    _raise_if_short(target, ns, values, "solve", solve)
    if system.rank < period or not known:
        return result("underdetermined", dimension=period - system.rank + (not known))
    d = system.denominator
    z = [p * d, *(sum(map(mul, row, b)) for row in system.inverse)]
    d *= q  # the solution is z / d
    hold_ns = range(hold[0], hold[1] + 1)
    hold_values = _target_values(target, hold_ns, domain)
    for n, coeffs, value in zip(hold_ns, system.rows, hold_values):
        if sum(map(mul, coeffs, z)) != d * value:
            return result("infeasible", violated_n=n, holdout_range=hold)
    _raise_if_short(target, hold_ns, hold_values, "holdout", hold)
    center, *weights = (Fraction(a, d) for a in z)
    return result("unique", center=center, weights=tuple(weights), holdout_range=hold)


def identity_from_profile(solution: ProfileSolution) -> Identity:
    """Package a unique profile as an Identity so it can be fed to verify()."""
    if solution.status != "unique":
        raise ValueError(f"cannot build an identity from a {solution.status} profile")
    term = CenteredSum(solution.weights, solution.period, row_odd=solution.row_odd,
                       center=solution.center)
    target = solution.target
    return Identity(
        family=f"derived-{target.name}-M{solution.period}",
        lhs=target,
        terms=(term,),
        domain=Domain(*get_oracle(target.name).domain(target.a, target.b)),
        description="profile recovered by exact linear solving",
    )


def profile_json(solution: ProfileSolution) -> dict:
    """ProfileSolution in the same interchange format as the registry."""
    body = {
        "target": solution.target.name,
        "param": solution.target.param,
        "period": solution.period,
        "row": "2n+1" if solution.row_odd else "2n",
        "status": solution.status,
        "solve_range": list(solution.solve_range),
    }
    if solution.status == "unique":
        body["center"] = str(solution.center)
        body["weights"] = [str(w) for w in solution.weights]
        body["holdout_range"] = list(solution.holdout_range)
        body["identity"] = identity_json(identity_from_profile(solution))
    elif solution.status == "underdetermined":
        body["dimension"] = solution.dimension
    else:
        body["violated_n"] = solution.violated_n
    return body
