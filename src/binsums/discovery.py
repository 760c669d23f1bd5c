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
sides do.  So each system, keyed by (period, row parity, whether n = 0
joins, solve range, holdout), is factored once by fraction-free integer
elimination (Bareiss, Math. Comp. 22, 1968) that records how each reduced
row combines the pivot equations.  A dependent equation keeps the integer
combination of right sides that must vanish for it to hold, and so do up
to `unknowns` solve equations past full rank: deciding that many costs no
more than forming the solution, and reducing more equations would only
slow the factoring of a long solve range.  At full rank an integer
back-substitution gives D and X with D*x = X*b, b the pivot equations'
right sides.  A target then costs a few dot products: one per check,
z = X*b once all pass, and coeffs . z == D * b_n for each later equation,
held out or not; the solution is z / D.  The factored systems live in one
least-recently-used cache of _FACTORS entries, shared by every caller and
never changed once built.

The target is read in one bulk read per range, the solve range first and
the holdout only at full rank, each up to the first n where the domain
rule of sequences.SequenceOracle.domain gives it no value.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import NamedTuple

from .core import class_sums
from .identities import CenteredSum, Domain, Identity, OracleRef, identity_json
from .sequences import get_oracle, seq_values

# Factored systems kept at once.  Periods 1..20, each with and without
# n = 0, are 40 systems at the default ranges.
_FACTORS = 64


@dataclass(frozen=True)
class ProfileSolution:
    """Outcome of a profile derivation."""

    target: OracleRef
    period: int
    row_odd: bool
    status: str  # "unique" | "underdetermined" | "infeasible"
    center: Fraction | None = None
    weights: tuple[Fraction, ...] | None = None
    dimension: int = 0
    violated_n: int | None = None
    solve_range: tuple[int, int] = (0, 0)
    holdout_range: tuple[int, int] = (0, 0)


def _equation_rows(period: int, row_odd: bool, ns: list[int] | range):
    """Integer coefficient row of the sum at each n of the ascending ns, as
    a tuple, from one sweep of core.class_sums.

    Even rows have period + 1 unknowns [center, w_0, ..., w_(M-1)]; odd rows
    have no center column (C(2n+1, n) duplicates the k = 1 column), so only
    the M weights are solved for.
    """
    sums = class_sums(period, row_odd)
    at = 0
    for n in ns:
        middle, row = next(islice(sums, n - at, None))
        at = n + 1
        yield tuple(row) if row_odd else (middle, *row)


class _System(NamedTuple):
    """What derive_profile needs of one system, none of it depending on the
    target.

    checks has one entry per solve equation, in order, up to `unknowns`
    equations past the one that brings full rank (all of them if fewer
    follow or none brings it).  It is None where the equation adds a pivot.
    Where the equation depends on earlier ones it is a pair (lam, own): the
    equation holds exactly when lam . b + own * v == 0, b the right sides of
    the pivot equations before it and v its own.  rank is the rank those
    equations reach.  At full rank the solution is inverse . b /
    denominator, inverse having one integer row per unknown over all the
    pivot equations, and rows holds the coefficient rows of the equations
    after the last check: the rest of the solve range, then the holdout.
    Below full rank inverse and rows are empty.
    """

    checks: tuple[tuple[tuple[int, ...], int] | None, ...]
    rank: int
    inverse: tuple[tuple[int, ...], ...] = ()
    denominator: int = 1
    rows: tuple[tuple[int, ...], ...] = ()


@functools.lru_cache(maxsize=_FACTORS)
def _factor(period: int, row_odd: bool, zero: bool, solve_start: int, solve_stop: int,
            holdout: int) -> _System:
    """Factor the system of derive_profile's equations at n = 0 (if zero),
    solve_start..solve_stop and the holdout after it.

    Each solve equation's row [coeffs | combination] is reduced by each
    stored pivot row as p*row - c*prow, where p is the pivot entry and c
    the row's entry in the pivot column, only at the columns where the
    pivot row is nonzero.  The combination part starts as 1 in the slot of
    the pivot this equation would be (past full rank, in one last slot), so
    it always says how the reduced coefficients combine the pivot equations
    and this one.  A reduced row is divided by its content (the gcd of its
    entries).  Where the coefficients reduce to zero the combination is the
    equation's check; reduction stops `unknowns` equations past full rank.
    """
    unknowns = period if row_odd else period + 1
    solve_ns = [*([0] if zero else []), *range(solve_start, solve_stop + 1)]
    hold_ns = range(solve_stop + 1, solve_stop + holdout + 1)
    rows = _equation_rows(period, row_odd, [*solve_ns, *hold_ns])
    pivots: dict[int, tuple[list[int], list[int]]] = {}  # column -> (row, its nonzero columns)
    checks: list[tuple[tuple[int, ...], int] | None] = []
    for _, coeffs in zip(solve_ns, rows):
        slot = unknowns + len(pivots)
        row = [*coeffs, *[0] * (unknowns + 1)]
        row[slot] = 1
        for pivot, (prow, nonzero) in pivots.items():
            c = row[pivot]
            if c:
                p = prow[pivot]
                if p != 1:
                    row = [p * a for a in row]
                for j in nonzero:
                    row[j] -= c * prow[j]
        pivot = next((j for j in range(unknowns) if row[j]), None)
        g = math.gcd(*row)
        if g != 1:
            row = [a // g for a in row]
        if pivot is None:
            checks.append((tuple(row[unknowns:slot]), row[slot]))
            if len(pivots) == unknowns and None not in checks[-unknowns:]:
                break  # the last `unknowns` equations came past full rank
            continue
        pivots[pivot] = row, [j for j, a in enumerate(row) if a]
        checks.append(None)
    if len(pivots) < unknowns:
        return _System(tuple(checks), len(pivots))
    # back-substitution from the last pivot: x_q = inverse[q] . b / d
    d, inverse = 1, {}
    for pivot in sorted(pivots, reverse=True):
        prow, nonzero = pivots[pivot]
        num = prow[unknowns:-1] if d == 1 else [d * a for a in prow[unknowns:-1]]
        for j in nonzero:  # ascending: the coefficient columns come first
            if j >= unknowns:
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
    return _System(tuple(checks), unknowns, tuple(tuple(inverse[q]) for q in range(unknowns)),
                   d, tuple(rows))


def _defined_prefix(target: OracleRef, ns: list[int] | range) -> int:
    """How many n at the front of the ascending ns the target has a value at."""
    start, stop = get_oracle(target.name).domain(target.a, target.b)
    return 0 if ns and ns[0] < start else len(ns) if stop is None else bisect_right(ns, stop)


def _target_values(target: OracleRef, ns: list[int] | range, stage: str, span: tuple[int, int]):
    """The target at each n of the ascending ns, for the equations of a stage
    ("solve" or "holdout") with range span, in one seq_values read up to the
    first n with no value; that n raises a ValueError naming it and the range
    only when asked for, so every equation before it still gives its verdict."""
    cut = _defined_prefix(target, ns)
    yield from seq_values(target.name, [target.a * n + target.b for n in ns[:cut]], target.param)
    for n in ns[cut:cut + 1]:  # the first n with no value, whose read raises
        try:
            seq_values(target.name, [target.a * n + target.b], target.param)
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
    binomial vanishes) is included as well; it pins the center coefficient,
    which for even periods is otherwise entangled with the alternating-sign
    row identity.  Equations are decided in order of n, the solve range and
    then, at full rank, the `holdout` indices after it; the first one that
    contradicts those before it makes the profile infeasible, and only a
    system that passes them all is solved.
    An unknown name raises KeyError and a refused parameter ValueError, both
    up front; a target with no value in either range raises ValueError.
    """
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
    get_oracle(target.name).check_param(target.param)  # fail early on a bad name or parameter

    unknowns = period if row_odd else period + 1
    solve = (solve_start, solve_stop)
    hold = (solve_stop + 1, solve_stop + holdout)
    zero = not row_odd and solve_start > 0 and _defined_prefix(target, [0]) == 1  # a value at 0
    ns = [*([0] if zero else []), *range(solve_start, solve_stop + 1)]
    system = _factor(period, row_odd, zero, solve_start, solve_stop, holdout)
    result = functools.partial(ProfileSolution, target, period, row_odd, solve_range=solve)
    values = _target_values(target, ns, "solve", solve)
    b = []  # the right sides of the pivot equations
    for n, check, value in zip(ns, system.checks, values):
        if check is None:
            b.append(value)
        elif sum(map(mul, check[0], b)) + check[1] * value:
            return result("infeasible", violated_n=n)
    if system.rank < unknowns:
        return result("underdetermined", dimension=unknowns - system.rank)
    d, z = system.denominator, [sum(map(mul, row, b)) for row in system.inverse]
    rows = iter(system.rows)
    for n, coeffs, value in zip(ns[len(system.checks):], rows, values):
        if sum(map(mul, coeffs, z)) != d * value:
            return result("infeasible", violated_n=n)
    hold_ns = range(hold[0], hold[1] + 1)
    for n, coeffs, value in zip(hold_ns, rows, _target_values(target, hold_ns, "holdout", hold)):
        if sum(map(mul, coeffs, z)) != d * value:
            return result("infeasible", violated_n=n, holdout_range=hold)
    sol = [Fraction(q, d) for q in z]
    center, weights = (Fraction(0), sol) if row_odd else (sol[0], sol[1:])
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
