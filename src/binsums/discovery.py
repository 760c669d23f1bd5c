"""Reverse-engineering of periodic weight profiles.

Given a target sequence and a period M, derive_profile solves exactly for
the center coefficient and weight table that make

    target(n) == center * C(2n, n) + sum_{k>=1} C(2n, n+k) * w(k mod M)

hold on a solve range, classifies the solution by rank, and then insists
that a unique solution keep working on held-out indices it never saw.
The equation rows are the residue-class sums of the same Pascal-step
kernel that verify sweeps (core.class_sums).  All linear algebra is exact
fraction-free elimination over the integers, which decides every equation,
held out or not; Fractions appear only in the back-substitution, and
nothing is ever rounded.  Each new equation is reduced by a stored pivot
row only at the columns where that row is nonzero, and back-substitution
reads a pivot row only there too.  Most of derive's pivot rows are nonzero
only at the pivot and the right side, so absorbing one equation costs
about O(period) steps, not the O(period^2) of a dense reduction.

What does not depend on the target is done once per process: the class
sums of each (period, row_odd) are stepped once into the memo of
sequences, which every later derivation reads.  The target is read in one
bulk read per range, the solve range first and the holdout only once the
solve range reaches full rank.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import class_sums
from .identities import CenteredSum, Domain, Identity, OracleRef, identity_json
from .sequences import _memo_values, get_oracle, seq_values


class _Eliminator:
    """Incremental fraction-free Gaussian elimination over the integers.

    Equations are fed one at a time so that an inconsistency can be blamed
    on the exact index that introduced it.  A row [coeffs..., rhs] is
    reduced by each stored pivot row as p*row - c*prow, where p is the
    pivot entry and c the row's entry in the pivot column.  Beside its dense
    list, each pivot row keeps the columns where it is nonzero, found once
    when it is stored, so a reduction scales the row only when p is not 1
    and subtracts c*prow only at those columns: the row the dense step
    gives, in one step per nonzero entry.  The reduced row is divided by its
    content (the gcd of its entries) and its pivot made positive, so it
    stays a nonzero integer multiple of the row rational elimination would
    store.  At full rank a new row reduces to [0, ..., 0 | r], r a nonzero
    multiple of rhs - coeffs . x for solve()'s x, so add stores nothing and
    returns whether x satisfies the equation.
    """

    def __init__(self, unknowns: int) -> None:
        self.unknowns = unknowns
        self.rows: dict[int, list[int]] = {}  # pivot -> [coeffs..., rhs]
        self._nonzero: dict[int, list[int]] = {}  # pivot -> columns where its row is nonzero

    def add(self, coeffs: list[int], rhs: int) -> bool:
        """Absorb one equation; False means it contradicts the others."""
        row = [*coeffs, rhs]
        for pivot, nonzero in self._nonzero.items():
            c = row[pivot]
            if c:
                prow = self.rows[pivot]
                p = prow[pivot]
                if p != 1:
                    row = [p * a for a in row]
                for j in nonzero:
                    row[j] -= c * prow[j]
        pivot = next((j for j in range(self.unknowns) if row[j]), None)
        if pivot is None:
            return row[-1] == 0
        g = math.gcd(*row)
        if row[pivot] < 0:
            g = -g
        self.rows[pivot] = prow = [a // g for a in row]
        self._nonzero[pivot] = [j for j, b in enumerate(prow) if b]
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def solve(self) -> list[Fraction]:
        """The one solution at full rank, by back-substitution from the last
        pivot.  Each pivot row's known unknowns enter only at its nonzero
        columns past the pivot; a zero coefficient adds nothing to the sum."""
        assert self.rank == self.unknowns
        sol = [Fraction(0)] * self.unknowns
        for pivot in sorted(self.rows, reverse=True):
            prow = self.rows[pivot]
            rest = sum(prow[j] * sol[j] for j in self._nonzero[pivot] if pivot < j < self.unknowns)
            sol[pivot] = Fraction(prow[-1] - rest, prow[pivot])
        return sol


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


def _equation_rows(period: int, row_odd: bool, ns: list[int]):
    """Integer coefficient row of the sum at each n of the ascending list ns.

    Even rows have period + 1 unknowns [center, w_0, ..., w_(M-1)]; odd rows
    have no center column (C(2n+1, n) duplicates the k = 1 column), so only
    the M weights are solved for.  The (C(row, n), class sums) pairs of
    core.class_sums are read from the memo of sequences under the key
    ("class_sums", (period, row_odd)), so each kernel is stepped once per
    process however many targets are solved against it.  Those lists are
    shared: an odd row is yielded as it is stored, and no reader may change
    it.
    """
    pairs = _memo_values("class_sums", (period, row_odd), ns[-1], lambda key: class_sums(*key))
    for n in ns:
        middle, row = pairs[n]
        yield row if row_odd else [middle, *row]


def _target_values(target: OracleRef, ns: list[int] | range, stage: str, span: tuple[int, int]):
    """The target at each n of ns, in order, for the equations of a stage
    ("solve" or "holdout") with range span.  One seq_values read takes them
    all at the first request.  If that read raises, they are read one n at
    a time as they are asked for, so an equation before the first n with no
    value still gives its verdict, and that n raises a ValueError naming it
    and the range."""
    try:
        values = seq_values(target.name, [target.a * n + target.b for n in ns], target.param)
    except ValueError:
        pass
    else:
        yield from values
        return
    for n in ns:
        try:
            yield target.value(n)
        except ValueError as exc:  # the name was checked up front
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
    row identity.  At full rank the `holdout` indices after the solve range
    go through the same eliminator, and the first one it cannot absorb
    makes the profile infeasible; only a system that passes them is solved.
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
    elim = _Eliminator(unknowns)
    solve = (solve_start, solve_stop)
    hold = (solve_stop + 1, solve_stop + holdout)
    ns = list(range(solve_start, solve_stop + 1))
    if not row_odd and 0 not in ns:
        with contextlib.suppress(ValueError):  # n = 0 joins only where the target has a value
            target.value(0)
            ns.insert(0, 0)
    hold_ns = range(hold[0], hold[1] + 1)
    rows = _equation_rows(period, row_odd, [*ns, *hold_ns])
    result = functools.partial(ProfileSolution, target, period, row_odd, solve_range=solve)
    for n, coeffs, value in zip(ns, rows, _target_values(target, ns, "solve", solve)):
        if not elim.add(coeffs, value):
            return result("infeasible", violated_n=n)
    if elim.rank < unknowns:
        return result("underdetermined", dimension=unknowns - elim.rank)
    for n, coeffs, value in zip(hold_ns, rows, _target_values(target, hold_ns, "holdout", hold)):
        if not elim.add(coeffs, value):
            return result("infeasible", violated_n=n, holdout_range=hold)
    sol = elim.solve()
    if row_odd:
        center, weights = Fraction(0), tuple(sol)
    else:
        center, weights = sol[0], tuple(sol[1:])
    return result("unique", center=center, weights=weights, holdout_range=hold)


def identity_from_profile(solution: ProfileSolution) -> Identity:
    """Package a unique profile as an Identity so it can be fed to verify()."""
    if solution.status != "unique":
        raise ValueError(f"cannot build an identity from a {solution.status} profile")
    term = CenteredSum(solution.weights, solution.period, row_odd=solution.row_odd,
                       center=solution.center)
    target = solution.target
    oracle = get_oracle(target.name)
    # without a backward rule, keep the index a*n + b at or past the oracle's start
    start, stop = 0, None
    if not oracle.negative_ok:
        if target.a > 0:
            start = max(0, -((target.b - oracle.start) // target.a))
        elif target.a < 0:
            stop = (target.b - oracle.start) // -target.a
    return Identity(
        family=f"derived-{target.name}-M{solution.period}",
        lhs=target,
        terms=(term,),
        domain=Domain(start, stop),
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
