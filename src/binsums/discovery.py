"""Reverse-engineering of periodic weight profiles.

Given a target sequence and a period M, derive_profile solves exactly for
the center coefficient and weight table that make

    target(n) == center * C(2n, n) + sum_{k>=1} C(2n, n+k) * w(k mod M)

hold on a solve range, classifies the solution by rank, and then insists
that a unique solution keep working on held-out indices it never saw.
The equation rows are the residue-class sums of the same Pascal-step
kernel that verify sweeps (core.class_sums).  All linear algebra is exact
fraction-free elimination over the integers; Fractions appear only in the
back-substitution, and nothing is ever rounded.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .core import class_sums
from .cyclo import CycloVec, recognize_quad
from .identities import CenteredSum, Domain, Identity, OracleRef, identity_json
from .quadratic import QuadValue
from .sequences import get_oracle


class _Eliminator:
    """Incremental fraction-free Gaussian elimination over the integers.

    Equations are fed one at a time so that an inconsistency can be blamed
    on the exact index that introduced it.  A row [coeffs..., rhs] is
    reduced by each stored pivot row as p*row - c*prow, where p is the
    pivot entry and c the row's entry in the pivot column.  The reduced row
    is divided by its content (the gcd of its entries) and its pivot made
    positive, so it stays a nonzero integer multiple of the row rational
    elimination would store.
    """

    def __init__(self, unknowns: int) -> None:
        self.unknowns = unknowns
        self.rows: dict[int, list[int]] = {}  # pivot -> [coeffs..., rhs]

    def add(self, coeffs: list[int], rhs: int) -> bool:
        """Absorb one equation; False means it contradicts the others."""
        row = [*coeffs, rhs]
        for pivot, prow in self.rows.items():
            c = row[pivot]
            if c:
                p = prow[pivot]
                row = [p * a - c * b for a, b in zip(row, prow)]
        pivot = next((j for j in range(self.unknowns) if row[j]), None)
        if pivot is None:
            return row[-1] == 0
        g = math.gcd(*row)
        if row[pivot] < 0:
            g = -g
        self.rows[pivot] = [a // g for a in row]
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def solve(self) -> list[Fraction]:
        assert self.rank == self.unknowns
        sol = [Fraction(0)] * self.unknowns
        for pivot in sorted(self.rows, reverse=True):
            prow = self.rows[pivot]
            rest = sum(prow[j] * sol[j] for j in range(pivot + 1, self.unknowns))
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
    the M weights are solved for.
    """
    sums = class_sums(period, row_odd)
    at = 0
    for n in ns:
        middle, row = next(islice(sums, n - at, None))
        at = n + 1
        yield row if row_odd else [middle, *row]


def _target_value(target: OracleRef, n: int, stage: str, span: tuple[int, int]) -> int:
    try:
        return target.value(n)
    except (KeyError, ValueError) as exc:
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
    period + 2 equations.
    When the target is defined at n = 0 that trivial row (every side
    binomial vanishes) is included as well; it pins the center coefficient,
    which for even periods is otherwise entangled with the alternating-sign
    row identity.  A unique solution is re-verified on the `holdout`
    indices after the solve range and demoted to infeasible if any fails.
    A target with no value at an index of either range raises ValueError,
    and an unknown sequence name KeyError.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if solve_start < 0:
        raise ValueError("solve_start must be >= 0")
    if solve_stop is None:
        solve_stop = solve_start + period + 3
    if solve_stop - solve_start + 1 < period + 2:
        raise ValueError(f"solve range must supply at least {period + 2} equations")
    get_oracle(target.name)  # fail early on unknown names

    unknowns = period if row_odd else period + 1
    elim = _Eliminator(unknowns)
    solve = (solve_start, solve_stop)
    hold = (solve_stop + 1, solve_stop + holdout)
    ns = list(range(solve_start, solve_stop + 1))
    if not row_odd and 0 not in ns:
        try:
            target.value(0)
        except (ValueError, KeyError):
            pass
        else:
            ns.insert(0, 0)
    hold_ns = range(hold[0], hold[1] + 1)
    rows = _equation_rows(period, row_odd, [*ns, *hold_ns])
    result = functools.partial(ProfileSolution, target, period, row_odd, solve_range=solve)
    for n, coeffs in zip(ns, rows):
        if not elim.add(coeffs, _target_value(target, n, "solve", solve)):
            return result("infeasible", violated_n=n)
    if elim.rank < unknowns:
        return result("underdetermined", dimension=unknowns - elim.rank)
    sol = elim.solve()
    # clear denominators once, so each holdout check is an integer dot product
    scale = math.lcm(*(x.denominator for x in sol))
    scaled = [x.numerator * (scale // x.denominator) for x in sol]
    for n, coeffs in zip(hold_ns, rows):
        if sum(map(operator.mul, coeffs, scaled)) != scale * _target_value(
                target, n, "holdout", hold):
            return result("infeasible", violated_n=n, holdout_range=hold)
    if row_odd:
        center, weights = Fraction(0), tuple(sol)
    else:
        center, weights = sol[0], tuple(sol[1:])
    return result("unique", center=center, weights=weights, holdout_range=hold)


def profile_from_angles(n_angle: int, terms, scale, d: int) -> list[QuadValue]:
    """Exact period-N table with entry k = scale * sum_s c_s * 2cos(2k*a_s*pi/N).

    Each cosine is expanded in Z[z]/(z^(2N) - 1) and read back as an element
    of Q(sqrt(d)); `d` is declared by the caller, never searched for.  A
    value falling outside that ring reports the offending residue.
    """
    modulus = 2 * n_angle
    out: list[QuadValue] = []
    for k in range(n_angle):
        total = QuadValue(Fraction(0))
        for a, coeff in terms:
            vec = CycloVec.two_cos(modulus, 2 * k * a)
            try:
                value = recognize_quad(vec, d)
            except ValueError as exc:
                raise ValueError(f"residue {k}: {exc}") from exc
            total = total + QuadValue.of(coeff) * value
        out.append(QuadValue.of(scale) * total)
    return out


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
