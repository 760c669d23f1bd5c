#!/usr/bin/env python3
"""Regenerate the bundled OEIS b-file prefixes under src/binsums/data/.

Each fixture is produced from a route that is independent of the oracle it
is later compared against (walk-counting DP, closed forms, Newton power
sums), or at minimum from a recurrence whose seeds are over-determined by
more printed terms than unknowns.  Prefixes of the well-known entries were
checked against their published values.
"""
from __future__ import annotations

import os
from fractions import Fraction

from binsums.core import binomial, kronecker
from binsums.cyclo import IntPolynomial, power_sums
from binsums.sequences import seq_eval

TERMS = 81
OUT = os.path.join(os.path.dirname(__file__), "..", "src", "binsums", "data")


def walk_counts(vertices: int, at: int, count: int) -> list[int]:
    """Closed walks of length 2n at vertex `at` of the path graph."""
    out = []
    state = [0] * vertices
    state[at] = 1
    for _ in range(count):
        out.append(state[at])
        for _ in range(2):
            nxt = [0] * vertices
            for v, c in enumerate(state):
                if c:
                    if v > 0:
                        nxt[v - 1] += c
                    if v < vertices - 1:
                        nxt[v + 1] += c
            state = nxt
    return out


def from_recurrence(coeffs: list[int], seeds: list[int], count: int,
                    known_prefix: list[int]) -> list[int]:
    seq = list(seeds)
    while len(seq) < count:
        seq.append(sum(c * seq[-i - 1] for i, c in enumerate(coeffs)))
    assert seq[: len(known_prefix)] == known_prefix, (seq[:10], known_prefix)
    assert len(known_prefix) > len(seeds), "seeds must be over-determined"
    return seq[:count]


def fit_recurrence(values: list[int], order: int) -> list[Fraction]:
    """Exact least-order fit a(n) = sum c_i a(n-i), verified on every term."""
    rows = [[Fraction(values[n - i]) for i in range(1, order + 1)] for n in range(order, 2 * order)]
    rhs = [Fraction(values[n]) for n in range(order, 2 * order)]
    # plain Gaussian elimination over Fraction
    m = [row + [b] for row, b in zip(rows, rhs)]
    for col in range(order):
        piv = next(r for r in range(col, order) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        for r in range(order):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    coeffs = [m[i][order] / m[i][i] for i in range(order)]
    for n in range(order, len(values)):
        assert values[n] == sum(c * values[n - i - 1] for i, c in enumerate(coeffs)), n
    return coeffs


def kron_sum(m: int, n: int, alternating: bool = False) -> int:
    total = 0
    for k in range(n + 1):
        w = kronecker(k, m)
        if alternating and k % 2:
            w = -w
        total += binomial(2 * n, n + k) * w
    return total


def write(seq_id: str, values: list[int], offset: int = 0) -> None:
    path = os.path.join(OUT, f"b{seq_id[1:]}.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# {seq_id} prefix bundled for offline verification\n")
        for i, v in enumerate(values):
            fh.write(f"{offset + i} {v}\n")
    print(f"{seq_id}: {len(values)} terms -> {path}")


def main() -> None:
    os.makedirs(OUT, exist_ok=True)

    write("A000129", from_recurrence([2, 1], [0, 1], TERMS,
                                     [0, 1, 2, 5, 12, 29, 70, 169, 408]))
    write("A001075", from_recurrence([4, -1], [1, 2], TERMS,
                                     [1, 2, 7, 26, 97, 362, 1351]))
    write("A001353", from_recurrence([4, -1], [0, 1], TERMS,
                                     [0, 1, 4, 15, 56, 209, 780]))

    # walk-counting DP on the 6-vertex path graph, independent of any
    # recurrence: end vertex gives the bounded-height Catalan counts,
    # the third vertex gives the other walk family
    q = walk_counts(6, 0, TERMS)
    assert q[:8] == [1, 1, 2, 5, 14, 42, 131, 417]
    write("A080937", q)
    r = walk_counts(6, 2, TERMS)
    assert r[:8] == [1, 2, 6, 19, 61, 197, 638, 2069]
    write("A052975", r)
    diff = [b - a for a, b in zip(q, r)]
    assert diff[1:7] == [1, 4, 14, 47, 155, 507]
    write("A094789", diff[1:], offset=1)

    # Newton power sums over x^3 + x^2 - 2x - 1 (the even-index heptagon
    # cosines), not the recurrence evaluator
    w = power_sums(IntPolynomial((-1, -2, 1, 1)), TERMS - 1)
    assert w[:8] == [3, -1, 5, -4, 13, -16, 38, -57]
    write("A094648", w)

    write("A094831", from_recurrence([6, -9, 1], [1, 2, 6], TERMS,
                                     [1, 2, 6, 19, 62, 207]))

    # closed forms from the Lucas numbers
    a_vals = [(4**n + seq_eval("lucas", 2 * n - 1)) // 5 for n in range(TERMS)]
    assert all((4**n + seq_eval("lucas", 2 * n - 1)) % 5 == 0 for n in range(TERMS))
    write("A095930", a_vals)
    b_vals = [(4**n - seq_eval("lucas", 2 * n + 1)) // 5 for n in range(TERMS)]
    assert all((4**n - seq_eval("lucas", 2 * n + 1)) % 5 == 0 for n in range(TERMS))
    write("A095931", b_vals)

    write("A007052", from_recurrence([4, -2], [1, 3], TERMS, [1, 3, 10, 34, 116, 396]))
    write("A081567", from_recurrence([5, -5], [1, 3], TERMS, [1, 3, 10, 35, 125, 450]))

    # no printed reference terms exist for these two; pin the direct sums,
    # but insist they satisfy an exactly fitted linear recurrence with many
    # terms of slack before trusting them
    k20 = [kron_sum(20, n) for n in range(TERMS)]
    coeffs = fit_recurrence(k20, 4)
    assert coeffs == [8, -21, 20, -5], coeffs
    write("A094667", k20)

    k13 = [kron_sum(13, n, alternating=True) for n in range(TERMS)]
    fit_recurrence(k13, 6)
    write("A216597", k13)


if __name__ == "__main__":
    main()
