"""Workload inputs and their independent expectations.

Shared by the orchestrator (run.py), which checks outcomes, and the pass
runner (one_pass.py), which executes them.  Every input is a pure function
of the registry and the workload seed, so both processes derive the same
list without passing it around.
"""
from __future__ import annotations

import random

N_MAX = 200
DERIVE_PERIODS = range(1, 21)
# Left sides backed by a bundled b-file.  derive_profile reads past the end
# of the A094667 fixture once its holdout range passes index 79 (period 60
# raises "A094667 fixture has no index 81"), a known defect; they are left
# out of the scan rather than shrinking the other targets to hide it.
BFILE_TARGETS = ("A094789", "A094667", "A216597")

WHY = {
    "verify-all-n200": (
        "headline path, verify --all at n_max 200 through cli.run: right-side evaluation,"
        " the mpmath product and the oracles dominate; discovery is idle"),
    "verify-perturbed-n200": (
        "same evaluator on the failing path: the 47 centered-sum identities with one nonzero"
        " weight moved by +-1, each must fail at the first n it can; no mpmath, no convolutions"),
    "derive-scan-p20": (
        "reverse direction: derive_profile for p = 1..20 over 26 foldable left sides;"
        " exact elimination dominates and verify is idle"),
}


def domain_points(domain, n_max: int) -> list[int]:
    """Indices n <= n_max a Domain admits, worked out from its fields."""
    hi = n_max if domain.stop is None else min(n_max, domain.stop)
    return [n for n in range(domain.start, hi + 1) if not (domain.even_only and n % 2)]


def clipped_points(domain, n_max: int) -> int:
    """Points in [start, n_max] that the domain's stop drops."""
    unclipped = [n for n in range(domain.start, n_max + 1) if not (domain.even_only and n % 2)]
    return len(unclipped) - len(domain_points(domain, n_max))


def centered_sum(identity, identities):
    """The first CenteredSum term, the one identities.perturbed changes."""
    return next((t for t in identity.terms if isinstance(t, identities.CenteredSum)), None)


def perturbations(registry, identities, seed: int) -> list[tuple[int, int, object]]:
    """(registry index, residue, new weight) for every identity with a centered sum.

    The seed picks a residue whose weight is nonzero and a change of +-1,
    reversed where it would make the weight 0.  The evaluator skips zero
    weights, so keeping the set of nonzero weights fixed keeps a pass's work
    the same for every seed.
    """
    rng = random.Random(seed)
    out = []
    for i, ident in enumerate(registry):
        cs = centered_sum(ident, identities)
        if cs is None:
            continue
        residue = rng.choice([r for r, w in enumerate(cs.weights) if w])
        change = rng.choice((-1, 1))
        old = cs.weights[residue]
        out.append((i, residue, old + change if old + change else old - change))
    return out


def perturbed_first_n(identity, identities, residue: int, n_max: int) -> int | None:
    """First n at which one changed weight reaches the sum.

    The weight of residue r multiplies C(row, n+k) for k = r (or k = period
    when r = 0).  That binomial is first nonzero at n = k on rows 2n and at
    n = k - 1 on rows 2n+1, where it equals 1 and is the only term k = r
    (mod period).  The sum moves there by the change times a sign and, for
    weight-oracle sums, a nonzero Lucas factor; before it the unperturbed
    identity holds.
    """
    cs = centered_sum(identity, identities)
    k = residue or cs.period
    first = k - 1 if cs.row_odd else k
    return next((n for n in domain_points(identity.domain, n_max) if n >= first), None)


def derive_targets(registry, identities) -> list:
    """Distinct left sides of the foldable identities, b-file targets excluded."""
    out = []
    for ident in registry:
        if ident.kind != "sum" or ident.lhs.name in BFILE_TARGETS:
            continue
        try:
            identities.folded_profile(ident)
        except ValueError:
            continue
        if ident.lhs not in out:
            out.append(ident.lhs)
    return out


def target_key(target) -> str:
    return f"{target.name}|{target.param}|{target.a}|{target.b}"


def derive_ops(targets, seed: int) -> list[tuple[int, int]]:
    """(target index, period) pairs in a seed-shuffled order."""
    ops = [(t, p) for t in range(len(targets)) for p in DERIVE_PERIODS]
    random.Random(seed).shuffle(ops)
    return ops
