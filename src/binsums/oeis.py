"""OEIS b-file ingestion and sequence comparison, offline only.

A b-file is read into a plain index -> value dict.  A curated set of
prefixes is bundled with the package, so the test suite and the CLI run
deterministically; any other b-file is read from a path the caller gives.
Nothing here opens a network connection.
"""
from __future__ import annotations

from importlib import resources

from .core import Frozen
from .sequences import get_oracle, seq_values

#: the fewest agreeing terms that make a match, and so the fewest a comparison
#: may ask for: short coincidences between distinct sequences are common
MIN_MATCH = 20

#: ids bundled under binsums/data, keyed to the oracle each one pins down
FIXTURES: dict[str, tuple[str, int | None]] = {
    "A000129": ("pell", None),
    "A001075": ("pellX", None),
    "A001353": ("pellY", None),
    "A080937": ("Q", None),
    "A052975": ("R", None),
    "A094648": ("W", None),
    "A094789": ("A094789", None),
    "A094831": ("S", None),
    "A095930": ("A", None),
    "A095931": ("B", None),
    "A007052": ("scriptL", 4),
    "A081567": ("scriptL", 5),
    "A094667": ("A094667", None),
    "A216597": ("A216597", None),
}


class AlignmentReport(Frozen):
    """Outcome of aligning a local oracle against a b-file: the best shift,
    the terms that agree at it, and the first (local index, local, b-file)
    that differs there, or None."""

    def __init__(self, shift: int, matched: int,
                 first_mismatch: tuple[int, int, int] | None) -> None:
        self._set(shift=shift, matched=matched, first_mismatch=first_mismatch)

    @property
    def is_match(self) -> bool:
        """At least MIN_MATCH terms agree and none of those compared differs."""
        return self.matched >= MIN_MATCH and self.first_mismatch is None


def parse_bfile(text: str, seq_id: str = "?") -> dict[int, int]:
    """The index -> value map of "index value" lines, in index order; '#'
    comments and blank lines are skipped, and seq_id names the file in
    error messages."""
    entries: dict[int, int] = {}
    last = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:  # exactly two integer fields
            idx, val = map(int, line.split())
        except ValueError:
            raise ValueError(f"{seq_id}: malformed b-file line {lineno}: {raw!r}") from None
        if last is not None and idx <= last:
            raise ValueError(f"{seq_id}: non-increasing index at line {lineno}")
        entries[idx] = val
        last = idx
    return entries


def load_fixture(seq_id: str) -> dict[int, int]:
    """Bundled b-file prefix for one of the curated ids, parsed anew on each
    call, so a caller that edits the map changes no later load."""
    if seq_id not in FIXTURES:
        raise KeyError(f"no bundled fixture for {seq_id}; oeis-check --bfile PATH reads a b-file "
                       f"downloaded from the OEIS")
    text = resources.files("binsums").joinpath("data", f"b{seq_id[1:]}.txt").read_text()
    return parse_bfile(text, seq_id)


def compare(sequence: str, table: dict[int, int], count: int = 50, param: int | None = None) -> AlignmentReport:
    """Align a registered oracle against a b-file's index -> value map.

    The oracle is read once, at count indices from its start; shifts in
    [-3, 3] between local and b-file indexing are tried and the longest
    initial agreement wins; comparison is exact integer equality.
    """
    if count < MIN_MATCH:
        raise ValueError(f"count must be >= {MIN_MATCH} for a meaningful comparison")
    start = get_oracle(sequence).start
    local = seq_values(sequence, range(start, start + count), param)
    best: AlignmentReport | None = None
    for shift in range(-3, 4):
        matched = 0
        mismatch = None
        for n, value in enumerate(local, start):
            j = n + shift
            if j not in table:
                break
            if value != table[j]:
                mismatch = (n, value, table[j])
                break
            matched += 1
        report = AlignmentReport(shift, matched, mismatch)
        if best is None or report.matched > best.matched:
            best = report
    return best
