"""OEIS b-file ingestion and sequence comparison, offline only.

A curated set of b-file prefixes is bundled with the package, so the test
suite and the CLI run deterministically; any other b-file is read from a
path the caller gives.  Nothing here opens a network connection.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

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


@dataclass(frozen=True)
class BFileTable:
    """Parsed b-file: an ordered index -> value map."""

    seq_id: str
    entries: dict[int, int]
    source: str = ""


@dataclass(frozen=True)
class AlignmentReport:
    """Outcome of aligning a local oracle against a b-file."""

    sequence: str
    seq_id: str
    shift: int
    matched: int
    first_mismatch: tuple[int, int, int] | None  # (local index, local, b-file)

    @property
    def is_match(self) -> bool:
        # short coincidences between distinct sequences are common
        return self.matched >= 20


def parse_bfile(text: str, seq_id: str = "?", source: str = "") -> BFileTable:
    """Parse "index value" lines; '#' comments and blank lines are skipped."""
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
    return BFileTable(seq_id, entries, source)


def load_fixture(seq_id: str) -> BFileTable:
    """Bundled b-file prefix for one of the curated ids, parsed anew on each
    call, so a caller that edits its entries changes no later load."""
    if seq_id not in FIXTURES:
        raise KeyError(f"no bundled fixture for {seq_id}; oeis-check --bfile PATH reads a b-file "
                       f"downloaded from the OEIS")
    text = resources.files("binsums").joinpath("data", f"b{seq_id[1:]}.txt").read_text()
    return parse_bfile(text, seq_id, source=f"bundled b{seq_id[1:]}.txt")


def compare(sequence: str, table: BFileTable, count: int = 50, param: int | None = None) -> AlignmentReport:
    """Align a registered oracle against a b-file.

    Shifts in [-3, 3] between local and b-file indexing are tried and the
    longest initial agreement wins; comparison is exact integer equality.
    """
    from .sequences import get_oracle

    if count < 20:
        raise ValueError("count must be >= 20 for a meaningful comparison")
    oracle = get_oracle(sequence)
    best: AlignmentReport | None = None
    for shift in range(-3, 4):
        matched = 0
        mismatch = None
        for i in range(count):
            n = oracle.start + i
            j = n + shift
            if j not in table.entries:
                break
            local = oracle(n, param)
            if local != table.entries[j]:
                mismatch = (n, local, table.entries[j])
                break
            matched += 1
        report = AlignmentReport(sequence, table.seq_id, shift, matched, mismatch)
        if best is None or report.matched > best.matched:
            best = report
    return best
