"""OEIS b-file ingestion and sequence comparison, offline first.

A curated set of b-file prefixes is bundled with the package so the test
suite and CLI run deterministically with no network.  Live fetching is
available but strictly opt-in, and fetched files are cached with
create-then-rename writes so concurrent fetches of one id are safe.
"""
from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from importlib import resources

_ID_PATTERN = re.compile(r"^A\d{6}$")

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
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{seq_id}: malformed b-file line {lineno}: {raw!r}")
        try:
            idx, val = int(fields[0]), int(fields[1])
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
        raise KeyError(f"no bundled fixture for {seq_id}")
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


class FetchDisabled(RuntimeError):
    """Raised when a network fetch would be needed but was not enabled."""


def _cache_dir() -> str:
    return os.environ.get("OEIS_CACHE_DIR", "./.oeis-cache")


def fetch(seq_id: str, allow_network: bool = False, cache_dir: str | None = None,
          timeout: float = 30.0) -> BFileTable:
    """b-file for seq_id, from the local cache or (opt-in) from oeis.org."""
    if not _ID_PATTERN.match(seq_id):
        raise ValueError(f"invalid OEIS id {seq_id!r} (expected AXXXXXX)")
    directory = cache_dir or _cache_dir()
    path = os.path.join(directory, f"b{seq_id[1:]}.txt")
    if os.path.exists(path):
        with open(path, "r", encoding="ascii") as fh:
            return parse_bfile(fh.read(), seq_id, source=path)
    if not allow_network:
        raise FetchDisabled(
            f"no cached b-file for {seq_id} and network fetching is disabled"
        )
    url = f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"
    import urllib.request  # deferred: only a network fetch needs the HTTP stack

    with urllib.request.urlopen(url, timeout=timeout) as resp:
        text = resp.read().decode("ascii")
    table = parse_bfile(text, seq_id, source=url)  # validate before caching
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"b{seq_id[1:]}.", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return table
