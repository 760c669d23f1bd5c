"""Mutants of one module of the source tree, each run against tier-1.

    python3 tools/mutate.py MODULE[:FUNCTION] [--every K]

Run from the root of a tree with its code under src/ and its tests under
tests/.  MODULE is a dotted module name under src/ (binsums.core); FUNCTION,
a qualified name such as CenteredSum.values, keeps only the sites inside
that function, its nested functions included.  A site is one change by one
operator: + and -, * and //, < and <=, > and >=, == and != swapped (in
augmented assignments too), `and` and `or` swapped, a `not` dropped, or 1
added to an int literal.  f-strings are left alone.  --every K keeps every
K-th site, from the first.

The tree is copied once to a temporary directory, without .git or caches.
Tier-1 (`python -m pytest -x -q`, src on PYTHONPATH, no bytecode written,
no pytest plugin loaded, since tier-1 needs none) runs first on the
unmutated copy, which must pass; its time T sets the time limit of each
mutant's run, 3T + 1 s.  Then each mutant is written in place of the module
and tier-1 runs again.  One line per site says `killed` (tier-1 failed),
`survived` (it passed) or `hung` (it ran past the limit), and a last line
counts them.  A survivor listed in the tree's table of equivalent mutants,
tools/equivalent_mutants.json, is marked with the reason given there; each
entry names the module, the function ("" at module level), the stripped
source line, the mutation as printed, and, where one line holds the same
mutation more than once, the occurrence from 1.  An entry of the module and
function that names no site is printed first as stale.

Exit status: 0 when every site was killed, hung or is a listed equivalent,
1 when some other mutant survived, 2 for bad arguments or a tier-1 run that
fails on the unmutated tree.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import Counter
from pathlib import Path
from typing import NamedTuple

# operator token -> its mutant
SWAPS = {"+": "-", "-": "+", "*": "//", "//": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">",
         "==": "!=", "!=": "==", "+=": "-=", "-=": "+=", "*=": "//=", "//=": "*=",
         "and": "or", "or": "and"}
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Lt: "<",
            ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
            ast.And: "and", ast.Or: "or"}
TABLE = Path("tools") / "equivalent_mutants.json"


class Site(NamedTuple):
    line: int  # 1-based
    function: str  # qualified name, "" at module level
    start: int  # character offsets of the replaced text in the source
    end: int
    old: str
    new: str

    @property
    def mutation(self) -> str:
        return f"{self.old} -> {self.new or '(dropped)'}"


class _Finder(ast.NodeVisitor):
    """Every site of one parsed module, in source order."""

    def __init__(self, source: str) -> None:
        self.source, self.lines = source, source.splitlines(keepends=True)
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line))
        self.tokens = [(self.offset(*t.start, True), self.offset(*t.end, True), t.string)
                       for t in tokenize.generate_tokens(io.StringIO(source).readline)]
        self.names: list[str] = []
        self.sites: list[Site] = []

    def offset(self, line: int, col: int, chars: bool = False) -> int:
        """The character offset of a position; an AST column counts UTF-8 bytes."""
        if not chars:
            col = len(self.lines[line - 1].encode()[:col].decode())
        return self.starts[line - 1] + col

    def start(self, node: ast.AST) -> int:
        return self.offset(node.lineno, node.col_offset)

    def end(self, node: ast.AST) -> int:
        return self.offset(node.end_lineno, node.end_col_offset)

    def add(self, start: int, end: int, old: str, new: str) -> None:
        line = next(i for i, s in enumerate(self.starts) if s > start)
        self.sites.append(Site(line, ".".join(self.names), start, end, old, new))

    def token(self, after: ast.AST, before: ast.AST, text: str) -> None:
        """A site at the first token `text` between two nodes."""
        lo, hi = self.end(after), self.start(before)
        start, end = next((s, e) for s, e, t in self.tokens if t == text and lo <= s and e <= hi)
        self.add(start, end, text, SWAPS[text])

    def scope(self, node, name: str) -> None:
        for outer in (*getattr(node, "decorator_list", ()), *getattr(node, "bases", ())):
            self.visit(outer)
        if hasattr(node, "args"):
            self.visit(node.args)
        self.names.append(name)
        for statement in node.body:
            self.visit(statement)
        self.names.pop()

    def visit_FunctionDef(self, node) -> None:
        self.scope(node, node.name)

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_JoinedStr(self, node) -> None:
        pass  # an f-string's messages, whose inner positions Python 3.11 does not keep

    def visit_BinOp(self, node) -> None:
        if type(node.op) in _SYMBOLS:
            self.token(node.left, node.right, _SYMBOLS[type(node.op)])
        self.generic_visit(node)

    def visit_AugAssign(self, node) -> None:
        if type(node.op) in _SYMBOLS:
            self.token(node.target, node.value, _SYMBOLS[type(node.op)] + "=")
        self.generic_visit(node)

    def visit_Compare(self, node) -> None:
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if type(op) in _SYMBOLS:
                self.token(left, right, _SYMBOLS[type(op)])
        self.generic_visit(node)

    def visit_BoolOp(self, node) -> None:
        for left, right in zip(node.values, node.values[1:]):
            self.token(left, right, _SYMBOLS[type(node.op)])
        self.generic_visit(node)

    def visit_UnaryOp(self, node) -> None:
        if isinstance(node.op, ast.Not):
            start = self.start(node)
            self.add(start, start + 3, "not", "")
        self.generic_visit(node)

    def visit_Constant(self, node) -> None:
        if type(node.value) is int:
            start, end = self.start(node), self.end(node)
            self.add(start, end, self.source[start:end], str(node.value + 1))


def inside(name: str, function: str | None) -> bool:
    """Whether the qualified name is the function or nested in it; every
    name is inside None."""
    return function is None or name == function or name.startswith(function + ".")


def sites(source: str, function: str | None) -> list[Site]:
    """The sites of a module's source, in source order, all of them or those
    inside one function."""
    finder = _Finder(source)
    finder.visit(ast.parse(source))
    return [s for s in sorted(finder.sites, key=lambda s: s.start) if inside(s.function, function)]


def mutant(source: str, site: Site) -> str:
    return source[:site.start] + site.new + source[site.end:]


def equivalents(root: Path, module: str) -> dict[tuple, str]:
    """(function, line, mutation, occurrence) -> reason, for the module's
    entries of the tree's table."""
    path = root / TABLE
    entries = json.loads(path.read_text()) if path.exists() else []
    return {(e["function"], e["line"], e["mutation"], e.get("occurrence", 1)): e["reason"]
            for e in entries if e["module"] == module}


def keys(source: str, found: list[Site]) -> list[tuple]:
    """The table key of each site: its function, stripped line, mutation and
    occurrence among the sites with the same three."""
    lines, seen, out = source.splitlines(), Counter(), []
    for site in found:
        key = (site.function, lines[site.line - 1].strip(), site.mutation)
        seen[key] += 1
        out.append((*key, seen[key]))
    return out


def tier1(tree: Path, timeout: float) -> str:
    """killed, survived or hung: one tier-1 run in the tree."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    with subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            return "survived" if proc.wait(timeout=timeout) == 0 else "killed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return "hung"


def run(root: Path, module: str, function: str | None, every: int,
        timeout: float | None) -> Counter:
    """Run each kept site's mutant of module against tier-1 in a copy of the
    tree at root, print one line per site and the counts, and return the
    counts.  A timeout of None is set from the unmutated run, which must pass."""
    path = Path("src", *module.split("."))
    relative = path.with_suffix(".py")
    if not (root / relative).exists():
        relative = path / "__init__.py"
    source = (root / relative).read_text()
    found = sites(source, function)
    found = list(zip(found, keys(source, found)))
    if not found:
        raise RuntimeError(f"no site in {module}{':' + function if function else ''}")
    table = equivalents(root, module)
    for key in sorted(table.keys() - {key for _, key in found}):
        if inside(key[0], function):
            print(f"stale {TABLE} entry, no site matches: {key}")
    found = found[::every]
    counts = Counter()
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.pyc"))
        t0 = time.perf_counter()
        if tier1(tree, 3600) != "survived":
            raise RuntimeError("tier-1 fails on the unmutated tree")
        if timeout is None:
            timeout = 3 * (time.perf_counter() - t0) + 1
        for site, key in found:
            (tree / relative).write_text(mutant(source, site))
            outcome = tier1(tree, timeout)
            counts[outcome] += 1
            if outcome == "survived" and key in table:
                counts["equivalent"] += 1
                outcome += f" (equivalent: {table[key]})"
            print(f"{relative}:{site.line} {site.function or '<module>'} {site.mutation}: "
                  f"{outcome}", flush=True)
    print(f"{len(found)} sites: {counts['killed']} killed, {counts['survived']} survived "
          f"({counts['equivalent']} equivalent), {counts['hung']} hung")
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", metavar="MODULE[:FUNCTION]")
    parser.add_argument("--every", type=int, default=1, metavar="K")
    args = parser.parse_args()
    module, _, function = args.target.partition(":")
    if args.every < 1:
        parser.error("--every needs K >= 1")
    try:
        counts = run(Path.cwd(), module, function or None, args.every, None)
    except (OSError, RuntimeError) as exc:
        print(f"mutate: {exc}", file=sys.stderr)
        return 2
    return 1 if counts["survived"] > counts["equivalent"] else 0


if __name__ == "__main__":
    sys.exit(main())
