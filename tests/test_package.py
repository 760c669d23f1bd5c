"""Source checks that need no linter: every module-level import is read,
every top-level function and class is read or exported, every public
name resolves, and a term sweeps only when it steps a Pascal kernel."""
import ast
from pathlib import Path

import pytest

import binsums

_PACKAGE = Path(binsums.__file__).parent
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
_ROOT = Path(__file__).resolve().parent.parent


def _unread_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_module_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_the_check_sees_an_unread_import():
    source = "import os\nimport sys as system\nfrom fractions import Fraction\nprint(system.argv)\n"
    assert _unread_imports(source) == ["os", "Fraction"]


def test_every_public_name_resolves():
    assert [name for name in binsums.__all__ if not hasattr(binsums, name)] == []


def _unread_definitions(defining: list[str], reading: list[str], exported) -> list[str]:
    """Top-level functions and classes of the defining sources that no
    expression in the reading sources reads as a name or an attribute, and
    that are not exported."""
    defined = [node.name for source in defining for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined if name not in read and name not in exported]


def test_every_definition_is_read_or_exported():
    defining = [p.read_text() for p in _MODULES]
    readers = [*_PACKAGE.glob("*.py"), *(_ROOT / "tools").glob("*.py"),
               *(_ROOT / "perfbench").glob("*.py")]
    reading = [p.read_text() for p in readers]
    assert _unread_definitions(defining, reading, set(binsums.__all__)) == []


def test_the_check_sees_an_unread_definition():
    lib = "def used(): pass\ndef dead(): pass\ndef public(): pass\nclass Unused: pass\n"
    caller = "import lib\nlib.used()\ndead = 1\n"
    assert _unread_definitions([lib], [lib, caller], {"public"}) == ["dead", "Unused"]


_KERNELS = {"class_sums", "pascal_rows"}


def _sweeps_off_the_kernels(source: str) -> list[str]:
    """Top-level classes that define `sweep` but are not in _SWEPT_TERMS,
    are in it but define no `sweep`, or whose `sweep` reads neither
    class_sums nor pascal_rows."""
    tree = ast.parse(source)
    swept = next({elt.id for elt in node.value.elts} for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_SWEPT_TERMS"])
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        sweep = next((f for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name == "sweep"), None)
        if sweep is None:
            wrong = node.name in swept
        else:
            reads = {n.id for n in ast.walk(sweep) if isinstance(n, ast.Name)}
            wrong = node.name not in swept or not reads & _KERNELS
        if wrong:
            out.append(node.name)
    return out


def test_every_sweep_steps_a_pascal_kernel():
    assert _sweeps_off_the_kernels((_PACKAGE / "identities.py").read_text()) == []


def test_the_check_sees_a_sweep_off_the_kernels():
    source = ("class Stepped:\n    def sweep(self, ns): return pascal_rows(ns)\n"
              "class Copied:\n    def sweep(self, ns): return [self.evaluate(n) for n in ns]\n"
              "class Unlisted:\n    def sweep(self, ns): return class_sums(ns)\n"
              "class Listed:\n    def evaluate(self, n): return n\n"
              "class Plain:\n    def evaluate(self, n): return n\n"
              "_SWEPT_TERMS = (Stepped, Copied, Listed)\n")
    assert _sweeps_off_the_kernels(source) == ["Copied", "Unlisted", "Listed"]
