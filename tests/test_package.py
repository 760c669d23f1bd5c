"""Source checks that need no linter: every module-level import is read,
every top-level function and class is read or exported (each of core's
by another module), every function runs under the README's CLI lines or is
named with its reason, every public name resolves, every term has one value
route, only `seq_values` reads the oracle memo and nothing calls an oracle,
only `cli.run` writes to stderr, and no module reaches the network."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binsums
from test_cli import _readme_cli_lines

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
    # with core left out of the readers, a name only core reads counts as unread
    core = "def kernel(): pass\ndef helper(): pass\ndef route(): return helper()\n"
    other = "from .core import kernel, route\nkernel()\n"
    assert _unread_definitions([core], [other], set()) == ["helper", "route"]


def test_every_core_definition_is_read_by_another_module():
    # a kernel that only core itself or the public names read is a second
    # route to some value, so it goes
    others = [p.read_text() for p in _MODULES if p.name != "core.py"]
    assert _unread_definitions([(_PACKAGE / "core.py").read_text()], others, set()) == []


def _functions(source: str) -> dict[tuple[int, str], str]:
    """(first line, name) of each code object a def in the source compiles
    to, a decorated one starting at its first decorator, mapped to its
    dotted name: "f", "Class.method", "outer.inner"."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[line, child.name] = prefix + child.name
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, prefix + child.name + "." if named else prefix)
    visit(ast.parse(source), "")
    return out


# run in a fresh interpreter, so that no memo warmed by another test skips
# the code that fills it
_PROFILED_RUN = """
import contextlib, io, json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _never_entered(package: Path, calls: str) -> list[str]:
    """"module.name" of every function defined in the package's modules
    that a fresh interpreter running the calls under sys.setprofile never
    enters; the package's parent directory is put on the import path."""
    proc = subprocess.run([sys.executable, "-c", _PROFILED_RUN, calls],
                          env={**os.environ, "PYTHONPATH": str(package.parent)},
                          capture_output=True, text=True, timeout=300, check=True)
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in json.loads(proc.stdout)}
    out = []
    for path in sorted(package.glob("*.py")):
        for (line, name), dotted in _functions(path.read_text()).items():
            if (str(path.resolve()), line, name) not in entered:
                out.append(f"{path.stem}.{dotted}")
    return out


# the functions that no README CLI line enters, each with its reason
NEVER_ENTERED = {
    "cli.main": "the console entry point",
    "identities.find": "a library lookup of a family's identities",
    "sequences.registry": "a library lookup of the oracles",
    "identities.perturbed": "read by perfbench's perturbed workload until it has its own copy",
    "identities.folded_profile": "read by perfbench's derive checker until it has its own copy",
    "identities.OracleRef.value": "read by perfbench's derive checker until it has its own copy",
    "core.Frozen.__setattr__": "refuses an assignment, which no command makes",
    "core.Frozen.__delattr__": "refuses a deletion, which no command makes",
    "core.Frozen.__hash__": "no command keys a dict or a set by a value",
    "core.Frozen.__repr__": "no command prints a value's repr; the tests compare them",
}


def test_every_function_runs_under_the_readme_cli_lines_or_is_named():
    argvs = [argv for argv, _ in _readme_cli_lines()]
    calls = f"from binsums.cli import run\nfor argv in {argvs!r}:\n    run(argv)\n"
    assert sorted(_never_entered(_PACKAGE, calls)) == sorted(NEVER_ENTERED)


def test_the_check_sees_a_function_never_entered(tmp_path):
    toy = tmp_path / "toy"
    toy.mkdir()
    (toy / "__init__.py").write_text("")
    (toy / "lib.py").write_text(
        "import functools\n"
        "def used():\n    def inner(): pass\n    def unused_inner(): pass\n    inner()\n"
        "def dead(): pass\n"
        "if True:\n    def guarded(): pass\n"
        "class Box:\n    @property\n    def size(self): return 1\n"
        "    @functools.cache\n    def cached(self): return 2\n"
        "    def unused(self): pass\n")
    calls = "from toy.lib import Box, used\nused()\nBox().size\nBox().cached()\n"
    assert _never_entered(toy, calls) == ["lib.used.unused_inner", "lib.dead", "lib.guarded",
                                          "lib.Box.unused"]


def _importers(sources: dict[str, str], module: str) -> list[str]:
    """Names of the sources that import the module anywhere in their code,
    a deferred import inside a function included."""
    def imports(node) -> bool:
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == module for a in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module
    return [name for name, source in sources.items()
            if any(map(imports, ast.walk(ast.parse(source))))]


_SOURCES = {p.name: p.read_text() for p in sorted(_PACKAGE.glob("*.py"))}


def test_only_the_one_memo_takes_a_lock():
    # the memo of stepped sequences is the package's only shared state
    assert _importers(_SOURCES, "threading") == ["sequences.py"]


def test_no_module_imports_dataclasses():
    # core.Frozen is the base of every value: dataclasses costs start-up
    # time and compiles code at import that no bytecode cache keeps
    assert _importers(_SOURCES, "dataclasses") == []


def test_the_check_sees_a_threading_import():
    sources = {"a.py": "import threading\n", "b.py": "def f():\n    from threading import Lock\n",
               "c.py": "import os, threading as t\n", "d.py": "import os\nthreading = 1\n",
               "e.py": "from . import threads\n", "f.py": "from dataclasses import dataclass\n"}
    assert _importers(sources, "threading") == ["a.py", "b.py", "c.py"]
    assert _importers(sources, "dataclasses") == ["f.py"]


# run in a fresh interpreter, so that no other test's import is counted
_IMPORTED_BY = """
import contextlib, io, json, sys
from binsums.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    run(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(*argv: str) -> set[str]:
    """sys.modules of a fresh interpreter after `import binsums.cli` and one
    run of the command line argv."""
    proc = subprocess.run([sys.executable, "-c", _IMPORTED_BY, *argv],
                          env={**os.environ, "PYTHONPATH": str(_PACKAGE.parent)},
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout))


def test_verify_imports_neither_discovery_nor_oeis_nor_dataclasses():
    # only derive and oeis-check run those modules, and no module needs dataclasses
    assert _modules_after("verify", "--all") & {
        "binsums.discovery", "binsums.oeis", "dataclasses"} == set()


def test_derive_and_oeis_check_import_their_modules():
    assert "binsums.discovery" in _modules_after("derive", "--target", "fib", "--index", "2n",
                                                 "--period", "5")
    assert "binsums.oeis" in _modules_after("oeis-check", "--sequence", "pell", "--id", "A000129")


def _oracle_value_reads(source: str) -> list[str]:
    """"<function> reads _memo_values" and "<function> calls an oracle", once
    each, for each function of the source (dotted "Class.method", or
    "<module>" for code outside any function) that calls _memo_values or a
    SequenceOracle object: the result of get_oracle(...) or of a _REGISTRY
    lookup, a name the function binds to one, or self in a method of
    SequenceOracle."""
    def is_oracle(node) -> bool:
        if isinstance(node, ast.Call):
            return getattr(node.func, "id", None) == "get_oracle"
        return isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "_REGISTRY"

    out = {}

    def scan(node, name, bound):
        bound = bound | {t.id for n in ast.walk(node) if isinstance(n, ast.Assign)
                         and is_oracle(n.value) for t in n.targets if isinstance(t, ast.Name)}
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if getattr(func, "id", getattr(func, "attr", None)) == "_memo_values":
                out[f"{name} reads _memo_values"] = None
            elif is_oracle(func) or getattr(func, "id", None) in bound:
                out[f"{name} calls an oracle"] = None

    def visit(node, prefix, bound):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".",
                      {"self"} if child.name == "SequenceOracle" else set())
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, prefix + child.name, bound)
            elif isinstance(child, ast.stmt):
                scan(child, "<module>", set())
    visit(ast.parse(source), "", set())
    return list(out)


def test_only_seq_values_reads_the_memo_and_no_module_calls_an_oracle():
    # one route to an oracle's values: the bulk reader, which reads the memo
    reads = [f"{p.stem}.{r}" for p in _MODULES for r in _oracle_value_reads(p.read_text())]
    assert reads == ["sequences.seq_values reads _memo_values"]


def test_the_check_sees_a_second_memo_reader_and_an_oracle_call():
    source = ("def seq_values(name, ns):\n"
              "    return _memo_values(name, None, max(ns)) + _memo_values(name, None, 0)\n"
              "def other(name):\n    return sequences._memo_values(name, None, 3)[3]\n"
              "def direct(name):\n    return get_oracle(name)(3)\n"
              "def bound(name):\n    oracle = get_oracle(name)\n"
              "    return [oracle(n) for n in range(3)]\n"
              "def looked_up(name):\n    return _REGISTRY[name](4, None)\n"
              "def fine(name, oracle):\n    spec = get_oracle(name).spec()\n"
              "    return spec(1) + oracle(2) + seq_eval(name, 1)\n"
              "class SequenceOracle:\n    def dilate(self, a):\n        return self(a)\n"
              "    def spec(self):\n        return self.recurrence(2)\n"
              "class Other:\n    def f(self):\n        return self(1)\n"
              "value = get_oracle('fib')(5)\n")
    assert _oracle_value_reads(source) == [
        "seq_values reads _memo_values", "other reads _memo_values", "direct calls an oracle",
        "bound calls an oracle", "looked_up calls an oracle", "SequenceOracle.dilate calls an oracle",
        "<module> calls an oracle"]


_SECOND_ROUTES = {"evaluate", "sweep", "terms_at"}


def _terms_off_one_route(source: str) -> list[str]:
    """Term classes (those `_term_json` encodes) that define no `values` or
    define a second value route (`evaluate`, `sweep`, `terms_at`), and
    classes that define `values` but are not terms."""
    tree = ast.parse(source)
    encoder = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_term_json")
    terms = {call.args[1].id for call in ast.walk(encoder)
             if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"}
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        if node.name in terms:
            wrong = "values" not in methods or bool(methods & _SECOND_ROUTES)
        else:
            wrong = "values" in methods
        if wrong:
            out.append(node.name)
    return out


def test_every_term_has_one_value_route():
    assert _terms_off_one_route((_PACKAGE / "identities.py").read_text()) == []


def test_the_check_sees_a_term_off_one_route():
    source = ("class Stepped:\n    def values(self, ns): return ns\n"
              "class Twice:\n    def values(self, ns): return ns\n"
              "    def evaluate(self, n): return n\n"
              "class Swept:\n    def sweep(self, ns): return ns\n"
              "class Listed:\n    def values(self, ns): return ns\n"
              "    def terms_at(self, n): return []\n"
              "class Unlisted:\n    def values(self, ns): return ns\n"
              "class Plain:\n    def label(self): return ''\n"
              "def _term_json(term):\n"
              "    if isinstance(term, Stepped): return {}\n"
              "    if isinstance(term, Twice): return {}\n"
              "    if isinstance(term, Swept): return {}\n"
              "    if isinstance(term, Listed): return {}\n")
    assert _terms_off_one_route(source) == ["Twice", "Swept", "Listed", "Unlisted"]


def _stderr_writers(source: str) -> list[str]:
    """Top-level functions that name sys.stderr, and "<module>" for such a
    statement outside any function."""
    out = []
    for node in ast.parse(source).body:
        if any(isinstance(n, ast.Attribute) and n.attr == "stderr"
               and isinstance(n.value, ast.Name) and n.value.id == "sys" for n in ast.walk(node)):
            out.append(node.name if isinstance(node, ast.FunctionDef) else "<module>")
    return out


def test_only_run_writes_to_stderr_in_the_cli():
    """Every refusal of a command reaches the user through run's one handler."""
    assert _stderr_writers((_PACKAGE / "cli.py").read_text()) == ["run"]


def test_the_check_sees_a_command_that_writes_to_stderr():
    source = ("import sys\n"
              "def run():\n    print('a', file=sys.stderr)\n"
              "def _cmd_a():\n    sys.stderr.write('b')\n"
              "def _cmd_b():\n    def inner():\n        print('c', file=sys.stderr)\n"
              "def _cmd_c():\n    print('d')\n"
              "if __name__ == '__main__':\n    print('e', file=sys.stderr)\n")
    assert _stderr_writers(source) == ["run", "_cmd_a", "_cmd_b", "<module>"]


_NETWORK_MODULES = {"urllib", "http", "socket"}


def _network_imports(source: str) -> list[str]:
    """Modules of the network stack that the source imports anywhere, a
    deferred import inside a function included."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] in _NETWORK_MODULES]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_the_network_stack(path):
    assert _network_imports(path.read_text()) == []


def test_the_check_sees_a_deferred_network_import():
    source = ("import os\nfrom http import client\n"
              "def get():\n    import urllib.request\n    import socket as s\n"
              "from .oeis import load_fixture\n")
    assert _network_imports(source) == ["http", "urllib.request", "socket"]
