"""Source checks that need no linter: every module-level import is read, and
every public name resolves."""
import ast
from pathlib import Path

import pytest

import binsums

_MODULES = sorted(p for p in Path(binsums.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
