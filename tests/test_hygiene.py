"""Source hygiene: every name a library module imports is used in it.

`__init__.py` is exempt, since it imports names only to re-export them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparsefglm"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_flags_unused_and_accepts_used():
    src = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from .a import b, c as d\n"
        "def f(x: b) -> None:\n"
        "    return os.path.join(system.argv[0])\n"
    )
    assert unused_imports(src) == ["d"]


def test_library_modules_use_every_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {
        path.name: names
        for path in modules
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text()))
    }
    assert unused == {}
