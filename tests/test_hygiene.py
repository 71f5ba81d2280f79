"""Source hygiene: every name a library module imports is used in it, and
every top-level function or class in the library has a caller outside the
tests.

`__init__.py` is exempt from the import check, since it imports names only
to re-export them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsefglm"


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


def referenced_names(source: str) -> set[str]:
    """Names a module reads, imports by name, or spells as a string (the
    benchmark's tracer wraps library functions given by name)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced_defs(sources: dict[str, str], library: set[str], exported: set[str]) -> list[str]:
    """`module.name` of every top-level def or class of a library module
    that no other module references, its own module does not use, and the
    package does not export; sources and library are keyed by file path."""
    refs = {path: referenced_names(src) for path, src in sources.items()}
    out = []
    for path in sorted(library):
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if not any(node.name in names for names in refs.values()):
                out.append(f"{Path(path).stem}.{node.name}")
    return out


def test_unreferenced_checker_flags_orphans_and_accepts_references():
    sources = {
        "a": (
            "def used_here(): pass\n"
            "def imported(): pass\n"
            "def traced(): pass\n"
            "def exported(): pass\n"
            "def _only_tests(): pass\n"
            "class Orphan: pass\n"
            "x = used_here()\n"
        ),
        "b": "from a import imported\n",
        "tracer": "WRAPPED = [('a', 'traced')]\n",
    }
    assert unreferenced_defs(sources, {"a"}, {"exported"}) == ["a._only_tests", "a.Orphan"]


def test_no_library_helper_only_tests_use():
    sources = {
        str(path): path.read_text()
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "benchmark").glob("*.py")]
        if not path.name.startswith("test_")
    }
    library = {str(path) for path in PACKAGE.glob("*.py")}
    init = ast.parse(sources[str(PACKAGE / "__init__.py")])
    exported = next(
        set(ast.literal_eval(node.value))
        for node in init.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    assert unreferenced_defs(sources, library, exported) == []


def random_generator_sites(source: str) -> list[str]:
    """`Class.function` (or `<module>`) around each call of `random.Random`
    or a bare `Random`, in source order."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "Random":
                    out.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return out


def test_random_site_checker_finds_every_construction():
    src = (
        "import random\n"
        "from random import Random\n"
        "RNG = random.Random(0)\n"
        "class Q:\n"
        "    def probes(self, seed):\n"
        "        rng = random.Random(seed)\n"
        "        return [Random(s) for s in range(2)], rng.random()\n"
        "def gen(seed):\n"
        "    return random.randrange(seed)\n"
    )
    assert random_generator_sites(src) == ["<module>", "Q.probes", "Q.probes"]


def test_probes_come_from_one_seeded_stream():
    """Random probes come only from `QuotientStructure.probes`, and random
    systems only from `gen_random_system`; a stage takes its probe."""
    sites = [
        f"{path.stem}.{site}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in random_generator_sites(path.read_text())
    ]
    assert sites == ["buchberger.gen_random_system", "quotient.QuotientStructure.probes"]
