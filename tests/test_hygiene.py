"""Source hygiene: every name a library module imports is used in it, and
every top-level function or class in the library, and every method of a
library class, has a caller outside the tests.

`__init__.py` is exempt from the import check, since it imports names only
to re-export them; for the same reason a re-export is no caller.
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


def referenced_names(source: str) -> tuple[set[str], set[str]]:
    """The names a module reads, and the names it reaches from outside: what
    it imports by name, spells as a string (the benchmark's tracer wraps
    library functions given by name), or reads as an attribute of a module
    object, a name bound by `import` or a subscript such as
    `sys.modules[...]`.  Any other attribute, `x.is_zero()` say, may be a
    method, so it names no top-level definition."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    read, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Subscript) or (isinstance(owner, ast.Name) and owner.id in modules):
                outside.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            outside.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            outside.add(node.value)
    return read, outside


def unreferenced_defs(sources: dict[str, str], library: set[str]) -> list[str]:
    """`module.name` of every top-level def or class of a library module
    that its own module does not read and no module other than an
    `__init__.py` reaches from outside (see `referenced_names`); sources and
    library are keyed by file path."""
    refs = {path: referenced_names(src) for path, src in sources.items()}
    outside = set().union(
        *(names for path, (_, names) in refs.items() if Path(path).name != "__init__.py")
    )
    out = []
    for path in sorted(library):
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in refs[path][0] and node.name not in outside:
                out.append(f"{Path(path).stem}.{node.name}")
    return out


def test_unreferenced_checker_flags_orphans_and_accepts_references():
    sources = {
        "a": (
            "def used_here(): pass\n"
            "def imported(): pass\n"
            "def traced(): pass\n"
            "def reexported(): pass\n"
            "def _only_tests(): pass\n"
            "class Orphan: pass\n"
            "def is_zero(f): return not f\n"
            "def helper(): pass\n"
            "def looked_up(): pass\n"
            "x = used_here()\n"
        ),
        "b": "from a import imported\nx.is_zero()\n",
        "c": "import a\na.helper()\n",
        "d": "import sys\nsys.modules['a'].looked_up()\n",
        "tracer": "WRAPPED = [('a', 'traced')]\n",
        "pkg/__init__.py": "from a import reexported\n__all__ = ['reexported']\n",
    }
    assert unreferenced_defs(sources, {"a"}) == ["a.reexported", "a._only_tests", "a.Orphan", "a.is_zero"]


def tree_sources() -> tuple[dict[str, str], set[str]]:
    """The sources of the package and the benchmark, less their tests, keyed
    by file path, and the package's modules."""
    sources = {
        str(path): path.read_text()
        for path in [*PACKAGE.glob("*.py"), *(ROOT / "benchmark").glob("*.py")]
        if not path.name.startswith("test_")
    }
    return sources, {str(path) for path in PACKAGE.glob("*.py")}


def test_no_library_helper_only_tests_use():
    assert unreferenced_defs(*tree_sources()) == []


def test_tree_check_flags_a_helper_named_like_a_method():
    """A top-level `is_zero` only tests would call is named, although
    `MultiPoly.is_zero()` is read all over the tree."""
    sources, library = tree_sources()
    sources[str(PACKAGE / "unipoly.py")] += "\n\ndef is_zero(f):\n    return not f\n"
    assert unreferenced_defs(sources, library) == ["unipoly.is_zero"]


def unread_methods(sources: dict[str, str], library: set[str]) -> list[str]:
    """`Class.name` of every method or property, dunders aside, of a class
    defined at the top level of a library module that no source reads as an
    attribute, of any object, or spells as a string; sources and library are
    keyed by file path."""
    names = set()
    for src in sources.values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return [
        f"{cls.name}.{node.name}"
        for path in sorted(library)
        for cls in ast.parse(sources[path]).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in names
    ]


def test_method_checker_flags_unread_methods_and_accepts_reads():
    sources = {
        "a": (
            "class P:\n"
            "    def __init__(self): self.read_here()\n"
            "    def read_here(self): pass\n"
            "    @classmethod\n"
            "    def made(cls): pass\n"
            "    @property\n"
            "    def size(self): pass\n"
            "    def traced(self): pass\n"
            "    def only_tests(self): pass\n"
            "    def __len__(self): pass\n"
            "def size(): pass\n"
        ),
        "b": "from a import P\nP.made()\n",
        "tracer": "WRAPPED = [('a', 'traced')]\n",
    }
    assert unread_methods(sources, {"a"}) == ["P.size", "P.only_tests"]


def test_no_library_method_only_tests_use():
    assert unread_methods(*tree_sources()) == []


def test_tree_check_flags_a_method_only_tests_call():
    """A `MultiPoly.constant` that no library or benchmark code reads is
    named, although the body it adds reads `coeffs` and `n`."""
    sources, library = tree_sources()
    path = str(PACKAGE / "poly.py")
    sources[path] = sources[path].replace(
        "    def is_zero(self) -> bool:",
        "    def constant(self) -> int:\n        return self.coeffs.get((0,) * self.n, 0)\n\n"
        "    def is_zero(self) -> bool:",
    )
    assert unread_methods(sources, library) == ["MultiPoly.constant"]


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


def test_only_field_and_terms_turn_ints_into_bytes():
    """The packed-vector format belongs to `field.field_codec`, whose pack
    and unpack take and give ints; `terms.TermCodec` keeps its own guarded
    16-bit term fields.  No other module calls `from_bytes` or `to_bytes`."""
    sites: dict[str, list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes"):
                sites.setdefault(path.name, []).append(node.lineno)
    assert sites.keys() == {"field.py", "terms.py"}, sites


def test_quotient_does_no_tuple_term_arithmetic():
    """The library orders, multiplies and divides packed terms
    (`terms.TermCodec`): no module defines or imports an exponent-tuple
    helper for products, divisibility or order (the tests keep them in
    conftest as oracles)."""
    helpers = {"term_mul", "divides", "lex_key", "drl_key", "term_key"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        named |= {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        assert named & helpers == set(), path.name
