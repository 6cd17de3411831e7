"""Every name a library module imports is used in it, every private
module-level name is read somewhere in the library, and every public one is
read there too or exported in ``bcsecrecy.__all__``.

``__init__.py`` is skipped by the import check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import bcsecrecy

PACKAGE = Path(bcsecrecy.__file__).parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_unused_names():
    source = "import os\nfrom a import b, c as d\nfrom e import f\nprint(d, f)\n"
    assert unused_imports(source) == [(1, "os"), (2, "b")]


def test_library_modules_use_their_imports():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class or assigned constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _read(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, by name or as an attribute."""
    nodes = list(ast.walk(stmt))
    return ({node.id for node in nodes
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def unread_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level function, class or constant of
    ``sources`` (module name to source) that no statement other than its own
    definition reads."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    reads = [_read(stmt) for _, stmt in stmts]
    return [(module, name)
            for i, (module, stmt) in enumerate(stmts)
            for name in _defined(stmt)
            if not any(name in read for j, read in enumerate(reads) if j != i)]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each private name of ``unread_names``."""
    return [f"{module}:{name}" for module, name in unread_names(sources)
            if name.startswith("_") and not name.startswith("__")]


def test_finds_dead_private_names():
    sources = {
        "a": "_LIVE, _DEAD = 1, 2\ndef _helper():\n    return _helper()\nclass _Used: pass\n",
        "b": "import a\nfrom a import _Used\nx = a._LIVE + 1\ny = _Used()\n__all__ = []\n",
    }
    assert dead_private_names(sources) == ["a:_DEAD", "a:_helper"]


def library_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_library_private_names_are_read():
    assert dead_private_names(library_sources()) == []


def test_library_public_names_are_read_or_exported():
    # A public name that no library statement reads and the package does not
    # export has only tests for callers, and belongs in the tests.
    unread = [f"{module}:{name}" for module, name in unread_names(library_sources())
              if not name.startswith("_") and name not in bcsecrecy.__all__]
    assert unread == []


# Class methods and properties that no library code reads, each with its reason.
UNREAD_MEMBERS = {
    "GevdResult.lower_vecs": "read by tests/test_acceptance.py",
    "SdpcSolution.s_reduced": "read by tests/test_acceptance.py",
    "SdpcSolution.s_sqrt": "read by tests/test_acceptance.py",
    "Hull.contains": "read by tests/test_acceptance.py",
    "_ChildSeed.generate_state": "numpy's SeedSequence protocol, called by default_rng",
}


def unread_members(sources: dict[str, str]) -> list[str]:
    """``Class.name`` of each method or property of a module-level class of
    ``sources`` that no statement reads as an attribute ``x.name``.  Dunder
    methods are protocol and are skipped; a bare name does not count as a read,
    so a local variable cannot hide a member of the same name."""
    trees = [ast.parse(source) for source in sources.values()]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{stmt.name}"
            for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("__") and stmt.name not in read]


def test_finds_unread_members():
    sources = {
        "a": "class A:\n    @property\n    def live(self): return 1\n"
             "    @property\n    def dead(self): return 2\n"
             "    def __len__(self): return 0\n",
        "b": "from a import A\ndead = 3\nx = A().live + dead\n",
    }
    assert unread_members(sources) == ["A.dead"]


def test_library_members_are_read():
    # A method or property that no library code reads has only tests for
    # callers, unless it is listed in UNREAD_MEMBERS with its reason.
    assert sorted(unread_members(library_sources())) == sorted(UNREAD_MEMBERS)
