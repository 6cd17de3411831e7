"""Every name a library module imports is used in it, and every private
module-level name is read somewhere in the library.

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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each module-level private function, class or
    constant of ``sources`` (module name to source) that no statement other
    than its own definition reads."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    reads = [_read(stmt) for _, stmt in stmts]
    return [f"{module}:{name}"
            for i, (module, stmt) in enumerate(stmts)
            for name in _defined(stmt)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in read for j, read in enumerate(reads) if j != i)]


def test_finds_dead_private_names():
    sources = {
        "a": "_LIVE, _DEAD = 1, 2\ndef _helper():\n    return _helper()\nclass _Used: pass\n",
        "b": "import a\nfrom a import _Used\nx = a._LIVE + 1\ny = _Used()\n__all__ = []\n",
    }
    assert dead_private_names(sources) == ["a:_DEAD", "a:_helper"]


def test_library_private_names_are_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []
