"""Every name a library module imports is used in it.

``__init__.py`` is skipped: it imports names to re-export them.
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
