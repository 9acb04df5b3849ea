from __future__ import annotations

import ast
from pathlib import Path

import pdom

SOURCES = sorted(p for p in Path(pdom.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_sources_import_no_unused_names():
    # __init__.py imports names only to re-export them, so it is left out.
    assert SOURCES
    for source in SOURCES:
        unused = _unused_imports(ast.parse(source.read_text(), filename=str(source)))
        assert not unused, f"{source.name} imports names it never uses: {unused}"


def test_unused_import_is_reported():
    tree = ast.parse("from os import path, sep\nimport sys as system\nprint(sep)\n")
    assert _unused_imports(tree) == ["line 1: path", "line 2: system"]
