from __future__ import annotations

import ast
import sys
from pathlib import Path

import pdom

SOURCES = sorted(Path(pdom.__file__).parent.glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    allowed = sys.stdlib_module_names | {"__future__"}
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):
                # "from . import x" and "from .m import x" inside src/pdom;
                # a second dot would leave the package
                assert node.level == 1, f"{source.name}: relative import leaves pdom"
                continue
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{source.name} imports {name}"
