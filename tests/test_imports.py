"""The package runs on the standard library alone, as the README promises."""

import ast
import sys
from pathlib import Path

import dcascan

SOURCES = sorted(Path(dcascan.__file__).parent.glob("*.py"))


def _imported_modules(tree: ast.AST):
    """Top-level names of every module a parsed file imports; relative imports are ``dcascan``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "dcascan" if node.level else node.module.partition(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    assert len(SOURCES) >= 10
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        outside = {name for name in _imported_modules(tree)
                   if name != "dcascan" and name not in sys.stdlib_module_names}
        assert not outside, f"{path.name} imports {sorted(outside)}"
