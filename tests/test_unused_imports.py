"""Every name a module of the package imports is read by that module.

``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "src" / "ssmcell").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(path):
    """(line, name) of each name the module imports and never reads as a Name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path) == []
