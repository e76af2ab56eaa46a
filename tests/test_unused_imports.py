"""Every name a module of the package imports is read by that module, and
importing a module loads only the modules it imports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "ssmcell").glob("*.py"))


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


def test_importing_a_module_loads_only_what_it_imports():
    # The package's __init__ imports nothing, so the zone model loads without
    # the engine, the bridge or any other module it does not use.
    code = "import sys, ssmcell.zones; print(*sorted(m for m in sys.modules if 'ssmcell' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=SRC,
    ).stdout
    assert out.split() == ["ssmcell", "ssmcell.kinematics", "ssmcell.zones"]
