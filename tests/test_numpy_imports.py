"""Only measures and asymptotics import numpy at module level.

Every other module of the package keeps numpy out of its own top level; a
function may still import it for its float work, as cli does for its
Ancona samples.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "freeboundary"
NUMPY_MODULES = {"measures.py", "asymptotics.py"}


def _load_time_imports(tree: ast.AST):
    """Top-level names of the modules imported outside any function body."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        yield from _load_time_imports(node)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_at_load_time_only_where_allowed(path):
    uses_numpy = "numpy" in _load_time_imports(ast.parse(path.read_text()))
    assert not uses_numpy or path.name in NUMPY_MODULES, f"{path.name} imports numpy at module level"
