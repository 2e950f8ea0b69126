"""Rules about the package's source, read with ast."""

import ast
from pathlib import Path

import uplogic

PACKAGE = Path(uplogic.__file__).parent


def test_no_module_asserts():
    # python -O drops assert statements, so a self-check must raise
    # InternalCheckError instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
