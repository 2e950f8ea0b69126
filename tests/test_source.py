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


def test_only_lp_reads_the_private_names_of_lp():
    # the basis representation stays behind lp's public names, so that a
    # caller (envelope's pricing) cannot come to depend on it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "lp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id == "lp"):
                found.append(f"{path.name}:{node.lineno}: lp.{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "lp":
                found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_no_unused_imports():
    # a module imports only what it uses; __init__.py imports to export
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
