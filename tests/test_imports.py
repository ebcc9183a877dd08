"""Every name a package module imports is used there or re-exported, and
every name it exports exists."""

import ast
import importlib
from pathlib import Path

import pytest

import goca

MODULES = sorted(Path(goca.__file__).parent.glob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, line) of every import; ``from __future__`` is exempt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _imports(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_export_resolves(path):
    name = "goca" if path.stem == "__init__" else f"goca.{path.stem}"
    module = importlib.import_module(name)
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert stale == []
