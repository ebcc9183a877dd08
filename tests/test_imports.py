"""Every name a package module imports is used there or re-exported, every
name it exports exists, and the CLI loads at start-up only what every
command needs."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_cli_import_leaves_out_what_only_some_commands_use():
    # the oracle battery serves `goca verify` alone and the process pool
    # `--jobs > 1` alone; loading them would slow every command's start-up
    src = Path(goca.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = (
        "import sys, goca.cli; "
        "print(sorted({'goca.verify', 'goca.oracle', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_every_config_class_checks_its_fields():
    # check_config rejects non-finite floats and out-of-bound values; a
    # config class whose __post_init__ skips it would accept them unchecked
    found, unchecked = set(), []
    for path in MODULES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(cls, ast.ClassDef) and cls.name.endswith("Config")
                    and cls.name != "RunConfig"
                    and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)):
                continue
            found.add(cls.name)
            calls = {
                node.func.id
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            }
            if "check_config" not in calls:
                unchecked.append(f"{path.name}: {cls.name}")
    assert unchecked == []
    assert {"SynthConfig", "SolverConfig", "ProtoOptConfig", "TrainConfig", "EvalConfig"} <= found


def test_cli_uses_only_public_names_of_the_package():
    # the CLI runs on the library's public surface; a private helper it
    # reaches into has no caller the library's own tests and docs cover
    tree = ast.parse((Path(goca.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("goca")):
            private += [f"{node.lineno}: {alias.name}" for alias in node.names
                        if alias.name.startswith("_")]
            if node.module is None or node.module == "goca":
                modules |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    assert modules >= {"evalmod", "matrixio", "ssl_engine"}
    assert private == []
