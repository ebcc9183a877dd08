"""Every name a package module imports is used there or re-exported, every
name it exports exists, no module borrows another's private names, and
the CLI loads at start-up only what every command needs."""

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


def test_oracle_imports_no_solver_code():
    # the oracle is the independent side of the solver contract: it
    # checks the solvers only if it shares none of their code
    tree = ast.parse((Path(goca.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules == {"__future__", "math", "numpy"}


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


def test_modules_import_no_private_names_from_each_other():
    # a private name belongs to its module; a second module that imports it
    # owns part of its job
    private = [(path.name, alias.name)
               for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert sorted(set(private)) == []


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


def test_cli_runs_every_cell_through_one_path():
    # a cell trains only in _run_cell, and only _run_cells runs cells, so
    # every command that trains places its prototype sets the same way
    tree = ast.parse((Path(goca.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    found, stray = set(), []
    for fn in tree.body:
        owner = getattr(fn, "name", None)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "train" or getattr(func, "attr", None) == "train":
                    found.add("train")
                    if owner != "_run_cell":
                        stray.append(f"{node.lineno}: train called in {owner}")
            elif isinstance(node, ast.Name) and node.id == "_run_cell":
                found.add("_run_cell")
                if owner != "_run_cells":
                    stray.append(f"{node.lineno}: _run_cell named in {owner}")
    assert found == {"train", "_run_cell"}
    assert stray == []


def _called(node: ast.Call) -> str | None:
    """The bare or attribute name a call calls, as in ``f(...)`` or ``np.f(...)``."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def test_no_module_wraps_row_norms_in_errstate():
    # unit_rows and require_unit_rows compute their norms under their own
    # np.errstate and name an overflow in their error, so a caller needs
    # none, and one would also silence whatever else its block computes
    wrapped = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.With) and any(
                isinstance(item.context_expr, ast.Call) and _called(item.context_expr) == "errstate"
                for item in node.items
            ):
                wrapped += [f"{path.name}:{call.lineno}: {_called(call)}"
                            for stmt in node.body for call in ast.walk(stmt)
                            if isinstance(call, ast.Call)
                            and _called(call) in ("unit_rows", "require_unit_rows")]
    assert wrapped == []


def test_only_the_branch_table_checks_a_mode_or_singles_out_avg():
    # ssl_engine._branches is the one place that rejects an unknown mode and
    # lays out avg's one fused branch; a second copy of either could drift
    found = set()
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Constant) and side.value == "avg"
                    for side in (node.left, *node.comparators)
                ):
                    found.add((f"{path.stem}.{fn.name}", "compares to avg"))
                elif isinstance(node, ast.Raise) and "mode must be one of" in ast.unparse(node):
                    found.add((f"{path.stem}.{fn.name}", "raises the mode error"))
    assert found == {("ssl_engine._branches", "compares to avg"),
                     ("ssl_engine._branches", "raises the mode error")}
