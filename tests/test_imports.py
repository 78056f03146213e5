"""Every module imports on its own, no function imports at call time (a
call-time import is how a cycle between two modules hides), and every
top-level import is used. The package root binds only `__version__` and
submodules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moeforge

PACKAGE = Path(moeforge.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def fresh_python(code: str) -> str:
    """The standard output of `code` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), *sys.path]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    fresh_python(f"import moeforge.{module}")


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found


@pytest.mark.parametrize("module", MODULES)
def test_every_top_level_import_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{module}.py:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_package_root_binds_only_version_and_submodules():
    # every name has one import path, its module's, never the package root's;
    # a fresh interpreter, since importing a submodule binds it on the package
    names = fresh_python("import moeforge; print(*sorted(vars(moeforge)))").split()
    assert [name for name in names if not name.startswith("_")] == [
        "dense_ffn", "importance", "moe", "partition", "routing", "sampler", "tensor", "trainer",
    ]
    assert "__version__" in names
