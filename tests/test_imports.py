"""Import structure: every module loads on its own, and the one-step
oracle stays independent of the engine it checks."""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import subprocess_env

import procreal

MODULES = sorted(m.name for m in pkgutil.iter_modules(procreal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    # a fresh interpreter per module, so an import cycle cannot hide
    # behind a module that an earlier import already loaded
    proc = subprocess.run(
        [sys.executable, "-c", f"import procreal.{name}"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_oracle_step_does_not_import_the_engine():
    tree = ast.parse((Path(__file__).parent / "oracle_step.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    engine = ("procreal.semantics", "procreal.equivalence")
    assert not [m for m in imported if m.startswith(engine)]


def test_bounded_failures_route_reads_nothing_of_the_engine_route():
    # failures_bounded is the oracle the normal-form route is checked
    # against, so neither its code nor the determinisation and unfolding
    # the two routes share names a memo, graph or normal form
    source = Path(procreal.__file__).parent / "equivalence.py"
    route = {"failures_bounded", "_StepCache", "_determinise", "_unfold"}
    defs = [
        node for node in ast.parse(source.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in route
    ]
    assert {node.name for node in defs} == route
    named = set()
    for node in defs:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                named.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                named.add(sub.attr)
    assert not named & {"_MEMO", "build_lts", "normal_form", "_normalise"}
