"""The library is pure standard library: ``dependencies = []``."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "itergcd"


def test_every_import_is_relative_or_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_pyproject_lists_no_dependencies():
    tomllib = pytest.importorskip("tomllib")   # stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_emit_knows_no_report_type():
    # reports say how they serialise; emit imports no domain module and
    # looks up no report key
    tree = ast.parse((PACKAGE / "emit.py").read_text(encoding="utf-8"))
    package = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert package <= {"errors", "polys"}
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant)}
    assert not strings & {"cells", "congruence", "rows", "predicted"}
    assigned = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert not {name for name in assigned if name.endswith("_COLUMNS")}
