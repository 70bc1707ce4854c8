"""The library is pure standard library: ``dependencies = []``."""

import ast
import pathlib
import subprocess
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


def _tracer_layers():
    """perfbench/tracer.py's LAYERS, read without importing the tracer."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text("utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "LAYERS")


def test_cli_import_loads_every_layer_and_no_heavy_stdlib():
    # every CLI call pays for its imports at start-up: dataclasses (with
    # inspect, ast, dis and tokenize) and typing cost milliseconds, and
    # tempfile serves --out alone.  The benchmark's tracer reads each layer
    # module from sys.modules, so none of them may be imported lazily.
    # -S: no site hook imports typing or tempfile on the CLI's behalf.
    code = ("import sys; sys.path.insert(0, %r); import itergcd.cli; "
            "print(*sorted(sys.modules))" % str(ROOT / "src"))
    loaded = set(subprocess.run([sys.executable, "-S", "-c", code],
                                capture_output=True, text=True, check=True,
                                timeout=60).stdout.split())
    assert {"dataclasses", "inspect", "typing", "tempfile"} & loaded == set()
    layers = _tracer_layers()
    assert len(layers) == 11
    assert {"itergcd." + layer for layer in layers} <= loaded


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


def _unused_imports(tree):
    """(name, line) of every imported name that the module never reads.

    A name counts as read when it is loaded anywhere (an attribute base
    included) or listed in ``__all__``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [((alias.asname or alias.name).split(".")[0],
                          node.lineno) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    unused, exempt = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for name, line in _unused_imports(ast.parse(source, str(path))):
            noqa = "noqa: F401" in lines[line - 1]
            (exempt if noqa else unused).append("%s: %s" % (path.name, name))
    assert unused == []
    # the one re-export: perfbench/checks.py reads heights.iterate
    assert exempt == ["heights.py: iterate"]


def _private_definitions(tree):
    """Names of the module's private top-level functions and classes, and of
    the private methods of its classes (dunders are not private)."""
    out = []
    for node in tree.body:
        defs = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
        out += [d.name for d in defs
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                and d.name.startswith("_") and not d.name.endswith("__")]
    return out


def test_every_private_helper_has_a_caller():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined += [(path.name, name) for name in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 50
    assert [d for d in defined if d[1] not in used] == []
