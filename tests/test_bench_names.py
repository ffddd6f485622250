"""The names the benchmark harness reads from cubeiso exist.

perfbench/tracer.py and perfbench/worker.py are read with ast, neither
imported nor run.  Each `from cubeiso... import name`, each `mod.name` on a
cubeiso module they import, and each `wrap(mod, "name", ...)` that rebinds a
module attribute must resolve, so that deleting a name the benchmark traces
fails here rather than in a benchmark run.
"""

import ast
import importlib
import pathlib
import types

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("tracer.py", "worker.py")


def _import_from(owner: types.ModuleType, name: str):
    """What `from owner import name` binds: an attribute, else a submodule."""
    if not hasattr(owner, name) and hasattr(owner, "__path__"):
        try:
            importlib.import_module(f"{owner.__name__}.{name}")
        except ModuleNotFoundError:
            pass
    return getattr(owner, name, None)


def _cubeiso_names(tree: ast.AST):
    """(module, name) pairs the source reads from cubeiso modules."""
    modules = {}  # local alias -> cubeiso module
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cubeiso":
            owner = importlib.import_module(node.module)
            for a in node.names:
                pairs.append((owner, a.name))
                value = _import_from(owner, a.name)
                if isinstance(value, types.ModuleType):
                    modules[a.asname or a.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            pairs.append((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "wrap" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
              and isinstance(node.args[1], ast.Constant)):
            pairs.append((modules[node.args[0].id], node.args[1].value))
    return pairs


@pytest.mark.parametrize("name", FILES)
def test_perfbench_reads_only_existing_names(name):
    pairs = _cubeiso_names(ast.parse((PERFBENCH / name).read_text()))
    assert pairs
    missing = sorted({f"{m.__name__}.{a}" for m, a in pairs if not hasattr(m, a)})
    assert not missing
