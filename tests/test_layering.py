"""The package's import structure: every import at module level, and each
module importing only from the layers below it, so the module graph
spectral -> vorticity -> solver/lagrangian/bounds/initial_data -> harness
-> cli stays acyclic without lazy imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alphaeuler"

LAYER = {
    "spectral": 0,
    "vorticity": 1,
    "solver": 2,
    "lagrangian": 2,
    "bounds": 2,
    "initial_data": 2,
    "harness": 3,
    "cli": 4,
}

MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def function_level_imports(tree):
    """(line, function name) of every import inside a function body."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((inner.lineno, node.name))
    return sorted(set(found))


def package_imports(tree):
    """The package modules a module imports with `from .x import ...`."""
    return {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_every_module_is_layered():
    names = {path.stem for path in MODULES} - {"__init__", "__main__"}
    assert names == set(LAYER)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_level_imports(_tree(path)) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem in LAYER], ids=lambda p: p.name)
def test_imports_only_lower_layers(path):
    rank = LAYER[path.stem]
    upward = sorted(m for m in package_imports(_tree(path)) if LAYER[m] >= rank)
    assert upward == []


def test_the_check_sees_a_function_level_import():
    tree = ast.parse("def f():\n    from .solver import velocity\n    return velocity\n")
    assert function_level_imports(tree) == [(2, "f")]
