"""The package's import structure: every import at module level, and each
module importing only from the layers below it, so the module graph
spectral -> vorticity -> solver/lagrangian/bounds/initial_data -> harness
-> cli stays acyclic without lazy imports."""

import ast
import math
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


DEMOS = PACKAGE.parent.parent / "demos"


def public_definitions(tree):
    """The module-level public functions and classes of a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def referenced_names(node):
    """Every name a node reads, plain (`f`) or as an attribute (`ae.f`)."""
    return {
        inner.id if isinstance(inner, ast.Name) else inner.attr
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Name, ast.Attribute))
    }


def uncalled_names(sources):
    """The public module-level names of the package modules among
    `sources` (path -> tree) that no top-level statement of any source
    reads, other than the definition itself."""
    parts = [(path, node) for path, tree in sources.items() for node in tree.body]
    reads = {part: referenced_names(part[1]) for part in parts}
    return sorted(
        node.name
        for path, tree in sources.items()
        if path.parent == PACKAGE
        for node in public_definitions(tree)
        if not any(node.name in names for part, names in reads.items() if part != (path, node))
    )


def test_every_package_name_has_a_caller():
    # the package holds no code that only tests use: every public function
    # and class is read elsewhere in the package (its `__init__` aside) or
    # by a demo
    paths = [p for p in MODULES if p.name != "__init__.py"] + sorted(DEMOS.glob("*.py"))
    sources = {path: _tree(path) for path in paths}
    assert uncalled_names(sources) == []


def test_the_caller_check_sees_an_uncalled_name():
    path = PACKAGE / "m.py"
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    return 1\n\nclass C:\n    x = g()\n")
    assert uncalled_names({path: tree}) == ["C", "f"]


# `asdict` writes a RateFit whole to summary.json: no attribute reads it.
UNREAD_FIELDS = {("RateFit", "intercept")}


def annotated_fields(tree):
    """(class name, field name) of every annotated field of a module-level
    class of a module."""
    return [
        (node.name, item.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def unread_fields(sources):
    """The annotated fields of the package modules among `sources` whose
    name no source reads as an attribute.  The match is by name only, so a
    field whose name is read on some other object (`params` on a
    DatumSpec, `p_list` on an ExperimentConfig) passes."""
    reads = {
        node.attr
        for tree in sources.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (cls, name)
        for path, tree in sources.items()
        if path.parent == PACKAGE
        for cls, name in annotated_fields(tree)
        if name not in reads
    )


def test_every_field_is_read():
    # a field that no package module or demo reads is data that only tests use
    paths = [p for p in MODULES if p.name != "__init__.py"] + sorted(DEMOS.glob("*.py"))
    sources = {path: _tree(path) for path in paths}
    assert set(unread_fields(sources)) == UNREAD_FIELDS


def test_the_field_check_sees_an_unread_field():
    path = PACKAGE / "m.py"
    source = "class C:\n    x: int\n    y: int = 0\n    z = 1\n\ndef f(c):\n    c.y = c.x\n    return C.z\n"
    assert unread_fields({path: ast.parse(source)}) == [("C", "y")]


def unread_imports(tree):
    """(line, name) of every name an import binds that the module never
    reads; `import a.b` binds `a`, and `__future__` imports bind none."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (alias.asname or alias.name).split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for line, name in bound if name not in reads)


def test_no_module_or_demo_imports_a_name_it_never_reads():
    # `__init__` imports its names to re-export them
    paths = [p for p in MODULES if p.name != "__init__.py"] + sorted(DEMOS.glob("*.py"))
    unread = {path.name: unread_imports(_tree(path)) for path in paths}
    assert {name: found for name, found in unread.items() if found} == {}


def test_the_import_check_sees_an_unread_import():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from m import a, b as c\n\nx: a = os.getcwd()\n"
    )
    assert unread_imports(ast.parse(source)) == [(3, "np"), (4, "c")]


# Defaulted parameters passed only from outside the package: the documented
# entry hook `cli.main(argv)`.
ENTRY_PARAMETERS = {("main", "argv")}


def defaulted_parameters(tree):
    """(callee name, parameter, position) of every parameter with a default
    of the module-level functions and the methods of a module.  A method's
    positions skip self, and its callee name is the method's, or the
    class's for `__init__`; the position is None for a keyword-only
    parameter.  `__call__` is left out: its calls are calls of an instance,
    which a name does not tell from other calls."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []

    def add(name, fn, skip):
        a = fn.args
        positional = (a.posonlyargs + a.args)[skip:]
        first_default = len(positional) - len(a.defaults)
        found.extend((name, arg.arg, i) for i, arg in enumerate(positional) if i >= first_default)
        found.extend((name, arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)

    for node in tree.body:
        if isinstance(node, kinds):
            add(node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and item.name != "__call__":
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    add(node.name if item.name == "__init__" else item.name, item, 0 if static else 1)
    return found


def passed_parameters(tree):
    """(callee name, positional count, keywords) of every call in a tree:
    a `*` argument counts as every position and a `**` one as every key
    (None among the keywords)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            count = math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            found.append((name, count, {k.arg for k in node.keywords}))
    return found


def unpassed_parameters(sources):
    """The (callee name, parameter) pairs of the package modules among
    `sources` that no call in any source passes, by position or by
    keyword."""
    calls = [call for tree in sources.values() for call in passed_parameters(tree)]
    return sorted(
        (name, param)
        for path, tree in sources.items()
        if path.parent == PACKAGE
        for name, param, pos in defaulted_parameters(tree)
        if not any(
            callee == name and ((pos is not None and count > pos) or param in keys or None in keys)
            for callee, count, keys in calls
        )
    )


def test_every_defaulted_parameter_has_a_caller():
    # a default that no package or demo call overrides is a capability
    # that only tests use
    paths = [p for p in MODULES if p.name != "__init__.py"] + sorted(DEMOS.glob("*.py"))
    sources = {path: _tree(path) for path in paths}
    assert set(unpassed_parameters(sources)) == ENTRY_PARAMETERS


def test_the_parameter_check_sees_an_unpassed_parameter():
    path = PACKAGE / "m.py"
    source = (
        "def f(x, y=1, *, z=2):\n    return x\n\n"
        "class C:\n    def __init__(self, a=0):\n        pass\n\n    def m(self, b=0, c=1):\n        return b\n\n"
        "f(0, 1)\nf(0, **{})\nC()\nC().m(*())\n"
    )
    assert unpassed_parameters({path: ast.parse(source)}) == [("C", "a")]
    assert unpassed_parameters({path: ast.parse(source.replace("f(0, **{})", "f(0)"))}) == [("C", "a"), ("f", "z")]
