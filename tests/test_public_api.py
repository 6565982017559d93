"""The public API of ``ecps`` holds no name that only the tests use: every
name in ``ecps.__all__`` is loaded somewhere in the package outside
``__init__.py``; every top-level function and class of a module outside
``__init__.py`` is loaded somewhere in the package; no such module
imports a name it never loads; only ``model.pair_slices`` reads the
(system, level, branch) layout of composite matrices; and no function takes
a ``tol`` parameter."""
import ast
from pathlib import Path

import ecps

PACKAGE = Path(ecps.__file__).resolve().parent


def _modules():
    """(file name, syntax tree) of every module of the package but
    ``__init__.py``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _loaded_names():
    names = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_inside_the_package():
    assert sorted(set(ecps.__all__) - _loaded_names()) == []


def test_every_definition_is_used():
    loaded = _loaded_names()
    unused = [f"{module}: {node.name}" for module, tree in _modules()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in loaded]
    assert unused == []


def test_no_unused_imports():
    unused = []
    for module, tree in _modules():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loaded:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_only_model_reshapes_to_the_composite_axes():
    # a six-axis reshape decodes the composite layout, which pair_slices owns
    found = [f"{module}:{node.lineno}" for module, tree in _modules()
             if module != "model.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "reshape" and len(node.args) == 6]
    assert found == []


def test_no_function_takes_a_tolerance():
    # a structural check judges a matrix against its own scale (linalg), so
    # no caller picks the tolerance
    found = [f"{module}:{node.lineno}" for module, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                         node.args.vararg, node.args.kwarg)
             if arg is not None and arg.arg == "tol"]
    assert found == []
