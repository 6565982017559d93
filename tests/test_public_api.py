"""The public API of ``ecps`` holds no name that only the tests use: every
name in ``ecps.__all__`` is loaded somewhere in the package outside
``__init__.py``."""
import ast
from pathlib import Path

import ecps

PACKAGE = Path(ecps.__file__).resolve().parent


def _loaded_names():
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_inside_the_package():
    assert sorted(set(ecps.__all__) - _loaded_names()) == []
