"""Every top-level import of a ``src/`` module is used by that module.

``__init__`` modules are skipped: their imports are the package's
re-exports.  A name counts as used when the module reads it, including
from a quoted annotation such as ``"Pipeline"``.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _unused_imports(tree: ast.Module):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(name.id for name in ast.walk(
                    ast.parse(part.value, mode="eval"))
                    if isinstance(name, ast.Name))
    return [(line, name) for name, line in bound.items() if name not in used]


def test_src_modules_have_no_unused_imports():
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text("utf-8")))
    ]
    assert unused == []
