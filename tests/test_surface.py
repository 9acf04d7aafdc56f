"""The package is what its commands run: every public top-level function or
class is named somewhere else in the package, and every name the package
exports resolves."""

import ast
import re
from pathlib import Path

import jacgate

SRC = Path(jacgate.__file__).resolve().parent


def unnamed_definitions(src: Path) -> list[str]:
    """Public top-level ``def``s and ``class``es of ``src/*.py`` whose name is on
    no other line of those files, ``__init__.py`` not counted."""
    files = {
        path: path.read_text() for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
    }
    lines = [
        (path, number, line)
        for path, text in files.items()
        for number, line in enumerate(text.splitlines(), start=1)
    ]
    unnamed = []
    for path, text in files.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(
                word.search(line) for p, k, line in lines if (p, k) != (path, node.lineno)
            ):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    return unnamed


def test_every_public_definition_is_named_elsewhere():
    assert unnamed_definitions(SRC) == []


def test_every_export_resolves():
    tree = ast.parse((SRC / "__init__.py").read_text())
    eager = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    lazy = [name for names in jacgate._LAZY.values() for name in names]
    assert eager and lazy
    assert [name for name in eager + lazy if not hasattr(jacgate, name)] == []
