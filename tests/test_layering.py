"""The package's modules form layers: each imports only from the modules below it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mwconsensus"
# lowest first; __init__.py re-exports them all and is no layer
LAYERS = ("errors", "matalg", "graph", "switching", "sim", "config", "analysis", "scenarios",
          "cli")


def relative_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports, as ``from .x import y`` or ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_from_lower_layers():
    upward = [
        f"{name} imports {other}"
        for rank, name in enumerate(LAYERS)
        for other in sorted(relative_imports(PACKAGE / f"{name}.py"))
        if LAYERS.index(other) >= rank
    ]
    assert not upward, upward
