"""Every exported name has a reader in the package or in the README's library example."""

import ast
import re
from pathlib import Path

import mwconsensus

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mwconsensus"


def names_read_in_package() -> set[str]:
    """Names the modules other than ``__init__.py`` load or import from.

    A ``def`` or ``class`` statement binds its name without reading it, so a
    definition alone does not count.
    """
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom) and node.module:
                read.add(node.module.split(".")[-1])
    return read


def names_imported_by_readme() -> set[str]:
    """Names the README's one ``python`` block imports from the package."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    return {
        alias.name
        for node in ast.walk(ast.parse(blocks[0]))
        if isinstance(node, ast.ImportFrom) and node.module == "mwconsensus"
        for alias in node.names
    }


def test_every_public_name_has_a_reader():
    readers = names_read_in_package() | names_imported_by_readme()
    unread = sorted(set(mwconsensus.__all__) - readers)
    assert not unread, f"exported but read only by tests: {unread}"
