"""The package's modules form layers: each imports only from the modules below it.

And each threshold is a tolerance times the scale of what it tests, with no
absolute floor beside it: no ``max``, ``min``, ``np.maximum`` or
``np.minimum`` call takes a float literal or a ``*_FLOOR`` name as an argument.
One routine, ``matalg._zero_threshold``, forms the zero threshold from
``eig_tol``, and no caller passes a bound to scale it by.
And a window null space reads neither the catalog spectra nor the doses.
"""

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


def floor_calls(path: Path) -> list[int]:
    """The lines of ``path`` with a ``max``/``min`` call given a float literal or a ``*_FLOOR`` name."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        builtin = isinstance(f, ast.Name) and f.id in ("max", "min")
        numpy = (isinstance(f, ast.Attribute) and f.attr in ("maximum", "minimum")
                 and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy"))
        if not (builtin or numpy):
            continue
        for arg in node.args:  # a keyword is max's default for no items, not a floor
            if isinstance(arg, ast.UnaryOp):
                arg = arg.operand
            name = arg.id if isinstance(arg, ast.Name) else getattr(arg, "attr", "")
            if (isinstance(arg, ast.Constant) and isinstance(arg.value, float)
                    or name.endswith("_FLOOR")):
                lines.append(node.lineno)
    return lines


def test_no_threshold_has_an_absolute_floor():
    floored = [f"{p.name}:{line}" for p in sorted(PACKAGE.glob("*.py")) for line in floor_calls(p)]
    assert not floored, floored


def eig_tol_clamps(path: Path) -> list[int]:
    """The lines of ``path`` with a ``max``/``min`` call given ``eig_tol`` or ``x.eig_tol``.

    The body of ``matalg._zero_threshold``, the one routine that forms the zero threshold,
    is left out.
    """
    tree = ast.parse(path.read_text())
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_zero_threshold"
            and path.stem == "matalg" for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skip
            and isinstance(node.func, ast.Name) and node.func.id in ("max", "min")
            and any(getattr(arg, "id", getattr(arg, "attr", "")) == "eig_tol"
                    for arg in node.args)]


def test_one_routine_forms_the_zero_threshold():
    clamps = [f"{p.name}:{line}" for p in sorted(PACKAGE.glob("*.py"))
              for line in eig_tol_clamps(p)]
    assert not clamps, clamps
    bounded = [f"{p.name}:{node.name}" for p in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and "lam_bound" in {a.arg for a in node.args.args + node.args.kwonlyargs}]
    assert not bounded, bounded


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


def test_window_null_spaces_read_no_spectra_and_no_doses():
    # a window null space is structural: the edges a window doses and their ranges decide
    # it, so it takes no catalog spectra and reads no dose or duration
    tree = ast.parse((PACKAGE / "analysis.py").read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_window_null_space")
    params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    assert not {p for p in params if "eig" in p or "spectr" in p}, params
    read = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    assert not read & {"doses", "duration", "spectra"}, read
