"""Mutated scenario files beyond their graphs: each one loads or fails with a named error,
and no command exits 0 having written a value that is not finite."""

import contextlib
import copy
import io
import json
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mwconsensus import scenarios
from mwconsensus.cli import main
from mwconsensus.config import load_config
from mwconsensus.errors import ConfigParseError, ConfigValidationError

from test_graph_loading import LEAVES

BUNDLED = {name: json.loads(scenarios.builtin_path(name).read_text())
           for name in scenarios.BUILTIN_NAMES}
MUTATED_KEYS = ("schedule", "solver", "tolerances", "windows", "initial_state", "dimension",
                "num_agents")
DROP = object()  # a mutation that removes the leaf, key or list entry alike


def leaf_paths(node, path: tuple = ()) -> list[tuple]:
    """The key paths of every value under ``node`` that is neither a list nor a dict."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for k, v in items for p in leaf_paths(v, (*path, k))]


def mutate(doc: dict, data) -> None:
    """Replace one leaf under ``MUTATED_KEYS`` by one of ``LEAVES``, or drop it, in place."""
    paths = [p for key in MUTATED_KEYS if key in doc for p in leaf_paths(doc[key], (key,))]
    if not paths:
        return
    *parents, last = data.draw(st.sampled_from(paths))
    node = reduce(getitem, parents, doc)
    value = data.draw(st.sampled_from([*LEAVES, DROP]))
    if value is DROP:
        del node[last]
    else:
        node[last] = copy.deepcopy(value)


def run(argv: list[str]) -> tuple[int, str]:
    """``mwc`` run in process: its exit status and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue()


def no_constant(name: str):
    raise AssertionError(f"the report holds {name}")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_files_load_or_name_the_field_and_commands_write_only_finite_values(data):
    name = data.draw(st.sampled_from(sorted(BUNDLED)))
    doc = copy.deepcopy(BUNDLED[name])
    for _ in range(data.draw(st.integers(1, 2))):
        mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc))
        try:
            load_config(path)
        except ConfigValidationError as exc:
            assert exc.field is not None, str(exc)
        except ConfigParseError:
            pass
        if BUNDLED[name]["num_agents"] != 7:  # the generated schedules' long runs stay out
            return
        report, csv = Path(tmp) / "r.json", Path(tmp) / "t.csv"
        for argv in (["check"], ["analyze", "--out", str(report)],
                     ["simulate", "--out", str(csv)]):
            status, err = run([argv[0], "--config", str(path), *argv[1:]])
            if status == 0:
                assert err == ""
            else:
                assert status == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        if report.exists():
            json.loads(report.read_text(), parse_constant=no_constant)
        if csv.exists():
            assert np.isfinite(np.loadtxt(csv, delimiter=",", skiprows=1)).all()
