"""Mutated scenario files beyond their graphs: each one loads or fails with a named error,
and no command exits 0 having written a value that is not finite.

A mutation replaces a leaf, drops it, or changes the shape of a container: an
object becomes the list of its values, a list an object keyed by position, and
a string (the bundled ``windows``) either.  The generated schedules run at
most ``INTERVALS_CAP`` intervals, so that every file also runs under the CLI.
"""

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

INTERVALS_CAP = 200


def capped(doc: dict) -> dict:
    """``doc`` with a generated schedule, and its solver's horizon and step, cut to the cap."""
    params = doc["schedule"].get("generator", {}).get("params", {})
    if params.get("intervals", 0) > INTERVALS_CAP:
        params["intervals"] = INTERVALS_CAP
        doc["solver"].update(horizon=float(INTERVALS_CAP), sample_dt=float(INTERVALS_CAP))
    return doc


BUNDLED = {name: capped(json.loads(scenarios.builtin_path(name).read_text()))
           for name in scenarios.BUILTIN_NAMES}
MUTATED_KEYS = ("schedule", "solver", "tolerances", "windows", "initial_state", "dimension",
                "num_agents")
# the containers whose shape a mutation may change
RESHAPED = (("schedule",), ("solver",), ("tolerances",), ("windows",), ("initial_state",),
            ("schedule", "pattern"), ("schedule", "segments"), ("schedule", "pattern", 0),
            ("schedule", "segments", 0), ("schedule", "generator", "params"))
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


def present(doc: dict, path: tuple) -> bool:
    try:
        reduce(getitem, path, doc)
    except (KeyError, IndexError, TypeError):
        return False
    return True


def reshaped(value, data):
    """``value`` in another shape: an object as a list, a list as an object, a string as either."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(k): v for k, v in enumerate(value)}
    return data.draw(st.sampled_from([[value], {"type": value}]))


def mutate(doc: dict, data) -> None:
    """Reshape one of the ``RESHAPED`` containers, or replace one leaf under ``MUTATED_KEYS``
    by one of ``LEAVES`` or drop it, in place; each kind half the time."""
    leaves = [p for key in MUTATED_KEYS if key in doc for p in leaf_paths(doc[key], (key,))]
    containers = [p for p in RESHAPED if present(doc, p)]
    if containers and (not leaves or data.draw(st.booleans())):
        *parents, last = data.draw(st.sampled_from(containers))
        node = reduce(getitem, parents, doc)
        node[last] = reshaped(node[last], data)
    elif leaves:
        *parents, last = data.draw(st.sampled_from(leaves))
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


@settings(derandomize=True, max_examples=400, deadline=None)
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
