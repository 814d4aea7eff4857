#!/usr/bin/env python3
"""Compare two output directories of ``scripts/run_bundled_scenarios.py``.

First, when the two directories' ``environment.json`` records (the numpy
build and BLAS thread settings the outputs were made with) differ or one is
missing, says so: another BLAS thread count moves values at roundoff with no
change to the code.  The record is not compared as an output.

Then lists the files that are byte-identical.  For each JSON report or CSV
trajectory that differs, prints every field whose numbers differ, with the
number of differing values and their largest absolute and relative
difference.  List positions are folded into ``[]``, so ``windows[].mu``
stands for the ``mu`` of every window, and a CSV field is its column.  A
last line gives the largest absolute difference over every field next to
the largest ``|value|`` in either file, so that a move at roundoff reads
off directly; a per-value relative difference inflates near zero.

The exit status is 1 on a structural difference: a file present in only one
directory, a missing key, a different length, a change that is not numeric
(a string, a boolean, ``null``, a CSV header, or any other file whose bytes
differ), or a JSON or CSV file whose bytes differ while every value parses
equal, such as ``1e-05`` spelled ``1.0000000000000001e-05``.  Otherwise it is
0, whatever the numeric differences.

Usage:
    python scripts/compare_outputs.py OLD_DIR NEW_DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


class Diff:
    """Numeric differences per field, plus the structural ones, of one file pair."""

    def __init__(self) -> None:
        self.fields: dict[str, list[float]] = {}  # field -> [count, max abs, max rel]
        self.structural: list[str] = []
        self.largest = 0.0  # the largest finite |value| of either file

    def number(self, field: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        if math.isfinite(a) and math.isfinite(b):
            gap = abs(a - b)
            rel = gap / max(abs(a), abs(b))
        else:
            gap = rel = math.inf
        stat = self.fields.setdefault(field, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] = max(stat[1], gap)
        stat[2] = max(stat[2], rel)

    def value(self, field: str, a: object, b: object) -> None:
        if _is_number(a) and _is_number(b):
            a, b = float(a), float(b)
            self.largest = max(self.largest, *(abs(x) for x in (a, b) if math.isfinite(x)))
            self.number(field, a, b)
        elif a != b or type(a) is not type(b):
            self.structural.append(f"{field}: {a!r} -> {b!r}")


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(diff: Diff, path: str, a: object, b: object) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                diff.structural.append(f"{sub}: key only in {'new' if key in b else 'old'}")
            else:
                _walk(diff, sub, a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.structural.append(f"{path}: length {len(a)} -> {len(b)}")
        else:
            for x, y in zip(a, b):
                _walk(diff, f"{path}[]", x, y)
    else:
        diff.value(path or "(top)", a, b)


def _csv_cell(text: str) -> object:
    try:
        return float(text)
    except ValueError:
        return text


def compare_json(old: Path, new: Path) -> Diff:
    diff = Diff()
    _walk(diff, "", json.loads(old.read_text()), json.loads(new.read_text()))
    return diff


def compare_csv(old: Path, new: Path) -> Diff:
    diff = Diff()
    with old.open(newline="") as fa, new.open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        diff.structural.append("header differs")
        return diff
    if len(rows_a) != len(rows_b):
        diff.structural.append(f"rows: {len(rows_a) - 1} -> {len(rows_b) - 1}")
        return diff
    header = rows_a[0]
    for k, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(header) or len(rb) != len(header):
            diff.structural.append(f"row {k}: length {len(ra)} -> {len(rb)}, header {len(header)}")
            continue
        for col, x, y in zip(header, ra, rb):
            diff.value(col, _csv_cell(x), _csv_cell(y))
    return diff


ENVIRONMENT = "environment.json"


def compare_environments(old_dir: Path, new_dir: Path) -> None:
    """Print how the two directories' environment records differ, if they do."""
    records = [d / ENVIRONMENT for d in (old_dir, new_dir)]
    missing = [str(r.parent) for r in records if not r.is_file()]
    if missing:
        print(f"environment: no {ENVIRONMENT} in {' and '.join(missing)}; "
              "numeric differences may come from the numpy build or BLAS threads")
        return
    old, new = (_flat(json.loads(r.read_text())) for r in records)
    changes = [key for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]
    if changes:
        print("environment differs, so values can differ at roundoff with no change to the code:")
        for key in changes:
            print(f"  {key}: {old.get(key)!r} -> {new.get(key)!r}")


def _flat(record: dict, prefix: str = "") -> dict:
    """``record`` with its nested objects' keys joined by dots."""
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def compare_dirs(old_dir: Path, new_dir: Path) -> int:
    """Print the comparison; return 1 on a structural difference, else 0."""
    compare_environments(old_dir, new_dir)
    names_a = {p.name for p in old_dir.iterdir() if p.is_file()} - {ENVIRONMENT}
    names_b = {p.name for p in new_dir.iterdir() if p.is_file()} - {ENVIRONMENT}
    identical, structural = [], False
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {'new' if name in names_b else 'old'}")
        structural = True
    for name in sorted(names_a & names_b):
        old, new = old_dir / name, new_dir / name
        if old.read_bytes() == new.read_bytes():
            identical.append(name)
            continue
        if old.suffix == ".json":
            diff = compare_json(old, new)
        elif old.suffix == ".csv":
            diff = compare_csv(old, new)
        else:
            diff = Diff()
            diff.structural.append("bytes differ (neither JSON nor CSV)")
        if not diff.fields and not diff.structural:
            diff.structural.append("bytes differ, values equal")
        print(f"{name}: {len(diff.fields)} field(s) differ numerically")
        for field, (count, gap, rel) in sorted(diff.fields.items()):
            print(f"  {field}: {count} value(s), max abs {gap:.3e}, max rel {rel:.3e}")
        if diff.fields:
            gap = max(stat[1] for stat in diff.fields.values())
            print(f"  every field: max abs {gap:.3e}, largest |value| in the file {diff.largest:.3e}")
        for problem in diff.structural:
            print(f"  structural: {problem}")
        structural = structural or bool(diff.structural)
    print(f"byte-identical ({len(identical)}): {', '.join(identical) or '-'}")
    return 1 if structural else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    args = parser.parse_args(argv)
    for d in (args.old_dir, args.new_dir):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    return compare_dirs(args.old_dir, args.new_dir)


if __name__ == "__main__":
    sys.exit(main())
