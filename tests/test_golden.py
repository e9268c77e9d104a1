"""CLI outputs against stored goldens.

Each run below writes one CSV that is compared cell by cell with the copy in
``tests/data/golden/``: strings and integers must match exactly, floats to
1e-12 relative.  A change that only restructures the code must pass this
test unchanged.  After a change that is meant to alter the numbers, write
new goldens with ``PYTHONPATH=src python tests/test_golden.py`` and say why
in the commit; it rewrites only the goldens that fail the comparison and
prints the max absolute and relative shift of each of their float columns.
"""
from __future__ import annotations

import csv
import sys
import tempfile
from pathlib import Path

import pytest

from zenodrive.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
FLOAT_RTOL = 1e-12

# name -> (command line, CSV file it writes)
RUNS = {
    "zeno-n4-geodesic": (
        ["zeno", "--model.N", "4", "--path.family", "geodesic",
         "--geodesic.segments", "48", "--dense.steps", "2000", "--steps.K", "20,40"],
        "zeno.csv",
    ),
    "compare-n4-linear-v": (
        ["compare", "--model.N", "4", "--path.family", "linear-v", "--times.T", "1,5,20"],
        "compare.csv",
    ),
    "path-n6-geodesic": (
        ["path", "--model.N", "6", "--path.family", "geodesic", "--steps.K", "200"],
        "path.csv",
    ),
    "path-n6-linear-u": (
        ["path", "--model.N", "6", "--path.family", "linear-u", "--steps.K", "200"],
        "path.csv",
    ),
    "metric-map-21x11": (
        ["metric-map", "--grid.lambda", "0:3:21", "--grid.chi", "0:1:11"],
        "metric_map.csv",
    ),
}


def _run(name: str, out_dir: Path) -> Path:
    argv, csv_name = RUNS[name]
    assert main([*argv, "--out", str(out_dir), "--jobs", "1"]) == 0
    return out_dir / csv_name


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _read(path: Path) -> list[list]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [[_cell(cell) for cell in row] for row in csv.reader(handle)]


def _mismatch(name: str, path: Path) -> str | None:
    """The first cell where ``path`` differs from the golden of ``name``, or None."""
    golden = GOLDEN_DIR / f"{name}.csv"
    if not golden.exists():
        return f"{name}: no golden at {golden}"
    got, want = _read(path), _read(golden)
    if len(got) != len(want):
        return f"{name}: {len(got)} rows, golden has {len(want)}"
    for line, (got_row, want_row) in enumerate(zip(got, want), 1):
        if len(got_row) != len(want_row):
            return f"{name} line {line}: column count differs"
        for column, (a, b) in enumerate(zip(got_row, want_row)):
            if isinstance(b, float):
                same = isinstance(a, float) and abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))
            else:
                same = type(a) is type(b) and a == b
            if not same:
                return f"{name} line {line} column {column}: {a!r} != golden {b!r}"
    return None


def _float_shifts(name: str, path: Path) -> list[str]:
    """Max absolute and max relative shift of each float column of ``path``
    against the golden of ``name``, one line per column; empty when the two
    tables differ in shape or type and cannot be compared cell by cell."""
    golden = GOLDEN_DIR / f"{name}.csv"
    if not golden.exists():
        return []
    got, want = _read(path), _read(golden)
    if len(got) != len(want) or any(len(a) != len(b) for a, b in zip(got, want)):
        return []
    lines = []
    for column, header in enumerate(want[0]):
        pairs = [(a[column], b[column]) for a, b in zip(got[1:], want[1:])]
        if not pairs or not all(isinstance(a, float) and isinstance(b, float) for a, b in pairs):
            continue
        shift = max(abs(a - b) for a, b in pairs)
        relative = max(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0 for a, b in pairs)
        lines.append(f"  {header}: max abs shift {shift:.2e}, max rel shift {relative:.2e}")
    return lines


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name, tmp_path):
    mismatch = _mismatch(name, _run(name, tmp_path))
    assert mismatch is None, mismatch


def test_float_shifts_name_each_float_column(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    (tmp_path / "demo.csv").write_text("k,x,y,s\n1,1.0,0.0,a\n2,2.0,-4.0,b\n")
    written = tmp_path / "written.csv"
    written.write_text("k,x,y,s\n1,1.5,0.0,a\n2,2.0,-4.5,b\n")
    assert _float_shifts("demo", written) == [
        "  x: max abs shift 5.00e-01, max rel shift 3.33e-01",
        "  y: max abs shift 5.00e-01, max rel shift 1.11e-01",
    ]
    written.write_text("k,x,y,s\n1,1.5,0.0,a\n")
    assert _float_shifts("demo", written) == []
    assert _float_shifts("missing", written) == []


def write_goldens() -> None:
    """Rewrite the goldens that fail the comparison above; leave the rest byte for byte."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(RUNS):
            written = _run(name, Path(scratch) / name)
            mismatch = _mismatch(name, written)
            if mismatch is None:
                print(f"kept {GOLDEN_DIR / name}.csv", file=sys.stderr)
                continue
            shifts = _float_shifts(name, written)
            (GOLDEN_DIR / f"{name}.csv").write_bytes(written.read_bytes())
            print(f"wrote {GOLDEN_DIR / name}.csv ({mismatch})", file=sys.stderr)
            for line in shifts:
                print(line, file=sys.stderr)


if __name__ == "__main__":
    write_goldens()
