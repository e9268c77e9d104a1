"""Reference outputs and the correctness check behind ``failed``.

The references in ``reference/`` are the outputs of the program at the
commit that added this benchmark, one set per input variant (see
``make_reference.py``).  An operation is one output row (one CSV row, or one
library result row); it fails when the run raised, when the row is missing
or extra, or when any cell falls outside its column's tolerance below.

Tolerances, and why each is what it is.  Each must let through summing in
another order and a more accurate solver stopped by the same rule, and must
fail a wrong answer (another K, T, end point or family moves a value by 1e-4
or more).  Measured on the sizing machine against the seed-0 references:
OpenBLAS on 2 threads instead of 1 leaves the zeno outputs bit-identical;
the geodesic relaxed to gtol 1e-6 instead of 1e-9 moves ``I_exact`` by
5.5e-10 and ``ell`` by 5.6e-9 relative; the coherent integrator run to
tolerance 1e-10 instead of 1e-8 moves every infidelity and trace fidelity by
at most 2.9e-9 absolute.

- Exact: strings, integers and echoed inputs.  ``K_min`` is an integer
  decided by comparing two infidelities; near K_min one more step changes
  the chain infidelity by about I/K (6e-7 at T=50), far more than the
  I_coherent tolerance, so a correct solver lands on the same K_min.
- ``ell``, ``I_one_term``, ``I_two_term``: rel 1e-7, about 20 times the
  move of ``ell`` under a 1000 times looser geodesic tolerance; the terms are
  closed forms of ``ell``.
- ``I_exact``: rel 1e-6; it moved less than ``ell`` above, but it depends on
  where the relaxed points sit, not only on the length.
- ``I_coherent``, traced fidelities: abs 2e-8 plus rel 1e-6.  The integrator
  stops when two doublings agree to 1e-8 in fidelity, so a more accurate
  scheme stopped by that rule may differ by up to about 1e-8.
- ``tau_min``: rel 1e-12, it is T / K_min.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Tol:
    rel: float = 0.0
    abs: float = 0.0
    scale: tuple[str, ...] = ()   # columns whose largest |reference| sets the scale

    def ok(self, got, want, row: dict) -> bool:
        if not isinstance(got, (int, float)) or isinstance(got, bool) or got != got:
            return False
        base = max(abs(row[c]) for c in self.scale) if self.scale else abs(want)
        return abs(got - want) <= self.abs + self.rel * base


EXACT = None
I_COHERENT = Tol(rel=1e-6, abs=2e-8)

TOLERANCES = {
    "zeno.csv": {"path_family": EXACT, "K": EXACT, "I_exact": Tol(rel=1e-6),
                 "I_one_term": Tol(rel=1e-7), "I_two_term": Tol(rel=1e-7), "ell": Tol(rel=1e-7)},
    "compare.csv": {"path_family": EXACT, "T": EXACT, "I_coherent": I_COHERENT,
                    "K_min": EXACT, "tau_min": Tol(rel=1e-12), "capped": EXACT},
    "sweep": {"T": EXACT, "I_coherent": I_COHERENT},
    "traced": {"T": EXACT, "I_coherent": I_COHERENT},
    "trace": {"t": Tol(abs=1e-9), "fidelity": I_COHERENT},
}


def load_variants(workload: str) -> list[dict]:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["variants"]


def variant_index(seed: int, count: int) -> int:
    """Seed 0 is the canonical variant; other seeds cycle through the jittered ones."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return 0 if seed == 0 else 1 + (seed - 1) % (count - 1)


def expected_rows(expected: dict) -> int:
    return sum(len(table["rows"]) for table in expected.values())


def compare(expected: dict, actual: dict) -> tuple[int, int, list[str]]:
    """Count ``(attempted, failed)`` operations of one run against its reference."""
    attempted = failed = 0
    notes: list[str] = []
    for table, want in expected.items():
        tolerances = TOLERANCES[table]
        got = actual.get(table)
        attempted += len(want["rows"])
        if got is None or got["header"] != want["header"]:
            failed += len(want["rows"])
            notes.append(f"{table}: missing or wrong header")
            continue
        header = want["header"]
        for index, want_row in enumerate(want["rows"]):
            if index >= len(got["rows"]):
                failed += 1
                notes.append(f"{table} row {index}: missing")
                continue
            ref = dict(zip(header, want_row))
            bad = [
                column
                for column, value in zip(header, got["rows"][index])
                if not (value == ref[column] if tolerances[column] is EXACT
                        else tolerances[column].ok(value, ref[column], ref))
            ]
            if len(got["rows"][index]) != len(header) or bad:
                failed += 1
                notes.append(f"{table} row {index}: out of tolerance in {bad}")
        extra = len(got["rows"]) - len(want["rows"])
        if extra > 0:
            attempted += extra
            failed += extra
            notes.append(f"{table}: {extra} extra rows")
    return attempted, failed, notes
