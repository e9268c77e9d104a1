"""The three benchmark workloads: their inputs and how each one is run.

Inputs come from an integer input seed.  Seed 0 gives the canonical inputs
(the CLI defaults quoted in the README); any other seed jitters them inside
the ranges below with ``numpy.random.default_rng(seed)``:

- endpoints: each coordinate of ``path.end`` moves by at most 0.01.  The
  start stays at (0, 0), where the ground state is the product state that a
  user prepares; off that point the start would leave the chi = 0 edge of
  the domain, which changes how the geodesic solver converges;
- driving times: each T is scaled by a factor in [0.997, 1.003].

The program only ever receives the generated inputs (CLI flags or library
arguments); this module runs inside the worker process and imports
``zenodrive`` lazily.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

START = (0.0, 0.0)
END = (2.0, 0.5)
ENDPOINT_JITTER = 0.01
TIME_JITTER = 0.003
JOBS = 1

CROSSOVER_TIMES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
SWEEP_TIMES = (1.0, 4.0, 13.0, 60.0, 200.0, 600.0)
TRACED_TIME = 60.0
TRACE_SAMPLES = 61
SWEEP_DENSE_STEPS = 20000

NAMES = ("zeno-geodesic", "crossover-linear", "coherent-sweep")


def _end(rng):
    if rng is None:
        return list(END)
    j = ENDPOINT_JITTER
    return [END[0] + rng.uniform(-j, j), END[1] + rng.uniform(-j, j)]


def _times(rng, times):
    if rng is None:
        return list(times)
    return [t * (1.0 + rng.uniform(-TIME_JITTER, TIME_JITTER)) for t in times]


def _pair(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def make_inputs(name: str, seed: int) -> dict:
    """Inputs of workload ``name`` for input seed ``seed`` (JSON-serialisable)."""
    rng = None if seed == 0 else np.random.default_rng(seed)
    if name == "zeno-geodesic":
        argv = ["zeno", f"--path.start={_pair(START)}", f"--path.end={_pair(_end(rng))}",
                f"--jobs={JOBS}"]
        return {"argv": argv, "csv": "zeno.csv"}
    if name == "crossover-linear":
        end = _end(rng)
        times = _times(rng, CROSSOVER_TIMES)
        argv = ["compare", "--path.family=linear-v", f"--path.start={_pair(START)}",
                f"--path.end={_pair(end)}", f"--times.T={','.join(repr(t) for t in times)}",
                f"--jobs={JOBS}"]
        return {"argv": argv, "csv": "compare.csv"}
    if name == "coherent-sweep":
        end = _end(rng)
        return {"start": list(START), "end": end, "times": _times(rng, SWEEP_TIMES)}
    raise ValueError(f"unknown workload {name!r}")


MODEL_SIZE = 10


def run(name: str, inputs: dict, out_dir: Path):
    """Run one workload through the public API; returns the library results.

    This is the timed region: it starts at the call into the entry point and
    ends when the entry point returns.
    """
    import zenodrive.cli
    import zenodrive.coherent
    import zenodrive.trajectories
    from zenodrive.models import LipkinModel

    if "argv" in inputs:
        code = zenodrive.cli.main(inputs["argv"] + [f"--out={out_dir}"])
        if code != 0:
            raise RuntimeError(f"zenodrive {inputs['argv'][0]} exited with {code}")
        return None
    model = LipkinModel(10)
    trajectory = zenodrive.trajectories.build_trajectory(
        model, "linear-v", np.array(inputs["start"]), np.array(inputs["end"]),
        dense_steps=SWEEP_DENSE_STEPS,
    )
    rows = zenodrive.coherent.coherent_sweep(model, trajectory, inputs["times"])
    traced = zenodrive.coherent.integrate_schrodinger(
        model, trajectory.position_at, TRACED_TIME,
        trace_times=np.linspace(0.0, TRACED_TIME, TRACE_SAMPLES),
    )
    return rows, traced


def collect(name: str, inputs: dict, out_dir: Path, returned) -> dict:
    """Outputs of one run as tables ``{table: {"header": [...], "rows": [...]}}``."""
    if "csv" in inputs:
        with open(out_dir / inputs["csv"], newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = [[_cell(v) for v in row] for row in reader]
        return {inputs["csv"]: {"header": header, "rows": rows}}
    rows, traced = returned
    return {
        "sweep": {"header": ["T", "I_coherent"],
                  "rows": [[r["T"], r["I_coherent"]] for r in rows]},
        "traced": {"header": ["T", "I_coherent"],
                   "rows": [[TRACED_TIME, float(traced.infidelity)]]},
        "trace": {"header": ["t", "fidelity"],
                  "rows": [[float(t), float(f)] for t, f in
                           zip(traced.trace_times, traced.trace_fidelity)]},
    }


def _cell(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
