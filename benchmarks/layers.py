"""Per-layer instrumentation of ``zenodrive``, read from outside the program.

Each layer is one module of ``src/zenodrive``.  ``instrument`` wraps the
public functions where their consumers bind them; ``summarize`` turns the
recorded spans and counters into the per-layer metrics named in
``BENCHMARK.json``.  A metric of a layer that a workload does not run reads 0.
"""
from __future__ import annotations

import math
import os

from spans import ROOT, Tracer

# consumer modules that bind spectral.eigh_many under their own name
EIGH_MANY_CALLERS = ("protocol", "geometry", "coherent")

# span names whose wall-clock share is reported as ``<name>.self_s``
LAYER_SPANS = (
    "lapack.eigh",
    *(f"spectral.eigh_many.{caller}" for caller in EIGH_MANY_CALLERS),
    "spectral.branching_along",
    "models.hamiltonian_many",
    "geometry.geodesic",
    "geometry.metric_with_gradient_many",
    "geometry.metric_many",
    "geometry.cumulative_lengths",
    "trajectories.build_trajectory",
    "trajectories.discretize",
    "trajectories.position_at",
    "protocol.run_stroboscopic",
    "coherent.integrate_schrodinger",
    "coherent.minimal_steps",
    "cli.write_csv",
)

# counters reported as they are, with their unit
COUNTS = (
    "lapack.eigh.matrices",
    *(f"spectral.eigh_many.{caller}.matrices" for caller in EIGH_MANY_CALLERS),
    "spectral.branching_along.matrices",
    "models.hamiltonian_many.matrices",
    "geometry.metric_with_gradient_many.points",
    "geometry.metric_many.points",
    "geometry.cumulative_lengths.points",
    "trajectories.discretize.calls",
    "trajectories.position_at.points",
    "protocol.run_stroboscopic.calls",
    "protocol.run_stroboscopic.steps",
    "coherent.integrate_schrodinger.calls",
    "coherent.integrate_schrodinger.substeps_final",
    "coherent.integrate_schrodinger.substeps_total",
    "coherent.minimal_steps.probes",
    "cli.write_csv.bytes",
)

KERNEL_SIZES = (4, 10, 16)
SIGNIFICANT_SUBSTEPS = 4096


def _batch(array) -> int:
    shape = getattr(array, "shape", ())
    return math.prod(shape[:-2]) if len(shape) >= 2 else 1


def _points(array) -> int:
    shape = getattr(array, "shape", ())
    return math.prod(shape[:-1]) if len(shape) >= 1 else 1


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer function of the imported ``zenodrive`` package."""
    import numpy as np
    import zenodrive.cli as cli
    import zenodrive.coherent as coherent
    import zenodrive.geometry as geometry
    import zenodrive.protocol as protocol
    import zenodrive.trajectories as trajectories
    from zenodrive.models import LipkinModel
    from zenodrive.trajectories import Trajectory

    add, inside = tracer.add, tracer.inside
    modules = {"protocol": protocol, "geometry": geometry, "coherent": coherent}

    tracer.wrap(np.linalg, "eigh", "lapack.eigh",
                lambda a, k, r: add("lapack.eigh.matrices", _batch(np.asarray(a[0]))))
    for caller in EIGH_MANY_CALLERS:
        name = f"spectral.eigh_many.{caller}"
        tracer.wrap(modules[caller], "eigh_many", name,
                    lambda a, k, r, name=name: add(f"{name}.matrices", _batch(np.asarray(a[0]))))
    tracer.wrap(protocol, "branching_along", "spectral.branching_along",
                lambda a, k, r: add("spectral.branching_along.matrices", r.shape[0]))
    tracer.wrap(LipkinModel, "hamiltonian_many", "models.hamiltonian_many",
                lambda a, k, r: add("models.hamiltonian_many.matrices", _batch(r)))

    tracer.wrap(trajectories, "geodesic", "geometry.geodesic")

    def count_gradient(a, k, r):
        add("geometry.metric_with_gradient_many.points", _points(np.asarray(a[1])))
        if inside("geometry.geodesic") is not None:
            add("geometry.geodesic.gradient_calls")

    tracer.wrap(geometry, "metric_with_gradient_many", "geometry.metric_with_gradient_many",
                count_gradient)

    def count_metric(a, k, r):
        add("geometry.metric_many.points", _points(np.asarray(a[1])))
        if inside("geometry.geodesic") is not None:
            add("geometry.geodesic.energy_evaluations")

    for module in (geometry, cli):
        tracer.wrap(module, "metric_many", "geometry.metric_many", count_metric)
    for module in (geometry, trajectories):
        tracer.wrap(module, "cumulative_lengths", "geometry.cumulative_lengths",
                    lambda a, k, r: add("geometry.cumulative_lengths.points", len(a[1])))

    for module in (trajectories, cli):
        tracer.wrap(module, "build_trajectory", "trajectories.build_trajectory")
    tracer.wrap(Trajectory, "discretize", "trajectories.discretize")

    def count_position(a, k, r):
        points = int(np.size(a[1]))
        add("trajectories.position_at.points", points)
        if inside("coherent.integrate_schrodinger") is not None:
            add("coherent.integrate_schrodinger.substeps_total", points)

    tracer.wrap(Trajectory, "position_at", "trajectories.position_at", count_position)

    def count_chain(a, k, r):
        add("protocol.run_stroboscopic.steps", r.probabilities.shape[0] - 1)
        if inside("coherent.minimal_steps") is not None:
            add("coherent.minimal_steps.probes")

    for module in (protocol, coherent, cli):
        tracer.wrap(module, "run_stroboscopic", "protocol.run_stroboscopic", count_chain)

    def count_integrator(a, k, r):
        add("coherent.integrate_schrodinger.substeps_final", r.substeps)
        tracer.integrator_calls.append({"T": float(a[2]), "substeps": int(r.substeps)})

    for module in (coherent, cli):
        tracer.wrap(module, "integrate_schrodinger", "coherent.integrate_schrodinger",
                    count_integrator)
    tracer.wrap(cli, "minimal_steps", "coherent.minimal_steps")
    tracer.wrap(cli, "write_csv", "cli.write_csv",
                lambda a, k, r: add("cli.write_csv.bytes", os.path.getsize(a[0])))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer, traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced run."""
    share, busy = tracer.self_times()
    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        out[f"{name}.self_s"] = (share.get(name, 0.0), "s")
    for name in COUNTS:
        out[name] = (float(c.get(name, 0)), "count")

    out["lapack.eigh.us_per_matrix"] = (
        1e6 * _ratio(busy.get("lapack.eigh", 0.0), c.get("lapack.eigh.matrices", 0)), "us")
    name = "geometry.metric_with_gradient_many"
    out[f"{name}.us_per_point"] = (1e6 * _ratio(busy.get(name, 0.0), c.get(f"{name}.points", 0)), "us")

    gradient_calls = c.get("geometry.geodesic.gradient_calls", 0)
    iterations = gradient_calls - c.get("geometry.geodesic.calls", 0)
    out["geometry.geodesic.iterations"] = (float(iterations), "count")
    out["geometry.geodesic.accept_ratio"] = (
        _ratio(iterations, c.get("geometry.geodesic.energy_evaluations", 0)), "ratio")
    out["coherent.useful_ratio"] = (
        _ratio(c.get("coherent.integrate_schrodinger.substeps_final", 0),
               c.get("coherent.integrate_schrodinger.substeps_total", 0)), "ratio")

    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.unattributed_s"] = (share.get(ROOT, 0.0), "s")
    out["trace.self_sum_s"] = (sum(share.values()), "s")
    out["trace.spans"] = (float(len(tracer.spans)), "count")
    return out


def work_signature(tracer: Tracer) -> dict:
    """Integer work counts that must not change between input seeds.

    The geodesic's Newton iterations and line-search evaluations and the
    integrator's doubling count jump by whole steps; a seed that changed one
    of them would change the size of the workload, not just its inputs.
    Doublings are listed in order of T.  Integrator calls that end below
    ``SIGNIFICANT_SUBSTEPS`` cost under 1% of any workload and are left out.
    """
    c = tracer.counters
    doublings = []
    for call in sorted(tracer.integrator_calls, key=lambda call: call["T"]):
        if call["substeps"] >= SIGNIFICANT_SUBSTEPS:
            initial = max(64, math.ceil(8 * call["T"]))
            doublings.append(round(math.log2(call["substeps"] / initial)))
    return {
        "geodesic_gradient_calls": int(c.get("geometry.geodesic.gradient_calls", 0)),
        "geodesic_energy_evaluations": int(c.get("geometry.geodesic.energy_evaluations", 0)),
        "integrator_doublings": doublings,
    }


def span_cost_us(calls: int = 20000) -> float:
    """Microseconds one traced call adds over a bare call (wrapper, span, counter)."""
    import time
    from types import SimpleNamespace

    owner = SimpleNamespace(f=lambda: None)
    started = time.perf_counter()
    for _ in range(calls):
        owner.f()
    bare = time.perf_counter() - started
    tracer = Tracer("calibration")
    tracer.wrap(owner, "f", "calibration", lambda a, k, r: tracer.add("calibration.items"))

    def loop():
        for _ in range(calls):
            owner.f()

    started = time.perf_counter()
    tracer.run_root(loop)
    return 1e6 * (time.perf_counter() - started - bare) / calls


def kernel_sweep(batches: dict[int, tuple[int, int]]) -> dict[str, tuple[float, str]]:
    """Microseconds per matrix of ``eigh_many`` and per point of the metric gradient.

    Runs at N in ``KERNEL_SIZES`` on fixed batches along the straight chord
    between the default endpoints.  It stops at N=16: the three-operand einsum
    in the metric gradient is O(n^4) per point (265 s per 8192 points at
    N=40), and the default endpoints turn degenerate at N >= 24.
    """
    import time

    import numpy as np
    from zenodrive.geometry import metric_with_gradient_many
    from zenodrive.models import LipkinModel
    from zenodrive.spectral import eigh_many

    out = {}
    for n in KERNEL_SIZES:
        model = LipkinModel(n)
        eigh_batch, gradient_batch = batches[n]
        frac = np.linspace(0.0, 1.0, eigh_batch)[:, None]
        hams = model.hamiltonian_many(np.array([0.0, 0.0]) + frac * np.array([2.0, 0.5]))
        started = time.perf_counter()
        eigh_many(hams)
        out[f"kernel.eigh_many.N{n}.us_per_matrix"] = (
            1e6 * (time.perf_counter() - started) / eigh_batch, "us")
        frac = np.linspace(0.02, 1.0, gradient_batch)[:, None]
        points = np.array([0.0, 0.0]) + frac * np.array([2.0, 0.5])
        started = time.perf_counter()
        metric_with_gradient_many(model, points)
        out[f"kernel.metric_with_gradient_many.N{n}.us_per_point"] = (
            1e6 * (time.perf_counter() - started) / gradient_batch, "us")
    return out
