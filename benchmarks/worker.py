"""One workload run in a fresh interpreter; started by ``run.py``.

Usage: ``python3 worker.py SRC SPEC.json RESULT.json``

``SPEC.json`` names the workload, its inputs, the output directory and
whether to trace.  The worker imports ``zenodrive`` from ``SRC`` only, times
the workload from the call into its entry point to its return (when the spec
asks, it samples the machine's speed meanwhile, see ``calibrate.py``), and
writes wall time, the speed factor, peak resident set, the outputs and (when
traced) the per-layer metrics to ``RESULT.json``.
"""
from __future__ import annotations

import ctypes
import gc
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import zenodrive

    if Path(zenodrive.__file__).resolve().parent != (src / "zenodrive").resolve():
        raise ImportError(f"zenodrive imported from {zenodrive.__file__}, not from {src}")
    return zenodrive


def _blas() -> dict:
    """Name and configured thread count of the OpenBLAS that numpy loaded."""
    import numpy as np

    info = {"name": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return info
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def main(argv) -> int:
    src, spec_path, result_path = Path(argv[0]), Path(argv[1]), Path(argv[2])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    _import_program(src)
    import calibrate
    import layers
    import workloads
    from spans import Tracer

    name, inputs, out_dir = spec["workload"], spec["inputs"], Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if spec["trace"]:
        tracer = Tracer(spec["run_id"])
        layers.instrument(tracer)
    sampler = calibrate.Sampler() if spec.get("sample") else None
    gc.collect()
    started = time.perf_counter()
    if tracer is not None:
        returned = tracer.run_root(lambda: workloads.run(name, inputs, out_dir))
    elif sampler is not None:
        with sampler:
            returned = workloads.run(name, inputs, out_dir)
    else:
        returned = workloads.run(name, inputs, out_dir)
    wall = time.perf_counter() - started - (sampler.spent if sampler else 0.0)
    result = {
        "wall_s": wall,
        "speed_factor": calibrate.speed_factor(sampler.snippet_s()) if sampler else None,
        "calibration_samples": sampler.samples if sampler else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": workloads.collect(name, inputs, out_dir, returned),
        "environment": environment(),
    }
    if tracer is not None:
        tracer.unwrap_all()
        result["layers"] = layers.summarize(tracer, wall)
        result["layers"]["trace.span_cost_us"] = (layers.span_cost_us(), "us")
        result["signature"] = layers.work_signature(tracer)
        tracer.dump(spec["spans_path"])
    if spec.get("kernels"):
        result["kernels"] = layers.kernel_sweep({int(k): v for k, v in spec["kernels"].items()})
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
