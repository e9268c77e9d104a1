"""Benchmark of zenodrive: end-to-end timings and an outside-in per-layer trace.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all            # every workload, both modes

With ``--trace 0`` it reports the end-to-end metrics ``wall_s``, ``setup_s``
and ``peak_rss_mb``; with ``--trace 1`` the per-layer metrics of one traced
run, the tracing overhead and the kernel N-sweep.  Every run of the program is
a fresh interpreter that imports ``zenodrive`` from this checkout's ``src``
with BLAS pinned to one thread, and every output row is checked against the
stored reference.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)   # before numpy loads: the calibration runs here too

DEADLINE_S = 170.0
END_TO_END_UNITS = {"wall_scaled_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5

# Batch sizes of the kernel N-sweep: (eigh_many matrices, metric-gradient
# points) per N, each about 1 s on one core of the sizing machine.
KERNEL_BATCHES = {4: (160000, 28000), 10: (40000, 2800), 16: (14000, 700)}

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import zenodrive.cli; "
    "from zenodrive.models import LipkinModel; LipkinModel(int(sys.argv[2])); "
    "print(repr(time.perf_counter()))"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Invocation:
    """State of one benchmark invocation: its clock, scratch directory and tally."""

    def __init__(self, workload: str, seed: int):
        import check
        import workloads

        self.started = time.perf_counter()
        self.workload = workload
        self.seed = seed
        variants = check.load_variants(workload)
        self.variant = variants[check.variant_index(seed, len(variants))]
        self.inputs = workloads.make_inputs(workload, self.variant["seed"])
        if self.inputs != self.variant["inputs"]:
            raise RuntimeError(f"{workload}: generated inputs differ from the stored reference")
        self.expected = self.variant["outputs"]
        self.model_size = workloads.MODEL_SIZE
        self.jobs = workloads.JOBS
        self.scratch = OUT / f"{workload}-seed{seed}-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.environment: dict = {}
        self.runs = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def setup_time(self) -> float:
        """Seconds from spawning an interpreter to ``LipkinModel(N)`` being built."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.model_size)]
        started = time.perf_counter()
        done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(5.0, self.remaining()), check=True)
        return float(done.stdout.strip().splitlines()[-1]) - started

    def program_run(self, *, trace: bool, kernels: bool = False,
                    sample: bool = False) -> dict | None:
        """One workload run in a fresh worker; checks and tallies its outputs.

        With ``sample`` the worker samples the machine's speed during the run.
        """
        import check

        self.runs += 1
        tag = f"run{self.runs}"
        spec = {
            "workload": self.workload,
            "inputs": self.inputs,
            "out_dir": str(self.scratch / tag),
            "trace": trace,
            "sample": sample,
            "run_id": f"{self.workload}-seed{self.seed}-{tag}",
            "spans_path": str(OUT / f"spans-{self.workload}-seed{self.seed}.json"),
        }
        if kernels:
            spec["kernels"] = KERNEL_BATCHES
        spec_path = self.scratch / f"{tag}.spec.json"
        result_path = self.scratch / f"{tag}.result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(spec_path), str(result_path)]
        try:
            done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                  timeout=max(5.0, self.remaining()))
            ok = done.returncode == 0 and result_path.is_file()
            detail = done.stderr[-2000:]
        except subprocess.TimeoutExpired:
            ok, detail = False, "timed out"
        if not ok:
            rows = check.expected_rows(self.expected)
            self.attempted += rows
            self.failed += rows
            log(f"[bench] {self.workload}: program run failed: {detail}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        attempted, failed, notes = check.compare(self.expected, result["outputs"])
        self.attempted += attempted
        self.failed += failed
        for note in notes[:10]:
            log(f"[bench] {self.workload}: {note}")
        self.environment = result["environment"]
        return result

    def describe(self, trace: bool) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "input_seed": self.variant["seed"],
            "trace": trace,
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "jobs": self.jobs,
            "blas_env": {k: child_env()[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            **self.environment,
        }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files; identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_end_to_end(bench: Invocation, seconds: float) -> dict:
    import calibrate

    bench.setup_time()   # warms the file cache and byte-code; not counted
    bursts = [calibrate.burst()]
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(bench.setup_time())
        bursts.append(calibrate.burst())
    # one factor from the median burst: a single burst is as noisy as the
    # set-up time itself, so it would widen the spread rather than narrow it
    setup_factor = calibrate.speed_factor(statistics.median(bursts))

    runs, durations = [], []
    measure_start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        result = bench.program_run(trace=False, sample=True)
        durations.append(time.perf_counter() - begun)
        if result is not None:
            runs.append(result)
        elapsed = time.perf_counter() - measure_start
        if (elapsed + statistics.fmean(durations) > seconds
                or bench.remaining() < 2 * max(durations)):
            break
    if not runs:
        raise RuntimeError(f"{bench.workload}: no program run succeeded")
    series = {
        "wall_raw_s": [r["wall_s"] for r in runs],
        "wall_scaled_s": [r["wall_s"] * r["speed_factor"] for r in runs],
        "setup_raw_s": setups,
        "setup_s": [measured * setup_factor for measured in setups],
        "speed_factor": [r["speed_factor"] for r in runs],
        "setup_speed_factor": [setup_factor],
        "calibration_samples": [r["calibration_samples"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    for name, values in series.items():
        q1, q2, q3 = quartiles(values)
        print(f"# {bench.workload} {name}: median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    return {name: {"value": statistics.median(series[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def measure_layers(bench: Invocation) -> dict:
    plain = bench.program_run(trace=False)
    traced = bench.program_run(trace=True, kernels=True)
    if plain is None or traced is None:
        raise RuntimeError(f"{bench.workload}: traced or untraced program run failed")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in {**traced["layers"], **traced["kernels"]}.items()}
    metrics["trace.untraced_wall_s"] = {"value": plain["wall_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Invocation(workload, seed)
    try:
        metrics = measure_layers(bench) if trace else measure_end_to_end(bench, seconds)
    finally:
        bench.close()
    print(json.dumps({"environment": bench.describe(trace)}))
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{workload} failed_frac = {frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zenodrive" / "__init__.py").is_file():
        log(f"[bench] no zenodrive sources under {SRC}; run from the root of a checkout")
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print_metrics(args.workload, result)
        print(json.dumps(result))
        return 0
    summary = {}
    for name in workloads.NAMES:
        for trace in (False, True):
            result = run_one(name, args.seed, args.seconds, trace)
            print_metrics(name, result)
            summary[f"{name}/{'trace' if trace else 'plain'}"] = result
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
