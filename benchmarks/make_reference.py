"""Regenerate the stored reference outputs in ``reference/``.

Usage (from the root of a checkout)::

    python3 benchmarks/make_reference.py [WORKLOAD ...]

Run it only at a commit whose outputs are trusted: the files it writes define
what every later run of the benchmark counts as correct.

For each workload it stores 12 input variants: input seed 0 (the canonical
inputs) and the first 11 input seeds that do the same integer amount of work
as each other (same geodesic gradient and energy evaluations, same integrator
doubling counts; see ``layers.work_signature``): candidates run in seed order
until one work signature has been seen 11 times.  A seed that
changed one of those counts would change the size of the workload, which
would show up as run-to-run spread rather than as a different input.  Seed 0
is kept whatever its counts: the canonical inputs happen to take the geodesic
two more Newton iterations, and the integrator fewer doublings at T = 200 and
600, than most jittered inputs do.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from check import REFERENCE_DIR
from run import SRC, HERE, child_env

VARIANTS = 12
MAX_CANDIDATES = 60


def program_run(name: str, inputs: dict, scratch: Path) -> dict:
    spec = {"workload": name, "inputs": inputs, "out_dir": str(scratch / "out"),
            "trace": True, "run_id": "reference", "spans_path": str(scratch / "spans.json")}
    spec_path, result_path = scratch / "spec.json", scratch / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(SRC), str(spec_path),
                    str(result_path)], env=child_env(), check=True)
    return json.loads(result_path.read_text(encoding="utf-8"))


def make_variants(name: str, scratch: Path) -> list[dict]:
    canonical, groups = None, {}
    for seed in range(MAX_CANDIDATES):
        inputs = workloads.make_inputs(name, seed)
        result = program_run(name, inputs, scratch)
        variant = {"seed": seed, "inputs": inputs, "signature": result["signature"],
                   "outputs": result["outputs"]}
        print(f"{name}: input seed {seed}: {result['wall_s']:.2f} s, work {result['signature']}",
              flush=True)
        if seed == 0:
            canonical = variant
            continue
        group = groups.setdefault(json.dumps(result["signature"], sort_keys=True), [])
        group.append(variant)
        if len(group) == VARIANTS - 1:
            return [canonical] + group
    raise RuntimeError(f"{name}: no work signature is shared by {VARIANTS - 1} input seeds")


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    (HERE.parent / ".bench_out").mkdir(exist_ok=True)
    for name in names or workloads.NAMES:
        with tempfile.TemporaryDirectory(dir=HERE.parent / ".bench_out") as tmp:
            scratch = Path(tmp)
            variants = make_variants(name, scratch)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "variants": variants}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
