"""Command-line experiment runner.

Subcommands compute the data behind the standard plots -- gap/metric maps,
driving paths, infidelity-versus-steps tables, coherent-versus-decoherent
comparisons, and spectator-gadget coherence traces -- and write plain CSV
files plus an effective-config snapshot and a run-metadata file into one
output directory per invocation.

Configuration is a flat key=value text file with dotted keys; every key can be
overridden on the command line with a flag of the same name.  Identical
configurations produce byte-identical CSV output.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import integrate_schrodinger, minimal_steps
from .geometry import SEGMENTS_PER_STEP, metric_many
from .models import LipkinModel
from .protocol import run_stroboscopic, zeno_sweep
from .spectator import evolve_gadget, reduced_density
from .trajectories import FAMILIES, Trajectory, build_trajectory

# key -> (parser, default, help)
CONFIG_SPEC = {
    "model.N": (int, 10, "number of qubits"),
    "path.start": ("pair", (0.0, 0.0), "initial point lam,chi"),
    "path.end": ("pair", (2.0, 0.5), "final point lam,chi"),
    "path.family": (str, "geodesic", "one of geodesic | linear-v | linear-u"),
    "steps.K": ("intlist", (50, 100, 200, 500, 1000, 2000, 5000), "step counts"),
    "times.T": ("floatlist", (1.0, 2.0, 5.0, 10.0, 20.0, 50.0), "driving times"),
    "geodesic.segments": (int, 256, "segments for the geodesic relaxation"),
    "dense.steps": (int, 0, "dense trajectory segments (0 = auto from max K); the geodesic "
                            "rounds up to a multiple of geodesic.segments"),
    "compare.cap": (int, 10**6, "largest step count tried by the crossover search"),
    "grid.lambda": ("range3", (0.0, 3.0, 41), "metric-map lambda grid min:max:count"),
    "grid.chi": ("range3", (0.0, 1.0, 31), "metric-map chi grid min:max:count"),
    "gadget.a0": (float, float(1.0 / np.sqrt(2.0)), "system amplitude on |0>"),
    "gadget.a1": (float, float(1.0 / np.sqrt(2.0)), "system amplitude on |1>"),
    "gadget.tau": (float, 1.0, "decoherence time"),
    "gadget.tmax": (float, 4.0, "trace length in units of tau"),
    "gadget.samples": (int, 201, "number of trace samples"),
}


def _parse_value(key: str, raw: str):
    kind = CONFIG_SPEC[key][0]
    raw = raw.strip()
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is str:
        return raw
    if kind == "pair":
        parts = [float(p) for p in raw.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{key}: expected two comma-separated numbers, got {raw!r}")
        return tuple(parts)
    if kind == "range3":
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"{key}: expected min:max:count, got {raw!r}")
        return (float(parts[0]), float(parts[1]), int(parts[2]))
    if kind in ("intlist", "floatlist"):
        cast = int if kind == "intlist" else float
        if raw.startswith("log:") or raw.startswith("lin:"):
            tag, lo, hi, num = raw.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
            vals = np.geomspace(lo, hi, num) if tag == "log" else np.linspace(lo, hi, num)
            if kind == "intlist":
                return tuple(int(v) for v in np.unique(np.round(vals).astype(int)))
            return tuple(float(v) for v in vals)
        return tuple(cast(p) for p in raw.split(","))
    raise ValueError(f"unhandled kind for {key}")


def _format_value(key: str, value) -> str:
    kind = CONFIG_SPEC[key][0]
    if kind == "range3":
        return f"{value[0]!r}:{value[1]!r}:{value[2]}"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def load_config(path: str | None, overrides: dict) -> dict:
    config = {key: spec[1] for key, spec in CONFIG_SPEC.items()}
    if path:
        for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_SPEC:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            config[key] = _parse_value(key, raw)
    for key, raw in overrides.items():
        config[key] = _parse_value(key, raw)
    if config["path.family"] not in FAMILIES:
        raise ValueError(f"path.family must be one of {FAMILIES}")
    if not config["compare.cap"] >= 1:
        raise ValueError(f"compare.cap must be >= 1, got {config['compare.cap']!r}")
    if not config["dense.steps"] >= 0:
        raise ValueError(f"dense.steps must be >= 0 (0 = auto), got {config['dense.steps']!r}")
    return config


def write_config_snapshot(config: dict, out_dir: Path) -> None:
    lines = [f"{key} = {_format_value(key, config[key])}" for key in sorted(config)]
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metadata(out_dir: Path, command: str, wall_time: float) -> None:
    lines = [
        f"version = {__version__}",
        f"command = {command}",
        f"timestamp = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
        f"wall_time_seconds = {wall_time:.3f}",
    ]
    (out_dir / "metadata.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17e")
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt_cell(cell) for cell in row) + "\n")


def _parallel_map(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _build_model(config) -> LipkinModel:
    return LipkinModel(config["model.N"])


def _build_trajectory(model, config, max_steps=None) -> Trajectory:
    needed = config["dense.steps"]
    if needed <= 0:
        target = max_steps if max_steps else max(config["steps.K"])
        needed = max(20000, SEGMENTS_PER_STEP * int(target))
    return build_trajectory(
        model,
        config["path.family"],
        np.array(config["path.start"]),
        np.array(config["path.end"]),
        dense_steps=needed,
        geodesic_steps=config["geodesic.segments"],
    )


def cmd_metric_map(config, out_dir, jobs):
    lo, hi, num = config["grid.lambda"]
    if num < 2:
        raise ValueError("grid.lambda needs at least 2 points per axis")
    clo, chi_hi, cnum = config["grid.chi"]
    if cnum < 2:
        raise ValueError("grid.chi needs at least 2 points per axis")
    model = _build_model(config)
    lams = np.linspace(lo, hi, num)
    chis = np.linspace(clo, chi_hi, cnum)
    grid = np.array([(l, c) for l in lams for c in chis])
    tensors, gaps = metric_many(model, grid, with_gap=True)
    rows = [
        (pt[0], pt[1], gap, g[0, 0], g[0, 1], g[1, 1])
        for pt, gap, g in zip(grid, gaps, tensors)
    ]
    write_csv(out_dir / "metric_map.csv", ["lambda", "chi", "gap", "g_ll", "g_lc", "g_cc"], rows)


def cmd_path(config, out_dir, jobs):
    model = _build_model(config)
    steps = max(config["steps.K"]) if config["steps.K"] else 200
    trajectory = _build_trajectory(model, config, max_steps=steps)
    path = trajectory.discretize(steps)
    result = run_stroboscopic(model, path)
    dl = result.step_lengths
    cumulative = np.concatenate([[0.0], np.cumsum(dl)])
    euclid = np.linalg.norm(np.diff(path, axis=0), axis=1)
    # plane speed of the incoming step for total driving time T = 1
    u_speed = np.concatenate([[0.0], euclid * steps])
    delta = np.concatenate([[0.0], dl])
    rows = [
        (k, path[k, 0], path[k, 1], delta[k], cumulative[k], u_speed[k])
        for k in range(steps + 1)
    ]
    write_csv(
        out_dir / "path.csv",
        ["k", "lambda", "chi", "delta_ell", "cumulative_ell", "u_speed"],
        rows,
    )


def cmd_zeno(config, out_dir, jobs):
    if not config["steps.K"]:
        raise ValueError("steps.K must be nonempty")
    model = _build_model(config)
    trajectory = _build_trajectory(model, config)
    counts = sorted(config["steps.K"])
    rows = _parallel_map(
        lambda k: zeno_sweep(model, trajectory, [k])[0], counts, jobs
    )
    write_csv(
        out_dir / "zeno.csv",
        ["path_family", "K", "I_exact", "I_one_term", "I_two_term", "ell"],
        [
            (r["path_family"], r["K"], r["I_exact"], r["I_one_term"], r["I_two_term"], r["ell"])
            for r in rows
        ],
    )


def cmd_compare(config, out_dir, jobs):
    if not config["times.T"]:
        raise ValueError("times.T must be nonempty")
    model = _build_model(config)
    cap = config["compare.cap"]
    trajectory = _build_trajectory(model, config, max_steps=min(cap, 10000))

    def one(total_time):
        result = integrate_schrodinger(model, trajectory.position_at, float(total_time))
        k_min, tau = minimal_steps(
            model,
            trajectory,
            float(total_time),
            cap=cap,
            coherent_infidelity=result.infidelity,
        )
        return (
            trajectory.family,
            float(total_time),
            result.infidelity,
            k_min,
            tau,
            0 if k_min is not None else 1,
        )

    rows = _parallel_map(one, sorted(config["times.T"]), jobs)
    write_csv(
        out_dir / "compare.csv",
        ["path_family", "T", "I_coherent", "K_min", "tau_min", "capped"],
        rows,
    )


def cmd_gadget(config, out_dir, jobs):
    a0, a1 = config["gadget.a0"], config["gadget.a1"]
    tau = config["gadget.tau"]
    times = np.linspace(0.0, config["gadget.tmax"] * tau, config["gadget.samples"])
    rows = []
    for t in times:
        rho = reduced_density(evolve_gadget(a0, a1, tau, float(t)))
        p0, p1 = rho.populations
        rows.append((float(t), rho.coherence, p0, p1))
    write_csv(out_dir / "gadget.csv", ["t_prime", "coherence_abs", "p0", "p1"], rows)


COMMANDS = {
    "metric-map": cmd_metric_map,
    "path": cmd_path,
    "zeno": cmd_zeno,
    "compare": cmd_compare,
    "gadget": cmd_gadget,
}


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenodrive",
        description="Decoherence-assisted driving experiments: CSV data generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"write {name.replace('-', '_')}.csv")
        cmd.add_argument("--config", help="flat key=value config file")
        cmd.add_argument("--out", default=None, help="output directory (default out-<command>)")
        cmd.add_argument("--jobs", type=non_negative_int, default=0,
                         help="worker threads (0 = machine parallelism)")
        for key, (_, _, help_text) in CONFIG_SPEC.items():
            cmd.add_argument(f"--{key}", dest=f"cfg::{key}", metavar="V", help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key.split("::", 1)[1]: value
        for key, value in vars(args).items()
        if key.startswith("cfg::") and value is not None
    }
    config = load_config(args.config, overrides)
    out_dir = Path(args.out or f"out-{args.command}")
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = args.jobs or os.cpu_count() or 1
    started = time.perf_counter()
    COMMANDS[args.command](config, out_dir, jobs)
    write_config_snapshot(config, out_dir)
    write_metadata(out_dir, args.command, time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
