import ast
import os
import subprocess
import sys
from pathlib import Path

import zenodrive

SRC = Path(__file__).resolve().parents[1] / "src"


def test_export_list_resolves_without_duplicates():
    names = zenodrive.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(zenodrive, name)] == []


def test_cli_import_skips_scipy_integrate(tmp_path):
    # the runtime needs numpy only: scipy serves the test oracles alone, and
    # importing it adds about 0.3 s (2-vCPU host) to every CLI start.  In a
    # fresh interpreter that cannot import scipy at all, the CLI still loads
    # and runs a small geodesic job, and no scipy module ends up loaded.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = f"""
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import zenodrive.cli

code = zenodrive.cli.main(["zeno", "--model.N", "4", "--geodesic.segments", "16",
                           "--dense.steps", "400", "--steps.K", "10,20",
                           "--out", {str(tmp_path / "out")!r}, "--jobs", "1"])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 []"
    assert (tmp_path / "out" / "zeno.csv").read_text().count("\n") == 3   # header + 2 rows


def test_single_job_run_skips_concurrent_futures(tmp_path):
    # the thread pool is needed only for --jobs > 1; importing
    # concurrent.futures costs about 4 ms of every CLI start
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = f"""
import sys

import zenodrive.cli

code = zenodrive.cli.main(["zeno", "--model.N", "4", "--geodesic.segments", "16",
                           "--dense.steps", "400", "--steps.K", "10,20",
                           "--out", {str(tmp_path / "out")!r}, "--jobs", "1"])
print(code, "concurrent.futures" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 False"


def test_integrator_runs_skip_numpy_ma(tmp_path):
    # np.unique and np.union1d import numpy.ma on first use, about 1.2 MB and
    # 10 ms per process; CLI runs (the default-K zeno sweep merges its step
    # grids) and an integration with a trace need neither
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = f"""
import sys

import numpy as np

import zenodrive.cli
from zenodrive import LipkinModel
from zenodrive.coherent import integrate_schrodinger

code = zenodrive.cli.main(["compare", "--model.N", "4", "--times.T", "1",
                           "--out", {str(tmp_path / "out")!r}, "--jobs", "1"])
code += zenodrive.cli.main(["zeno", "--model.N", "4", "--path.family", "linear-v",
                            "--out", {str(tmp_path / "zeno")!r}, "--jobs", "1"])
chord = lambda fractions: np.asarray(fractions)[..., None] * np.array([2.0, 0.5])
integrate_schrodinger(LipkinModel(4), chord, 2.0, trace_times=[0.0, 0.5, 0.5, 2.0])
print(code, "numpy.ma" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 False"


def test_integer_list_parsing_skips_numpy_ma():
    # log: and lin: integer lists are rounded, sorted and deduplicated
    # without np.unique; the tuples are those np.unique gave
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = """
import sys

from zenodrive.cli import _parse_value

print(_parse_value("steps.K", "log:50:5000:20"), _parse_value("steps.K", "lin:1:5:9"))
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    parsed, imported = out.stdout.strip().splitlines()
    assert parsed == (
        "(50, 64, 81, 103, 132, 168, 214, 273, 348, 443, 564, 719, 916, 1168, 1488, 1896, "
        "2416, 3079, 3924, 5000) (1, 2, 3, 4, 5)"
    )
    assert imported == "False"


def test_time_law_grid_is_formed_by_trajectory_alone():
    # the length tables and the K-step grid on them are read in one module, so
    # a new representation of the time law changes ``trajectories.py`` alone;
    # ``geodesic`` forms its own chord start before any table exists
    tables, grids = set(), set()
    for path in sorted((SRC / "zenodrive").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("law_cumlen", "metric_cumlen"):
                    tables.add(path.stem)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fraction_grid":
                    grids.add(path.stem if path.stem == "trajectories" else where)
    assert tables == {"trajectories"}
    assert grids == {"trajectories", "geometry.geodesic"}
