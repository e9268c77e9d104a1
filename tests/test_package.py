import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import zenodrive

SRC = Path(__file__).resolve().parents[1] / "src"

# Every top-level private name of ``src/zenodrive`` that a test names, and why
# the test cannot reach what it checks through public inputs.  A test that
# starts or stops naming one fails the ratchet below until this list follows.
PRIVATE_NAMES_IN_TESTS = {
    "_Workspace": "buffer reuse and its one allocation per call show in no output",
    "_propagate": "CF4 at fixed knots; the public run picks its own grids",
    "_expm_minus_i": "the Taylor exponential against expm and long double",
    "_step_unitaries": "one step's two exponentials, built without eigh",
    "_sorted_distinct": "bit for bit np.unique and np.union1d",
    "_discrete_energy": "iterates, trials and injected level crossings inside a solve",
    "_energy_grad_hess": "the Newton model against eigh probes and fresh eigensystems",
    "_solve_hessian": "failed, singular and non-finite solves; against a dense solve",
    "_cyclic_reduction": "its positive-definiteness test on shifted systems",
    "_eigenproducts": "the probes' B^c products, formed once per Newton step",
    "_shifted_eigensystem": "first-order probe eigensystems against eigh",
    "_mixing": "the mixing matrices, formed once per Newton step",
    "_metric_impl": "the metric from a line search's eigensystem",
    "_alias_gap": "an aliased coarse level, to reach the fall-back to the chord",
    "_interior_gradient": "the residual the damping-ladder error reports",
    "_fraction_grid": "resample's targets, and the guard that keeps the grid in one module",
    "_walk_groups": "the zeno walk's grouping, which no output shows",
}


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


def test_cli_runs_skip_concurrent_futures(tmp_path):
    # every command runs serially, whatever --jobs says: not even a two-row
    # compare at --jobs 3 imports concurrent.futures (about 4 ms of a start)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = f"""
import sys

import zenodrive.cli

code = zenodrive.cli.main(["compare", "--model.N", "4", "--path.family", "linear-v",
                           "--times.T", "1,5", "--out", {str(tmp_path / "out")!r},
                           "--jobs", "3"])
print(code, "concurrent.futures" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 False"
    assert (tmp_path / "out" / "compare.csv").read_text().count("\n") == 3   # header + 2 rows


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

from zenodrive.cli import load_config

steps = [load_config(None, {"steps.K": raw})["steps.K"] for raw in ("log:50:5000:20", "lin:1:5:9")]
print(*steps)
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
    # the table's points, its length tables and the K-step grid on them are
    # read in one module, so a new representation of the time law changes
    # ``trajectories.py`` alone; ``geodesic`` forms its own chord start before
    # any table exists
    tables, grids = set(), set()
    for path in sorted((SRC / "zenodrive").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("points", "law_cumlen",
                                                                     "metric_cumlen"):
                    tables.add(path.stem)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fraction_grid":
                    grids.add(path.stem if path.stem == "trajectories" else where)
    assert tables == {"trajectories"}
    assert grids == {"trajectories", "geometry.geodesic"}


def test_tests_name_only_the_listed_private_names():
    # a ratchet: a private name leaves this list when its tests move to public inputs
    private = set()
    for path in (SRC / "zenodrive").glob("*.py"):
        for top in ast.parse(path.read_text()).body:   # functions, classes and assignments
            for node in getattr(top, "targets", [getattr(top, "target", top)]):
                name = getattr(node, "id", getattr(node, "name", ""))
                if name.startswith("_") and not name.startswith("__"):
                    private.add(name)
    named = set()
    for path in Path(__file__).resolve().parent.rglob("*.py"):
        lines = path.read_text().splitlines()
        if path == Path(__file__).resolve():   # the list itself does not count
            listed = next(top for top in ast.parse(path.read_text()).body
                          if isinstance(top, ast.Assign)
                          and top.targets[0].id == "PRIVATE_NAMES_IN_TESTS")
            del lines[listed.lineno - 1 : listed.end_lineno]
        named |= private & set(re.findall(r"\w+", "\n".join(lines)))
    assert named == set(PRIVATE_NAMES_IN_TESTS)
