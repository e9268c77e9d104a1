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


def test_cli_import_skips_scipy_integrate():
    # nothing in the package uses scipy.integrate, and importing it adds about
    # 0.3 s (2-vCPU host) to every CLI start; only a fresh interpreter shows
    # what ``import zenodrive.cli`` pulls in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, zenodrive.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
