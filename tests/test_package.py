"""Process-level behaviour: what `import dtebell` loads, `python -m dtebell`."""

import json
import os
import subprocess
import sys

import dtebell

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dtebell.__file__)))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, dtebell; "
        "print([m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules])"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_m_dtebell():
    proc = run_python("-W", "default", "-m", "dtebell", "scales", "--json")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)
