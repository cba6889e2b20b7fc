"""Process-level behaviour: what `import dtebell` loads, `python -m dtebell`, the demos,
and the names the package and its benchmark tracer rely on."""

import glob
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

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


def test_cli_import_leaves_concurrent_futures_unloaded():
    code = (
        "import sys, dtebell.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'concurrent'])"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    proc = run_python(demo)
    assert proc.returncode == 0, proc.stderr


def test_python_m_dtebell():
    proc = run_python("-W", "default", "-m", "dtebell", "scales", "--json")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)


def _scipy_modules_after(*argv):
    """Run one CLI command in a fresh interpreter; list the scipy modules it loaded."""
    code = (
        "import io, json, sys; from dtebell.cli import main; "
        f"rc = main({list(argv)!r}, stdout=io.StringIO(), stderr=io.StringIO()); "
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout)
    assert rc == 0
    return modules


def test_bell_optimize_leaves_scipy_optimize_unloaded():
    # nor any other scipy module: the optimizer is in-package
    assert _scipy_modules_after("bell", "--optimize") == []


def test_scales_and_feasibility_load_no_scipy():
    assert _scipy_modules_after("scales", "--json") == []
    assert _scipy_modules_after("feasibility") == []


def test_package_source_never_names_scipy_optimize():
    # scipy.optimize serves only as a test oracle
    sources = glob.glob(os.path.join(SRC, "dtebell", "**", "*.py"), recursive=True)
    assert sources
    offenders = [
        path for path in sources
        if "scipy.optimize" in open(path, encoding="utf-8").read()
    ]
    assert offenders == []


def test_montecarlo_loads_no_scipy():
    assert _scipy_modules_after("montecarlo", "--events", "5", "--seed", "1") == []


def test_public_names_import():
    for name in dtebell.__all__:
        assert hasattr(dtebell, name), name


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracer.py wraps these by name; a missing one stops every traced run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _layer, module, function in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(module), function, None)), (
            f"{module}.{function}"
        )
    assert callable(importlib.import_module("dtebell.cli").ConfigDocument.to_scenario)


def _traced_run(tmp_path, *argv):
    """Run one CLI command under perfbench/tracer.py; return (spans, counters)."""
    spans_path = tmp_path / f"spans-{argv[0]}.jsonl"
    code = (
        f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r}); "
        f"import tracer; sys.exit(tracer.main({str(spans_path)!r}))"
    )
    proc = run_python("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in spans_path.read_text().splitlines()]
    return records[:-1], records[-1]["counters"]


def test_benchmark_tracer_records_both_routes(tmp_path):
    # the traced benchmark reads these spans and counters; a signature the
    # tracer no longer fits would zero them without failing the run
    spans, counters = _traced_run(tmp_path, "bell", "--optimize")
    quad_spans, _ = _traced_run(
        tmp_path, "scan", "--axis", "ell1", "--start", "5340", "--stop", "5360",
        "--steps", "3", "--method", "quad",
    )
    names = [span["name"] for span in spans + quad_spans]
    assert "correlation.correlate_closed_form" in names
    assert "correlation.correlate_quadrature" in names
    assert counters["correlator_evals"] > 0
