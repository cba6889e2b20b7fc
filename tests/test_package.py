"""Process-level behaviour: what `import dtebell` loads, `python -m dtebell`, the demos,
and the names the package and its benchmark tracer rely on."""

import ast
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


def run_python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
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


def test_quadrature_routes_load_no_scipy():
    # the Gauss-Legendre rules are a bundled table
    assert _scipy_modules_after(
        "scan", "--axis", "ell1", "--start", "5340", "--stop", "5360", "--steps", "3",
        "--method", "quad",
    ) == []
    assert _scipy_modules_after("feasibility", "--source-model-check") == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_never_imports_scipy():
    # scipy serves only as a test oracle
    offenders = [
        f"{name}: {module}" for name, tree in _package_trees()
        for module in _imported_modules(tree) if module.split(".")[0] == "scipy"
    ]
    assert offenders == []


def test_montecarlo_loads_no_scipy():
    assert _scipy_modules_after("montecarlo", "--events", "5", "--seed", "1") == []


CLOSED_COMMANDS = (
    ("scales", "--json"),
    ("feasibility",),
    ("bell", "--optimize"),
    ("bell", "--settings", "5346.82", "5349.92", "-5349.94", "-5346.84"),
    ("scan", "--axis", "ell1", "--start", "5330", "--stop", "5370", "--steps", "5"),
    ("scan", "--axis", "ell2", "--start", "-5370", "--stop", "-5330", "--steps", "5"),
    ("scan", "--axis", "tau", "--start", "0.999", "--stop", "1.001", "--steps", "3"),
    ("scan", "--axis", "field", "--start", "543199.9", "--stop", "543200.1", "--steps", "3"),
)


def _numpy_loaded_after(*commands):
    """In one fresh interpreter: import dtebell, then dtebell.cli, then run each
    command; return [step, exit code or None, numpy loaded] after every step."""
    code = (
        "import io, json, sys\n"
        "steps = []\n"
        "import dtebell\n"
        "steps.append(['import dtebell', None, 'numpy' in sys.modules])\n"
        "from dtebell.cli import main\n"
        "steps.append(['import dtebell.cli', None, 'numpy' in sys.modules])\n"
        f"for argv in {[list(c) for c in commands]!r}:\n"
        "    rc = main(argv, stdout=io.StringIO(), stderr=io.StringIO())\n"
        "    steps.append([' '.join(argv), rc, 'numpy' in sys.modules])\n"
        "print(json.dumps(steps))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_routes_load_no_numpy():
    steps = _numpy_loaded_after(*CLOSED_COMMANDS)
    assert len(steps) == 2 + len(CLOSED_COMMANDS)
    assert [step for step in steps if step[1] not in (None, 0)] == []
    assert [step[0] for step in steps if step[2]] == []


@pytest.mark.parametrize("argv", [
    ("scan", "--axis", "ell1", "--start", "5340", "--stop", "5360", "--steps", "3",
     "--method", "quad"),
    ("montecarlo", "--events", "5"),
], ids=["scan_quad", "montecarlo"])
def test_array_routes_load_numpy(argv):
    # the probe itself sees numpy once a route builds arrays
    *_, (_, rc, loaded) = _numpy_loaded_after(argv)
    assert (rc, loaded) == (0, True)


def _imports_outside_functions(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _imports_outside_functions(child)


def test_package_modules_import_no_numpy_or_scipy_at_top_level():
    # numpy and scipy are imported inside the functions that build arrays
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "dtebell", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in _imports_outside_functions(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module] if node.level == 0 else []
            if any(name.split(".")[0] in ("numpy", "scipy") for name in names):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert offenders == []


QUADRATURE_CONSTANTS = {
    "U_ROWS_PER_BLOCK", "WINDOW_SIGMAS", "MIN_NODES", "MAX_NODES", "PANEL_NODE_CAP", "MAX_LEVEL",
}
QUADRATURE_DEFINITIONS = {
    "QuadratureError", "_gauss_legendre", "_converge", "_rate_corrected", "_quadratic_span",
    "_node_count", "_window_integral", "_line_values", "_cm_window", "_tail_cut",
    "_pair_integral", "_internal_units", "_gaussian_interference", "_feshbach_interference",
    "_interference",
}


def _package_trees():
    for path in sorted(glob.glob(os.path.join(SRC, "dtebell", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            yield os.path.basename(path), ast.parse(handle.read(), filename=path)


def _defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_only_the_quadrature_module_defines_the_engine():
    # the node, level and window policy and the engine live in one module
    engine = QUADRATURE_CONSTANTS | QUADRATURE_DEFINITIONS
    defined = {name: set(_defined_names(tree)) & engine for name, tree in _package_trees()}
    assert defined.pop("_quadrature.py") == engine
    assert {name: names for name, names in defined.items() if names} == {}


def _text(node):
    """The literal text of a string or f-string node; "" for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(map(_text, node.values))
    return ""


def _raises_validation_error(text):
    def match(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ValidationError"
                and any(text in _text(arg) for arg in node.args))
    return match


def _sites(match):
    """(module, enclosing function or None) of every node ``match`` accepts."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if match(child):
                yield function
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            yield from walk(child, inner)
    return [(name, function) for name, tree in _package_trees() for function in walk(tree, None)]


# each input rule and the one place that states it
INPUT_RULES = {
    "positive and finite": (
        _raises_validation_error("must be positive and finite"),
        ("scenario.py", "_require_positive"),
    ),
    "dispersion tau >= 0": (
        _raises_validation_error("tau must be >= 0"), ("scenario.py", "_dispersion_factors"),
    ),
    "analyzer angle in [0, pi/2]": (
        lambda node: isinstance(node, ast.Compare)
        and ast.unparse(node.comparators[-1]) == "math.pi / 2.0",
        ("scenario.py", "_theta_in_range"),
    ),
    "64-bit seed": (
        lambda node: isinstance(node, ast.BinOp) and ast.unparse(node) == "2 ** 64",
        ("scenario.py", None),
    ),
    "int64 event count": (
        lambda node: isinstance(node, ast.BinOp) and ast.unparse(node) == "2 ** 63",
        ("scenario.py", None),
    ),
    "switch modes": (
        lambda node: isinstance(node, ast.Tuple)
        and {"Switched", "BeamSplitter"} <= set(map(_text, node.elts)),
        ("scenario.py", None),
    ),
    "switch mode check": (
        _raises_validation_error("mode must be one of"), ("montecarlo.py", "_require_mode"),
    ),
}


@pytest.mark.parametrize("rule", sorted(INPUT_RULES))
def test_each_input_rule_is_written_once(rule):
    # the CLI's --tau usage error names its flag and is a ConfigError, so it is not counted
    match, home = INPUT_RULES[rule]
    assert _sites(match) == [home]


def test_quadrature_module_imports():
    # what each model module reads of the engine, and no cycle back into it
    imported, lazy = {}, []
    for name, tree in _package_trees():
        top = set(_imports_outside_functions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node not in top:
                    lazy.append(f"{name}:{node.lineno}")
                imported.setdefault(name, {})[node.module] = {a.name for a in node.names}
    assert imported["correlation.py"]["_quadrature"] == {
        "QuadratureError", "_converge", "_interference",
    }
    assert imported["dissociation.py"]["_quadrature"] == {"_converge", "_pair_integral"}
    assert set(imported["_quadrature.py"]) == {"scenario"}
    assert lazy == []


def test_cli_warning_is_one_line_without_path(tmp_path):
    # the separation margin at tau = 0.065 s is 4.8, below the 10x warning level
    errs = []
    for name in ("one", "two"):
        cwd = tmp_path / name
        cwd.mkdir()
        proc = run_python("-m", "dtebell", "bell", "--optimize", "--tau", "0.065", cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    lines = errs[0].splitlines()
    assert lines[0] == "warning: wave-packet separation margin is only 4.8x"
    assert lines[1].startswith("S = ")
    assert [line for line in lines if "warning" in line.lower()] == lines[:1]
    assert ".py" not in errs[0] and "DtePair(" not in errs[0] and os.sep not in errs[0]


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
