"""Golden corpus of CLI commands and demos: every case in tests/golden/ must
reproduce byte for byte.

A change that moves output on purpose rewrites the corpus with
`PYTHONPATH=src python tests/golden/regen.py`, so the git diff names the
cells that moved.
"""

import difflib
import glob
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_spec = importlib.util.spec_from_file_location("golden_regen", os.path.join(GOLDEN, "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _recorded_versions():
    with open(os.path.join(GOLDEN, "versions.txt"), encoding="utf-8") as handle:
        return handle.read()


def _version_note():
    recorded = _recorded_versions().strip().replace("\n", ", ")
    running = regen.versions().strip().replace("\n", ", ")
    return f"corpus recorded with {recorded}, running {running}"


def test_versions_match_corpus():
    assert regen.versions() == _recorded_versions(), _version_note()


def test_every_corpus_file_has_a_case():
    stored = {name[:-4] for name in os.listdir(GOLDEN) if name.endswith(".txt")}
    assert stored - {"versions"} == set(regen.CASES) | set(regen.DEMOS)


@pytest.mark.parametrize("name", sorted((*regen.CASES, *regen.DEMOS)))
def test_golden_case(name):
    with open(regen.path_for(name), encoding="utf-8", newline="") as handle:
        expected = handle.read()
    actual = regen.render(name)
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True), actual.splitlines(keepends=True),
            "golden", "actual",
        ))
        pytest.fail(f"{name} moved ({_version_note()}):\n{diff}")


# Run in each other interpreter, stdlib only: every case of the argv map on
# stdin, in-process from the corpus directory as regen.render runs it.  numpy
# is blocked, so a case that tries to import it is reported as None and the
# rest form the numpy-free case list, whether the interpreter has numpy or not.
CROSS_CHILD = r"""
import contextlib, io, json, sys, warnings

class NoNumpy:
    tried = False

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            NoNumpy.tried = True
            raise ModuleNotFoundError("numpy is blocked", name=name)
        return None

sys.path.insert(0, sys.argv[1])
sys.meta_path.insert(0, NoNumpy())
from dtebell.cli import main

results = {}
for name, argv in json.load(sys.stdin).items():
    NoNumpy.tried = False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv), out, err)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            if not NoNumpy.tried:
                raise
    if NoNumpy.tried:
        results[name] = None
    else:
        warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        results[name] = [code, out.getvalue(), err.getvalue(), warned]
json.dump({"version": list(sys.version_info[:2]), "results": results}, sys.stdout)
"""

# the supported interpreters besides the one running the tests
OTHER_PYTHONS = ("3.10", "3.12", "3.13")


def _version_of(path):
    """[3, 12, 1] for .../versions/3.12.1/bin/python3.12."""
    return [int(part) for part in re.findall(r"\d+", path.split(os.sep)[-3])]


def _other_interpreters():
    """{minor: executable}: pyenv's newest install of each minor version,
    else pythonX.Y on PATH; a version found in neither is left out."""
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    found = {}
    for minor in OTHER_PYTHONS:
        if minor == "%d.%d" % sys.version_info[:2]:
            continue
        installs = glob.glob(os.path.join(pyenv, "versions", f"{minor}.*", "bin", f"python{minor}"))
        exe = max(installs, key=_version_of) if installs else shutil.which(f"python{minor}")
        if exe:
            found[minor] = exe
    return found


def test_numpy_free_cases_are_byte_identical_on_other_interpreters():
    """Identical inputs print identical bytes on every supported Python: the
    corpus cases that load no numpy, run on 3.10, 3.12 and 3.13, reproduce
    their corpus files (float sum() rounds differently from 3.12 on)."""
    pythons = _other_interpreters()
    if not pythons:
        pytest.skip(f"none of Python {', '.join(OTHER_PYTHONS)} found")
    src = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "src")
    cases = json.dumps({name: list(argv) for name, argv in regen.CASES.items()})
    children = {
        minor: subprocess.Popen(
            [exe, "-I", "-B", "-c", CROSS_CHILD, src], cwd=GOLDEN, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8",
        )
        for minor, exe in pythons.items()
    }
    ran, numpy_free = {}, {}
    for minor, child in children.items():
        stdout, stderr = child.communicate(cases, timeout=120)
        if child.returncode == 127:  # a PATH shim whose version is not installed
            continue
        assert child.returncode == 0, f"Python {minor}: {stderr}"
        report = json.loads(stdout)
        assert "%d.%d" % tuple(report["version"]) == minor
        ran[minor] = report["results"]
        numpy_free[minor] = {name for name, result in ran[minor].items() if result is not None}
    if not ran:
        pytest.skip(f"none of Python {', '.join(OTHER_PYTHONS)} runs")
    # one numpy-free case list for every interpreter, derived, not kept by hand
    names = set.union(*numpy_free.values())
    assert all(found == names for found in numpy_free.values()), numpy_free
    assert names
    # the Monte Carlo sampler and estimate_chsh run on the standard library
    assert {name for name in regen.CASES if name.startswith("montecarlo_")} <= names
    moved = []
    for minor, results in ran.items():
        for name in sorted(names):
            with open(regen.path_for(name), encoding="utf-8", newline="") as handle:
                expected = handle.read()
            if regen.render_case(regen.CASES[name], *results[name]) != expected:
                moved.append(f"{name} on Python {minor}")
    assert not moved, moved
