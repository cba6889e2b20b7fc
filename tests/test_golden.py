"""Golden corpus of CLI commands and demos: every case in tests/golden/ must
reproduce byte for byte.

A change that moves output on purpose rewrites the corpus with
`PYTHONPATH=src python tests/golden/regen.py`, so the git diff names the
cells that moved.
"""

import difflib
import importlib.util
import os

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
