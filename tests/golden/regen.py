"""Golden CLI corpus: the stdout, stderr and exit code of small `dtebell` commands.

Each case runs in-process through ``dtebell.cli.main`` from this directory,
so the config paths in ``cfg/`` appear in messages exactly as written here.
argparse's own writes to ``sys.stdout``/``sys.stderr`` and its
``SystemExit`` are captured as well.  ``main`` writes the model's
warnings to stderr itself, as ``warning: <message>`` lines, so they sit
in the stderr section; the warnings section records any Python warning
that escapes ``main`` and is empty in every case.  ``versions.txt``
records the numpy version the corpus was written with; no output
depends on the installed scipy, since the Gauss-Legendre rules are a
bundled table.

Each of the ``demos/*.py`` scripts is a case too (``demo_<name>``), run
in a fresh interpreter from this directory with the package's ``src`` on
``PYTHONPATH``; its stdout, stderr and exit code are recorded.

Rewrite the corpus after an intended change of output:

    PYTHONPATH=src python tests/golden/regen.py

``git diff tests/golden/`` then shows exactly the cells that moved.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import warnings

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

ELL1_WINDOW = ("--start", "5330", "--stop", "5370")
EXAMPLE_SETTINGS = ("5346.82", "5349.92", "-5349.94", "-5346.84")

# case name -> argv after `dtebell`
CASES = {
    "scales_json": ("scales", "--json"),
    "scales_text": ("scales",),
    "feasibility": ("feasibility",),
    "feasibility_source_model": ("feasibility", "--source-model-check"),
    "bell_optimize": ("bell", "--optimize"),
    "bell_optimize_tau_0.8": ("bell", "--optimize", "--tau", "0.8"),
    "bell_settings": ("bell", "--settings", *EXAMPLE_SETTINGS),
    "scan_ell1_closed": ("scan", "--axis", "ell1", *ELL1_WINDOW, "--steps", "5"),
    "scan_ell2_closed": ("scan", "--axis", "ell2", "--start", "-5370", "--stop", "-5330",
                         "--steps", "5"),
    "scan_tau_closed": ("scan", "--axis", "tau", "--start", "0.999", "--stop", "1.001",
                        "--steps", "3"),
    "scan_field_closed": ("scan", "--axis", "field", "--start", "543199.9", "--stop",
                          "543200.1", "--steps", "3"),
    "scan_ell1_quad": ("scan", "--axis", "ell1", *ELL1_WINDOW, "--steps", "50",
                       "--method", "quad"),
    # the wave-packet separation margin warns (5.8x), once per scenario
    "tau008_scan_ell1_quad": ("scan", "cfg/tau008.cfg", "--axis", "ell1", "--start", "425",
                              "--stop", "431", "--steps", "3", "--method", "quad"),
    "tau008_bell_optimize": ("bell", "cfg/tau008.cfg", "--optimize"),
    "montecarlo_switched": ("montecarlo", "--events", "10000"),
    "montecarlo_beamsplitter": ("montecarlo", "cfg/beamsplitter.cfg", "--events", "10000"),
    # 4029.18 um is echoed as given, not as its m <-> um round trip
    "montecarlo_settings": ("montecarlo", "--events", "10", "--seed", "1", "--settings",
                            "4029.18", *EXAMPLE_SETTINGS[1:]),
    # one kept event per pair: E = +-1 with the Wilson standard error 1
    "montecarlo_one_event": ("montecarlo", "--events", "1", "--seed", "3"),
    # a 30-degree analyzer on side 1 scales every fringe by sin 60 degrees
    "theta30_bell": ("bell", "cfg/theta30.cfg", "--optimize"),
    "theta30_scan_ell1_closed": ("scan", "cfg/theta30.cfg", "--axis", "ell1", *ELL1_WINDOW,
                                 "--steps", "5"),
    # failures
    "theta120_scales": ("scales", "cfg/theta120.cfg"),
    "theta120_scan_tau_quad": ("scan", "cfg/theta120.cfg", "--axis", "tau", "--start", "0.9",
                               "--stop", "1.1", "--steps", "3", "--method", "quad"),
    "field543800_scales": ("scales", "cfg/field543800.cfg"),
    "field543800_bell": ("bell", "cfg/field543800.cfg", "--optimize"),
    # wave-packet separation margin 1.17, below the 2x refusal
    "unseparated_bell": ("bell", "cfg/unseparated.cfg", "--optimize"),
    "unseparated_scan_ell1_quad": ("scan", "cfg/unseparated.cfg", "--axis", "ell1", "--start",
                                   "340", "--stop", "350", "--steps", "2", "--method", "quad"),
    "theta225_bell": ("bell", "cfg/theta225.cfg", "--optimize"),
    "bad_flag": ("scales", "--no-such-flag"),
    "malformed_config": ("scales", "cfg/malformed.cfg"),
    "feasibility_negative_stability": ("feasibility", "--stability-rel", "-1"),
    "montecarlo_negative_seed": ("montecarlo", "--events", "100", "--seed", "-3"),
    # a tally is an int64 count: 10**23 events per setting are refused
    "montecarlo_huge_events": ("montecarlo", "--events", "100000000000000000000000"),
    # a phase range past every node cap ends at the ceiling, in the row
    "scan_ell1_quad_huge_phase": ("scan", "--axis", "ell1", "--start", "1e20", "--stop", "2e20",
                                  "--steps", "2", "--method", "quad"),
    # finite lengths and times whose squares overflow a float
    "feasibility_huge_tau": ("feasibility", "--stop", "1e160"),
    "bell_optimize_huge_tau": ("bell", "--optimize", "--tau", "1e200"),
    "scan_tau_huge_closed": ("scan", "--axis", "tau", "--start", "1", "--stop", "1e200",
                             "--steps", "2"),
    "bell_settings_huge_ell": ("bell", "--settings", "1e160", "0", "0", "0"),
    "bell_settings_nan": ("bell", "--settings", "nan", *EXAMPLE_SETTINGS[1:]),
    # finite configs whose source momenta or scales leave the float range
    "tiny_mass_bell": ("bell", "cfg/tiny_mass.cfg", "--optimize"),
    "huge_field_scales": ("scales", "cfg/huge_field.cfg"),
    "soft_trap_feasibility": ("feasibility", "cfg/soft_trap.cfg"),
    "long_pulse_feasibility": ("feasibility", "cfg/long_pulse.cfg"),
}

# case name -> demo script under demos/
DEMOS = {
    f"demo_{script[:-3]}": script
    for script in sorted(os.listdir(os.path.join(ROOT, "demos")))
    if script.endswith(".py")
}


def versions() -> str:
    return f"numpy {numpy.__version__}\n"


def _section(name: str, text: str) -> str:
    return f"--- {name} ({len(text.splitlines())} lines)\n{text}"


def _render_demo(name: str) -> str:
    script = f"demos/{DEMOS[name]}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", DEMOS[name])], cwd=HERE, env=env,
        capture_output=True, encoding="utf-8", timeout=300,
    )
    return (
        f"$ python {script}\nexit {proc.returncode}\n"
        + _section("stdout", proc.stdout)
        + _section("stderr", proc.stderr)
    )


def render(name: str) -> str:
    """Run one case from this directory and render its golden text."""
    if name in DEMOS:
        return _render_demo(name)
    from dtebell.cli import main

    argv = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(list(argv), out, err)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return (
        f"$ dtebell {' '.join(argv)}\nexit {code}\n"
        + _section("stdout", out.getvalue())
        + _section("stderr", err.getvalue())
        + _section("warnings", "".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught))
    )


def path_for(name: str) -> str:
    return os.path.join(HERE, f"{name}.txt")


def main() -> None:
    for name in (*CASES, *DEMOS):
        with open(path_for(name), "w", encoding="utf-8", newline="") as handle:
            handle.write(render(name))
    with open(os.path.join(HERE, "versions.txt"), "w", encoding="utf-8") as handle:
        handle.write(versions())


if __name__ == "__main__":
    sys.exit(main())
