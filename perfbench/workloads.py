"""Seeded command plans for the three benchmark workloads.

A plan is the list of `dtebell` invocations one pass of a workload makes,
in order.  Every argument and every generated config file is drawn from
``random.Random`` keyed by the workload name and the seed, so one seed
always gives the same plan, byte for byte.  Monte Carlo seeds are drawn
like every other input, never picked by hand.

Each command names the output check that applies to it (see checks.py).
A command listed twice with identical inputs must print identical stdout;
the runner enforces that, so each plan repeats one cheap command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

# bundled interferometer arm (um) and the CLI example's CHSH lengths (um)
ELL1_UM = 5349.3635026632135
EXAMPLE_SETTINGS_UM = (5346.82, 5349.92, -5349.94, -5346.84)

# ru_maxrss of a bulk run must be set by the event arrays, not by the
# ~490 MB source build: at 2e7 events per setting it is (747 MB Switched,
# 901 MB BeamSplitter); at 1e7 the source build still sets it
BULK_EVENTS = 20_000_000
SMALL_EVENTS = (5, 10, 20)
SMALL_RUNS_PER_SIZE = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv after `dtebell`, and how to check it."""

    argv: tuple[str, ...]
    check: str
    expect: Mapping[str, object] = field(default_factory=dict)
    configs: Mapping[str, str] = field(default_factory=dict)  # path -> text


def _num(value: float, digits: int = 4) -> str:
    return repr(round(value, digits))


def design(rng: random.Random, inputs: str) -> list[Command]:
    """Design loop: import and source builds, no quadrature, no Monte Carlo.

    `scan --axis tau` rebuilds the same distribution on every row (tau
    does not enter it); `scan --axis field` builds a different one per
    row, so caching and a faster normalization show differently.
    """
    taus = [rng.uniform(0.7, 1.3) for _ in range(2)]
    jittered = [
        [u + rng.uniform(-0.5, 0.5) for u in EXAMPLE_SETTINGS_UM] for _ in range(2)
    ]
    tau_start = rng.uniform(0.6, 0.9)
    tau_stop = tau_start + rng.uniform(0.3, 0.5)
    # the field must stay above the dissociation threshold (~543180 mG)
    field_start = rng.uniform(543185.0, 543215.0)
    field_stop = field_start + rng.uniform(10.0, 25.0)
    centre = ELL1_UM + rng.uniform(-5.0, 5.0)
    half_width = rng.uniform(15.0, 25.0)
    scales = Command(("scales", "--json"), "scales")
    return [
        scales,
        Command(("feasibility",), "feasibility"),
        Command(("bell", "--optimize"), "bell_bundled"),
        *(Command(("bell", "--optimize", "--tau", _num(t)), "rows") for t in taus),
        *(
            Command(("bell", "--settings", *(_num(u) for u in lengths)), "rows")
            for lengths in jittered
        ),
        Command(
            ("scan", "--axis", "tau", "--start", _num(tau_start), "--stop",
             _num(tau_stop), "--steps", "4"),
            "rows",
        ),
        Command(
            ("scan", "--axis", "field", "--start", _num(field_start, 2), "--stop",
             _num(field_stop, 2), "--steps", "4"),
            "rows",
        ),
        Command(
            ("scan", "--axis", "ell1", "--start", _num(centre - half_width),
             "--stop", _num(centre + half_width), "--steps", "10000"),
            "rows",
        ),
        scales,
    ]


def source_model(rng: random.Random, inputs: str) -> list[Command]:
    """Quadrature in `correlation`, both routes.

    The source-model check runs 8 sinc^2 quadratures; centre phases stop
    at refinement level 1 and off-centre ones escalate to level 2.  tau
    stays at the bundled value because escalation makes the check cost
    5.5 s at tau = 0.8 s and 23.5 s at tau = 1.0 s.  The Gaussian route
    runs as a long `scan --method quad`, listed twice so its digest is
    compared.
    """
    centre = ELL1_UM + rng.uniform(-5.0, 5.0)
    half_width = rng.uniform(15.0, 25.0)
    scan = Command(
        ("scan", "--axis", "ell1", "--start", _num(centre - half_width), "--stop",
         _num(centre + half_width), "--steps", "4000", "--method", "quad"),
        "rows",
    )
    return [Command(("feasibility", "--source-model-check"), "source_model"), scan, scan]


def finite_stats(rng: random.Random, inputs: str) -> list[Command]:
    """Bulk Monte Carlo in both modes plus small runs at N = 5, 10, 20.

    Bulk runs measure per-event cost and memory.  Small runs measure
    per-invocation cost and hit the Tsirelson guard (exit 1) at the rate
    their drawn seeds give; those exits count as failed operations.
    """
    config_path = f"{inputs}/beamsplitter.cfg"
    config_text = (
        "[interferometer]\nmode = BeamSplitter\n\n"
        f"[run]\nevents = {BULK_EVENTS}\nseed = {rng.randrange(2**32)}\n"
    )
    commands = [
        Command(
            ("montecarlo", "--events", str(BULK_EVENTS), "--seed",
             str(rng.randrange(2**32))),
            "montecarlo",
            {"events": BULK_EVENTS, "mode": "Switched"},
        ),
        Command(
            ("montecarlo", config_path),
            "montecarlo",
            {"events": BULK_EVENTS, "mode": "BeamSplitter"},
            {config_path: config_text},
        ),
    ]
    for events in SMALL_EVENTS:
        for _ in range(SMALL_RUNS_PER_SIZE):
            commands.append(
                Command(
                    ("montecarlo", "--events", str(events), "--seed",
                     str(rng.randrange(2**32))),
                    "montecarlo",
                    {"events": events, "mode": "Switched"},
                )
            )
    commands.append(commands[2])
    return commands


WORKLOADS = {
    "design": design,
    "source-model": source_model,
    "finite-stats": finite_stats,
}


def plan(workload: str, seed: int, inputs: str) -> list[Command]:
    """The command list of one pass; ``inputs`` is where configs go."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), inputs)
