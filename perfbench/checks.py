"""Output checks, one per command kind.

The tolerances are the pinned acceptance ones from the test suite; no
new ones are introduced here.  Each check returns None when the output
is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

FEASIBILITY_COLUMNS = [
    "tau_s", "dispersion_product", "visibility", "lambda_ratio", "feasible",
    "periods_above_threshold",
]
PROBABILITY_COLUMNS = ("P_pp", "P_pm", "P_mp", "P_mm")
AMPLITUDE = re.compile(r"two-pulse source fringe amplitude at center: ([-+0-9.eE]+)")
# BellOutcome's message when a CHSH value exceeds 2*sqrt(2); from a
# finite-sample estimate this is the Tsirelson-guard exit (exit code 1)
TSIRELSON_GUARD = "outside [0, 2*sqrt(2)]"


def _rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _near(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


def _probability_rows(rows: list[dict]) -> str | None:
    """Every row with probabilities sums to 1 within 1e-9; no error cells."""
    if not rows:
        return "no CSV rows"
    for row in rows:
        if row.get("error"):
            return f"row {row.get('axis_value')} has error {row['error']!r}"
        if row.get("P_pp"):
            total = sum(float(row[name]) for name in PROBABILITY_COLUMNS)
            if abs(total - 1.0) > 1e-9:
                return f"{row['source']} probabilities sum to {total!r}"
    return None


def check_rows(stdout: str, stderr: str, expect) -> str | None:
    return _probability_rows(_rows(stdout))


def check_scales(stdout: str, stderr: str, expect) -> str | None:
    payload = json.loads(stdout)
    if not _near(payload["t_cm_s"], 0.64, 0.01):
        return f"t_cm = {payload['t_cm_s']!r}, expected 0.64 +- 0.01 s"
    if not _near(payload["t_rel_s"], 3.4, 0.1):
        return f"t_rel = {payload['t_rel_s']!r}, expected 3.4 +- 0.1 s"
    return None


def check_bell_bundled(stdout: str, stderr: str, expect) -> str | None:
    rows = _rows(stdout)
    reason = _probability_rows(rows)
    if reason:
        return reason
    summary = rows[-1]
    s, v = float(summary["S"]), float(summary["V"])
    if not _near(s, 2.03, 0.005):
        return f"S = {s!r}, expected 2.03 +- 0.005"
    if not _near(v, 0.72, 0.01):
        return f"V = {v!r}, expected 0.72 +- 0.01"
    return None


def check_feasibility(stdout: str, stderr: str, expect) -> str | None:
    reader = csv.reader(io.StringIO(stdout))
    header = next(reader, None)
    if header != FEASIBILITY_COLUMNS:
        return f"feasibility header {header!r}"
    if sum(1 for _ in reader) < 2:
        return "feasibility sweep has fewer than 2 rows"
    return None


def check_source_model(stdout: str, stderr: str, expect) -> str | None:
    reason = check_feasibility(stdout, stderr, expect)
    if reason:
        return reason
    match = AMPLITUDE.search(stderr)
    if match is None:
        return "no source-model fringe amplitude on stderr"
    amplitude = float(match.group(1))
    if not 0.6 < amplitude < 1.0 / math.sqrt(2.0):
        return f"source-model amplitude {amplitude!r} outside (0.6, 1/sqrt(2))"
    return None


def check_montecarlo(stdout: str, stderr: str, expect) -> str | None:
    """Tallies are whole counts that add up to the events per setting."""
    rows = _rows(stdout)
    reason = _probability_rows(rows)
    if reason:
        return reason
    n = expect["events"]
    pairs = [row for row in rows if row["source"] != "montecarlo_summary"]
    if len(pairs) != 4 or len(rows) != 5:
        return f"expected 4 pair rows and a summary, got {len(rows)} rows"
    for row in rows:
        if int(row["events"]) != n or row["switch_mode"] != expect["mode"]:
            return f"{row['source']}: events {row['events']} mode {row['switch_mode']}"
    for row in pairs:
        discarded = int(row["discarded"])
        kept = n - discarded
        if not 0 <= discarded < n or (expect["mode"] == "Switched" and discarded):
            return f"{row['source']}: {discarded} discarded of {n}"
        counts = [float(row[name]) * kept for name in PROBABILITY_COLUMNS]
        if any(abs(c - round(c)) > 1e-6 for c in counts):
            return f"{row['source']}: tallies {counts!r} are not whole counts"
        if sum(round(c) for c in counts) != kept:
            return f"{row['source']}: tallies do not add up to {kept} kept events"
    return None


CHECKS = {
    "rows": check_rows,
    "scales": check_scales,
    "bell_bundled": check_bell_bundled,
    "feasibility": check_feasibility,
    "source_model": check_source_model,
    "montecarlo": check_montecarlo,
}


def classify(command, exit_code: int, stdout: str, stderr: str) -> tuple[str, str | None]:
    """("ok" | "guard" | "bad", reason).

    "guard" is a Monte Carlo estimate stopped by the Tsirelson guard: a
    failed operation, but the documented response of the program.
    Anything else that fails is "bad" and makes the run incorrect.
    """
    if exit_code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        if (
            exit_code == 1
            and command.check == "montecarlo"
            and TSIRELSON_GUARD in last[0]
        ):
            return "guard", last[0]
        return "bad", f"exit {exit_code}: {last[0]}"
    try:
        reason = CHECKS[command.check](stdout, stderr, command.expect)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unparseable output: {exc!r}"
    return ("bad", reason) if reason else ("ok", None)
