"""Command-line front end.

Config files are INI-style key-value documents in lab units (mG, Bohr
magneton, Bohr radius, nK, ms, um, degrees); unknown sections or keys are
rejected, and anything omitted falls back to the bundled lithium-6
scenario (data/paper-li6.cfg).  Units are converted to SI once at
ingestion.

Machine output goes to stdout, human-readable summaries and reports to
stderr.  Analysis commands (scan, bell, montecarlo) share one CSV schema,
RESULT_COLUMNS: inputs echoed first, then P_pp, P_pm, P_mp, P_mm, E, V,
S, stderr, error - cells that do not apply stay empty.  The feasibility
frontier has its own schema, FEASIBILITY_COLUMNS.  Floats are written
with repr, so every emitted number parses back to the exact binary value.

bell and montecarlo share one CHSH front end (_chsh_settings, _pair_rows):
the four lengths a a' b b' come from --settings, echoed in the rows
exactly as given, or from the seeded optimizer; a non-finite --settings
length is a usage failure.  Every correlating route reads theta1_deg
(a, a') and theta2_deg (b, b') as the analyzer angles.  Negative numbers
may take exponent form (-5.37e3) on every command.

Exit codes: 0 success, 1 runtime or quadrature failure, 2 config or
usage failure.  Runtime failures include wave packets that are not
separated (DtePair), on every correlating command, and a finite config
whose derived momenta or scales leave the float range; tau and field
scans put such a failure in each row's error cell.  Model warnings (the
library's UserWarnings, such as a separation margin below 10) go to
stderr as one `warning: <message>` line each, once per message per
command, when they are raised.  Identical (config, flags, seed) produce
byte-identical output; --seed overrides the config seed.

main defaults OPENBLAS_NUM_THREADS to 1 when it runs before numpy is
imported: the only BLAS calls are window dot products of at most NODE_CAP
nodes, too small to share between threads, no route calls LAPACK, and
starting OpenBLAS's pool costs CPU in every command that loads numpy.

V is the fringe amplitude of E at the row's settings on every route:
the correlator's own visibility on scan rows, and on the bell summary
row its value at the first pair (a, b).  Monte Carlo summaries carry the
lower bound S_hat/(2*sqrt(2)) instead.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
import warnings
from typing import Optional, Sequence

from .bell import (
    ChshSettings,
    TSIRELSON_BOUND,
    _linspace,
    chsh_value,
    closed_form_correlator,
    crossing_tau,
    feasible,
    optimize_settings,
    periods_above_threshold,
    seed_settings,
    visibility,
)
from .correlation import (
    DtePair,
    InterferometerSetting,
    QuadratureError,
    correlate_closed_form,
    correlate_quadrature,
)
from .dissociation import (
    PHASE_BUDGET,
    distribution_from_scenario,
    phase_stability,
    phi_tau,
)
from .montecarlo import OUTCOMES, RunConfig, estimate_chsh
from .montecarlo import run as run_events
from .scenario import (  # the config names are re-exported for dtebell.cli callers
    BUNDLED_DEFAULTS,
    CONFIG_SCHEMA,
    BelowThresholdError,
    ConfigDocument,
    ConfigError,
    Scenario,
    ValidationError,
    _MAX_EVENTS,
    _MAX_SEED,
    load_config,
    scales_from_scenario,
)

__all__ = [
    "CONFIG_SCHEMA",
    "ConfigDocument",
    "ConfigError",
    "FEASIBILITY_COLUMNS",
    "RESULT_COLUMNS",
    "load_config",
    "main",
]


# --------------------------------------------------------------- CSV output

RESULT_COLUMNS = (
    "source",
    "axis",
    "axis_value",
    "ell1_um",
    "ell2_um",
    "tau_s",
    "theta1_deg",
    "theta2_deg",
    "switch_mode",
    "method",
    "events",
    "seed",
    "discarded",
    "P_pp",
    "P_pm",
    "P_mp",
    "P_mm",
    "E",
    "V",
    "S",
    "stderr",
    "error",
)

FEASIBILITY_COLUMNS = (
    "tau_s",
    "dispersion_product",
    "visibility",
    "lambda_ratio",
    "feasible",
    "periods_above_threshold",
)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _field(value) -> str:
    """One CSV field as csv.writer writes it: _format_cell's text, quoted with
    its quotes doubled where it holds a comma, quote or line break."""
    text = _format_cell(value)
    quoted = any(char in text for char in '",\r\n')
    return '"' + text.replace('"', '""') + '"' if quoted else text


def _write_csv(stream, columns, rows) -> None:
    """The header, then each row of fields (_field) in column order, CRLF
    line endings (RFC 4180); a row is written as it is drawn."""
    for fields in itertools.chain((columns,), rows):
        stream.write(",".join(fields) + "\r\n")


def _row(document: ConfigDocument, source: str, **cells) -> list:
    """The fields of a RESULT_COLUMNS row echoing the document's tau and switch
    mode; rows other than summaries also echo both analyzer angles."""
    inter = document.values["interferometer"]
    angles = () if source.endswith("_summary") else ("theta1_deg", "theta2_deg")
    row = {"source": source, "tau_s": document.get("pulses", "separation_s"),
           "switch_mode": inter["mode"], **{key: inter[key] for key in angles}, **cells}
    return [_field(row.get(name)) for name in RESULT_COLUMNS]


_P_COLUMNS = ("P_pp", "P_pm", "P_mp", "P_mm")  # the P of each of OUTCOMES


# ------------------------------------------------------------------- scales


def _scales_payload(document: ConfigDocument) -> dict:
    scenario = document.to_scenario()
    scales = scales_from_scenario(scenario)
    tau = scenario.pulses.pulse_separation
    report = feasible(scales, tau)
    return {
        "t_cm_s": scales.t_cm,
        "t_rel_s": scales.t_rel,
        "lambda_bar_rel_m": scales.lambda_bar_rel,
        "v_rel_m_per_s": scales.v_rel,
        "sigma_p_cm_si": scales.sigma_p_cm,
        "sigma_p_rel_si": scales.sigma_p_rel,
        "p0_rel_si": scales.p0_rel,
        "tau_s": tau,
        "visibility": visibility(scales, tau),
        "dispersion_product": report.product,
        "lambda_ratio": report.lambda_ratio,
        "feasible": report.feasible,
    }


def cmd_scales(args, stdout, stderr) -> int:
    payload = _scales_payload(load_config(args.config))
    if args.json:
        import json  # only this command writes JSON; the others start without it

        stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    for key, value in payload.items():
        stdout.write(f"{key} = {_format_cell(value)}\n")
    return 0


# --------------------------------------------------------------------- scan

def _pair_for(scenario: Scenario, distribution) -> DtePair:
    """The pair of ``scenario`` with the momentum ``distribution`` that a
    route reads as (pair, s1, s2), so the closed form and the quadrature
    both run its separation check."""
    return DtePair(
        distribution=distribution,
        tau=scenario.pulses.pulse_separation,
        phi_tau=phi_tau(scenario),
        species=scenario.species,
    )


_SCAN_KEYS = {
    "ell1": ("interferometer", "ell1_um"),
    "ell2": ("interferometer", "ell2_um"),
    "tau": ("pulses", "separation_s"),
    "field": ("pulses", "base_field_mG"),
}


def _scan_rows(document: ConfigDocument, base: Optional[DtePair], axis: str,
               method: str, grid):
    """A scan's rows, each made as it is written; the fields that hold for
    the whole scan are formatted once.  The ell axes correlate ``base``;
    the tau and field axes rebuild the pair per row, and its failures
    land in the row's error field."""
    route = correlate_closed_form if method == "closed" else correlate_quadrature
    inter = document.values["interferometer"]
    theta1, theta2 = (math.radians(inter[key]) for key in ("theta1_deg", "theta2_deg"))
    template = _row(document, "scan", axis=axis, method=method,
                    ell1_um=inter["ell1_um"], ell2_um=inter["ell2_um"])
    # the column that echoes the grid value besides axis_value, if any
    echo = {"ell1": "ell1_um", "ell2": "ell2_um", "tau": "tau_s"}.get(axis, "axis_value")
    at, echo, p_pp, error = map(RESULT_COLUMNS.index, ("axis_value", echo, "P_pp", "error"))
    for value in grid:
        row = template.copy()
        row[at] = row[echo] = repr(value)
        ell1 = value if axis == "ell1" else inter["ell1_um"]
        ell2 = value if axis == "ell2" else inter["ell2_um"]
        try:
            pair = base
            if pair is None:
                scenario = document.replace(*_SCAN_KEYS[axis], value).to_scenario()
                pair = _pair_for(scenario, scales_from_scenario(scenario))
            result = route(pair, InterferometerSetting(ell1 / 1e6, theta1),
                           InterferometerSetting(ell2 / 1e6, theta2))
        except (ValidationError, QuadratureError) as exc:
            row[error] = _field(str(exc).replace("\n", " "))
        else:  # P_pp ... P_mm, E, V: no float repr needs quoting
            cells = (*map(result.p.get, OUTCOMES), result.e_value, result.visibility)
            row[p_pp:p_pp + 6] = map(repr, cells)
        yield row


def cmd_scan(args, stdout, stderr) -> int:
    document = load_config(args.config)
    if args.steps < 2:
        raise ConfigError(f"scan needs steps >= 2, got {args.steps}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ConfigError("scan range must be finite")
    if args.start == args.stop:
        raise ConfigError("scan range is degenerate (start == stop)")
    base = None
    if args.axis in ("ell1", "ell2"):
        scenario = document.to_scenario()
        base = _pair_for(scenario, scales_from_scenario(scenario))
    grid = _linspace(args.start, args.stop, args.steps)
    # each row is written as it is computed, so memory does not grow with --steps
    _write_csv(stdout, RESULT_COLUMNS, _scan_rows(document, base, args.axis, args.method, grid))
    return 0


# --------------------------------------------------------------------- bell


_PAIR_NAMES = ("ab", "ab_prime", "a_prime_b", "a_prime_b_prime")


def _chsh_settings(document: ConfigDocument, settings_um):
    """Closed-form correlator of the scenario's pair, the CHSH settings
    to evaluate it at, and the four lengths (um) the rows echo: the
    ``--settings`` lengths exactly if given (the m <-> um round trip is
    lossy), else the ones seeded from the same pair and optimized.
    Lengths are CHSH order a a' b b'; a and a' take the analyzer angle
    theta1_deg, b and b' theta2_deg, and the optimizer moves the lengths
    only.  The lengths are checked before the scenario is built, so that
    they get their usage error."""
    if settings_um is not None and not all(map(math.isfinite, settings_um)):
        raise ConfigError(f"--settings lengths must be finite, got {settings_um}")
    inter = document.values["interferometer"]
    theta1, theta2 = (math.radians(inter[key]) for key in ("theta1_deg", "theta2_deg"))
    scenario = document.to_scenario()
    pair = _pair_for(scenario, scales_from_scenario(scenario))
    correlator = closed_form_correlator(pair)
    if settings_um is None:
        ells = [s.ell for s in seed_settings(pair).as_tuple()]
    else:
        ells = [u / 1e6 for u in settings_um]
    chosen = ChshSettings(*map(InterferometerSetting, ells, (theta1, theta1, theta2, theta2)))
    if settings_um is not None:
        return correlator, chosen, settings_um
    chosen = optimize_settings(correlator, chosen).settings
    return correlator, chosen, [s.ell * 1e6 for s in chosen.as_tuple()]


def _pair_rows(document: ConfigDocument, command: str, um, cells) -> list:
    """The four pair rows in CHSH order (a,b), (a,b'), (a',b), (a',b');
    ``um`` holds the lengths a a' b b' and ``cells`` each pair's other cells."""
    ells = itertools.product(um[:2], um[2:])
    return [
        _row(document, f"{command}_{name}", ell1_um=u1, ell2_um=u2, **more)
        for name, (u1, u2), more in zip(_PAIR_NAMES, ells, cells)
    ]


def cmd_bell(args, stdout, stderr) -> int:
    document = load_config(args.config)
    if args.tau is not None:
        if not (args.tau > 0 and math.isfinite(args.tau)):
            raise ConfigError(f"--tau must be positive and finite, got {args.tau}")
        document = document.replace("pulses", "separation_s", float(args.tau))
    correlator, chosen, um = _chsh_settings(document, args.settings)
    outcome = chsh_value(correlator, chosen)
    results = [correlator(x, y) for x, y, _sign in chosen.pairs()]
    rows = _pair_rows(document, "bell", um, (
        {"method": "closed", "E": r.e_value, **dict(zip(_P_COLUMNS, map(r.p.get, OUTCOMES)))}
        for r in results
    ))
    rows.append(
        _row(document, "bell_summary", method="optimize" if args.optimize else "settings",
             S=outcome.s_value, V=outcome.visibility)
    )
    _write_csv(stdout, RESULT_COLUMNS, rows)
    ells = ", ".join(f"{s.ell * 1e6:.6f}" for s in chosen.as_tuple())
    stderr.write(
        f"S = {outcome.s_value:.6f}\n"
        f"violated = {_format_cell(outcome.violated)}\n"
        f"visibility = {outcome.visibility:.6f}\n"
        f"margin = {outcome.margin:.6f}\n"
        f"settings ell (um) = {ells}\n"
    )
    return 0


# --------------------------------------------------------------- montecarlo


def cmd_montecarlo(args, stdout, stderr) -> int:
    document = load_config(args.config)
    if args.events is not None:
        if not 1 <= args.events < _MAX_EVENTS:
            raise ConfigError(f"--events must be from 1 to 2**63 - 1, got {args.events}")
        document = document.replace("run", "events", int(args.events))
    if args.seed is not None:
        if not 0 <= args.seed < _MAX_SEED:
            raise ConfigError(f"--seed must fit in 64 bits, got {args.seed}")
        document = document.replace("run", "seed", int(args.seed))
    correlator, chosen, um = _chsh_settings(document, args.settings)
    mode = document.get("interferometer", "mode")
    config = RunConfig(
        events_per_setting=document.events,
        seed=document.seed,
        mode=mode,
        settings=chosen,
    )
    table = run_events(correlator, config)
    estimate = estimate_chsh(table)

    run_cells = {"method": "montecarlo", "events": config.events_per_setting,
                 "seed": config.seed}
    rows = _pair_rows(document, "montecarlo", um, (
        {"discarded": table.discarded[i], "stderr": estimate.e_stderr[i], **run_cells,
         "E": estimate.e_values[i],
         **{name: table.count(i, outcome) / table.kept(i)
            for name, outcome in zip(_P_COLUMNS, OUTCOMES)}}
        for i in range(4)
    ))
    rows.append(
        _row(document, "montecarlo_summary", S=estimate.s_value,
             V=estimate.visibility, stderr=estimate.stderr, **run_cells)
    )
    _write_csv(stdout, RESULT_COLUMNS, rows)
    stderr.write(
        f"S_hat = {estimate.s_value:.6f} +- {estimate.stderr:.6f}\n"
        f"violated = {_format_cell(estimate.violated)}\n"
        f"events per setting = {config.events_per_setting}, seed = {config.seed}, "
        f"mode = {mode}\n"
    )
    if estimate.exceeds_tsirelson:
        stderr.write(
            f"note: S_hat exceeds 2*sqrt(2) = {TSIRELSON_BOUND:.6f}, "
            "a finite-sample fluctuation\n"
        )
    return 0


# -------------------------------------------------------------- feasibility


def cmd_feasibility(args, stdout, stderr) -> int:
    document = load_config(args.config)
    if args.steps < 2:
        raise ConfigError(f"sweep needs steps >= 2, got {args.steps}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ConfigError("sweep range must be finite")
    if args.start < 0 or args.stop <= args.start:
        raise ConfigError("sweep range must satisfy 0 <= start < stop")
    if not (args.stability_rel >= 0 and math.isfinite(args.stability_rel)):
        raise ConfigError(f"--stability-rel must be finite and >= 0, got {args.stability_rel}")
    scenario = document.to_scenario()
    scales = scales_from_scenario(scenario)

    rows = []  # FEASIBILITY_COLUMNS
    for tau in _linspace(args.start, args.stop, args.steps):
        report = feasible(scales, tau)
        rows.append(list(map(_field, (
            tau, report.product, visibility(scales, tau), report.lambda_ratio,
            report.feasible, periods_above_threshold(scales, tau),
        ))))
    crossing = crossing_tau(scales)  # refused before the table is written
    _write_csv(stdout, FEASIBILITY_COLUMNS, rows)

    if args.start < crossing <= args.stop:
        stderr.write(f"visibility crosses 1/sqrt(2) at tau = {crossing:.6f} s\n")
    else:
        stderr.write("visibility does not cross 1/sqrt(2) inside the sweep range\n")

    tau0 = scenario.pulses.pulse_separation
    stderr.write(
        f"at tau = {tau0:g} s: visibility = {visibility(scales, tau0):.6f}, "
        f"fringe periods above threshold = {periods_above_threshold(scales, tau0):.3f}\n"
    )

    stability = phase_stability(scenario, relative_errors=args.stability_rel)
    stderr.write(
        f"phase stability at relative error {args.stability_rel:g} "
        f"(budget {PHASE_BUDGET:g} rad):\n"
    )
    for name in sorted(stability.drifts):
        verdict = "pass" if stability.passes[name] else "FAIL"
        stderr.write(
            f"  {name}: drift {stability.drifts[name]:.3e} rad  {verdict}\n"
        )
    stderr.write(
        f"  total (quadrature sum): {stability.total:.3e} rad  "
        f"{'pass' if stability.total <= PHASE_BUDGET else 'FAIL'}\n"
    )
    stderr.write(
        f"  common-mode field drift: {stability.common_mode_field_drift:.1e} rad "
        "(base field and resonance position move together)\n"
    )

    if args.source_model_check:
        pair = _pair_for(scenario, distribution_from_scenario(scenario))
        # the fringe amplitude of the true two-pulse source at the
        # envelope center
        half = 0.5 * tau0 * scales.v_rel
        amplitude = correlate_quadrature(
            pair, InterferometerSetting(ell=half), InterferometerSetting(ell=-half)
        ).visibility
        gaussian_v = visibility(scales, tau0)
        stderr.write(
            f"two-pulse source fringe amplitude at center: {amplitude:.6f} "
            f"(Gaussian-model visibility {gaussian_v:.6f}); "
            f"violation needs > {1.0 / math.sqrt(2.0):.6f}\n"
        )
    return 0


# --------------------------------------------------------------------- main


# Python 3.11's argparse reads only plain decimals as negative numbers, so
# -5.37e3 or -inf would parse as an option flag
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtebell",
        description="Dissociation-time-entanglement Bell test toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("config", nargs="?", default=None,
                       help="config file (defaults to the bundled scenario)")

    p_scales = sub.add_parser("scales", help="dispersion times, fringe scales, visibility")
    add_config(p_scales)
    p_scales.add_argument("--json", action="store_true", help="machine-readable output")
    p_scales.set_defaults(func=cmd_scales)

    p_scan = sub.add_parser("scan", help="correlation scan along one axis (CSV)")
    add_config(p_scan)
    p_scan.add_argument("--axis", required=True, choices=tuple(_SCAN_KEYS))
    p_scan.add_argument("--start", required=True, type=float,
                        help="first grid value (um for ell axes, s for tau, mG for field)")
    p_scan.add_argument("--stop", required=True, type=float)
    p_scan.add_argument("--steps", required=True, type=int)
    p_scan.add_argument("--method", default="closed", choices=("closed", "quad"))
    p_scan.set_defaults(func=cmd_scan)

    p_bell = sub.add_parser("bell", help="CHSH verdict (CSV + summary)")
    add_config(p_bell)
    group = p_bell.add_mutually_exclusive_group(required=True)
    group.add_argument("--optimize", action="store_true",
                       help="seed from the fringe phase and optimize the four lengths")
    group.add_argument("--settings", type=float, nargs=4, metavar=("A", "AP", "B", "BP"),
                       help="four arm lengths in um, CHSH order a a' b b'")
    p_bell.add_argument("--tau", type=float, default=None,
                        help="override the pulse separation, s")
    p_bell.set_defaults(func=cmd_bell)

    p_mc = sub.add_parser("montecarlo", help="finite-statistics run (CSV + summary)")
    add_config(p_mc)
    p_mc.add_argument("--events", type=int, default=None, help="override run.events")
    p_mc.add_argument("--seed", type=int, default=None, help="override run.seed")
    p_mc.add_argument("--settings", type=float, nargs=4, metavar=("A", "AP", "B", "BP"),
                      help="four arm lengths in um (default: optimized)")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_feas = sub.add_parser("feasibility", help="violation frontier sweep (CSV + report)")
    add_config(p_feas)
    p_feas.add_argument("--start", type=float, default=0.0)
    p_feas.add_argument("--stop", type=float, default=3.0)
    p_feas.add_argument("--steps", type=int, default=61)
    p_feas.add_argument("--stability-rel", type=float, default=1e-5,
                        help="relative parameter reproducibility for the drift report")
    p_feas.add_argument("--source-model-check", action="store_true",
                        help="also compute the true two-pulse source fringe amplitude "
                             "(slow quadrature)")
    p_feas.set_defaults(func=cmd_feasibility)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _route_model_warnings(stderr) -> None:
    """Within a catch_warnings block: write each UserWarning to ``stderr``
    as one ``warning: <message>`` line, once per message; other warning
    categories keep the handler and filters around the block."""
    shown = set()
    fallback = warnings.showwarning

    def show(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, UserWarning):
            fallback(message, category, filename, lineno, file, line)
        elif str(message) not in shown:
            shown.add(str(message))
            stderr.write(f"warning: {message}\n")

    warnings.simplefilter("always", UserWarning)
    warnings.showwarning = show


def main(argv: Optional[Sequence[str]] = None, stdout=None, stderr=None) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS reads this once, when numpy first loads; a value already set wins
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        _route_model_warnings(stderr)
        try:
            return args.func(args, stdout, stderr)
        except (ConfigError, BelowThresholdError) as exc:
            stderr.write(f"error: {exc}\n")
            return 2
        except (ValidationError, QuadratureError) as exc:
            stderr.write(f"error: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())
