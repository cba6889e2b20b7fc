"""Child side of a traced benchmark command.

Runs one `dtebell` command the way the plain child does, but first wraps
the public functions of each dtebell module.  A wrapper replaces the
function in every dtebell namespace that holds it: its defining module,
`dtebell.cli` (which imports names such as `distribution_from_scenario`
and `correlate_quadrature` directly) and the package itself.  Each call
records a span {name, parent, t0, dur} in memory; the spans and the
counters are written as JSON lines when the command ends.

Span names are "<layer>.<function>", one layer per module.  Helpers that
run inside every closed-form evaluation (`closed_form_parts`,
`derive_scales`) are left unwrapped, so that a span's own cost is not
paid twice per evaluation; their time is part of the calling span.

This module imports only the standard library, so that `cli.import`
measures the cost of importing dtebell alone.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# (layer, module, function)
WRAPPED = (
    ("scenario", "dtebell.cli", "load_config"),
    ("scenario", "dtebell.scenario", "scales_from_scenario"),
    ("scenario", "dtebell.scenario", "reference_scenario"),
    ("dissociation", "dtebell.dissociation", "distribution_from_scenario"),
    ("dissociation", "dtebell.dissociation", "gaussian_approximation"),
    ("dissociation", "dtebell.dissociation", "phi_tau"),
    ("dissociation", "dtebell.dissociation", "phase_stability"),
    ("correlation", "dtebell.correlation", "correlate_closed_form"),
    ("correlation", "dtebell.correlation", "correlate_quadrature"),
    ("correlation", "dtebell.correlation", "fringe_phase"),
    ("bell", "dtebell.bell", "seed_settings"),
    ("bell", "dtebell.bell", "optimize_settings"),
    ("bell", "dtebell.bell", "chsh_value"),
    ("bell", "dtebell.bell", "closed_form_correlator"),
    ("bell", "dtebell.bell", "feasible"),
    ("bell", "dtebell.bell", "visibility"),
    ("bell", "dtebell.bell", "periods_above_threshold"),
    ("montecarlo", "dtebell.montecarlo", "run"),
    ("montecarlo", "dtebell.montecarlo", "estimate_chsh"),
)


def _pair(args, kwargs):
    return args[0] if args else kwargs["pair"]


def _is_sinc2(args, kwargs) -> bool:
    return type(_pair(args, kwargs).distribution).__name__ == "FeshbachDistribution"


# calls that also record their tracemalloc peak; tracing every allocation
# of a Gaussian-route quadrature would cost more than the call itself
PEAK = {
    "distribution_from_scenario": lambda args, kwargs: True,
    "correlate_quadrature": _is_sinc2,
    "run": lambda args, kwargs: True,
}


def _attributes(function: str, args, kwargs, result) -> dict:
    """Counters read at the span boundary from arguments and results."""
    if function == "distribution_from_scenario":
        return {"panels": result.rel_panel_edges([0.0]).shape[1] - 1}
    if function == "correlate_quadrature":
        return {
            "route": type(_pair(args, kwargs).distribution).__name__,
            "estimate": result.quadrature_error_estimate,
        }
    if function == "optimize_settings":
        return {"sweeps": result.sweeps}
    if function == "run":
        config = args[1] if len(args) > 1 else kwargs["config"]
        return {"events": 4 * config.events_per_setting, "mode": config.mode}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters = {"correlator_evals": 0}

    def span(self, name: str, function, peak=None, attributes=None):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record = {
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "t0": 0.0,
                "dur": 0.0,
            }
            self.stack.append(len(self.spans))
            self.spans.append(record)
            track = (
                peak is not None and peak(args, kwargs) and not tracemalloc.is_tracing()
            )
            if track:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                record["raised"] = type(exc).__name__
                raise
            finally:
                record["t0"] = start - self.origin
                record["dur"] = time.perf_counter() - start
                if track:
                    record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self.stack.pop()
            if attributes is not None:
                record.update(attributes(args, kwargs, result))
            return result

        return wrapper

    def counted_correlator(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            correlator = factory(*args, **kwargs)

            def counted(s1, s2):
                self.counters["correlator_evals"] += 1
                return correlator(s1, s2)

            return counted

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "dtebell" or name.startswith("dtebell.")]
        for layer, module_name, function in WRAPPED:
            original = getattr(sys.modules[module_name], function)
            wrapped = original
            if function == "closed_form_correlator":
                wrapped = self.counted_correlator(wrapped)
            wrapped = self.span(
                f"{layer}.{function}",
                wrapped,
                peak=PEAK.get(function),
                attributes=lambda a, k, r, f=function: _attributes(f, a, k, r),
            )
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        document = sys.modules["dtebell.cli"].ConfigDocument
        document.to_scenario = self.span("scenario.to_scenario", document.to_scenario)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"counters": self.counters}) + "\n")


def main(spans_path: str) -> int:
    """Import dtebell, wrap it, run the command in sys.argv, write spans."""
    tracer = Tracer()
    start = time.perf_counter()
    import dtebell.cli

    tracer.spans.append(
        {"name": "cli.import", "parent": None, "t0": start - tracer.origin,
         "dur": time.perf_counter() - start}
    )
    tracer.install()
    cli_main = tracer.span("cli.main", dtebell.cli.main)
    try:
        return cli_main(sys.argv[1:])
    finally:
        tracer.write(spans_path)
