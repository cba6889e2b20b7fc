"""End-to-end and per-layer benchmark of the `dtebell` command line.

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it needs `src/dtebell` beside the
`perfbench` directory and exits with code 2 without it.  Each command
of the workload's seeded plan (workloads.py) runs in its own fresh
interpreter, `python -c` calling `dtebell.cli.main` with PYTHONPATH=src,
one after another from this process: a closed loop with one client.
Outputs are checked (checks.py), and stdout digests of commands repeated
with identical inputs must agree.

With --trace 0 the plan is run in whole passes until --seconds would be
exceeded (at least one pass) and the end-to-end metrics are reported.
With --trace 1 one plain pass and one traced pass (tracer.py) are run
and the per-layer metrics are reported.  Either way the last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
inputs, per-command records and spans are kept under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 120.0

PLAIN_CHILD = "import sys; from dtebell.cli import main; sys.exit(main())"
TRACED_CHILD = "import sys; sys.path.insert(0, {here!r}); import tracer; sys.exit(tracer.main({spans!r}))"
SETUP_CHILD = (
    "import time; start = time.perf_counter(); import dtebell; "
    "dtebell.load_config(None).to_scenario(); elapsed = time.perf_counter() - start; "
    "import json, sys, numpy, scipy; print(json.dumps({'setup_s': elapsed, "
    "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__}))"
)

# metric names and units are those BENCHMARK.json lists
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# machine-independent counters: equal on every traced run of one plan
EXACT = (
    "cli.commands", "scenario.calls", "dissociation.builds", "dissociation.panels",
    "correlation.closed_form_calls", "correlation.quad_gauss_calls",
    "correlation.quad_sinc2_calls", "correlation.quad_estimate_max",
    "bell.correlator_evals", "bell.sweeps", "montecarlo.events",
    "montecarlo.estimate_failures",
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed command)."""


@dataclass
class Record:
    """One finished child process."""

    index: int
    argv: list
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout_sha256: str
    status: str = "ok"
    reason: str | None = None


def run_child(code: str, argv, stdout_path: Path, stderr_path: Path):
    """Run one interpreter to completion; (exit code, wall, cpu, maxrss MB).

    wait4 gives the child's own rusage, which equals what the child would
    read as RUSAGE_SELF; RUSAGE_CHILDREN is a running maximum over all
    children and cannot isolate one command.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DTEBELL_THREADS", None)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def measure_setup(out: Path) -> list[dict]:
    """Fresh interpreters timing `import dtebell` plus the bundled scenario."""
    samples = []
    for i in range(SETUP_SAMPLES):
        stdout_path, stderr_path = out / f"setup-{i}.stdout", out / f"setup-{i}.stderr"
        exit_code, *_ = run_child(SETUP_CHILD, [], stdout_path, stderr_path)
        if exit_code != 0:
            raise BenchmarkError(
                f"setup child exited {exit_code}: {stderr_path.read_text()[-400:]}"
            )
        samples.append(json.loads(stdout_path.read_text()))
    return samples


def run_pass(commands, out: Path, label: str, traced: bool):
    """Run every command once; (records, wall time of the whole pass)."""
    records = []
    start = time.perf_counter()
    for index, command in enumerate(commands):
        stem = out / f"{label}-{index:02d}"
        code = PLAIN_CHILD
        if traced:
            code = TRACED_CHILD.format(here=str(HERE), spans=str(stem) + ".spans")
        exit_code, wall, cpu, rss = run_child(
            code, command.argv, Path(f"{stem}.stdout"), Path(f"{stem}.stderr")
        )
        digest = hashlib.sha256(Path(f"{stem}.stdout").read_bytes()).hexdigest()
        records.append(Record(index, list(command.argv), traced, exit_code, wall, cpu,
                              rss, digest))
    wall = time.perf_counter() - start
    for record, command in zip(records, commands):
        stem = out / f"{label}-{record.index:02d}"
        record.status, record.reason = checks.classify(
            command,
            record.exit_code,
            Path(f"{stem}.stdout").read_text(encoding="utf-8", errors="replace"),
            Path(f"{stem}.stderr").read_text(encoding="utf-8", errors="replace"),
        )
    return records, wall


def check_digests(commands, records) -> None:
    """A command repeated with identical inputs must print identical stdout."""
    first = {}
    for record in records:
        command = commands[record.index]
        key = (command.argv, tuple(sorted(command.configs.items())))
        expected = first.setdefault(key, record.stdout_sha256)
        if record.stdout_sha256 != expected and record.status != "bad":
            record.status = "bad"
            record.reason = "stdout differs from an earlier run of identical inputs"


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(span_files) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and details for the record.

    Times named per call (build_s, closed_form_us, quad_*, seed_s,
    optimize_s, chsh_s, run_s) are means per call; import_s, self_s and
    load_s are medians over commands; counts are totals over the pass.
    """
    imports, selfs, loads = [], [], []
    by_name = defaultdict(list)
    correlator_evals = 0
    for path in span_files:
        if not Path(path).exists():  # the child was killed; already counted as failed
            continue
        lines = [json.loads(line) for line in Path(path).read_text().splitlines()]
        spans, counters = lines[:-1], lines[-1]["counters"]
        correlator_evals += counters["correlator_evals"]
        main_index = next(i for i, s in enumerate(spans) if s["name"] == "cli.main")
        children = sum(s["dur"] for s in spans if s["parent"] == main_index)
        selfs.append(spans[main_index]["dur"] - children)
        imports.extend(s["dur"] for s in spans if s["name"] == "cli.import")
        loads.append(sum(
            s["dur"] for s in spans
            if s["name"].startswith("scenario.")
            and (s["parent"] is None
                 or not spans[s["parent"]]["name"].startswith("scenario."))
        ))
        for span in spans:
            by_name[span["name"]].append(span)

    builds = by_name["dissociation.distribution_from_scenario"]
    closed = by_name["correlation.correlate_closed_form"]
    quads = by_name["correlation.correlate_quadrature"]
    gauss = [s for s in quads if s["route"] == "GaussianPairDistribution"]
    sinc2 = [s for s in quads if s["route"] == "FeshbachDistribution"]
    runs = by_name["montecarlo.run"]

    def mean_dur(spans):
        return _mean([s["dur"] for s in spans])

    def ns_per_event(spans):
        events = sum(s["events"] for s in spans)
        return sum(s["dur"] for s in spans) / events * 1e9 if events else 0.0

    details = {
        "ns_per_event_by_mode": {
            mode: ns_per_event([s for s in runs if s["mode"] == mode])
            for mode in sorted({s["mode"] for s in runs})
        },
        "quad_sinc2_call_s": [s["dur"] for s in sinc2],
    }
    metrics = {
        "cli.import_s": statistics.median(imports),
        "cli.self_s": statistics.median(selfs),
        "cli.commands": len(selfs),
        "scenario.load_s": statistics.median(loads),
        "scenario.calls": sum(len(v) for k, v in by_name.items() if k.startswith("scenario.")),
        "dissociation.build_s": mean_dur(builds),
        "dissociation.builds": len(builds),
        "dissociation.panels": sum(s["panels"] for s in builds),
        "dissociation.build_peak_mb": max((s["peak_mb"] for s in builds), default=0.0),
        "correlation.closed_form_us": mean_dur(closed) * 1e6,
        "correlation.closed_form_calls": len(closed),
        "correlation.quad_gauss_ms": mean_dur(gauss) * 1e3,
        "correlation.quad_gauss_calls": len(gauss),
        "correlation.quad_sinc2_s": mean_dur(sinc2),
        "correlation.quad_sinc2_calls": len(sinc2),
        "correlation.quad_sinc2_peak_mb": max((s["peak_mb"] for s in sinc2), default=0.0),
        "correlation.quad_estimate_max": max((s["estimate"] for s in quads), default=0.0),
        "bell.seed_s": mean_dur(by_name["bell.seed_settings"]),
        "bell.optimize_s": mean_dur(by_name["bell.optimize_settings"]),
        "bell.chsh_s": mean_dur(by_name["bell.chsh_value"]),
        "bell.correlator_evals": correlator_evals,
        "bell.sweeps": sum(s["sweeps"] for s in by_name["bell.optimize_settings"]),
        "montecarlo.run_s": mean_dur(runs),
        "montecarlo.events": sum(s["events"] for s in runs),
        "montecarlo.ns_per_event": ns_per_event(runs),
        "montecarlo.run_peak_mb": max((s["peak_mb"] for s in runs), default=0.0),
        "montecarlo.estimate_failures": sum(
            1 for s in by_name["montecarlo.estimate_chsh"] if "raised" in s
        ),
    }
    return metrics, details


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare_exact(metrics: dict, workload: str, seed: int) -> str | None:
    """Check the exact counters against an earlier traced run of the same
    plan and sources in this checkout; the first run records them."""
    store = HERE / "out" / "counters" / f"{workload}-seed{seed}-{source_digest()}.json"
    exact = {name: metrics[name] for name in EXACT}
    if store.exists():
        earlier = json.loads(store.read_text())
        differ = {k: (earlier[k], v) for k, v in exact.items() if earlier[k] != v}
        if differ:
            return f"exact counters differ from an earlier traced run: {differ}"
        return None
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def benchmark(args) -> dict:
    if not (ROOT / "src" / "dtebell" / "cli.py").is_file():
        raise BenchmarkError(f"no dtebell sources under {ROOT / 'src'}")
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "inputs").mkdir(parents=True)
    commands = workloads.plan(
        args.workload, args.seed, (out / "inputs").relative_to(ROOT).as_posix()
    )
    for command in commands:
        for path, text in command.configs.items():
            (ROOT / path).write_text(text, encoding="utf-8")
    (out / "plan.json").write_text(json.dumps(
        [{"argv": list(c.argv), "check": c.check, "configs": c.configs} for c in commands],
        indent=1,
    ) + "\n")

    setup = measure_setup(out)
    records, walls, details = [], [], {}
    if args.trace:
        plain, plain_wall = run_pass(commands, out, "plain", traced=False)
        traced, traced_wall = run_pass(commands, out, "traced", traced=True)
        records = plain + traced
        walls = [plain_wall, traced_wall]
    else:
        start = time.perf_counter()
        while True:
            done, wall = run_pass(commands, out, f"pass{len(walls)}", traced=False)
            records += done
            walls.append(wall)
            if time.perf_counter() - start + wall > args.seconds:
                break
    check_digests(commands, records)

    failed = [r for r in records if r.status != "ok"]
    correct = all(r.status != "bad" for r in records)
    for r in failed:
        print(f"run.py: {r.status}: dtebell {' '.join(r.argv)}: {r.reason}", file=sys.stderr)
    if args.trace:
        metrics, details = layer_metrics(
            str(out / f"traced-{r.index:02d}.spans") for r in records if r.traced
        )
        metrics["trace.overhead_s"] = walls[1] - walls[0]
        problem = compare_exact(metrics, args.workload, args.seed)
        if problem:
            correct = False
            print(f"run.py: {problem}", file=sys.stderr)
        units = PER_LAYER_UNITS
    else:
        n = len(commands)
        passes = [records[i:i + n] for i in range(0, len(records), n)]
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
            "peak_rss_mb": max(r.maxrss_mb for r in records),
        }
        units = END_TO_END_UNITS

    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (out / "results.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            **{k: setup[0][k] for k in ("python", "numpy", "scipy")},
        },
        "setup_samples_s": [s["setup_s"] for s in setup],
        "pass_walls_s": walls,
        "failed_frac": len(failed) / len(records),
        "result": result,
        "details": details,
        "commands": [asdict(r) for r in records],
    }, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = benchmark(args)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>13} {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:>13} {'failed_frac':<34} "
          f"{result['failed'] / result['attempted']:>16.6g} 1 "
          f"({result['failed']} of {result['attempted']} commands)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
