#!/usr/bin/env python3
"""Benchmark of hdcode, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports hdcode from its src/.
Workloads are described in bench/workloads.py.  A run measures set-up five
times in fresh processes, then repeats timed passes over the workload's fixed
call list for about S seconds, checking every output against the references
in bench/fixtures.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (the same on every
workload): `pass_s` sums each call of a pass at its median over the passes
and scales the sum by the host speed that a calibration loop, sampled
between calls, measured in the same run.  With --trace 1 the passes
alternate between untraced and traced ones and the metrics are the
per-layer ones, in raw seconds, taken from the traced passes.
The environment, all metrics and (traced) the spans are also written to
bench/out/.  Exits 2 without a result when the checkout has no src/hdcode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from workloads import BENCH, OUT, ROOT, SRC, Tally, hdcode_env

SETUP_REPEATS = 5
# End-to-end times are scaled to the host speed at which workloads.calibration_s
# takes this long; the raw seconds go to the record in bench/out.
CALIBRATION_REF_S = 0.05
IMPORT_PROBES = 3
CLI_SUBCOMMANDS = ("design", "validate", "oracle", "bler", "sweep", "select")
SIM_KEYS = ("k3", "k5", "k8")

# name -> unit; BENCHMARK.json declares the same names
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.top_level_coverage": "ratio",
    "trace.absent_spans": "count",
    "search.best_ones": "count",
    "search.generations": "count",
    "search.child_survival_ratio": "ratio",
    "search.complete_child_ratio": "ratio",
    "search.init.self_s": "s",
    "search.extend.calls": "count",
    "search.extend.self_s": "s",
    "search.extend.us_per_call": "us",
    "search.local_search.self_s": "s",
    "search.recombination.self_s": "s",
    "search.selection.self_s": "s",
    "search.fitness.self_s": "s",
    "codebook.from_values.calls": "count",
    "codebook.from_values.self_s": "s",
    **{f"sim.trials_per_s.{k}": "1/s" for k in SIM_KEYS},
    **{f"linksim.simulate.self_s.{k}": "s" for k in SIM_KEYS},
    "linksim.shards": "count",
    **{f"linksim.shard_ms.{k}": "ms" for k in SIM_KEYS},
    **{f"linksim.shard_peak_mb.{k}": "MB" for k in SIM_KEYS},
    "linksim.thread_speedup_2t.k8": "ratio",
    "linksim.theory_s": "s",
    "oracle.spectrum_s": "s",
    "oracle.exhaustive_s": "s",
    "metrics.bler_table.self_s": "s",
    "metrics.sweep.self_s": "s",
    "metrics.select.self_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.cold_start_s": "s",
    "cli.cold_start_tail_s": "s",
    "cli.cold_start_samples": "count",
    **{f"cli.handler_s.{c}": "s" for c in CLI_SUBCOMMANDS},
}

SETUP_PROBE = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
    "workloads.prepare(sys.argv[3], int(sys.argv[4])).close()"
)


def environment(args: argparse.Namespace) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of a fresh process that imports hdcode and builds the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH), str(SRC), workload, str(seed)],
                       cwd=ROOT, env=hdcode_env(), check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def import_times() -> tuple[float, float]:
    """Median seconds to import hdcode.cli, and the part of it spent importing scipy."""
    totals, scipy_parts = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hdcode.cli"],
                              cwd=ROOT, env=hdcode_env(), capture_output=True, text=True,
                              check=True, timeout=120)
        total, scipy_part = parse_importtime(proc.stderr)
        totals.append(total)
        scipy_parts.append(scipy_part)
    return statistics.median(totals), statistics.median(scipy_parts)


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)")


def parse_importtime(text: str) -> tuple[float, float]:
    """Seconds spent importing hdcode modules and, within that, scipy modules.

    `-X importtime` prints a module after the modules it imported, indented
    two spaces per level; reading the lines backwards visits parents first.
    """
    entries = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            entries.append((int(match[1]) * 1e-6, (len(match[2]) - 1) // 2, match[3]))
    total = scipy_part = 0.0
    ancestors: list[tuple[int, str]] = []
    for cumulative, level, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        above = [n.split(".")[0] for _, n in ancestors]
        root = name.split(".")[0]
        if root == "hdcode" and "hdcode" not in above:
            total += cumulative
        if root == "scipy" and "scipy" not in above:
            scipy_part += cumulative
        ancestors.append((level, name))
    return total, scipy_part


def tail(values: list[float]) -> float:
    """Value with ten samples above it, or the largest when there are too few."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) >= 21 else ordered[-1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_pass(work, tally) -> float:
    start = time.perf_counter()
    work.run_pass(tally)
    return time.perf_counter() - start


def run_untraced(work, tally, seconds: float) -> list[float]:
    """Passes until the next would overrun `seconds`, sampling the calibration loop."""
    tally.calibrate = True
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        walls.append(timed_pass(work, tally))
    tally.calibrate = False
    return walls


def run_traced(work, tally, seconds: float, tracer) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    layer = dict.fromkeys(PER_LAYER, 0.0)
    start = time.perf_counter()
    if isinstance(work, workloads.CliWorkload):
        layer["cli.import_s"], layer["cli.import_scipy_s"] = import_times()
        while not work.cold_start_s or time.perf_counter() - start < seconds / 2:
            work.cold_start(tally, len(work.cold_start_s))
        layer["cli.cold_start_s"] = statistics.median(work.cold_start_s)
        layer["cli.cold_start_tail_s"] = tail(work.cold_start_s)
        layer["cli.cold_start_samples"] = len(work.cold_start_s)
        work.in_process = True

    # pairs run untraced-traced, then traced-untraced, so drift cancels
    untraced, traced, runs, best_ones = [], [], [], []
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        for tracing_on in (False, True) if len(traced) % 2 == 0 else (True, False):
            work.traced = tracing_on
            if not tracing_on:
                untraced.append(timed_pass(work, tally))
                best_ones.append(getattr(work, "best_ones", 0))
                continue
            tracer.run_id = len(traced) + 1
            runs.append(tracer.run_id)
            tracer.install()
            try:
                traced.append(timed_pass(work, tally))
            finally:
                tracer.uninstall()
            traced_ones = getattr(work, "best_ones", 0)
        if isinstance(work, workloads.DesignWorkload):
            tally.check("traced pass gives the untraced best_ones", traced_ones == best_ones[-1])
    work.traced = False
    work.finish(tally)

    s = tracer.summary(runs)
    wall = statistics.median(traced)
    extend_calls = s.calls_per_run("search.extend")
    made = s.counter("search.children_made")
    layer.update({
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / statistics.median(untraced),
        "trace.top_level_coverage": statistics.median(
            s.top_level[run] / t for run, t in zip(runs, traced)),
        "trace.absent_spans": len(tracer.absent),
        "search.best_ones": statistics.median(best_ones),
        "search.generations": s.calls_per_run("search.selection"),
        "search.child_survival_ratio": s.counter("search.children_kept") / made if made else 0.0,
        "search.complete_child_ratio": s.counter("search.children_complete") / made if made else 0.0,
        "search.init.self_s": s.self_s("search.init"),
        "search.extend.calls": extend_calls,
        "search.extend.self_s": s.self_s("search.extend"),
        "search.extend.us_per_call":
            s.self_s("search.extend") / extend_calls * 1e6 if extend_calls else 0.0,
        "search.local_search.self_s": s.self_s("search.local_search"),
        "search.recombination.self_s": s.self_s("search.recombination"),
        "search.selection.self_s": s.self_s("search.selection"),
        "search.fitness.self_s": s.self_s("search.fitness"),
        "codebook.from_values.calls": s.calls_per_run("codebook.from_values"),
        "codebook.from_values.self_s": s.self_s("codebook.from_values"),
        "linksim.shards": sum(s.calls_per_run(f"linksim.shard.{k}") for k in SIM_KEYS),
        "linksim.theory_s": s.total_s("linksim.theory"),
        "oracle.spectrum_s": s.total_s("oracle.spectrum"),
        "oracle.exhaustive_s": s.total_s("oracle.exhaustive"),
        "metrics.bler_table.self_s": s.self_s("metrics.bler_table"),
        "metrics.sweep.self_s": s.self_s("metrics.sweep"),
        "metrics.select.self_s": s.self_s("metrics.select"),
    })
    for k in SIM_KEYS:
        layer[f"linksim.simulate.self_s.{k}"] = s.self_s(f"linksim.simulate.{k}")
        layer[f"linksim.shard_ms.{k}"] = s.median_duration(f"linksim.shard.{k}") * 1e3
    for c in CLI_SUBCOMMANDS:
        layer[f"cli.handler_s.{c}"] = s.total_s(f"cli.main.{c}")
    if isinstance(work, workloads.SimWorkload):
        layer.update({f"sim.trials_per_s.{k}": v for k, v in work.trials_per_s().items()})
        layer.update({f"linksim.shard_peak_mb.{k}": v for k, v in work.shard_peak_mb().items()})
        layer["linksim.thread_speedup_2t.k8"] = work.thread_speedup_k8
    return layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "hdcode" / "__init__.py").is_file():
        print(f"error: {SRC / 'hdcode'} not found; run from the root of an hdcode checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hdcode
    import tracing

    if Path(hdcode.__file__).resolve().parent != (SRC / "hdcode").resolve():
        print(f"error: imported hdcode from {hdcode.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    setup = measure_setup(args.workload, args.seed)
    tally = Tally()
    tracer = tracing.Tracer()
    record_extra: dict = {}
    work = workloads.prepare(args.workload, args.seed)
    try:
        if args.trace:
            values = run_traced(work, tally, args.seconds, tracer)
            units = PER_LAYER
        else:
            walls = run_untraced(work, tally, args.seconds)
            # one pass = its calls, each at its median over the passes
            pass_raw = sum(statistics.median(times) for times in tally.seconds.values())
            speed = CALIBRATION_REF_S / statistics.median(tally.calibrations)
            record_extra = {"raw": {"setup_s": statistics.median(setup), "pass_s": pass_raw},
                            "speed": speed, "pass_walls": walls, "op_seconds": tally.seconds,
                            "calibration_s": tally.calibrations}
            values = {
                "setup_s": statistics.median(setup) * speed,
                "pass_s": pass_raw * speed,
                "peak_rss_mb": peak_rss_mb(args.workload),
            }
            work.finish(tally)
            units = END_TO_END
    finally:
        work.close()

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "setup_s": setup, "best_ones": getattr(work, "best_ones", None),
              "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
              "absent_spans": tracer.absent, "metrics": metrics, **record_extra}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    for span in tracer.absent:
        print(f"span absent: {span} is missing", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
