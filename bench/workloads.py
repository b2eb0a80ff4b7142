"""The four benchmark workloads: their inputs, one timed pass, and output checks.

Every workload is a closed loop: one caller issues the next call into hdcode
only after the previous one returned, on at most two threads.  The workload
seed picks inputs from a pool of POOL seeds whose reference outputs are
recorded in fixtures/reference.json, so every output can be checked exactly.

design-dense  genetic_local_search over many short codewords: the per-word
              Codebook object layer and fitness/selection dominate.
design-wide   genetic_local_search at n=18 with few words: the
              extend_codebook ball-blocking kernel dominates.
sim           bler_table(mode="sim", threads=1) at k = 3, 5, 8; trial counts
              give each k about a third of the pass, so a decoder change that
              helps one k and slows another moves the pass time.
cli           `python -m hdcode` subprocesses, one at a time: import
              dominates, and it is the only workload that runs theory,
              sweeps, selection and the JSON/CSV I/O.

Design calls use a fixed generation budget (patience = max_generations), so
a pass does the same search work for every seed.  Under the default patience
rule the generation count, and with it the wall time, varies by up to 2x
between design seeds ((18,3,7): 27 to 50 generations over seeds 0-2).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = BENCH / "fixtures"
OUT = BENCH / "out"

POOL = 16
SHARD = 1 << 14
DESIGN_ATTEMPTS = 5  # seeds tried per design, as scripts/design_family.py does

# scripts/design_family.py FAMILY, frozen here so the workload stays fixed.
FAMILY = [(10, 3, 3), (10, 3, 4), (10, 3, 5), (10, 4, 3), (10, 5, 3), (10, 5, 4), (7, 4, 3)]

# (n, k, d, generation budget, design seeds per pass)
DESIGN_INSTANCES = {
    "design-dense": [(n, k, d, 20, 2) for n, k, d in FAMILY] + [(12, 8, 2, 3, 1), (16, 6, 4, 3, 1)],
    "design-wide": [(18, 3, 7, 3, 2), (18, 4, 6, 3, 2)],
}

SIM_BOOKS = {"k3": (10, 3, 4), "k5": (10, 5, 3), "k8": (12, 8, 2)}
SIM_SNRS = (2.0, 4.0, 6.0)
SIM_TRIALS = {"k3": 50 * SHARD, "k5": 13 * SHARD, "k8": 2 * SHARD}

CALIBRATION_PERIOD = 0.5  # seconds between calibration samples

CLI_DESIGN = (10, 3, 4)
CLI_COLD_STARTS = 2  # validate calls per pass, the cold-start samples
WORKLOADS = ("design-dense", "design-wide", "sim", "cli")


def design_key(n: int, k: int, d: int, generations: int) -> str:
    return f"n{n}k{k}d{d}g{generations}"


def load_reference() -> dict:
    return json.loads((FIXTURES / "reference.json").read_text())


@dataclass(frozen=True, order=True)
class _Word:
    n: int
    value: int


def calibration_s() -> float:
    """Wall time of a fixed mix of Python-object and numpy work that runs no hdcode code.

    On a shared virtual machine the host's speed can drift by 1.5x over a few
    minutes, for every kind of work alike; timings divided by this loop's
    time, measured in the same minutes, drift about a third as much.
    """
    start = time.perf_counter()
    words = sorted({_Word(16, (i * 7919) % 65536) for i in range(15000)},
                   key=lambda w: (-w.value.bit_count(), -w.value))
    total = sum(w.value for w in words[:256])
    rng = np.random.Generator(np.random.Philox(key=7))
    x = rng.normal(size=(1536, 64, 12))
    total += int(np.einsum("tmn,tmn->tm", x, x).argmin(axis=1).sum())
    return time.perf_counter() - start


@dataclass
class Tally:
    """Operations attempted and failed; a failed check fails its operation.

    With `calibrate` set, a calibration sample is taken between operations
    at least every CALIBRATION_PERIOD seconds.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    seconds: dict[str, list[float]] = field(default_factory=dict)
    calibrate: bool = False
    calibrations: list[float] = field(default_factory=list)
    _last_calibration: float = 0.0

    def timed(self, label: str, fn):
        """Return fn(), recording its wall time under label."""
        now = time.perf_counter()
        if self.calibrate and now - self._last_calibration >= CALIBRATION_PERIOD:
            self.calibrations.append(calibration_s())
            self._last_calibration = now = time.perf_counter()
        result = fn()
        self.seconds.setdefault(label, []).append(time.perf_counter() - now)
        return result

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: {detail}" if detail else label)
        return ok

    def run(self, label: str, fn):
        """Call fn() as one operation; an exception counts as a failure."""
        try:
            ok, detail = fn()
        except Exception:  # an operation that raises is reported, not fatal
            ok, detail = False, traceback.format_exc(limit=3)
        return self.check(label, ok, detail)


# --------------------------------------------------------------------- design

def design(n: int, k: int, d: int, generations: int, base_seed: int):
    """First complete design over DESIGN_ATTEMPTS consecutive seeds."""
    from hdcode import search

    report = None
    for seed in range(base_seed, base_seed + DESIGN_ATTEMPTS):
        config = search.DesignConfig(seed=seed, max_generations=generations, patience=generations)
        report = search.genetic_local_search(n, k, d, config)
        if report.succeeded:
            break
    return report


def design_ops(workload: str, seed: int) -> list[tuple[int, int, int, int, int]]:
    ops = []
    for n, k, d, generations, per_pass in DESIGN_INSTANCES[workload]:
        for j in range(per_pass):
            ops.append((n, k, d, generations, (seed * per_pass + j) % POOL))
    return ops


def check_design(report, n: int, k: int, reference: int | None) -> tuple[bool, str]:
    if not report.succeeded:
        return False, "no complete codebook"
    book = report.best
    book.validate()
    if book.m != 1 << k or book.n != n:
        return False, f"codebook has {book.m} words of length {book.n}"
    if reference is None or report.best_ones < reference:
        return False, f"best_ones {report.best_ones} below reference {reference}"
    return True, ""


class Workload:
    """One workload's inputs; `run_pass` makes one timed pass of calls."""

    traced = False  # set while a traced pass runs

    def run_pass(self, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks that run once, after the timed passes."""

    def close(self) -> None:
        """Release what the workload created."""


class DesignWorkload(Workload):
    def __init__(self, name: str, seed: int) -> None:
        import hdcode  # noqa: F401  the import is part of set-up

        self.ops = design_ops(name, seed)
        self.reference = load_reference()["design"]
        self.best_ones = 0

    def run_pass(self, tally: Tally) -> None:
        self.best_ones = 0
        for n, k, d, generations, base in self.ops:
            label = f"design {n},{k},{d} seed {base}"
            report = tally.timed(label, lambda: design(n, k, d, generations, base))
            ref = self.reference.get(design_key(n, k, d, generations), {}).get(str(base))
            if tally.run(label, lambda: check_design(report, n, k, ref)):
                self.best_ones += report.best_ones


# ------------------------------------------------------------------------ sim

def load_fixture_books() -> dict:
    from hdcode.codebook import load_codebook

    return {key: load_codebook(FIXTURES / f"{key}.json") for key in SIM_BOOKS}


def sim_table(book, key: str, seed: int, threads: int):
    from hdcode import metrics

    return metrics.bler_table(book, SIM_SNRS, mode="sim", trials=SIM_TRIALS[key],
                              seed=seed, threads=threads)


class SimWorkload(Workload):
    def __init__(self, seed: int) -> None:
        import hdcode.metrics  # noqa: F401

        self.sim_seed = seed % POOL
        self.books = load_fixture_books()
        self.reference = load_reference()["sim"]
        self.tables: dict = {}
        self.seconds: dict[str, list[float]] = {key: [] for key in SIM_BOOKS}
        self.thread_speedup_k8 = 0.0

    def run_pass(self, tally: Tally) -> None:
        for key, book in self.books.items():
            label = f"sim {key} seed {self.sim_seed}"
            table = tally.timed(label, lambda: sim_table(book, key, self.sim_seed, threads=1))
            if not self.traced:
                self.seconds[key].append(tally.seconds[label][-1])
            self.tables[key] = table
            ref = self.reference[key][str(self.sim_seed)]
            tally.run(label, lambda: self._check(table, key, ref))

    @staticmethod
    def _check(table, key: str, ref_errors: list[int]) -> tuple[bool, str]:
        trials = SIM_TRIALS[key]
        for row, errors in zip(table.rows, ref_errors, strict=True):
            if row.trials != trials or abs(row.bler - errors / trials) > row.ci95:
                return False, f"{row.snr_db} dB: bler {row.bler} vs reference {errors / trials}"
        return True, ""

    def finish(self, tally: Tally) -> None:
        """Thread-count determinism: two threads give the one-thread error counts."""
        for key, book in self.books.items():
            start = time.perf_counter()
            table = sim_table(book, key, self.sim_seed, threads=2)
            two = time.perf_counter() - start
            if key == "k8":
                self.thread_speedup_k8 = statistics.median(self.seconds[key]) / two
            one = [row.bler for row in self.tables[key].rows]
            tally.check(f"sim {key} threads=2", [row.bler for row in table.rows] == one,
                        "error counts differ between 1 and 2 threads")

    def trials_per_s(self) -> dict[str, float]:
        return {key: SIM_TRIALS[key] * len(SIM_SNRS) / statistics.median(ts)
                for key, ts in self.seconds.items()}

    def shard_peak_mb(self) -> dict[str, float]:
        """Peak bytes allocated while one shard is simulated, seen by tracemalloc."""
        from hdcode import linksim

        peaks = {}
        for key, book in self.books.items():
            tracemalloc.start()
            try:
                linksim.simulate_bler(book, linksim.ChannelParams(SIM_SNRS[1]), SHARD, self.sim_seed)
                peaks[key] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return peaks


# ------------------------------------------------------------------------ cli

def hdcode_env() -> dict:
    """Environment for a child process that imports hdcode from this checkout."""
    env = {k: v for k, v in os.environ.items() if k != "HDCODE_LOG"}
    env["PYTHONPATH"] = str(SRC)
    return env


class CliWorkload(Workload):
    """The fixed pipeline design -> validate -> oracle -> bler x3 -> sweep -> select."""

    def __init__(self, seed: int) -> None:
        import hdcode.cli  # noqa: F401

        self.seed = seed % POOL
        self.reference = load_reference()["cli"]
        OUT.mkdir(exist_ok=True)
        self.work = OUT / f"work-{os.getpid()}"
        self.lib = self.work / "lib"
        self.lib.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / "k5.json", self.lib / "k5.json")
        self.cold_start_s: list[float] = []
        self.in_process = False

    def pipeline(self) -> list[list[str]]:
        w, lib, fx = self.work, self.lib, FIXTURES
        n, k, d = CLI_DESIGN
        return [
            ["design", "-n", str(n), "-k", str(k), "-d", str(d), "--seed", str(self.seed),
             "--out", str(lib / "designed.json"), "--report", str(w / "report.json")],
            ["validate", str(lib / "designed.json"), "--out", str(w / "validate.txt")],
            ["oracle", "-n", "6", "-k", "3", "-d", "3", "--out", str(w / "oracle.json")],
            ["bler", "--codebook", str(lib / "designed.json"), "--snr-db", "0:8:0.5",
             "--mode", "theory-dominant", "--out", str(lib / "designed.csv")],
            ["bler", "--codebook", str(lib / "k5.json"), "--snr-db", "0:8:0.5",
             "--mode", "theory-union", "--out", str(lib / "k5.csv")],
            ["bler", "--codebook", str(fx / "k3.json"), "--snr-db", "2,4,6", "--mode", "sim",
             "--trials", str(SHARD), "--seed", str(self.seed), "--out", str(w / "sim.csv")],
            ["sweep", "--codebook", str(fx / "k3.json"), "--codebook", str(fx / "k5.json"),
             "--codebook", str(fx / "k8.json"), "--snr-db", "0:8:0.5", "--out", str(w / "sweep.csv")],
            ["select", "--library", str(lib), "--snr-db", "4", "--rule", "qt>=0.3",
             "--out", str(w / "select.json")],
        ]

    def call(self, argv: list[str]) -> int:
        if self.in_process:
            from hdcode import cli

            return cli.main(argv)
        proc = subprocess.run([sys.executable, "-m", "hdcode", *argv], cwd=ROOT, env=hdcode_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        return proc.returncode

    def cold_start(self, tally: Tally, index: int) -> None:
        key = ("k3", "k5", "k8")[index % 3]
        out = self.work / f"validate-{key}.txt"
        label = f"cli validate {key}"
        code = tally.timed(label, lambda: self.call(["validate", str(FIXTURES / f"{key}.json"),
                                                      "--out", str(out)]))
        self.cold_start_s.append(tally.seconds[label][-1])
        tally.run(label,
                  lambda: (code == 0 and out.read_text().startswith("valid:"), f"exit {code}"))

    def run_pass(self, tally: Tally) -> None:
        for step, argv in enumerate(self.pipeline()):
            label = f"cli {step} {argv[0]}"
            code = tally.timed(label, lambda: self.call(argv))
            tally.run(label, lambda: self._check(argv[0], code))
        if not self.in_process:
            for i in range(CLI_COLD_STARTS):
                self.cold_start(tally, i)

    def _check(self, command: str, code: int) -> tuple[bool, str]:
        if code != 0:
            return False, f"exit {code}"
        w = self.work
        if command == "design":
            ones = json.loads((w / "report.json").read_text())["best_ones"]
            ref = self.reference["design"][str(self.seed)]
            return ones >= ref, f"best_ones {ones} below reference {ref}"
        if command == "validate":
            return (w / "validate.txt").read_text().startswith("valid:"), "designed codebook invalid"
        if command == "select":
            return "codebook_id" in json.loads((w / "select.json").read_text()), "no decision"
        return True, ""

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def prepare(name: str, seed: int) -> Workload:
    """Import hdcode and build the workload's inputs: what set-up measures."""
    if name in DESIGN_INSTANCES:
        return DesignWorkload(name, seed)
    if name == "sim":
        return SimWorkload(seed)
    if name == "cli":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
