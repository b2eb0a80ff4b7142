"""Spans recorded from outside hdcode, by wrapping its functions in place.

A `Tracer` replaces each target function, in every loaded `hdcode` module
that binds it, with a wrapper that records a span: name, start, end, parent
span and run id.  Spans stay in memory until the benchmark writes them out.
A target that no longer exists (after a refactor renamed or moved it) is
listed in `Tracer.absent` and its span is simply never recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to wrap: `attr` may be dotted, as in `Codebook.from_values`."""

    module: str
    attr: str
    span: str | Callable[[tuple], str]
    on_return: Callable[["Tracer", tuple, object], None] | None = None


def _k_of_book(args: tuple) -> str:
    return f"k{args[0].k}"


def _k_of_modulation(args: tuple) -> str:
    return f"k{int(args[0].shape[0]).bit_length() - 1}"


def _count_survivors(tracer: "Tracer", args: tuple, result) -> None:
    """Children made, kept by selection, and complete, for the waste ratios."""
    children = args[1].codebooks
    child_ids = {id(b) for b in children}
    tracer.count("search.children_made", len(children))
    tracer.count("search.children_kept", len({id(b) for b in result.codebooks} & child_ids))
    tracer.count("search.children_complete", sum(1 for b in children if b.is_complete))


TARGETS = (
    Target("hdcode.search", "genetic_local_search", "search.design"),
    Target("hdcode.search", "initial_population", "search.init"),
    Target("hdcode.search", "local_search", "search.local_search"),
    Target("hdcode.search", "extend_codebook", "search.extend"),
    Target("hdcode.search", "recombination", "search.recombination"),
    Target("hdcode.search", "selection", "search.selection", _count_survivors),
    Target("hdcode.search", "effective_weight", "search.fitness"),
    Target("hdcode.search", "record_generation", "search.fitness"),
    Target("hdcode.codebook", "Codebook.from_values", "codebook.from_values"),
    Target("hdcode.linksim", "simulate_bler", lambda a: "linksim.simulate." + _k_of_book(a)),
    Target("hdcode.linksim", "_shard_errors", lambda a: "linksim.shard." + _k_of_modulation(a)),
    Target("hdcode.linksim", "theoretical_bler_dominant", "linksim.theory"),
    Target("hdcode.linksim", "theoretical_bler_union", "linksim.theory"),
    Target("hdcode.oracle", "exact_distance_spectrum", "oracle.spectrum"),
    Target("hdcode.oracle", "exhaustive_best_codebook", "oracle.exhaustive"),
    Target("hdcode.metrics", "bler_table", "metrics.bler_table"),
    Target("hdcode.metrics", "tradeoff_sweep", "metrics.sweep"),
    Target("hdcode.metrics", "select_codebook", "metrics.select"),
    Target("hdcode.cli", "main", lambda a: f"cli.main.{a[0][0] if a and a[0] else 'none'}"),
)


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.absent: list[str] = []
        self.run_id = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        self.counters[(self.run_id, name)] += amount

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        span = target.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(args)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.run_id)
            if target.on_return is not None:
                target.on_return(tracer, args, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                owner = None
            owner_path, _, name = target.attr.rpartition(".")
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                label = f"{target.module}.{target.attr}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, name, raw, classmethod(self._wrap(raw.__func__, target)))
                continue
            wrapped = self._wrap(raw, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "hdcode" or mod_name.startswith("hdcode."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, raw, wrapped)

    def _patch(self, owner: object, name: str, original: object, replacement: object) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in filter(None, self.spans):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    def summary(self, runs: list[int]) -> "SpanSummary":
        return SpanSummary(self, runs)


class SpanSummary:
    """Per-run totals of the recorded spans, reduced to medians over runs.

    Self time of a span is its duration minus the durations of its direct
    children; traced code runs on one thread, so children never overlap.
    """

    def __init__(self, tracer: Tracer, runs: list[int]) -> None:
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, run in filter(None, tracer.spans):
            if parent is not None:
                child_time[parent] += end - start
        self.runs = runs
        self.total: dict[tuple[int, str], float] = defaultdict(float)
        self.self_time: dict[tuple[int, str], float] = defaultdict(float)
        self.calls: dict[tuple[int, str], int] = defaultdict(int)
        self.top_level: dict[int, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        for i, span in enumerate(tracer.spans):
            if span is None or span[4] not in runs:
                continue
            name, start, end, parent, run = span
            duration = end - start
            self.total[(run, name)] += duration
            self.self_time[(run, name)] += duration - child_time[i]
            self.calls[(run, name)] += 1
            self.durations[name].append(duration)
            if parent is None:
                self.top_level[run] += duration
        self.counters = tracer.counters

    def _median(self, table, names) -> float:
        names = [names] if isinstance(names, str) else names
        return statistics.median(sum(table[(run, n)] for n in names) for run in self.runs)

    def self_s(self, *names: str) -> float:
        return self._median(self.self_time, names)

    def total_s(self, *names: str) -> float:
        return self._median(self.total, names)

    def calls_per_run(self, name: str) -> float:
        return self._median(self.calls, name)

    def counter(self, name: str) -> float:
        return self._median(self.counters, name)

    def median_duration(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0
