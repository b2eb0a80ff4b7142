#!/usr/bin/env python3
"""Regenerate bench/fixtures: the sim codebooks and every reference output.

    python3 bench/make_fixtures.py

Run from the root of a checkout.  Writes k3.json, k5.json and k8.json (the
(10,3,4), (10,5,3) and (12,8,2) codebooks designed with the default search
at seed 0) and reference.json, which holds for each seed of the pool:

- design: best_ones of every design instance at its generation budget;
- sim:    error counts of bler_table at each SNR, per codebook;
- cli:    best_ones of `hdcode design` for the CLI instance.

The references pin the outputs of the code at the commit that wrote them; a
change that alters any of them is a change of results, to be said and
justified.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    CLI_DESIGN, DESIGN_INSTANCES, FIXTURES, POOL, SIM_BOOKS, SIM_TRIALS, design, design_key,
)


def main() -> int:
    from hdcode import DesignConfig, genetic_local_search, save_codebook

    FIXTURES.mkdir(exist_ok=True)
    for key, (n, k, d) in SIM_BOOKS.items():
        report = genetic_local_search(n, k, d, DesignConfig(seed=0))
        save_codebook(report.best, FIXTURES / f"{key}.json")

    reference: dict = {"pool": POOL, "design": {}, "sim": {}, "cli": {"design": {}}}
    instances = sorted({inst[:4] for insts in DESIGN_INSTANCES.values() for inst in insts})
    for n, k, d, generations in instances:
        row = reference["design"][design_key(n, k, d, generations)] = {}
        for base in range(POOL):
            report = design(n, k, d, generations, base)
            if not report.succeeded:
                raise SystemExit(f"({n},{k},{d}) found no complete codebook from seed {base}")
            row[str(base)] = report.best_ones
        print(f"design {design_key(n, k, d, generations)}: {row}", flush=True)

    books = workloads.load_fixture_books()
    for key, book in books.items():
        row = reference["sim"][key] = {}
        for seed in range(POOL):
            table = workloads.sim_table(book, key, seed, threads=1)
            row[str(seed)] = [round(r.bler * SIM_TRIALS[key]) for r in table.rows]
        print(f"sim {key}: {row}", flush=True)

    for seed in range(POOL):
        report = genetic_local_search(*CLI_DESIGN, DesignConfig(seed=seed))
        if not report.succeeded:
            raise SystemExit(f"CLI design {CLI_DESIGN} fails at seed {seed}")
        reference["cli"]["design"][str(seed)] = report.best_ones

    (FIXTURES / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
