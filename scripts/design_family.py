#!/usr/bin/env python3
"""Design the benchmark codebook family and write one JSON file per case.

Runs the genetic search for every (n, k, d) in FAMILY, retrying with fresh
seeds when a run fails to complete, and drops the codebooks into --out-dir.
A summary table goes to stdout.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from hdcode import DesignConfig, genetic_local_search, serialize_codebook
from hdcode.cli import _nonnegative_int, _positive_int

FAMILY = [
    (10, 3, 3),
    (10, 3, 4),
    (10, 3, 5),
    (10, 4, 3),
    (10, 5, 3),
    (10, 5, 4),
    (7, 4, 3),
]


def design_with_retry(n: int, k: int, d: int, base_seed: int, attempts: int):
    for offset in range(attempts):
        report = genetic_local_search(n, k, d, DesignConfig(seed=base_seed + offset))
        if report.succeeded:
            return report
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results/codebooks",
                        help="directory for the codebook JSON files")
    parser.add_argument("--seed", type=_nonnegative_int, default=0, help="base seed (default 0)")
    parser.add_argument("--attempts", type=_positive_int, default=5,
                        help="seeds to try per case before giving up (default 5)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    print(f"{'case':>10} {'ones':>6} {'min_dist':>9} {'generations':>12}")
    for n, k, d in FAMILY:
        report = design_with_retry(n, k, d, args.seed, args.attempts)
        name = f"n{n}k{k}d{d}"
        if report is None:
            failures.append(name)
            print(f"{name:>10} {'failed':>6}")
            continue
        (out_dir / f"{name}.json").write_text(serialize_codebook(report.best))
        print(f"{name:>10} {report.best_ones:>6} {report.best.min_distance:>9} "
              f"{report.generations_run:>12}")
    if failures:
        print(f"no complete codebook found for: {', '.join(failures)}")
        return 1
    print(f"wrote {len(FAMILY)} codebooks to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
