#!/usr/bin/env python3
"""Tabulate BLER curves, the throughput/energy trade-off and a selection library.

Three artifacts under --out-dir from one directory of designed codebooks,
plus example selections at a few operating points on stdout:

  bler/<stem>.<mode>.csv    every codebook's BLER curve in every mode of --modes
  tradeoff.csv              sweep of every codebook over the SNR grid, in the first mode
  library/                  each codebook JSON and its first-mode curve, for `select`

Every CSV comes from the package CLI, so it is byte-identical to what
`hdcode bler` or `hdcode sweep` writes by hand.  Theory curves are instant;
add `sim` to --modes (with --trials) for Monte Carlo.
"""

from __future__ import annotations

import argparse
import shutil
from pathlib import Path

from hdcode.cli import _nonnegative_int, _positive_int, main as hdcode_main, parse_snr_grid
from hdcode.metrics import BLER_MODES, DEFAULT_TRIALS, MODE_THEORY_DOMINANT, MODE_THEORY_UNION

EXAMPLE_RULES = [
    (2.0, "bler<=1e-2"),
    (5.0, "qt>=0.6"),
    (8.0, "throughput>=0.3"),
]


def _snr_grid_text(text: str) -> str:
    """Check an SNR grid as `hdcode bler` does, and keep the text as typed."""
    parse_snr_grid(text)
    return text


def main(argv=None) -> int:
    # no abbreviations, so the removed --mode is refused rather than read as --modes
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--books", default="results/codebooks",
                        help="directory of codebook JSON files")
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--snr-db", type=_snr_grid_text, default="0:8:0.5",
                        help="grid as '0,1,2' or 'start:stop[:step]' (default 0:8:0.5)")
    parser.add_argument("--modes", nargs="+", default=[MODE_THEORY_DOMINANT, MODE_THEORY_UNION],
                        choices=BLER_MODES,
                        help="BLER modes to tabulate; the first is swept and fills the library")
    parser.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS)
    parser.add_argument("--seed", type=_nonnegative_int, default=0)
    parser.add_argument("--threads", type=_positive_int, default=4)
    args = parser.parse_args(argv)

    books = sorted(Path(args.books).glob("*.json"))
    if not books:
        print(f"no codebook JSON files in {args.books}")
        return 1
    out_dir = Path(args.out_dir)
    curves, library = out_dir / "bler", out_dir / "library"
    curves.mkdir(parents=True, exist_ok=True)
    library.mkdir(exist_ok=True)
    evaluation = [f"--snr-db={args.snr_db}", "--trials", str(args.trials),
                  "--seed", str(args.seed), "--threads", str(args.threads)]

    for book in books:
        for mode in args.modes:
            out = curves / f"{book.stem}.{mode}.csv"
            code = hdcode_main(["bler", "--codebook", str(book), "--mode", mode,
                                *evaluation, "--out", str(out)])
            if code != 0:
                return code
            print(f"wrote {out}")
        shutil.copy(book, library / book.name)
        shutil.copy(curves / f"{book.stem}.{args.modes[0]}.csv", library / f"{book.stem}.csv")
    print(f"wrote selection library {library}")

    sweep_args = ["sweep", "--mode", args.modes[0], *evaluation,
                  "--out", str(out_dir / "tradeoff.csv")]
    for book in books:
        sweep_args += ["--codebook", str(book)]
    code = hdcode_main(sweep_args)
    if code != 0:
        return code
    print(f"wrote {out_dir / 'tradeoff.csv'}")

    for snr, rule in EXAMPLE_RULES:
        print(f"\nselect --snr-db {snr} --rule '{rule}':")
        hdcode_main(["select", "--library", str(library),
                     "--snr-db", str(snr), "--rule", rule])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
