"""Command line front end.

Subcommands: design, validate, oracle, bler, sweep, select.  All output
artifacts go to --out (default stdout); logs go to stderr, gated by the
HDCODE_LOG environment variable.  Exit codes: 0 on success; 2 when the
command line does not parse, from argparse alone, whose message names the
argument; 1 when hdcode refuses or fails the request, from `main` alone, as
`error: ...`.  A handler writes its artifact or raises.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

# Only codebook loads with this module: each command's options and handler import
# the modules it runs, so an hdcode process loads no module its subcommand does not use.
from .codebook import (
    Codebook,
    codebook_document,
    load_codebook,
    serialize_codebook,
    total_ones,
)

if TYPE_CHECKING:
    from .metrics import BlerTable, SelectionRule

logger = logging.getLogger("hdcode.cli")


def _configure_logging() -> None:
    level_name = os.environ.get("HDCODE_LOG", "").strip().upper()
    if not level_name:
        return
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
        logging.getLogger("hdcode").warning("unknown HDCODE_LOG level %r, using INFO", level_name)
        return
    logging.basicConfig(level=level, stream=sys.stderr)


MAX_SNR_POINTS = 10_000


def parse_snr(text: str) -> float:
    """Parse one finite SNR in dB: `select --snr-db`, and each value of a grid."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text.strip()!r}")


def parse_snr_grid(text: str) -> list[float]:
    """Parse '0,1,2.5' or 'start:stop[:step]' (inclusive) into a sorted grid.

    Every value must be finite, and a range may hold at most MAX_SNR_POINTS points.
    """
    text = text.strip()
    try:
        if ":" in text:
            parts = [parse_snr(p) for p in text.split(":")]
            if len(parts) == 2:
                parts.append(1.0)
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError
            span = (stop - start) / step + 1e-9
            if span >= MAX_SNR_POINTS:
                raise argparse.ArgumentTypeError(
                    f"SNR range {text!r} holds more than {MAX_SNR_POINTS} points"
                )
            return [start + i * step for i in range(int(span) + 1)]
        grid = [parse_snr(p) for p in text.split(",") if p.strip()]
        if not grid:
            raise ValueError
        return sorted(grid)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse SNR grid {text!r}; use '0,1,2' or 'start:stop[:step]'"
        ) from None


def parse_rule(text: str) -> SelectionRule:
    """Parse a rule spelled with one of metrics.SELECTION_RULES' prefixes and a
    finite threshold, as 'qt>=0.6', into a SelectionRule."""
    from .metrics import SELECTION_RULES, SelectionRule

    compact = text.replace(" ", "")
    for kind, spec in SELECTION_RULES.items():
        if compact.startswith(spec.prefix):
            try:
                return SelectionRule(kind, float(compact[len(spec.prefix):]))
            except ValueError:
                break
    spellings = ", ".join(f"'{spec.prefix}X'" for spec in SELECTION_RULES.values())
    raise argparse.ArgumentTypeError(f"cannot parse rule {text!r}; use {spellings} with a finite X")


def _nonnegative_int(text: str) -> int:
    """Parse `--seed`, in every command, mode and experiment script that reads it."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text.strip()!r}")
    return value


def _positive_int(text: str) -> int:
    """Parse `--threads`, `--trials` and the scripts' `--attempts`, wherever they are read."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text.strip()!r}")
    return value


def _directory(text: str) -> str:
    if not Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is not a directory")
    return text


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_json(out: str | None, doc: dict) -> None:
    _write_text(out, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_books(paths: Sequence[str]) -> tuple[list[Codebook], list[str]]:
    books = [load_codebook(p) for p in paths]
    stems = [Path(p).stem for p in paths]
    ids = []
    for i, stem in enumerate(stems):
        ids.append(stem if stems.count(stem) == 1 else f"{stem}#{i}")
    return books, ids


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


BLER_COLUMNS = ("snr_db", "mode", "bler", "ci95", "trials")
_BLER_CELL_TYPES = dict(zip(BLER_COLUMNS, (float, str, float, float, int)))


def _bler_cell(path: Path, line_num: int, column: str, text: str | None, seen: set[float]):
    """One parsed cell of a bler CSV row.

    An empty or unparsable cell is refused, and so is an snr_db that is not
    finite or is in `seen`, a mode that is not one of metrics.BLER_MODES, a
    bler, in any mode, that is nan or lies outside [0, 1], a ci95 that is nan,
    infinite or negative, and negative trials.
    """
    from .metrics import BLER_MODES

    try:
        value = _BLER_CELL_TYPES[column](text) if text else None
    except ValueError:
        value = None
    if (value is None or column == "snr_db" and (not math.isfinite(value) or value in seen)
            or column == "mode" and value not in BLER_MODES
            or column == "bler" and not 0 <= value <= 1
            or column == "ci95" and not 0 <= value < math.inf
            or column == "trials" and value < 0):
        raise ValueError(f"{path}: invalid {column!r} cell {text!r} on line {line_num}")
    return value


def _read_bler_table(path: Path, codebook_id: str) -> BlerTable:
    """Load a CSV written by the bler subcommand back into a BlerTable."""
    from .metrics import BlerRow, BlerTable

    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not set(BLER_COLUMNS) <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {','.join(BLER_COLUMNS)}")
        rows: list[BlerRow] = []
        modes: set[str] = set()
        snrs: set[float] = set()
        for line in reader:
            cells = {c: _bler_cell(path, reader.line_num, c, line[c], snrs) for c in BLER_COLUMNS}
            snrs.add(cells["snr_db"])
            modes.add(cells.pop("mode"))
            rows.append(BlerRow(**cells))
    if not rows:
        raise ValueError(f"{path}: table has no rows")
    if len(modes) != 1:
        raise ValueError(f"{path}: rows mix modes {sorted(modes)}")
    return BlerTable(codebook_id=codebook_id, mode=modes.pop(), rows=tuple(rows))


def _load_library(directory: str) -> list[tuple[Codebook, BlerTable]]:
    """Read codebook JSON + BLER table CSV pairs (matched by stem) from a directory."""
    pairs = []
    for book_path in sorted(Path(directory).glob("*.json")):
        table_path = book_path.with_suffix(".csv")
        if not table_path.exists():
            raise ValueError(f"missing BLER table {table_path.name} next to {book_path.name}")
        book = load_codebook(book_path)
        pairs.append((book, _read_bler_table(table_path, book_path.stem)))
    if not pairs:
        raise ValueError(f"no codebook JSON files found in {directory!r}")
    return pairs


def _cmd_design(args: argparse.Namespace) -> None:
    from .search import DesignConfig, genetic_local_search

    fields = dataclasses.fields(DesignConfig)
    config = DesignConfig(**{field.name: getattr(args, field.name) for field in fields})
    report = genetic_local_search(args.n, args.k, args.d, config)
    if args.report is not None:
        doc = {
            "succeeded": report.succeeded,
            "best": codebook_document(report.best) if report.best else None,
            "best_ones": report.best_ones,
            "generations_run": report.generations_run,
            "weight_history": list(report.weight_history),
        }
        _write_json(args.report, doc)
    if not report.succeeded:
        raise ValueError(
            f"design failed: no complete (n={args.n}, k={args.k}, d={args.d}) codebook "
            f"found in {report.generations_run} generations"
        )
    logger.info(
        "design done: total ones %d after %d generations", report.best_ones, report.generations_run
    )
    _write_text(args.out, serialize_codebook(report.best))


def _cmd_validate(args: argparse.Namespace) -> None:
    book = load_codebook(args.codebook)
    summary = (
        f"valid: n={book.n} k={book.k} d={book.d} codewords={book.m} "
        f"min_distance={book.min_distance if book.m >= 2 else 'n/a'} "
        f"total_ones={total_ones(book)}\n"
    )
    _write_text(args.out, summary)


def _cmd_oracle(args: argparse.Namespace) -> None:
    from .oracle import exhaustive_best_codebook

    result = exhaustive_best_codebook(args.n, args.k, args.d)
    payload = {
        "feasible": result.feasible,
        "optimum_ones": result.optimum_ones,
        "codebook": None,
    }
    if result.witness is not None:
        payload["codebook"] = codebook_document(result.witness)
    _write_json(args.out, payload)


def _eval_kwargs(args: argparse.Namespace) -> dict:
    """The evaluation options `bler_table` and `tradeoff_sweep` share, by name."""
    return {name: getattr(args, name) for name in ("mode", "trials", "seed", "threads")}


def _cmd_bler(args: argparse.Namespace) -> None:
    from .metrics import bler_table

    table = bler_table(load_codebook(args.codebook), args.snr_db, **_eval_kwargs(args))
    rows = [(r.snr_db, table.mode, r.bler, r.ci95, r.trials) for r in table.rows]
    _write_text(args.out, _csv_text(BLER_COLUMNS, rows))


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .metrics import tradeoff_sweep

    books, ids = _load_books(args.codebook)
    records = tradeoff_sweep(books, args.snr_db, ids=ids, **_eval_kwargs(args))
    header = [field.name for field in dataclasses.fields(records[0])]
    rows = [dataclasses.astuple(rec) for rec in records]
    _write_text(args.out, _csv_text(header, rows))


def _cmd_select(args: argparse.Namespace) -> None:
    from .metrics import SELECTION_RULES, select_codebook

    chosen = select_codebook(_load_library(args.library), args.snr_db, args.rule)
    if chosen is None:
        rule = f"{SELECTION_RULES[args.rule.kind].prefix}{args.rule.threshold!r}"
        raise ValueError(f"no codebook satisfies {rule!r} at {args.snr_db} dB")
    book, record = chosen
    payload = {
        "codebook_id": record.codebook_id,
        "snr_db": record.snr_db,
        "bler": record.bler,
        "throughput": record.throughput,
        "energy_per_bit": record.energy_per_bit,
        "energy_per_time": record.energy_per_time,
        "codebook": codebook_document(book),
    }
    _write_json(args.out, payload)


# name: (one-line help, handler)
COMMANDS = {
    "design": ("search for a high-density (n, k, d) codebook", _cmd_design),
    "validate": ("check a codebook file against its declared (n, k, d)", _cmd_validate),
    "oracle": ("exact optimum for small (n, k, d) by exhaustive search", _cmd_oracle),
    "bler": ("evaluate BLER of one codebook over an SNR grid", _cmd_bler),
    "sweep": ("throughput/energy trade-off table for several codebooks", _cmd_sweep),
    "select": ("pick the best codebook for an operating point", _cmd_select),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The hdcode parser with every command's name and help, and the options
    of `command` alone, read from the modules that command runs."""
    parser = argparse.ArgumentParser(
        prog="hdcode",
        description="Design and evaluate high-density codebooks for OOK links.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler) in COMMANDS.items():
        subs.add_parser(name, help=help_text).set_defaults(handler=handler)
    p = subs.choices.get(command)

    if command in ("design", "oracle"):
        p.add_argument("-n", "--n", type=int, required=True, help="codeword length")
        p.add_argument("-k", "--k", type=int, required=True,
                       help="message bits; codebook size is 2**k")
        p.add_argument("-d", "--d", type=int, required=True, help="minimum Hamming distance")
    if command == "design":
        from .search import DesignConfig

        config = DesignConfig()
        p.add_argument("--report", default=None, metavar="PATH", help="also write a search "
                       "report JSON (codebook, ones total, weight history)")
        p.add_argument("--population-size", type=int, default=config.population_size)
        p.add_argument("--init-size", dest="init_size_range", type=int, nargs=2,
                       default=config.init_size_range, metavar=("LO", "HI"),
                       help="initial codebook size range (default %d %d)" % config.init_size_range)
        p.add_argument("--mutation-rate", type=float, default=config.mutation_rate)
        p.add_argument("--patience", type=int, default=config.patience,
                       help="stop after this many generations without progress")
        p.add_argument("--max-generations", type=int, default=config.max_generations)
    elif command == "validate":
        p.add_argument("codebook", help="path to a codebook JSON file")
    elif command == "bler":
        p.add_argument("--codebook", required=True, help="path to a codebook JSON file")
        p.add_argument("--snr-db", type=parse_snr_grid, required=True,
                       help="SNR grid in dB: '0,1,2' or 'start:stop[:step]'; write a grid that "
                       "starts below zero as --snr-db=-2:2")
    elif command == "sweep":
        p.add_argument("--codebook", action="append", required=True,
                       help="codebook JSON path; repeat for several")
        p.add_argument("--snr-db", type=parse_snr_grid, default="0:8:0.5",
                       help="SNR grid in dB: '0,1,2' or 'start:stop[:step]' (default '0:8:0.5'); "
                       "write a grid that starts below zero as --snr-db=-2:2")
    elif command == "select":
        p.add_argument("--library", type=_directory, required=True,
                       help="directory of codebook JSON files, each with a BLER table CSV of the "
                       "same stem")
        p.add_argument("--snr-db", type=parse_snr, required=True, help="operating SNR in dB")
        # the prefixes of metrics.SELECTION_RULES, each with its own wording;
        # tests/test_cli.py keeps the two equal
        p.add_argument("--rule", type=parse_rule, required=True,
                       help="'qt>=X' (energy floor), 'throughput>=X', or 'bler<=X'")

    if command in ("bler", "sweep"):
        from .metrics import BLER_MODES, DEFAULT_TRIALS, MODE_THEORY_DOMINANT, SHARD_SIZE

        p.add_argument("--mode", choices=BLER_MODES, default=MODE_THEORY_DOMINANT,
                       help="BLER evaluation mode (default %(default)s)")
        p.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS,
                       help="Monte Carlo trials per point in sim mode (default %(default)s)")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help=f"threads over the {SHARD_SIZE}-trial shards of each Monte Carlo "
                       "run (default 1); the theory modes ignore it")
    if command in ("design", "bler", "sweep"):
        p.add_argument("--seed", type=_nonnegative_int, default=0,
                       help="base RNG seed (default 0)")
    if p is not None:
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _configure_logging()
    try:
        args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
