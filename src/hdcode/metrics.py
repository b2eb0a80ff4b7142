"""Throughput, harvested-energy figures, parameter sweeps, and codebook selection."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .codebook import Codebook, _integer, distance_distribution, total_ones
from .linksim import (
    SHARD_SIZE,  # for the cli, which reads the link layer through this module
    ChannelParams,
    simulate_bler,
    theoretical_bler_dominant,
    theoretical_bler_union,
)

MODE_THEORY_DOMINANT = "theory-dominant"
MODE_THEORY_UNION = "theory-union"
MODE_SIM = "sim"
# the closed-form BLER of each theory mode, from a distance distribution
_THEORY_BLER = {
    MODE_THEORY_DOMINANT: theoretical_bler_dominant,
    MODE_THEORY_UNION: theoretical_bler_union,
}
BLER_MODES = (*_THEORY_BLER, MODE_SIM)

DEFAULT_TRIALS = 100_000


@dataclass(frozen=True)
class EnergyMetrics:
    """Energy figures of a complete codebook, in units of a single 1-bit's energy.

    avg_weight is the mean ones count per codeword; energy_per_bit divides it
    by the k message bits and energy_per_time by the n channel uses.
    """

    avg_weight: float
    energy_per_bit: float
    energy_per_time: float


@dataclass(frozen=True)
class SweepRecord:
    """One (codebook, SNR) evaluation point."""

    codebook_id: str
    n: int
    k: int
    d: int
    snr_db: float
    bler: float
    throughput: float
    energy_per_bit: float
    energy_per_time: float


@dataclass(frozen=True)
class BlerRow:
    """One point of a BLER table; a theory row has ci95 and trials 0."""

    snr_db: float
    bler: float
    ci95: float
    trials: int

    @classmethod
    def from_counts(cls, snr_db: float, errors: int, trials: int) -> "BlerRow":
        """The Monte Carlo row of `errors` block errors in `trials`: the BLER is exactly
        errors/trials, and the 95% half-width puts the rule-of-succession proportion
        (errors+1)/(trials+2) in the normal approximation, so it stays positive at 0 errors."""
        trials = _integer("trials", trials, 1)
        errors = _integer("errors", errors, 0, trials)
        smoothed = (errors + 1) / (trials + 2)
        half = 1.96 * math.sqrt(smoothed * (1.0 - smoothed) / trials)
        return cls(snr_db, errors / trials, half, trials)


@dataclass(frozen=True)
class BlerTable:
    """BLER of one codebook over an SNR grid, under one evaluation mode.

    The rows are kept in order of snr_db, whatever order they are given in,
    and there must be at least one.
    """

    codebook_id: str
    mode: str
    rows: tuple[BlerRow, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError(f"BLER table {self.codebook_id!r} has no rows")
        object.__setattr__(self, "rows", tuple(sorted(self.rows, key=lambda r: r.snr_db)))

    @property
    def snr_range(self) -> tuple[float, float]:
        return self.rows[0].snr_db, self.rows[-1].snr_db


class _Rule(NamedTuple):
    """How a selection rule is spelled on the command line, the SweepRecord
    field its threshold bounds (`meets(field, threshold)` is operator.ge or
    operator.le), and the field it then maximizes."""

    prefix: str
    bounded: str
    meets: Callable[[float, float], bool]
    maximized: str


SELECTION_RULES = {
    "min-energy-per-time": _Rule("qt>=", "energy_per_time", operator.ge, "throughput"),
    "min-throughput": _Rule("throughput>=", "throughput", operator.ge, "energy_per_time"),
    "max-bler": _Rule("bler<=", "bler", operator.le, "throughput"),
}


@dataclass(frozen=True)
class SelectionRule:
    """One constrained objective: a SELECTION_RULES kind and a finite threshold."""

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in SELECTION_RULES:
            raise ValueError(f"kind must be one of {tuple(SELECTION_RULES)}, got {self.kind!r}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")


def throughput(book: Codebook, bler: float) -> float:
    """Information bits delivered per channel use: (k/n) * (1 - BLER)."""
    if not 0.0 <= bler <= 1.0:
        raise ValueError(f"bler must lie in [0, 1], got {bler}")
    return book.k / book.n * (1.0 - bler)


def energy_metrics(book: Codebook) -> EnergyMetrics:
    """Harvested-energy figures of a complete codebook.

    The numerator is the per-codeword average ones count, so energy_per_time
    lies in [0, 1].
    """
    book.require_size_target("energy metrics")
    avg = total_ones(book) / book.m
    return EnergyMetrics(avg_weight=avg, energy_per_bit=avg / book.k, energy_per_time=avg / book.n)


def _point_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence([seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


def _sorted_grid(snr_grid: Sequence[float]) -> list[float]:
    grid = sorted(float(s) for s in snr_grid)
    if not grid:
        raise ValueError("snr_grid is empty")
    for lo, hi in zip(grid, grid[1:]):
        if lo == hi:
            raise ValueError(f"snr_grid repeats the point {lo} dB")
    return grid


def _records(book: Codebook, codebook_id: str, rows: Sequence[BlerRow]) -> list[SweepRecord]:
    """The operating point of one codebook at each BLER row; `throughput`
    refuses a row whose BLER lies outside [0, 1]."""
    energy = energy_metrics(book)
    return [
        SweepRecord(
            codebook_id=codebook_id,
            n=book.n,
            k=book.k,
            d=book.d,
            snr_db=row.snr_db,
            bler=row.bler,
            throughput=throughput(book, row.bler),
            energy_per_bit=energy.energy_per_bit,
            energy_per_time=energy.energy_per_time,
        )
        for row in rows
    ]


def bler_table(
    book: Codebook,
    snr_grid: Sequence[float],
    mode: str = MODE_THEORY_DOMINANT,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    threads: int = 1,
    codebook_id: str = "codebook",
) -> BlerTable:
    """Evaluate one codebook across an SNR grid.

    Under sim, point i of the sorted grid draws from the seed derived from
    (seed, i), and `threads` run its shards, so the table is reproducible and
    the same for any thread count.  The theory modes read one distance
    distribution of the codebook and need no seed, and so never import
    numpy.random.  ChannelParams checks every point before any is evaluated.
    """
    seed = _integer("seed", seed, 0)
    trials = _integer("trials", trials, 1)
    threads = _integer("threads", threads, 1)
    channels = [ChannelParams(ebn0_db=snr) for snr in _sorted_grid(snr_grid)]
    if mode == MODE_SIM:
        errors = [simulate_bler(book, ch, trials, _point_seed(seed, i), threads)
                  for i, ch in enumerate(channels)]
        rows = [BlerRow.from_counts(ch.ebn0_db, e, trials) for ch, e in zip(channels, errors)]
    elif mode in _THEORY_BLER:
        formula = _THEORY_BLER[mode]
        book.require_size_target("theory BLER")
        distribution = distance_distribution(book)
        rows = [BlerRow(ch.ebn0_db, formula(distribution, ch), 0.0, 0) for ch in channels]
    else:
        raise ValueError(f"mode must be one of {BLER_MODES}, got {mode!r}")
    return BlerTable(codebook_id=codebook_id, mode=mode, rows=tuple(rows))


def tradeoff_sweep(
    codebooks: Sequence[Codebook],
    snr_grid: Sequence[float],
    mode: str = MODE_THEORY_DOMINANT,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    threads: int = 1,
    ids: Sequence[str] | None = None,
) -> list[SweepRecord]:
    """Cross every codebook with every SNR point.

    Records are ordered by (codebook position, SNR).  A codebook's records
    come from its `bler_table` at the same grid, mode, trials and seed, so
    they do not depend on the other codebooks, and two codebooks of equal
    (n, k) share their Monte Carlo draws.  A codebook of other than 2**k
    words is refused, by id, before any is evaluated.
    """
    if not codebooks:
        raise ValueError("no codebooks given")
    if ids is None:
        ids = [f"cb{i}_n{b.n}k{b.k}d{b.d}" for i, b in enumerate(codebooks)]
    if len(ids) != len(codebooks):
        raise ValueError("ids must match codebooks one to one")
    if len(set(ids)) != len(ids):
        raise ValueError("codebook ids must be distinct")
    for book, codebook_id in zip(codebooks, ids):
        book.require_size_target(f"codebook {codebook_id!r}")

    records = []
    for book, codebook_id in zip(codebooks, ids):
        table = bler_table(book, snr_grid, mode, trials, seed, threads)
        records.extend(_records(book, codebook_id, table.rows))
    return records


def select_codebook(
    library: Sequence[tuple[Codebook, BlerTable]],
    snr_db: float,
    rule: SelectionRule,
) -> tuple[Codebook, SweepRecord] | None:
    """Pick the library codebook best satisfying the rule at the nearest grid SNR.

    Each codebook is judged by the SweepRecord of its table row closest to
    snr_db (ties go to the lower SNR), built as `tradeoff_sweep` builds its
    records.  Returns the chosen codebook and its record, or None when no
    codebook satisfies the constraint.  Raises if snr_db falls outside any table's grid range, since
    the nearest row would then be an extrapolation, and names any codebook
    of other than 2**k words.
    """
    if not library:
        raise ValueError("library is empty")
    candidates = []
    for book, table in library:
        book.require_size_target(f"codebook {table.codebook_id!r}")
        lo, hi = table.snr_range
        if not lo <= snr_db <= hi:
            raise ValueError(
                f"snr {snr_db} dB lies outside the tabulated range [{lo}, {hi}] "
                f"of codebook {table.codebook_id!r}"
            )
        row = min(table.rows, key=lambda r: (abs(r.snr_db - snr_db), r.snr_db))
        (record,) = _records(book, table.codebook_id, [row])
        candidates.append((book, record))

    spec = SELECTION_RULES[rule.kind]
    feasible = [c for c in candidates if spec.meets(getattr(c[1], spec.bounded), rule.threshold)]
    if not feasible:
        return None
    return max(feasible, key=lambda c: (getattr(c[1], spec.maximized), c[1].codebook_id))
