"""On-off keying over AWGN: modulation, soft ML decoding, and BLER.

Monte Carlo runs are sharded into fixed-size blocks, each with its own
counter-keyed generator, so the estimate is a pure function of (codebook,
channel, trials, seed) no matter how many threads execute the shards.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, message_order

SHARD_SIZE = 1 << 14

# Byte budget for one block's (rows, 2**k) float64 score matrix; a shard whose
# scores would exceed it is decoded in row blocks (never fewer than one row).
# A 256 KiB block stays in cache, and its product is small enough that
# OpenBLAS computes it on the calling thread. Larger blocks make OpenBLAS
# start its own threads, which contend with the shard pool: at 4 MiB, two
# pool threads ran slower than one on a 2-core machine.
SCORE_BUDGET_BYTES = 1 << 18

logger = logging.getLogger("hdcode.linksim")


@dataclass(frozen=True)
class ChannelParams:
    """AWGN channel at a given finite Eb/N0 with Eb = 1; a 1-bit is sent as amplitude sqrt(2)."""

    ebn0_db: float

    def __post_init__(self):
        if not math.isfinite(self.ebn0_db):
            raise ValueError(f"ebn0_db must be finite, got {self.ebn0_db}")

    @property
    def ebn0(self) -> float:
        return 10.0 ** (self.ebn0_db / 10.0)

    @property
    def n0(self) -> float:
        return 1.0 / self.ebn0

    @property
    def amplitude(self) -> float:
        return math.sqrt(2.0)

    @property
    def noise_sigma(self) -> float:
        return math.sqrt(self.n0 / 2.0)


@dataclass(frozen=True)
class BlerEstimate:
    """Monte Carlo block error rate with a 95% interval half-width.

    The point estimate is exactly errors/trials.  The half-width uses the
    rule-of-succession proportion (errors+1)/(trials+2) inside the normal
    approximation so it stays positive when no errors were observed.
    """

    point: float
    trials: int
    errors: int
    ci95_halfwidth: float

    @classmethod
    def from_counts(cls, errors: int, trials: int) -> "BlerEstimate":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= errors <= trials:
            raise ValueError("errors must lie in [0, trials]")
        smoothed = (errors + 1) / (trials + 2)
        half = 1.96 * math.sqrt(smoothed * (1.0 - smoothed) / trials)
        return cls(point=errors / trials, trials=trials, errors=errors, ci95_halfwidth=half)


def q_function(x):
    """Gaussian tail probability Q(x); accepts scalars or arrays.

    The stdlib erfc is applied per element: the arguments are an SNR grid or
    a distance distribution, a few dozen values at most.
    """
    z = np.asarray(x, dtype=np.float64) / math.sqrt(2.0)
    return 0.5 * np.array([math.erfc(v) for v in z.flat]).reshape(z.shape)


def modulated_matrix(book: Codebook, params: ChannelParams) -> np.ndarray:
    """(2**k, n) array of transmitted amplitudes, row i = message i."""
    book.require_size_target("modulation")
    order = np.asarray(message_order(book), dtype=np.int64)
    bits = (order[:, None] >> np.arange(book.n - 1, -1, -1)) & 1
    return bits * params.amplitude


def _ml_messages(received: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """ML message index for each row of `received`; ties go to the lowest index.

    Since |r - c|^2 = |r|^2 - 2 r.c + |c|^2, the nearest codeword maximizes
    the score r.c - |c|^2 / 2: one matrix product per block of rows, with
    each block's (rows, 2**k) score matrix kept within SCORE_BUDGET_BYTES.
    """
    half_norms = 0.5 * np.square(mod).sum(axis=1)
    rows = max(1, SCORE_BUDGET_BYTES // (mod.itemsize * len(mod)))
    scores = np.empty((min(rows, len(received)), len(mod)))
    decoded = np.empty(len(received), dtype=np.intp)
    for start in range(0, len(received), rows):
        block = scores[: len(received) - start]
        np.matmul(received[start : start + rows], mod.T, out=block)
        block -= half_norms
        block.argmax(axis=1, out=decoded[start : start + rows])
    return decoded


def _shard_errors(
    mod: np.ndarray, sigma: float, n: int, seed: int, shard_index: int, count: int
) -> int:
    key = np.array([seed, shard_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    messages = rng.integers(0, mod.shape[0], size=count)
    received = rng.normal(0.0, sigma, size=(count, n))
    received += mod[messages]
    return int(np.count_nonzero(_ml_messages(received, mod) != messages))


def simulate_bler(
    book: Codebook, params: ChannelParams, trials: int, seed: int, threads: int = 1
) -> BlerEstimate:
    """Estimate BLER over uniform messages by sharded Monte Carlo.

    Shard i of SHARD_SIZE trials draws from a Philox generator keyed
    (seed, i), so results are identical for any thread count.  The seed is
    one 64-bit key word, so it must lie in [0, 2**64).
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    mod = modulated_matrix(book, params)
    sigma = params.noise_sigma
    shards = [
        (idx, min(SHARD_SIZE, trials - start))
        for idx, start in enumerate(range(0, trials, SHARD_SIZE))
    ]

    def run(shard: tuple[int, int]) -> int:
        idx, count = shard
        return _shard_errors(mod, sigma, book.n, seed, idx, count)

    start = time.perf_counter()
    if threads == 1 or len(shards) == 1:
        errors = sum(run(s) for s in shards)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            errors = sum(pool.map(run, shards))
    seconds = time.perf_counter() - start
    logger.debug(
        "simulated %d trials in %d shards on %d threads: %.3f s, %.0f trials/s",
        trials, len(shards), threads, seconds, trials / seconds,
    )
    return BlerEstimate.from_counts(errors, trials)


def theoretical_bler_dominant(distribution: np.ndarray, params: ChannelParams) -> float:
    """Minimum-distance term of the union bound, averaged over messages and clamped to 1.

    `distribution` is the codebook's distance distribution (see
    codebook.distance_distribution).  With delta the codebook's actual
    minimum distance, returns (pairs at delta per message) * Q(sqrt(delta * Eb/N0)),
    or 1 where that term passes 1, as it does at low SNR.
    """
    m = int(distribution[0])
    nonzero = np.flatnonzero(distribution[1:])
    if nonzero.size == 0:
        raise ValueError("a single codeword has no distances")
    delta = int(nonzero[0]) + 1
    value = float(int(distribution[delta]) / m * q_function(math.sqrt(delta * params.ebn0)))
    return min(value, 1.0)


def theoretical_bler_union(distribution: np.ndarray, params: ChannelParams) -> float:
    """Full pairwise union bound, averaged over messages and clamped to 1."""
    m = int(distribution[0])
    dists = np.flatnonzero(distribution[1:]) + 1
    value = float(
        (distribution[dists] * q_function(np.sqrt(dists * params.ebn0))).sum() / m
    )
    return min(value, 1.0)
