"""On-off keying over AWGN: modulation, soft ML decoding, and BLER.

Monte Carlo runs are sharded into fixed-size blocks, each with its own
counter-keyed generator, so the error count is a pure function of (codebook,
channel, trials, seed) no matter how many threads execute the shards.  A
shard decodes only the trials whose noise alone cannot prove the decision
right (see _undecided_rows).
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import MAX_N, Codebook, _integer, message_order

SHARD_SIZE = 1 << 14

# Eb = 1: a 1-bit is sent at this amplitude, a 0-bit at zero.
AMPLITUDE = math.sqrt(2.0)

# Byte budget for one block's (rows, 2**k) float64 score matrix; a shard whose
# scores would exceed it is decoded in row blocks (never fewer than one row).
# A 256 KiB block stays in cache, and its product is small enough that
# OpenBLAS computes it on the calling thread. Larger blocks make OpenBLAS
# start its own threads, which contend with the shard pool: at 4 MiB, two
# pool threads ran slower than one on a 2-core machine.
SCORE_BUDGET_BYTES = 1 << 18

# How far below zero a trial's early-accept test value must lie for the trial
# to count as decoded right without decoding; _undecided_rows shows that it
# dominates the float64 rounding of the test and of the decoder's scores.
ACCEPT_MARGIN = 1e-9

# The largest |Eb/N0| in whole dB, 3068, at which every evaluation stays finite:
# the union bound takes sqrt(distance * Eb/N0) for distances up to MAX_N, and
# the noise variance is N0 / 2 = 1 / (2 Eb/N0).
MAX_ABS_EBN0_DB = float(math.floor(10.0 * math.log10(np.finfo(np.float64).max / MAX_N)))

logger = logging.getLogger("hdcode.linksim")


@dataclass(frozen=True)
class ChannelParams:
    """AWGN channel at an Eb/N0 within MAX_ABS_EBN0_DB dB of 0 dB, with Eb = 1;
    a 1-bit is sent at AMPLITUDE."""

    ebn0_db: float

    def __post_init__(self):
        if not abs(self.ebn0_db) <= MAX_ABS_EBN0_DB:
            limit = f"[-{MAX_ABS_EBN0_DB:g}, {MAX_ABS_EBN0_DB:g}] dB"
            raise ValueError(f"ebn0_db must be finite and lie in {limit}, got {self.ebn0_db}")

    @property
    def ebn0(self) -> float:
        return 10.0 ** (self.ebn0_db / 10.0)

    @property
    def noise_sigma(self) -> float:
        return math.sqrt(0.5 / self.ebn0)


def q_function(x):
    """Gaussian tail probability Q(x); accepts scalars or arrays.

    The stdlib erfc is applied per element: the arguments are an SNR grid or
    a distance distribution, a few dozen values at most.
    """
    z = np.asarray(x, dtype=np.float64) / math.sqrt(2.0)
    return 0.5 * np.array([math.erfc(v) for v in z.flat]).reshape(z.shape)


def modulated_matrix(book: Codebook) -> np.ndarray:
    """(2**k, n) array of transmitted amplitudes, row i = message i."""
    book.require_size_target("modulation")
    order = np.asarray(message_order(book), dtype=np.int64)
    bits = (order[:, None] >> np.arange(book.n - 1, -1, -1)) & 1
    return bits * AMPLITUDE


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


def _clear_threshold(sigma: float, delta: int, n: int) -> float:
    """The early-accept threshold t of a book with n positions and minimum
    distance delta: the |z| that N(0, sigma**2) noise exceeds with probability
    delta/n, sigma Phi^-1(1 - delta / 2n), so that about delta of a trial's n
    noise values exceed it, capped at 0.84 A/2.

    t sets how many trials clear, never whether a cleared trial is decoded
    right.  The cap keeps t below A/2: at t >= A/2 no trial can clear.  It
    binds only at low SNR and small delta/n: at 2 dB the (12, 8, 2) book's
    uncapped t is 1.10 A/2, and t = 0.5, 0.7, 0.84 and 0.95 A/2 clear 3.9%,
    8.1%, 9.4% and 7.8% of the shard of Philox key (0, 0).
    """
    # statistics imports fractions, decimal and random; the theory modes never pay for them
    from statistics import NormalDist

    return min(sigma * NormalDist().inv_cdf(1 - delta / (2 * n)), 0.84 * 0.5 * AMPLITUDE)


def _undecided_rows(noise: np.ndarray, delta: int, threshold: float) -> np.ndarray:
    """Indices of the rows of `noise` that the early-accept test cannot clear.

    Let A be the amplitude, delta the book's actual minimum distance and
    u_i = |z_i| - A/2.  A word that differs from the sent one on a set S of
    positions, |S| >= delta, scores A**2 |S| / 2 + z.(c_sent - c) >=
    -A sum_S u_i below it.  If the delta largest u_i sum below zero, so does
    every larger set, and ML picks the sent word.  For 0 <= t <= A/2 (here
    `threshold`), V = delta (t - A/2) + sum_i max(0, |z_i| - t) bounds that
    sum from above, and a row clears when its computed V lies below
    -ACCEPT_MARGIN.  t moves only how many rows clear; at t = A/2 none does.

    The margin, 1e-9, dominates float64 rounding (unit 1.1e-16, any
    summation order).  A cleared row has every |z_i| < delta A/2 <= 17, as
    n <= 24.  V is then computed within 1e-13, and rounding the received
    vector moves the bound by less than 1e-13.  Each decoder score
    r.c - |c|**2/2 lies within 2e-12 of its exact value: at most 24 products
    of at most 18.5 by A.  So the sent word leads every other computed score
    by at least A 1e-9 - 5e-12 > 0, and the full decode returns it too.
    """
    limit = delta * (0.5 * AMPLITUDE - threshold) - ACCEPT_MARGIN
    excess = np.abs(noise)
    excess -= threshold
    np.maximum(excess, 0.0, out=excess)
    return np.flatnonzero(excess @ np.ones(noise.shape[1]) >= limit)


def _shard_errors(
    mod: np.ndarray, sigma: float, delta: int, threshold: float,
    seed: int, shard_index: int, count: int,
) -> tuple[int, int]:
    """Errors and decoded trials among `count` trials from the Philox key
    (seed, shard_index), for a book of minimum distance `delta`.

    Standard normals scaled in place are the doubles normal(0, sigma) draws.
    Only the rows _undecided_rows keeps are decoded; every other trial is one
    the full decode gets right, so the error count is that of decoding all.
    """
    key = np.array([seed, shard_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    messages = rng.integers(0, mod.shape[0], size=count)
    noise = rng.standard_normal(size=(count, mod.shape[1]))
    noise *= sigma
    hard = _undecided_rows(noise, delta, threshold)
    if len(hard) < count:
        noise, messages = noise[hard], messages[hard]
    noise += mod[messages]
    return int(np.count_nonzero(_ml_messages(noise, mod) != messages)), len(hard)


def simulate_bler(
    book: Codebook, params: ChannelParams, trials: int, seed: int, threads: int = 1
) -> int:
    """Block errors of ML decoding over `trials` uniform messages, by sharded Monte Carlo.

    Shard i of SHARD_SIZE trials (the last may be short) draws from a Philox
    generator keyed (seed, i).  Thread j of `threads`, capped at the shard
    count and the CPU count, runs shards j, j + threads, ... and sums their
    counts, so the result is the same for any thread count.  The seed is one
    64-bit key word, so it must lie in [0, 2**64).
    """
    seed = _integer("seed", seed, 0, bits=64)
    trials = _integer("trials", trials, 1)
    threads = _integer("threads", threads, 1)
    mod = modulated_matrix(book)
    sigma = params.noise_sigma
    delta = book.min_distance
    threshold = _clear_threshold(sigma, delta, book.n)
    shards = -(-trials // SHARD_SIZE)
    threads = min(threads, shards, os.cpu_count() or 1)

    def run(first: int) -> tuple[int, int]:
        errors = decoded = 0
        for i in range(first, shards, threads):
            count = min(SHARD_SIZE, trials - i * SHARD_SIZE)
            errs, hard = _shard_errors(mod, sigma, delta, threshold, seed, i, count)
            errors, decoded = errors + errs, decoded + hard
        return errors, decoded

    start = time.perf_counter()
    if threads == 1:
        errors, decoded = run(0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            errors, decoded = map(sum, zip(*pool.map(run, range(threads))))
    seconds = time.perf_counter() - start
    logger.debug(
        "simulated %d trials in %d shards on %d threads: %.3f s, %.0f trials/s; "
        "%d decoded, %d cleared by the noise test",
        trials, shards, threads, seconds, trials / seconds, decoded, trials - decoded,
    )
    return errors


def _union_bound(distribution: np.ndarray, distances: np.ndarray, params: ChannelParams) -> float:
    """Sum of B[w] Q(sqrt(w Eb/N0)) over the given distances w, divided by m = B[0] and
    clamped to 1, with B the codebook's distance distribution."""
    terms = distribution[distances] * q_function(np.sqrt(distances * params.ebn0))
    return min(float(terms.sum() / int(distribution[0])), 1.0)


def theoretical_bler_dominant(distribution: np.ndarray, params: ChannelParams) -> float:
    """Minimum-distance term of the union bound, averaged over messages and clamped to 1.

    `distribution` is the codebook's distance distribution (see
    codebook.distance_distribution).  With delta the codebook's actual
    minimum distance, returns (pairs at delta per message) * Q(sqrt(delta * Eb/N0)),
    or 1 where that term passes 1, as it does at low SNR.
    """
    distances = np.flatnonzero(distribution[1:]) + 1
    if distances.size == 0:
        raise ValueError("a single codeword has no distances")
    return _union_bound(distribution, distances[:1], params)


def theoretical_bler_union(distribution: np.ndarray, params: ChannelParams) -> float:
    """Full pairwise union bound, averaged over messages and clamped to 1."""
    return _union_bound(distribution, np.flatnonzero(distribution[1:]) + 1, params)
