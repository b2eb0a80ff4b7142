"""Genetic local search that packs as many 1-bits as possible into a codebook.

The population is a set of codebooks.  Each round: pick parent pairs with
probability increasing in their 1-bit count, recombine them around a random
anchor word (which provably preserves the minimum distance), greedily extend
every child to a maximal codebook under a random mutation mask, then keep the
fittest codebooks, reserving slots for ones that already reached 2**k
codewords.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .codebook import Codebook, _distance_blocks, finalize, mutate, total_ones

logger = logging.getLogger("hdcode.search")

_U64 = (1 << 64) - 1
# stream tags: keep RNG streams for the three random phases independent
_INIT_STREAM = 0
_MUTATION_STREAM = 1
_RECOMBINE_STREAM = 2


@dataclass(frozen=True)
class DesignConfig:
    """Tunables of the genetic search."""

    population_size: int = 10
    init_size_range: tuple[int, int] = (1, 5)
    mutation_rate: float = 0.5
    patience: int = 20
    max_generations: int = 500
    seed: int = 0
    literal_weight: bool = False

    def __post_init__(self):
        object.__setattr__(self, "init_size_range", tuple(self.init_size_range))
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be even and >= 2")
        lo, hi = self.init_size_range
        if not 1 <= lo <= hi:
            raise ValueError("init_size_range must satisfy 1 <= low <= high")
        if not 0.0 < self.mutation_rate < 1.0:
            raise ValueError("mutation_rate must lie strictly between 0 and 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class Population:
    codebooks: tuple[Codebook, ...]
    generation: int = 0


@dataclass(frozen=True)
class GenerationRecord:
    """Per-generation summary driving the stop criterion."""

    max_weight: Fraction
    max_size: int
    any_complete: bool


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a search run; best is None when no complete codebook was found."""

    best: Codebook | None
    best_ones: int | None
    generations_run: int
    weight_history: tuple[float, ...]

    @property
    def succeeded(self) -> bool:
        return self.best is not None


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from (seed, key...) so phases can run in parallel."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed & _U64, *key])))


# Greedy extension has two kernels, picked by n.  For n <= 12 a cached table
# gives each word's ball as one Python int of 2**n bits; above that the
# blocked words live in a bitset of uint64 blocks: block j holds words
# 64j ... 64j + 63, word 64j + b at bit b.  A word's high part (w >> 6) picks
# its block and its low part (w & 63) its bit.
BALL_TABLE_BUDGET_BYTES = 1 << 21  # a 2**n-word table takes 2**(2n-3) bytes
_LOW_BITS = 6
_FULL = (1 << 64) - 1


@lru_cache(maxsize=8)
def _ball_table(n: int, radius: int) -> tuple[int, ...]:
    """Entry x has bit y set for each word y with popcount(x ^ y) <= radius."""
    space = Codebook(n, n, 1, np.arange(1 << n, dtype=np.uint32))
    table: list[int] = []
    for start, block in _distance_blocks(space):
        close = block <= radius
        close[np.arange(len(close)), np.arange(start, start + len(close))] = True
        packed = np.packbits(close, axis=1, bitorder="little")
        table.extend(int.from_bytes(row, "little") for row in packed)
    return tuple(table)


def _table_extend(book: Codebook) -> Codebook:
    """extend_codebook for small n: the free words as one int, cleared ball by ball."""
    ball = _ball_table(book.n, book.d - 1)
    blocked = 0
    for v in book.values.tolist():
        blocked |= ball[v]
    free = ~blocked & ((1 << (1 << book.n)) - 1)
    added = []
    while free:
        x = (free & -free).bit_length() - 1
        added.append(x)
        free &= ~ball[x]
    return Codebook.from_values(
        book.n, book.k, book.d, np.concatenate((book.values, np.array(added, dtype=np.uint32)))
    )


@lru_cache(maxsize=1)
def _low_balls() -> np.ndarray:
    """(64, 7) uint64 table: entry [x, s] sets bit y for each y with popcount(x ^ y) <= s."""
    low = np.arange(1 << _LOW_BITS, dtype=np.uint64)
    dist = np.bitwise_count(low[:, None] ^ low[None, :])
    bits = np.uint64(1) << low
    columns = [(bits * (dist <= s)).sum(axis=1, dtype=np.uint64) for s in range(_LOW_BITS + 1)]
    table = np.stack(columns, axis=1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _ball_rows(n: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks h of the radius ball around 0, and min(6, radius - popcount(h)).

    The ball around x is that ball translated by XOR: in block h ^ (x >> 6)
    it holds the low parts within min(6, radius - popcount(h)) of x & 63.
    """
    high = np.arange(1 << (n - _LOW_BITS))
    weight = np.bitwise_count(high)
    inside = weight <= radius
    rows, radii = high[inside], np.minimum(radius - weight[inside], _LOW_BITS)
    rows.setflags(write=False)
    radii.setflags(write=False)
    return rows, radii


def _high_dilate(bits: np.ndarray) -> np.ndarray:
    """OR every block with the blocks whose index differs from its own in one bit."""
    out = bits.copy()
    for i in range(bits.size.bit_length() - 1):
        pairs = out.reshape(-1, 2, 1 << i)
        np.bitwise_or(pairs, bits.reshape(-1, 2, 1 << i)[:, ::-1], out=pairs)
    return out


def _balls_bitset(values: np.ndarray, n: int, radius: int) -> np.ndarray:
    """Bitset of every word within `radius` of some word of `values`, for n >= 6.

    With A_s the radius-s low-part balls of the words ORed into their own
    blocks and H one high-part dilation, the radius-r balls are
    A_r | H(A_(r-1) | H(... | H(A_0))): r rounds over the whole bitset,
    whatever the number of words.  Each round gathers one (64, 7) table
    column for the words, 8 bytes per word.
    """
    bits = np.zeros(1 << (n - _LOW_BITS), dtype=np.uint64)
    if not len(values):
        return bits
    words = values.astype(np.intp)
    blocks, low = words >> _LOW_BITS, words & 63
    for s in range(radius + 1):
        if s:
            bits = _high_dilate(bits)
        np.bitwise_or.at(bits, blocks, _low_balls()[low, min(s, _LOW_BITS)])
    return bits


def _first_free(bits: np.ndarray, j: int) -> int | None:
    """Lowest word outside the bitset in block j or later, or None."""
    block = int(bits[j])
    if block == _FULL:
        j += int((bits[j:] != _FULL).argmax())
        block = int(bits[j])
        if block == _FULL:
            return None
    return (j << _LOW_BITS) | ((~block & (block + 1)).bit_length() - 1)


def _bitset_extend(book: Codebook) -> Codebook:
    """extend_codebook for n >= 6 over a bitset of 2**(n-6) uint64 blocks."""
    n, d = book.n, book.d
    rows, radii = _ball_rows(n, d - 1)
    balls = _low_balls()
    bits = _balls_bitset(book.values, n, d - 1)
    added = np.empty(64, dtype=np.uint32)
    count = 0
    x = _first_free(bits, 0)
    while x is not None:
        if count == len(added):
            added = np.concatenate((added, np.empty_like(added)))
        added[count] = x
        count += 1
        bits[rows ^ (x >> _LOW_BITS)] |= balls[x & 63].take(radii)
        x = _first_free(bits, x >> _LOW_BITS)
    return Codebook.from_values(n, book.k, d, np.concatenate((book.values, added[:count])))


def extend_codebook(book: Codebook) -> Codebook:
    """Greedily extend to a maximal codebook, scanning words in counter order.

    Every word from 0...0 to 1...1 is added exactly when it keeps the minimum
    distance >= d.  The output contains the input, and no word of length n can
    be added to it without violating d.

    While a table of 2**n balls fits BALL_TABLE_BUDGET_BYTES (n <= 12), the
    free words are one 2**n-bit int: the input words' balls are cleared from
    it, then the lowest free word x is added and its ball cleared, until no
    word is free.  The table is built once per (n, d-1) and the last 8 stay
    cached.

    Above that the blocked words, those within d-1 of a member, are the set
    bits of a bitset of 2**(n-6) uint64 blocks.  The input book's balls are
    set by d-1 rounds of hypercube dilation.  The ball around an added word
    x is the ball around 0 translated by XOR: each of its blocks h gets one
    64-bit low-part set from a (64, 7) table, at row x & 63 and column
    min(6, d-1 - popcount(h)), ORed into block h ^ (x >> 6).  Every word
    below x is then blocked, so the next candidate is the lowest clear bit
    from x's block on.  Memory is O(2**(n-6)) 8-byte words; no ball is
    enumerated word by word.
    """
    if (1 << 2 * book.n) >> 3 <= BALL_TABLE_BUDGET_BYTES:
        return _table_extend(book)
    return _bitset_extend(book)


def local_search(book: Codebook, positions: Iterable[int]) -> Codebook:
    """Extend the codebook to a maximal one through a mutated coordinate frame.

    The bit flips at `positions` are applied, the greedy extension runs, and
    the same flips are applied again.  Since flipping is a self-inverse
    isometry the result contains the original codebook and keeps distance d,
    while different position sets reach different maximal codebooks.
    """
    positions = tuple(positions)
    return mutate(extend_codebook(mutate(book, positions)), positions)


def effective_weight(book: Codebook, literal: bool = False) -> Fraction:
    """Selection fitness: ones count, scaled up by 2**k/m while the codebook is short.

    Once a codebook holds at least 2**k codewords its fitness is the ones
    count of its best 2**k-subset, so oversize codebooks are not favored for
    bulk alone.  With literal=True the raw total is used instead.
    """
    m, target = book.m, book.size_target
    if m == 0:
        return Fraction(0)
    if m < target:
        return Fraction(total_ones(book) * target, m)
    if literal:
        return Fraction(total_ones(book))
    return Fraction(_best_subset_ones(book))


def _best_subset_ones(book: Codebook) -> int:
    """Ones count of finalize(book): the 2**k largest weights, whatever the tie-break."""
    cut = book.m - book.size_target
    return int(np.partition(np.bitwise_count(book.values), cut)[cut:].sum())


def initial_population(
    n: int, k: int, d: int, config: DesignConfig, rng: np.random.Generator
) -> Population:
    """Random codebooks of target size drawn from init_size_range.

    Each codebook keeps uniform random words that stay at distance >= d from
    the already-kept ones, until the target size is reached or a retry budget
    runs out.  The range is clamped to [1, 2**k - 1] since initial codebooks
    must stay below the complete size.
    """
    cap = max(1, (1 << k) - 1)
    lo = min(config.init_size_range[0], cap)
    hi = min(config.init_size_range[1], cap)
    books = []
    for _ in range(config.population_size):
        target = int(rng.integers(lo, hi + 1))
        kept: list[int] = []
        budget = 50 * target
        while len(kept) < target and budget > 0:
            budget -= 1
            v = int(rng.integers(0, 1 << n))
            if not kept or min((v ^ u).bit_count() for u in kept) >= d:
                kept.append(v)
        books.append(Codebook.from_values(n, k, d, kept))
    return Population(tuple(books), generation=0)


def parent_probabilities(population: Population, literal: bool = False) -> list[Fraction]:
    """Selection probability of each codebook, linear in its fitness above the minimum."""
    if not population.codebooks:
        raise ValueError("population is empty")
    weights = [effective_weight(b, literal) for b in population.codebooks]
    wmin = min(weights)
    shifted = [w - wmin + 1 for w in weights]
    norm = sum(shifted)
    return [s / norm for s in shifted]


def recombine_pair(
    first: Codebook, second: Codebook, anchor: int, split: int
) -> tuple[Codebook, Codebook]:
    """Exchange codewords between two codebooks around an anchor word.

    Child one takes the words of `first` within distance split-d of the anchor
    plus the words of `second` at distance >= split; child two is symmetric.
    Words from the two sides are at least split - (split - d) = d apart, so
    both children keep minimum distance >= d.
    """
    if (first.n, first.d) != (second.n, second.d):
        raise ValueError("parent codebooks must share n and d")
    n, d = first.n, first.d
    if not 0 <= anchor < (1 << n):
        raise ValueError(f"anchor {anchor} does not fit in n={n} bits")
    if not 0 <= split <= n + d:
        raise ValueError(f"split must lie in [0, {n + d}], got {split}")
    dist_first = np.bitwise_count(first.values ^ np.uint32(anchor))
    dist_second = np.bitwise_count(second.values ^ np.uint32(anchor))
    child_one = np.concatenate(
        (first.values[dist_first <= split - d], second.values[dist_second >= split])
    )
    child_two = np.concatenate(
        (second.values[dist_second <= split - d], first.values[dist_first >= split])
    )
    return (Codebook.from_values(n, first.k, d, child_one),
            Codebook.from_values(n, second.k, d, child_two))


def recombination(
    population: Population, rng: np.random.Generator, literal: bool = False
) -> Population:
    """Produce p children from p/2 parent pairs.

    Pairs are drawn with replacement across pairs; within a pair the second
    parent is redrawn until distinct.  Each pair is recombined around a
    uniform anchor word and a uniform split in [0, n+d].
    """
    books = population.codebooks
    p = len(books)
    if p < 2 or p % 2:
        raise ValueError("population size must be even and >= 2")
    probs = parent_probabilities(population, literal)
    cum = np.cumsum([float(q) for q in probs])
    cum[-1] = 1.0

    def draw() -> int:
        return int(np.searchsorted(cum, rng.random(), side="right"))

    n, d = books[0].n, books[0].d
    children: list[Codebook] = []
    for _ in range(p // 2):
        i = draw()
        j = draw()
        while j == i:
            j = draw()
        anchor = int(rng.integers(0, 1 << n))
        split = int(rng.integers(0, n + d + 1))
        children.extend(recombine_pair(books[i], books[j], anchor, split))
    return Population(tuple(children), population.generation + 1)


def _ranked(pool: Iterable[Codebook], literal: bool) -> list[Codebook]:
    return sorted(pool, key=lambda b: (-effective_weight(b, literal), -b.m, b.word_bytes()))


def selection(parents: Population, children: Population, literal: bool = False) -> Population:
    """Keep the p fittest codebooks, reserving slots for complete ones.

    With no complete candidate the top p by fitness survive.  With more than
    p/2 complete candidates, the top p/2 of each group survive.  With q <= p/2
    complete candidates, all of them survive plus the top p-q incomplete ones.
    Duplicates in the merged pool are removed first; if a group cannot fill
    its share the other group tops it up, and if the deduplicated pool is
    smaller than p the best candidates are repeated.
    """
    p = len(parents.codebooks)
    if len(children.codebooks) != p:
        raise ValueError("parents and children must have the same size")
    pool = list(dict.fromkeys(parents.codebooks + children.codebooks))
    ranked = _ranked(pool, literal)
    complete = [b for b in ranked if b.is_complete]
    incomplete = [b for b in ranked if not b.is_complete]
    q = len(complete)
    half = p // 2
    if q == 0:
        chosen = ranked[:p]
    elif q > half:
        chosen = complete[:half] + incomplete[: p - half]
        if len(chosen) < p:
            chosen += complete[half:][: p - len(chosen)]
    else:
        chosen = complete + incomplete[: p - q]
    idx = 0
    while len(chosen) < p:
        chosen.append(ranked[idx % len(ranked)])
        idx += 1
    return Population(tuple(chosen), children.generation)


def record_generation(population: Population, literal: bool = False) -> GenerationRecord:
    weights = [effective_weight(b, literal) for b in population.codebooks]
    return GenerationRecord(
        max_weight=max(weights),
        max_size=max(b.m for b in population.codebooks),
        any_complete=any(b.is_complete for b in population.codebooks),
    )


def stop_check(history: Sequence[GenerationRecord], config: DesignConfig) -> bool:
    """True when progress has stalled for `patience` generations or the cap is hit.

    Stall means the population's max fitness (once some codebook is complete)
    or the max codeword count (before that) is identical over the last
    patience+1 generations.
    """
    if not history:
        raise ValueError("history must contain at least one generation")
    if len(history) - 1 >= config.max_generations:
        return True
    window = config.patience + 1
    if len(history) < window:
        return False
    tail = history[-window:]
    if history[-1].any_complete:
        series = [rec.max_weight for rec in tail]
    else:
        series = [rec.max_size for rec in tail]
    return all(s == series[0] for s in series)


def _sample_positions(n: int, rate: float, rng: np.random.Generator) -> list[int]:
    return np.flatnonzero(rng.random(n) < rate).tolist()


def _best_complete(
    population: Population, best: Codebook | None, best_ones: int | None
) -> tuple[Codebook | None, int | None]:
    for book in population.codebooks:
        if book.is_complete:
            ones = _best_subset_ones(book)
            if best_ones is None or ones > best_ones:
                best, best_ones = finalize(book), ones
    return best, best_ones


def genetic_local_search(n: int, k: int, d: int, config: DesignConfig | None = None) -> SearchReport:
    """Run the full search and return the best complete codebook found.

    All randomness derives from config.seed: the initial population from one
    stream, each child's mutation positions from (seed, generation, child
    index), and each generation's recombination draws from (seed, generation),
    so identical inputs give identical reports regardless of how the
    per-child local searches would be scheduled.
    """
    config = config or DesignConfig()
    Codebook(n=n, k=k, d=d)  # validates the (n, k, d) parameter domain
    seed = config.seed
    population = initial_population(n, k, d, config, _stream(seed, _INIT_STREAM))
    population = Population(
        tuple(
            local_search(book, _sample_positions(n, config.mutation_rate,
                                                 _stream(seed, _MUTATION_STREAM, 0, idx)))
            for idx, book in enumerate(population.codebooks)
        ),
        generation=0,
    )
    history = [record_generation(population, config.literal_weight)]
    best, best_ones = _best_complete(population, None, None)
    while not stop_check(history, config):
        gen = population.generation + 1
        children = recombination(population, _stream(seed, _RECOMBINE_STREAM, gen),
                                 config.literal_weight)
        children = Population(
            tuple(
                local_search(book, _sample_positions(n, config.mutation_rate,
                                                     _stream(seed, _MUTATION_STREAM, gen, idx)))
                for idx, book in enumerate(children.codebooks)
            ),
            generation=gen,
        )
        population = selection(population, children, config.literal_weight)
        history.append(record_generation(population, config.literal_weight))
        best, best_ones = _best_complete(population, best, best_ones)
        logger.debug(
            "generation %d: max weight %s, max size %d, best ones %s",
            gen, history[-1].max_weight, history[-1].max_size, best_ones,
        )
    return SearchReport(
        best=best,
        best_ones=best_ones,
        generations_run=population.generation,
        weight_history=tuple(float(rec.max_weight) for rec in history),
    )
