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
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .codebook import Codebook, _distance_blocks, _integer, finalize, positions_to_mask, total_ones

logger = logging.getLogger("hdcode.search")

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

    def __post_init__(self):
        lo, hi = (_integer("init_size_range", v, 1) for v in self.init_size_range)
        object.__setattr__(self, "init_size_range", (lo, hi))
        for name, low in (("population_size", 2), ("patience", 1), ("max_generations", 1),
                          ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        if self.population_size % 2:
            raise ValueError("population_size must be even and >= 2")
        if lo > hi:
            raise ValueError("init_size_range must satisfy 1 <= low <= high")
        if not 0.0 < self.mutation_rate < 1.0:
            raise ValueError("mutation_rate must lie strictly between 0 and 1")


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
    """Independent generator derived from (seed, key...) so phases can run in parallel.

    The generator of SeedSequence([seed, *key]), which splits each int into
    little-endian 32-bit words, 0 as one word.  Handing it those words as a
    uint32 array gives the same entropy and skips its slow list conversion.
    """
    words = []
    for value in (seed, *key):
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# Greedy extension has three kernels, picked by n and d.  For n <= 12 a
# cached table gives each word's ball as one Python int of 2**n bits, in
# reverse order: word y at bit 2**n - 1 - y.  Above that the blocked words
# live in a bitset of uint64 blocks: block j holds words 64j ... 64j + 63,
# word 64j + b at bit b.  A word's high part (w >> 6) picks its block and
# its low part (w & 63) its bit.  At d = 2 the blocks are decided in
# popcount waves, at any other d one block per round.
BALL_TABLE_BUDGET_BYTES = 1 << 21  # a 2**n-word table takes 2**(2n-3) bytes
_LOW_BITS = 6
_SPLIT_BITS = 3  # the ball rows are kept per value of this many top bits of a block index
_FULL = (1 << 64) - 1


@lru_cache(maxsize=8)
def _ball_table(n: int, radius: int) -> tuple[int, ...]:
    """Entry x has bit 2**n - 1 - y set for each word y with popcount(x ^ y) <= radius."""
    space = Codebook(n, n, 1, np.arange(1 << n, dtype=np.uint32))
    table: list[int] = []
    for start, block in _distance_blocks(space):
        close = block <= radius
        close[np.arange(len(close)), np.arange(start, start + len(close))] = True
        packed = np.packbits(close[:, ::-1], axis=1, bitorder="little")
        table.extend(int.from_bytes(row, "little") for row in packed)
    return tuple(table)


def _table_extend(words: np.ndarray, n: int, d: int) -> list[int]:
    """Greedy's added words for small n: the free words as one int, lowest word at the top bit."""
    ball = _ball_table(n, d - 1)
    size = 1 << n
    blocked = 0
    for v in words.tolist():
        blocked |= ball[v]
    free = blocked ^ ((1 << size) - 1)
    added = []
    while free:
        x = size - free.bit_length()
        added.append(x)
        free ^= free & ball[x]
    return added


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


@lru_cache(maxsize=1)
def _low_ball_ints() -> tuple[int, ...]:
    """Row x of _low_balls() as one int, column s at bits 64s ... 64s + 63."""
    return tuple(int.from_bytes(row.tobytes(), "little") for row in _low_balls().astype("<u8"))


@lru_cache(maxsize=8)
def _popcount_waves(n: int) -> tuple[np.ndarray, ...]:
    """The block indices of 2**(n-6) blocks, one array per popcount from 0 to n - 6."""
    high = np.arange(1 << (n - _LOW_BITS))
    weight = np.bitwise_count(high)
    waves = tuple(high[weight == w] for w in range(n - _LOW_BITS + 1))
    for wave in waves:
        wave.setflags(write=False)
    return waves


@lru_cache(maxsize=8)
def _ball_rows(n: int, radius: int) -> tuple[int, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The blocks h of the radius ball around 0, sorted by s = min(6, radius - popcount(h)).

    The ball around x is that ball translated by XOR: in block h ^ j,
    j = x >> 6, it holds the low parts within s of x & 63.  Once the greedy
    scan reaches block j every block below it is full, and h ^ j < j exactly
    when the top set bit of h is set in j.  Returns (shift, subsets):
    subsets[j >> shift] holds the rows (int64), less the rows whose top set
    bit is one of the top _SPLIT_BITS bits of j and is set in j, and the
    count of its rows at each s from 0 to 6, so that np.repeat(row of
    _low_balls(), counts) gives each row its low-part set.  subsets[0] holds
    every row.
    """
    rows = np.concatenate(_popcount_waves(n)[radius::-1])
    column = np.minimum(radius - np.bitwise_count(rows), _LOW_BITS)
    shift = max(n - _LOW_BITS - _SPLIT_BITS, 0)
    top_bit = np.array([1 << v.bit_length() >> 1 for v in range(1 << (n - _LOW_BITS - shift))],
                       dtype=np.uint8)
    lead = top_bit[rows >> shift]
    subsets = []
    for prefix in range(len(top_bit)):
        keep = (lead & prefix) == 0
        subset = rows[keep], np.bincount(column[keep], minlength=_LOW_BITS + 1)
        for part in subset:
            part.setflags(write=False)
        subsets.append(subset)
    return shift, tuple(subsets)


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


def _pushed_bitset(values: np.ndarray, n: int, radius: int) -> np.ndarray:
    """The bitset of _balls_bitset, built by writing each word's whole ball, one step a word."""
    bits = np.zeros(1 << (n - _LOW_BITS), dtype=np.uint64)
    rows, counts = _ball_rows(n, radius)[1][0]
    balls = _low_balls()
    for x in values.tolist():
        bits[rows ^ (x >> _LOW_BITS)] |= balls[x & 63].repeat(counts)
    return bits


def _blocked(words: np.ndarray, n: int, radius: int) -> np.ndarray:
    """The input book's blocked words: its balls pushed while that is cheaper than dilating.

    Pushing costs a write per ball row of each word, dilating radius rounds
    of n - 6 passes over the bitset; a row write costs about as much as 4
    pass elements.
    """
    rows = _ball_rows(n, radius)[1][0][0]
    if 4 * len(words) * len(rows) < radius * (n - _LOW_BITS) << (n - _LOW_BITS):
        return _pushed_bitset(words, n, radius)
    return _balls_bitset(words, n, radius)


def _bitset_extend(words: np.ndarray, n: int, d: int) -> list[int]:
    """Greedy's added words for n >= 6, over 2**(n-6) uint64 blocks, one block per round."""
    shift, subsets = _ball_rows(n, d - 1)
    balls, ball_ints = _low_balls(), _low_ball_ints()
    keep = [~ball & _FULL for ball in balls[:, min(_LOW_BITS, d - 1)].tolist()]
    bits = _blocked(words, n, d - 1)
    full = np.uint64(_FULL)
    added: list[int] = []
    j = 0
    while j < len(bits):
        block = bits.item(j)
        if block == _FULL:
            j += int((bits[j:] != full).argmax())
            block = bits.item(j)
            if block == _FULL:
                break
        free = ~block & _FULL
        lows = []
        union = 0
        while free:
            low = (free & -free).bit_length() - 1
            lows.append(low)
            union |= ball_ints[low]
            free &= keep[low]
        base = j << _LOW_BITS
        added.extend([base | low for low in lows])
        # at large d nearly every block takes one pick, whose row is a view
        if len(lows) == 1:
            ball = balls[lows[0]]
        else:
            ball = np.frombuffer(union.to_bytes(8 * (_LOW_BITS + 1), "little"), "<u8")
        rows, counts = subsets[j >> shift]
        bits[rows ^ j] |= ball.repeat(counts)
        j += 1
    return added


def _wave_extend(words: np.ndarray, n: int, d: int) -> np.ndarray:
    """Greedy's added words at d = 2 for n >= 6, deciding all blocks of one popcount at once.

    A radius-1 ball reaches from block j only blocks j ^ (1 << i), and of
    those the one above j has one more set bit.  So when every block of
    popcount below w is decided, the blocks of popcount w hold the free
    words the counter-order scan gives them, and each picks its words by
    the lowest-first greedy, all of them together on uint64 arrays.
    """
    bits = _blocked(words, n, d - 1)
    # the own-block clear mask of the pick at each bit, and no-op entry 64 for a block with none
    clear = np.append(~_low_balls()[:, 1], np.uint64(_FULL))
    one = np.uint64(1)
    picked = np.zeros_like(bits)
    for blocks in _popcount_waves(n):
        free = ~bits[blocks]
        picks = np.zeros_like(free)
        while free.any():
            low = free & -free
            picks |= low
            free &= clear[np.bitwise_count(low - one)]
        picked[blocks] = picks
        for i in range(n - _LOW_BITS):
            up = (blocks >> i) & 1 == 0
            bits[blocks[up] | 1 << i] |= picks[up]
    picked_bytes = picked.astype("<u8", copy=False).view(np.uint8)
    return np.flatnonzero(np.unpackbits(picked_bytes, bitorder="little"))


def extend_codebook(book: Codebook, mask: int = 0) -> Codebook:
    """Greedily extend to a maximal codebook, scanning x ^ mask for x in counter order.

    For x from 0...0 to 1...1, the word x ^ mask is added exactly when it
    keeps the minimum distance >= d.  The output contains the input, and no
    word of length n can be added to it without violating d.  XOR with the
    mask is a self-inverse isometry, so the result is the counter-order
    extension of the book flipped by the mask, flipped back: the book is
    flipped once, a kernel returns the words x that greedy adds in that
    frame, and the output book is built once from the input and each x ^ mask.

    While a table of 2**n balls fits BALL_TABLE_BUDGET_BYTES (n <= 12), the
    free words are one 2**n-bit int: the input words' balls are cleared from
    it, then the lowest free word x is added and its ball cleared, until no
    word is free.  The int holds word y at bit 2**n - 1 - y, so the lowest
    free word is read off its bit_length, and clearing the low words first
    shortens the int every later step works on.  The table is built once
    per (n, d-1) and the last 8 stay cached.

    Above that the blocked words, those within d-1 of a member, are the set
    bits of a bitset of 2**(n-6) uint64 blocks.  The ball around x is the
    ball around 0 translated by XOR: each of its blocks h gets one 64-bit
    low-part set from a (64, 7) table, at row x & 63 and column min(6, d-1 -
    popcount(h)), ORed into block h ^ j, j = x >> 6.  The rows h are kept
    sorted by that column, with the count of rows in each, so a word's whole
    ball is one write, bits[rows ^ j] |= np.repeat(its table row, counts).
    The input book's balls are set so, word by word, while that costs less
    than d-1 rounds of hypercube dilation over the whole bitset: while
    m * rows < (d-1) * (n-6) * 2**(n-6) / 4.

    At d = 2 the blocks are decided in waves, all blocks of popcount 0, then
    1, and so on.  A radius-1 ball reaches from block j only the blocks
    j ^ (1 << i), and the later of two such blocks has the larger popcount,
    so each wave sees the picks of every earlier block that reaches it.  A
    wave runs the lowest-first greedy on all its blocks' free masks at once,
    each pick clearing its own-block ball, then ORs its picks into the
    blocks j | 1 << i.

    At any other d each round takes the lowest block j that is not full.
    Its free words are picked greedily on a Python int, each pick x clearing
    its own-block ball, the low parts within min(6, d-1) of x & 63.  The
    picks of block j share j, so their low-part sets are ORed together, each
    pick's 7 columns as one Python int, and written to the other blocks in
    one step.  A pick reaches its own block only through h = 0, and block j
    is full once its picks are made, so the round moves on to block j + 1,
    scanning for the next block that is not full only from a full one.  The
    blocks below j are full too, so the rows h with h ^ j below j need no
    write: the row table is kept in 8 subsets, one per value of the top 3
    bits of j, each leaving out the rows it can tell land below.  Memory is
    O(2**(n-6)): the bitset and the subsets, at 8 bytes per row about 4.5
    full row tables together.  No ball is enumerated word by word.
    """
    n = book.n
    if not 0 <= mask < 1 << n:
        raise ValueError(f"mask {mask} does not fit in n={n} bits")
    flip = np.uint32(mask)
    if (1 << 2 * n) >> 3 <= BALL_TABLE_BUDGET_BYTES:
        kernel = _table_extend
    else:
        kernel = _wave_extend if book.d == 2 else _bitset_extend
    added = np.array(kernel(book.values ^ flip, n, book.d), dtype=np.uint32) ^ flip
    return Codebook.from_values(n, book.k, book.d, np.concatenate((book.values, added)))


def local_search(book: Codebook, positions: Iterable[int]) -> Codebook:
    """Extend the codebook to a maximal one through a mutated coordinate frame.

    Equal to mutating the book at `positions`, extending it greedily and
    mutating the result back, word for word, but done as one extension under
    the positions' XOR mask.  Since flipping is a self-inverse isometry the
    result contains the original codebook and keeps distance d, while
    different position sets reach different maximal codebooks.
    """
    return extend_codebook(book, positions_to_mask(positions, book.n))


def effective_weight(book: Codebook) -> Fraction:
    """Selection fitness: ones count, scaled up by 2**k/m while the codebook is short.

    Once a codebook holds at least 2**k codewords its fitness is the ones
    count of its best 2**k-subset, the words finalize keeps, so oversize
    codebooks are not favored for bulk alone.

    A book never changes, so each weight is computed once per book and kept
    in the book's instance dict, as functools.cached_property keeps a value.
    """
    weight = vars(book).get("_effective_weight")
    if weight is None:
        weight = vars(book)["_effective_weight"] = _weight(book)
    return weight


def _weight(book: Codebook) -> Fraction:
    m, target = book.m, book.size_target
    if m == 0:
        return Fraction(0)
    if m < target:
        return Fraction(total_ones(book) * target, m)
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


def _parent_cdf(population: Population) -> list[float]:
    """Running sums of the parent selection probabilities, as floats, the last set to 1.

    A book's probability is linear in its fitness above the minimum,
    (w - min + 1) / sum(w' - min + 1).  Over the fitnesses' common
    denominator each term is an int, and int / int rounds correctly, as
    float(Fraction) does, so each float is that of the exact probability;
    the floats are summed left to right.
    """
    weights = [effective_weight(b) for b in population.codebooks]
    common = math.lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (common // w.denominator) for w in weights]
    low = min(scaled)
    shares = [s - low + common for s in scaled]
    total = sum(shares)
    cum = list(accumulate(s / total for s in shares))
    cum[-1] = 1.0
    return cum


def recombine_pair(
    first: Codebook, second: Codebook, anchor: int, split: int
) -> tuple[Codebook, Codebook]:
    """Exchange codewords between two codebooks around an anchor word.

    Child one takes the words of `first` within distance split-d of the anchor
    plus the words of `second` at distance >= split; child two is symmetric.
    Words from the two sides are at least split - (split - d) = d apart, so
    both children keep minimum distance >= d.  A child that takes every word
    of one parent and none of the other, as both do at split 0 and n + d, is
    that parent object itself, which the search then need not extend again.
    """
    if (first.n, first.k, first.d) != (second.n, second.k, second.d):
        raise ValueError("parent codebooks must share n, k and d")
    n, k, d = first.n, first.k, first.d
    if not 0 <= anchor < (1 << n):
        raise ValueError(f"anchor {anchor} does not fit in n={n} bits")
    if not 0 <= split <= n + d:
        raise ValueError(f"split must lie in [0, {n + d}], got {split}")
    dist_first = np.bitwise_count(first.values ^ np.uint32(anchor))
    dist_second = np.bitwise_count(second.values ^ np.uint32(anchor))

    def child(own: Codebook, own_dist: np.ndarray, other: Codebook, other_dist: np.ndarray):
        near, far = own_dist <= split - d, other_dist >= split
        if near.all() and not far.any():
            return own
        if far.all() and not near.any():
            return other
        return Codebook.from_values(
            n, k, d, np.concatenate((own.values[near], other.values[far]))
        )

    return (child(first, dist_first, second, dist_second),
            child(second, dist_second, first, dist_first))


def recombination(population: Population, rng: np.random.Generator) -> Population:
    """Produce p children from p/2 parent pairs.

    Pairs are drawn with replacement across pairs; within a pair the second
    parent is redrawn until distinct.  Each pair is recombined around a
    uniform anchor word and a uniform split in [0, n+d].
    """
    books = population.codebooks
    p = len(books)
    if p < 2 or p % 2:
        raise ValueError("population size must be even and >= 2")
    cum = _parent_cdf(population)

    def draw() -> int:
        return bisect_right(cum, rng.random())

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


def _ranked(pool: Iterable[Codebook]) -> list[Codebook]:
    """By fitness, then size, descending, then by words.

    A fitness is exact in integers as floor(fitness * 4**k): fitnesses are
    fractions with denominators below 2**k, so two that differ do so by more
    than 4**-k, and their floors differ too.
    """

    def key(book: Codebook) -> tuple[int, int, bytes]:
        weight = effective_weight(book)
        scaled = (weight.numerator << 2 * book.k) // weight.denominator
        return -scaled, -book.m, book.word_bytes

    return sorted(pool, key=key)


def selection(parents: Population, children: Population) -> Population:
    """Keep the p fittest codebooks, reserving slots for complete ones.

    The top min(q, p/2) of the q complete candidates survive, the incomplete
    ones fill the remaining slots by fitness, and complete ones top up what
    the incomplete ones cannot fill.  So with no complete candidate the top p
    by fitness survive, and with q <= p/2 all complete ones survive.
    Duplicates in the merged pool are removed first; if the deduplicated pool
    is smaller than p the best candidates are repeated.
    """
    p = len(parents.codebooks)
    if len(children.codebooks) != p:
        raise ValueError("parents and children must have the same size")
    pool = list(dict.fromkeys(parents.codebooks + children.codebooks))
    ranked = _ranked(pool)
    complete = [b for b in ranked if b.is_complete]
    incomplete = [b for b in ranked if not b.is_complete]
    reserved = min(len(complete), p // 2)
    chosen = complete[:reserved] + incomplete[:p - reserved]
    chosen += complete[reserved:][:p - len(chosen)]
    idx = 0
    while len(chosen) < p:
        chosen.append(ranked[idx % len(ranked)])
        idx += 1
    return Population(tuple(chosen), children.generation)


def record_generation(population: Population) -> GenerationRecord:
    weights = [effective_weight(b) for b in population.codebooks]
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


def _local_searched(
    population: Population, config: DesignConfig, parents: Population | None = None
) -> Population:
    """Every book through local_search, at positions drawn from (seed, generation, index).

    A book that is itself one of `parents` is kept as it is.  Every book the
    search keeps came out of extend_codebook and so is maximal, whatever the
    mask, and extending it again would return an equal book.  Each book's
    draws are keyed by its index alone, so skipping one moves no other's.
    """
    finished = set() if parents is None else {id(book) for book in parents.codebooks}
    books = []
    for idx, book in enumerate(population.codebooks):
        if id(book) in finished:
            books.append(book)
            continue
        rng = _stream(config.seed, _MUTATION_STREAM, population.generation, idx)
        positions = np.flatnonzero(rng.random(book.n) < config.mutation_rate).tolist()
        books.append(local_search(book, positions))
    return Population(tuple(books), population.generation)


def _best_complete(
    population: Population, best: Codebook | None, best_ones: int | None
) -> tuple[Codebook | None, int | None]:
    for book in population.codebooks:
        if book.is_complete:
            ones = int(effective_weight(book))
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

    Every book that selection keeps came out of extend_codebook, so it is
    maximal, and maximality does not depend on the mask: a child that
    recombination returns as one of its parents is kept without another
    extension, and its skipped draws move no other child's.
    """
    config = config or DesignConfig()
    n, k, d = (_integer(name, v, 1) for name, v in zip("nkd", (n, k, d)))
    Codebook(n=n, k=k, d=d)  # validates the (n, k, d) parameter domain
    seed = config.seed
    population = _local_searched(initial_population(n, k, d, config, _stream(seed, _INIT_STREAM)),
                                 config)
    history = [record_generation(population)]
    best, best_ones = _best_complete(population, None, None)
    while not stop_check(history, config):
        gen = population.generation + 1
        children = recombination(population, _stream(seed, _RECOMBINE_STREAM, gen))
        population = selection(population, _local_searched(children, config, population))
        history.append(record_generation(population))
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
