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
from typing import Iterable, Iterator, Sequence

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


def _words(*values: int) -> list[int]:
    """The entropy of SeedSequence(values): each int as little-endian 32-bit words, 0 as one."""
    words = []
    for value in values:
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return words


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from (seed, key...) so phases can run in parallel.

    The generator of SeedSequence([seed, *key]).  Handing it the words as a
    uint32 array gives the same entropy and skips its slow list conversion.
    """
    entropy = np.array(_words(seed, *key), dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# SeedSequence's constants: its pool of 4 uint32 words, the two hash constants'
# starts and multipliers and the mixer's two multipliers
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(start: int, multiplier: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of `count` consecutive hashes, as two uint32 arrays.

    A hash XORs its value with the running constant, steps the constant by
    `multiplier` and multiplies the value by the new constant.
    """
    xors, products = [], []
    for _ in range(count):
        xors.append(start)
        start = start * multiplier & 0xFFFFFFFF
        products.append(start)
    return np.array(xors, dtype=np.uint32), np.array(products, dtype=np.uint32)


def _hash(values: np.ndarray, xors: np.ndarray, products: np.ndarray) -> np.ndarray:
    values = (values ^ xors) * products
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_L - y * _MIX_R
    return mixed ^ mixed >> 16


def _mixed_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's generate_state(4, np.uint64) of each row of a (rows, words) uint32 array.

    O'Neill's seed_seq_fe, as numpy runs it, on every row at once: the
    first 4 words are hashed into the pool, each pool word is hashed into
    the 3 others, each further word is hashed into all 4, and the state is
    the pool hashed twice over.  Every hash takes the next hash constant,
    the same for every row, so each step is one uint32 array operation.
    """
    words = entropy.shape[1]
    xors, products = _hash_constants(_INIT_A, _MULT_A, words * _POOL)
    pool = _hash(entropy[:, :_POOL], xors[:_POOL], products[:_POOL])
    at = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        step = slice(at, at + _POOL - 1)
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], xors[step], products[step]))
        at += _POOL - 1
    for src in range(_POOL, words):
        step = slice(at, at + _POOL)
        pool = _mix(pool, _hash(entropy[:, src, None], xors[step], products[step]))
        at += _POOL
    state = _hash(np.tile(pool, 2), *_hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    return state.astype("<u4", copy=False).view("<u8")


def _seed_states(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Row i: SeedSequence(rows[i]).generate_state(4, np.uint64), for rows of at least
    4 uint32 words; the rows of each word count are mixed together."""
    states = np.empty((len(rows), _POOL), dtype="<u8")
    for words in {len(row) for row in rows}:
        picks = [i for i, row in enumerate(rows) if len(row) == words]
        states[picks] = _mixed_states(np.array([rows[i] for i in picks], dtype=np.uint32))
    return states


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A seed state computed ahead, handed to PCG64 as its SeedSequence would hand it."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.state  # PCG64 asks for generate_state(4, np.uint64)


def _mutation_states(seed: int, size: int, last: int) -> Iterator[np.ndarray]:
    """The (size, 4) seed states of _stream(seed, 1, generation, index), index < size, for
    generation 0, 1, ... last in turn, computed a chunk of generations at a time.

    A chunk holds 8 generations, then 16, 32 and so on, none more than
    `last`, so a run that stops early has computed at most about twice the
    generations it ran, 32 bytes per child per generation.
    """
    start, span = 0, 8
    while start <= last:
        stop = min(start + span, last + 1)
        rows = [_words(seed, _MUTATION_STREAM, generation, index)
                for generation in range(start, stop) for index in range(size)]
        yield from _seed_states(rows).reshape(stop - start, size, _POOL)
        start, span = stop, min(2 * span, last)


# Greedy extension has two kernels, picked by n and d: the block kernel, on
# blocks of 2**BLOCK_BITS words, and at d = 2 and n > 12 the popcount waves.
# The waves and the block kernel's large input books use a bitset of uint64
# blocks: block j holds words 64j ... 64j + 63, word 64j + b at bit b.
BLOCK_BITS = 11  # a block's ball table takes 2**(2b-3) bytes, 512 KiB
_LOW_BITS = 6
_FULL = (1 << 64) - 1
REVERSED_BITS = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


@lru_cache(maxsize=16)
def _ball_table(n: int, radius: int) -> tuple[int, ...]:
    """Entry x has bit 2**n - 1 - y set for each word y with popcount(x ^ y) <= radius."""
    if radius >= n:
        return ((1 << (1 << n)) - 1,) * (1 << n)
    space = Codebook(n, n, 1, np.arange(1 << n, dtype=np.uint32))
    table: list[int] = []
    for start, block in _distance_blocks(space):
        close = block <= radius
        close[np.arange(len(close)), np.arange(start, start + len(close))] = True
        packed = np.packbits(close[:, ::-1], axis=1, bitorder="little")
        table.extend(int.from_bytes(row, "little") for row in packed)
    return tuple(table)


@lru_cache(maxsize=16)
def _offset_groups(a: int, radius: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Entry t: a (c, offsets) pair for each popcount c from 1 to radius, the
    offsets h < 2**a of popcount c whose top set bit is bit t."""
    return tuple(
        tuple((c, tuple(h for h in range(1 << t, 2 << t) if h.bit_count() == c))
              for c in range(1, min(radius, t + 1) + 1))
        for t in range(a)
    )


def _spread(blocks: list[int], j: int, tops: Iterable[int], groups, balls, picks: list[int],
            size: int) -> None:
    """OR the balls of the picks, words of block j, into each block j ^ h, h of
    popcount c and top set bit in `tops`: balls[c - 1], None at radius 0."""
    unions = []
    for ball in balls:
        union = 0
        for x in picks:
            union |= 1 << (size - 1 - x) if ball is None else ball[x]
        unions.append(union)
    for t in tops:
        for c, offsets in groups[t]:
            union = unions[c - 1]
            for h in offsets:
                blocks[j ^ h] |= union


def _input_blocks(words: np.ndarray, n: int, b: int, radius: int, own, groups, balls) -> list[int]:
    """The words within radius of the input words, as the 2**(n - b) block ints, n > b.

    A small book's words are grouped by block: each word ORs its own-block
    ball into its block, and each group is spread as the scan spreads a
    block's picks, but to every block its balls reach, since none is
    decided yet.  That costs at most an OR per word and reached block;
    dilating on the uint64 bitset of _balls_bitset costs radius rounds of
    n - 6 passes over its 2**(n - 6) elements.  A book is spread while its
    ORs number under 1/16 of those pass elements, and is dilated otherwise,
    the bitset's bytes, bit-reversed, becoming the block ints.  Below n = 6
    or b = 3 there is no bitset, so every book is spread.
    """
    a, size = n - b, 1 << b
    reach = 1 + sum(math.comb(a, c) for c in range(1, min(radius, a) + 1))
    if (n >= _LOW_BITS and b >= 3
            and 16 * len(words) * reach >= radius * (n - _LOW_BITS) << (n - _LOW_BITS)):
        data = _balls_bitset(words, n, radius).astype("<u8", copy=False).tobytes().translate(REVERSED_BITS)
        step = size >> 3
        return [int.from_bytes(data[i:i + step], "big") for i in range(0, len(data), step)]
    blocks = [0] * (1 << a)
    lows: dict[int, list[int]] = {}
    for x in words.tolist():
        j, low = x >> b, x & (size - 1)
        blocks[j] |= own[low]
        lows.setdefault(j, []).append(low)
    for j, group in lows.items():
        _spread(blocks, j, range(a), groups, balls, group, size)
    return blocks


def _greedy(free: int, own, size: int) -> list[int]:
    """The lowest free word of a block, again and again, each pick clearing its ball."""
    picks = []
    while free:
        x = size - free.bit_length()
        picks.append(x)
        free ^= free & own[x]
    return picks


def _block_extend(words: np.ndarray, n: int, d: int) -> list[int]:
    """Greedy's added words, one block of 2**b words, b = min(n, BLOCK_BITS), at a time."""
    b = min(n, BLOCK_BITS)
    a, size, radius = n - b, 1 << b, d - 1
    full = (1 << size) - 1
    own = _ball_table(b, radius)
    if not a:  # one block: the words' balls and the picks' are read from own alone
        blocked = 0
        for x in words.tolist():
            blocked |= own[x]
        return _greedy(blocked ^ full, own, size)
    groups = _offset_groups(a, radius)
    balls = [_ball_table(b, radius - c) if c < radius else None
             for c in range(1, min(radius, a) + 1)]
    blocks = _input_blocks(words, n, b, radius, own, groups, balls)
    added: list[int] = []
    for j, block in enumerate(blocks):
        if block == full:
            continue
        picks = _greedy(block ^ full, own, size)
        base = j << b
        added.extend([base | x for x in picks] if base else picks)
        if balls:
            _spread(blocks, j, [t for t in range(a) if not j >> t & 1], groups, balls, picks, size)
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


@lru_cache(maxsize=8)
def _popcount_waves(n: int) -> tuple[np.ndarray, ...]:
    """The block indices of 2**(n-6) blocks, one array per popcount from 0 to n - 6."""
    high = np.arange(1 << (n - _LOW_BITS))
    weight = np.bitwise_count(high)
    waves = tuple(high[weight == w] for w in range(n - _LOW_BITS + 1))
    for wave in waves:
        wave.setflags(write=False)
    return waves


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


def _wave_extend(words: np.ndarray, n: int, d: int) -> np.ndarray:
    """Greedy's added words at d = 2 for n >= 6, deciding all blocks of one popcount at once.

    A radius-1 ball reaches from block j only blocks j ^ (1 << i), and of
    those the one above j has one more set bit.  So when every block of
    popcount below w is decided, the blocks of popcount w hold the free
    words the counter-order scan gives them, and each picks its words by
    the lowest-first greedy, all of them together on uint64 arrays.
    """
    bits = _balls_bitset(words, n, 1)
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

    The block kernel cuts the 2**n words into 2**a blocks of 2**b words,
    b = min(n, BLOCK_BITS) and a = n - b: block j holds the words j * 2**b
    + y, y < 2**b.  Each block's free words are one Python int of 2**b bits
    with word y at bit 2**b - 1 - y, so the lowest free word is read off its
    bit_length, and a pick x clears its ball with free ^= free & ball[x].
    The balls within a block come from a table of 2**b ints per radius,
    2**(2b-3) bytes (512 KiB at b = 11), built once per (b, radius) and
    cached; radius 0 is a word's own bit and needs no table, and from
    radius b on a ball is the whole block.  Up to n = 11 there is one block:
    the input words' balls are cleared from it, then the lowest free word is
    added and its ball cleared, until no word is free.

    Above that the ball of radius d-1 around a pick x in block j reaches
    block j ^ h, for each h of popcount c <= d-1, in the words within
    d-1-c of x's own bits.  A small input book's balls are ORed into the
    block ints the way the scan ORs its picks' balls, below, but into every
    block they reach.  A larger book's are set on a bitset of 2**(n-6)
    uint64 blocks by d-1 rounds of hypercube dilation, whichever costs
    less, and the bitset's bytes, bit-reversed,
    become the block ints.  The scan then takes the blocks in ascending
    order and skips the full ones.  A block picks its free words greedily,
    then for each c ORs its picks' radius d-1-c balls together and ORs
    that union into the blocks j ^ h above j, the h of popcount c whose top
    set bit is clear in j; the blocks below j are already decided.  The
    offsets h are kept per (a, d-1), grouped by popcount and top bit.
    Memory is the tables, the 2**n / 8 bytes of block ints and, while a
    large input book is dilated, the bitset.

    At d = 2 and n > 12 the blocks are decided on the uint64 bitset in
    waves, all blocks of popcount 0, then 1, and so on.  A radius-1 ball
    reaches from block j only the blocks j ^ (1 << i), and the later of two
    such blocks has the larger popcount, so each wave sees the picks of
    every earlier block that reaches it.  A wave runs the lowest-first
    greedy on all its blocks' free masks at once, each pick clearing its
    own-block ball, then ORs its picks into the blocks j | 1 << i.
    """
    n = book.n
    flip = _integer("mask", mask, 0, (1 << n) - 1)
    kernel = _wave_extend if book.d == 2 and n > 12 else _block_extend
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
    in the slot that Codebook declares for it.
    """
    weight = book._effective_weight
    if weight is None:
        weight = book._effective_weight = _weight(book)
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
    anchor = _integer("anchor", anchor, 0, (1 << n) - 1)
    split = _integer("split", split, 0, n + d)
    dist_first = np.bitwise_count(first.values ^ anchor)
    dist_second = np.bitwise_count(second.values ^ anchor)

    def child(own: Codebook, own_dist: np.ndarray, other: Codebook, other_dist: np.ndarray):
        near, far = own_dist <= split - d, other_dist >= split
        taken = np.count_nonzero(near), np.count_nonzero(far)
        if taken == (own.m, 0):
            return own
        if taken == (0, other.m):
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

    def key(book: Codebook) -> tuple[int, int, Codebook]:
        weight = effective_weight(book)
        scaled = (weight.numerator << 2 * book.k) // weight.denominator
        return -scaled, -book.m, book

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
    complete, incomplete = [], []
    for book in ranked:
        (complete if book.is_complete else incomplete).append(book)
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
    population: Population, config: DesignConfig, states: np.ndarray,
    parents: Population | None = None,
) -> Population:
    """Every book through local_search, at positions drawn from (seed, generation, index).

    Book i draws from the generator _stream(seed, 1, generation, i) would
    give, built on row i of `states`, the generation's seed states from
    _mutation_states.  A book that is itself one of `parents` is kept as it
    is.  Every book the search keeps came out of extend_codebook and so is
    maximal, whatever the mask, and extending it again would return an equal
    book.  Each book's draws are keyed by its index alone, so skipping one
    moves no other's.
    """
    finished = set() if parents is None else {id(book) for book in parents.codebooks}
    books = []
    for idx, book in enumerate(population.codebooks):
        if id(book) in finished:
            books.append(book)
            continue
        rng = np.random.Generator(np.random.PCG64(_SeedState(states[idx])))
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
    params = Codebook(n, k, d)  # checks the parameters, read back as ints
    n, k, d = params.n, params.k, params.d
    seed = config.seed
    states = _mutation_states(seed, config.population_size, config.max_generations)
    population = _local_searched(initial_population(n, k, d, config, _stream(seed, _INIT_STREAM)),
                                 config, next(states))
    history = [record_generation(population)]
    best, best_ones = _best_complete(population, None, None)
    while not stop_check(history, config):
        gen = population.generation + 1
        children = recombination(population, _stream(seed, _RECOMBINE_STREAM, gen))
        population = selection(population,
                               _local_searched(children, config, next(states), population))
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
