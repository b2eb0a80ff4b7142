import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hdcode import (
    Codebook,
    effective_weight,
    extend_codebook,
    genetic_local_search,
    initial_population,
    local_search,
    positions_to_mask,
    recombination,
    recombine_pair,
    selection,
)
from hdcode import search
from hdcode.search import (
    DesignConfig,
    GenerationRecord,
    Population,
    _stream,
    record_generation,
    stop_check,
)


def naive_extend(book):
    """Reference scan: try every word in counter order, keep if distance holds."""
    values = book.values.tolist()
    for x in range(1 << book.n):
        if all((x ^ v).bit_count() >= book.d for v in values):
            values.append(x)
    return Codebook.from_values(book.n, book.k, book.d, values)


def ball_masks(n, radius):
    """XOR masks reaching every word within Hamming distance `radius`."""
    masks = [0]
    for w in range(1, radius + 1):
        for combo in combinations(range(n), w):
            masks.append(sum(1 << b for b in combo))
    return np.asarray(masks, dtype=np.uint32)


def mask_positions(mask, n):
    """The bit positions of an XOR mask, position 0 being the MSB."""
    return [p for p in range(n) if mask >> (n - 1 - p) & 1]


def mutate(book, positions):
    """Reference flip: every codeword XORed with the positions' mask, an isometry."""
    mask = np.uint32(positions_to_mask(positions, book.n))
    return Codebook.from_values(book.n, book.k, book.d, book.values ^ mask)


def ball_scatter_extend(book, mask=0):
    """Reference kernel: a bool array of all 2**n words and one scatter per ball.

    Under a mask it extends the book flipped at the mask's positions and
    flips the result back.
    """
    if mask:
        positions = mask_positions(mask, book.n)
        return mutate(ball_scatter_extend(mutate(book, positions)), positions)
    n, d = book.n, book.d
    size = 1 << n
    blocked = np.zeros(size, dtype=bool)
    masks = ball_masks(n, d - 1)
    values = book.values.tolist()
    for v in values:
        blocked[masks ^ np.uint32(v)] = True
    x = 0
    while x < size:
        x += int(blocked[x:].argmin())
        if blocked[x]:
            break
        values.append(x)
        blocked[masks ^ np.uint32(x)] = True
        x += 1
    return Codebook.from_values(n, book.k, d, values)


def forced_extend(bits, book, mask=0):
    """extend_codebook with the block kernel's blocks forced to 2**bits words."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "BLOCK_BITS", bits)
        return extend_codebook(book, mask)


def counted_calls(monkeypatch, name):
    """Patch search.<name> to note its first argument's length at each call; returns the notes."""
    sizes, original = [], getattr(search, name)

    def counted(*args):
        sizes.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(search, name, counted)
    return sizes


def greedy_filter(n, d, values):
    kept = []
    for v in values:
        if all((v ^ u).bit_count() >= d for u in kept):
            kept.append(v)
    return kept


def small_books(draw, n, k, d):
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    kept = greedy_filter(n, d, raw)
    return Codebook.from_values(n, k, d, kept)


@st.composite
def seed_books(draw, min_n=1, max_n=13):
    """Valid books of 0 to 16 words at n <= 13, on both sides of the n = 11/12
    switch from one block to many and of the n = 12/13 switch to the d = 2
    waves, at any distance."""
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, n))
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    return Codebook.from_values(n, min(3, n), d, greedy_filter(n, d, raw))


@st.composite
def block_kernel_cases(draw):
    """A valid book of 0 to 16 words, a mask, 0 as often as any other, and a
    forced block size of 2**bits words, bits = 1 ... n - 1, at n = 2 ... 14,
    with d = 1 and d = n drawn as often as any other distance."""
    n = draw(st.integers(2, 14))
    d = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    mask = draw(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)))
    bits = draw(st.integers(1, n - 1))
    return Codebook.from_values(n, min(3, n), d, greedy_filter(n, d, raw)), mask, bits


@st.composite
def random_books(draw):
    """Codebooks of any size around 2**k; the distance floor is not enforced."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(n, 4)))
    values = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=min(40, 1 << n)))
    return Codebook.from_values(n, k, 1, values)


@st.composite
def parent_pairs(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, min(3, n)))
    k = draw(st.integers(1, min(3, n)))
    first = small_books(draw, n, k, d)
    second = small_books(draw, n, k, d)
    anchor = draw(st.integers(0, (1 << n) - 1))
    split = draw(st.integers(0, n + d))
    return first, second, anchor, split


class TestExtend:
    def test_empty_repetition_instance(self):
        assert extend_codebook(Codebook(n=3, k=2, d=3)).bitstrings() == ("000", "111")

    def test_seeded_instance(self):
        book = Codebook.from_values(3, 2, 2, [0b110])
        assert extend_codebook(book).bitstrings() == ("000", "011", "101", "110")

    def test_mask_must_fit_n_bits(self):
        for mask in (-1, 1 << 5):
            with pytest.raises(ValueError, match="mask"):
                extend_codebook(Codebook(n=5, k=2, d=2), mask)

    def test_greedy_scan_finds_hamming_size(self):
        book = extend_codebook(Codebook(n=7, k=4, d=3))
        assert book.m == 16
        assert book.min_distance == 3

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_scan(self, data):
        n = data.draw(st.integers(1, 10))
        d = data.draw(st.integers(1, n))
        book = small_books(data.draw, n, min(2, n), d)
        fast = extend_codebook(book)
        assert fast == naive_extend(book)

    @given(seed_books())
    @settings(max_examples=200, deadline=None)
    def test_matches_ball_scatter(self, book):
        assert extend_codebook(book) == ball_scatter_extend(book)

    @pytest.mark.parametrize("n,k,d", [(18, 3, 7), (18, 4, 6)])
    def test_first_generation_matches_ball_scatter(self, monkeypatch, n, k, d):
        """Seed-0 population and children after one generation, with either kernel."""

        def first_generation():
            seen = []

            def recording_selection(parents, children):
                kept = selection(parents, children)
                seen.extend([parents, children, kept])
                return kept

            monkeypatch.setattr(search, "selection", recording_selection)
            genetic_local_search(n, k, d, DesignConfig(seed=0, max_generations=1))
            return seen

        fast = first_generation()
        masks = []

        def reference(book, mask=0):
            masks.append(mask)
            return ball_scatter_extend(book, mask)

        monkeypatch.setattr(search, "extend_codebook", reference)
        assert first_generation() == fast
        assert len(fast) == 3
        # the ten initial books and every child that is not a parent object,
        # which the search keeps without extending it
        parents, children, _ = fast
        made = sum(all(c is not p for p in parents.codebooks) for c in children.codebooks)
        assert len(masks) == 10 + made and any(masks)

    def test_golay_code(self):
        """The (23, 2**12, 7) lexicode is the binary Golay code.

        Conway & Sloane, "Lexicographic codes: error-correcting codes from
        game theory", IEEE T-IT 32(3), 1986.
        """
        golay = extend_codebook(Codebook(n=23, k=12, d=7))
        assert golay.m == 1 << 12
        weights = Counter(v.bit_count() for v in golay.values.tolist())
        assert weights == {0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1}

    def test_bounded_memory_at_n24(self):
        # a radius-11 ball holds 7.0 M of the 16.8 M words; the bitset has
        # 2**18 uint64 blocks, 2 MiB, and so have the 2**13 block ints; the
        # ten ball tables of radius 1 to 10, 512 KiB of bits each, are built and counted
        search._ball_table.cache_clear()
        tracemalloc.start()
        try:
            book = extend_codebook(Codebook(n=24, k=3, d=12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert book.is_complete
        book.validate()
        assert peak < 32 << 20

    @given(st.data())
    @settings(max_examples=40)
    def test_contains_input_and_is_maximal(self, data):
        n = data.draw(st.integers(2, 7))
        d = data.draw(st.integers(1, min(3, n)))
        book = small_books(data.draw, n, min(2, n), d)
        extended = extend_codebook(book)
        assert set(book.values.tolist()) <= set(extended.values.tolist())
        extended.validate()
        assert extend_codebook(extended) == extended


class TestExtendKernels:
    """The block kernel at forced block sizes, and the d = 2 waves.

    By default the block kernel works on one block up to n = 11, so these
    tests force blocks of 2**bits words, bits = 1 ... n - 1, to run its
    multi-block paths from n = 2 up: an input book's balls spread to every
    block they reach or, for a large book from n = 6 and 8-word blocks,
    dilated on the uint64 bitset, and picks spread to the blocks above.
    """

    @classmethod
    def teardown_class(cls):
        search._ball_table.cache_clear()  # a forced b = 13 table takes 8 MiB
        search._offset_groups.cache_clear()

    @given(seed_books(min_n=6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_both_kernels_match_ball_scatter(self, book, data):
        """The default kernel and the block kernel at a forced block size."""
        expected = ball_scatter_extend(book)
        assert extend_codebook(book) == expected
        assert forced_extend(data.draw(st.integers(1, book.n - 1)), book) == expected

    @given(seed_books(min_n=6), st.data())
    @settings(max_examples=120, deadline=None)
    def test_masked_kernels_match_flipped_ball_scatter(self, book, data):
        mask = data.draw(st.integers(0, (1 << book.n) - 1))
        positions = mask_positions(mask, book.n)
        expected = mutate(ball_scatter_extend(mutate(book, positions)), positions)
        assert extend_codebook(book, mask) == expected
        assert forced_extend(data.draw(st.integers(1, book.n - 1)), book, mask) == expected

    @given(block_kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_block_kernel_matches_ball_scatter(self, case):
        book, mask, bits = case
        assert forced_extend(bits, book, mask) == ball_scatter_extend(book, mask)

    @pytest.mark.parametrize("n,d", [(12, 2), (13, 2), (14, 2), (13, 7), (14, 7), (14, 9)])
    def test_block_kernel_with_many_or_one_pick_per_block(self, n, d):
        """In blocks of 64 words, at d = 2 an empty book's blocks each take 32
        words, from the block kernel at n = 12 and from the waves above; from
        d = 7 a pick's own-block ball covers its block, so each takes at most
        one."""
        rng = np.random.default_rng(n * 16 + d)
        picks = np.bincount(forced_extend(6, Codebook(n=n, k=3, d=d)).values >> 6)
        assert picks.max() == (32 if d == 2 else 1)
        seeded = greedy_filter(n, d, rng.integers(0, 1 << n, size=12).tolist())
        for book in (Codebook(n=n, k=3, d=d), Codebook.from_values(n, 3, d, seeded)):
            mask = int(rng.integers(0, 1 << n))
            assert forced_extend(6, book, mask) == ball_scatter_extend(book, mask)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_block_kernel_with_many_picks_from_seeded_books(self, data):
        """At d = 2 and n >= 13 blocks pick several words each, all the blocks
        of one popcount together in the waves."""
        n = data.draw(st.integers(13, 14))
        raw = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=64))
        book = Codebook.from_values(n, 3, 2, greedy_filter(n, 2, raw))
        mask = data.draw(st.integers(0, (1 << n) - 1))
        extended = extend_codebook(book, mask)
        assert extended == ball_scatter_extend(book, mask)
        added = np.setdiff1d(extended.values, book.values) ^ np.uint32(mask)
        assert np.bincount(added >> 6).max() > 1

    @given(seed_books(max_n=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_kernel_below_one_block(self, book, data):
        """Below a 64-word bitset block: one block, and blocks of 2 to 16 words."""
        assert extend_codebook(book) == ball_scatter_extend(book)
        if book.n > 1:
            bits = data.draw(st.integers(1, book.n - 1))
            assert forced_extend(bits, book) == ball_scatter_extend(book)

    @pytest.mark.parametrize("a", range(9))
    def test_offset_groups_reach_exactly_the_blocks_above(self, a):
        """For block j the groups at its clear bits hold each offset h with
        1 <= popcount(h) <= radius and j ^ h > j once, and no other: each
        pick's ball reaches every later block once and no earlier one."""
        for radius in range(a + 1):
            groups = search._offset_groups(a, radius)
            assert len(groups) == a
            for j in range(1 << a):
                reached = [
                    (c, h)
                    for t in range(a) if not j >> t & 1
                    for c, offsets in groups[t]
                    for h in offsets
                ]
                expected = [h for h in range(1, 1 << a) if h.bit_count() <= radius and j ^ h > j]
                assert sorted(h for _, h in reached) == expected
                assert all(h.bit_count() == c for c, h in reached)

    @pytest.mark.parametrize("n, radius", [(12, 1), (13, 2), (16, 3), (18, 5), (18, 6), (20, 3)])
    def test_input_blocks_match_scattered_balls(self, n, radius, monkeypatch):
        """Below and from `line`, the smallest book whose balls are dilated on
        the bitset rather than spread block by block, the block ints hold
        exactly the words within radius of the book, packed MSB-first from
        its balls scattered on a bool array of all 2**n words."""
        b = search.BLOCK_BITS
        a, size = n - b, 1 << b
        own = search._ball_table(b, radius)
        groups = search._offset_groups(a, radius)
        balls = [search._ball_table(b, radius - c) if c < radius else None
                 for c in range(1, min(radius, a) + 1)]
        reach = sum(math.comb(a, c) for c in range(min(radius, a) + 1))
        line = -(-(radius * (n - 6) << (n - 6)) // (16 * reach))
        dilated = counted_calls(monkeypatch, "_balls_bitset")
        masks = ball_masks(n, radius)
        rng = np.random.default_rng(n * 8 + radius)
        for m in 0, 1, line - 1, line, line + 1, 2 * line:
            words = rng.integers(0, 1 << n, size=m, dtype=np.uint32)
            blocked = np.zeros(1 << n, dtype=bool)
            for x in words:
                blocked[masks ^ x] = True
            data = np.packbits(blocked).tobytes()
            expected = [int.from_bytes(data[i:i + size // 8], "big")
                        for i in range(0, len(data), size // 8)]
            before = len(dilated)
            assert search._input_blocks(words, n, b, radius, own, groups, balls) == expected
            assert len(dilated) - before == (m >= line)

    def test_design_run_spreads_and_dilates_input_books(self, monkeypatch):
        """The three-generation (18, 4, 6) run that test_golden pins blocks
        some input books by spreading and some by dilating."""
        calls = counted_calls(monkeypatch, "_input_blocks")
        dilated = counted_calls(monkeypatch, "_balls_bitset")
        genetic_local_search(18, 4, 6, DesignConfig(seed=0, max_generations=3, patience=3))
        assert 0 < len(dilated) < len(calls)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_waves_match_block_kernel(self, data):
        """The d = 2 waves add the words the block kernel adds, from a
        random book and again from a random half of the extended book."""
        n = data.draw(st.integers(13, 16))
        raw = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=64))
        mask = np.uint32(data.draw(st.integers(0, (1 << n) - 1)))
        words = np.array(greedy_filter(n, 2, raw), dtype=np.uint32) ^ mask
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        for _ in range(2):
            added = search._block_extend(words, n, 2)
            assert sorted(search._wave_extend(words, n, 2).tolist()) == sorted(added)
            extended = np.concatenate((words, np.array(added, dtype=np.uint32)))
            words = extended[rng.random(len(extended)) < 0.5]

    def test_table_matches_brute_force_ball(self):
        search._ball_table.cache_clear()
        tracemalloc.start()
        try:
            table = search._ball_table(12, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4,096 ints of 4,096 bits hold 2 MiB; one distance block adds 1.5 MiB
        assert peak < 6 << 20
        assert len(table) == 1 << 12
        for x in np.random.default_rng(0).integers(0, 1 << 12, size=40).tolist():
            # word y sits at bit 4095 - y, so the lowest word is the top bit
            ball = sum(1 << (4095 - y) for y in range(1 << 12) if (x ^ y).bit_count() <= 3)
            assert table[x] == ball

    def test_balls_bitset_gathers_one_column_per_round(self):
        # the 2**19 even-weight words at n = 20
        words = np.arange(1 << 20, dtype=np.uint32)
        even = np.bitwise_count(words) % 2 == 0
        words = words[even]
        expected = np.packbits(even, bitorder="little").view("<u8")
        assert np.array_equal(search._balls_bitset(words, 20, 0), expected)
        tracemalloc.start()
        try:
            bits = search._balls_bitset(words, 20, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(bits == np.uint64(search._FULL))
        # 8 bytes per word for each of the words, blocks, low parts and one
        # gathered column: 16 MiB; a (m, 7) low-ball table would add 24 MiB
        assert peak < 24 << 20


class TestLocalSearch:
    @given(st.data())
    @settings(max_examples=40)
    def test_contains_input_valid_and_maximal(self, data):
        n = data.draw(st.integers(2, 7))
        d = data.draw(st.integers(1, min(3, n)))
        book = small_books(data.draw, n, min(2, n), d)
        positions = data.draw(st.sets(st.integers(0, n - 1)))
        result = local_search(book, positions)
        assert set(book.values.tolist()) <= set(result.values.tolist())
        result.validate()
        assert extend_codebook(result) == result

    @given(seed_books(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_ball_scatter(self, book, data):
        positions = data.draw(st.sets(st.integers(0, book.n - 1)))
        expected = mutate(ball_scatter_extend(mutate(book, positions)), positions)
        assert local_search(book, positions) == expected

    def test_empty_mask_reduces_to_extend(self):
        book = Codebook.from_values(4, 2, 2, [0b1100])
        assert local_search(book, []) == extend_codebook(book)


class TestMutation:
    @given(seed_books(), st.data())
    def test_involution_and_isometry(self, book, data):
        positions = data.draw(st.sets(st.integers(0, book.n - 1)))
        flipped = mutate(book, positions)
        assert mutate(flipped, positions) == book
        before = sorted((a ^ b).bit_count() for a, b in combinations(book.values.tolist(), 2))
        after = sorted((a ^ b).bit_count() for a, b in combinations(flipped.values.tolist(), 2))
        assert before == after

    def test_position_zero_is_most_significant(self):
        assert positions_to_mask([0], 4) == 0b1000
        assert positions_to_mask([3], 4) == 0b0001
        assert positions_to_mask([], 4) == 0

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            positions_to_mask([4], 4)


class TestEffectiveWeight:
    def test_short_codebook_scales_up(self):
        book = Codebook.from_values(4, 3, 1, [0b1111, 0b0001])
        assert effective_weight(book) == Fraction(5 * 8, 2)

    def test_complete_codebook_counts_ones(self):
        book = Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101, 0b011])
        assert effective_weight(book) == Fraction(9)

    def test_oversize_reads_best_subset(self):
        book = Codebook.from_values(3, 1, 1, [0b111, 0b110, 0b101, 0b011])
        assert effective_weight(book) == Fraction(5)

    def test_one_generation_partitions_each_book_once(self, monkeypatch):
        books = []
        partition = search._best_subset_ones

        def counting(book):
            books.append(book)  # held, so no two books share an id
            return partition(book)

        monkeypatch.setattr(search, "_best_subset_ones", counting)
        report = genetic_local_search(10, 5, 3, DesignConfig(seed=0, max_generations=1))
        assert report.succeeded and books
        assert max(Counter(id(b) for b in books).values()) == 1

    def test_empty_book_has_zero_weight(self):
        assert effective_weight(Codebook(n=4, k=2, d=1)) == 0

    @given(random_books())
    def test_matches_sorted_reference(self, book):
        """Differential check against a plain-Python ranking of the values."""
        ranked = sorted(book.values.tolist(), key=lambda v: (-v.bit_count(), -v))
        ones = [v.bit_count() for v in ranked]
        if book.m == 0:
            expected = Fraction(0)
        elif book.m < book.size_target:
            expected = Fraction(sum(ones) * book.size_target, book.m)
        else:
            expected = Fraction(sum(ones[: book.size_target]))
        weight = effective_weight(book)
        assert type(weight) is Fraction
        assert weight == expected


def fraction_probabilities(weights):
    """Reference: each fitness above the minimum, plus one, normalised in Fractions."""
    low = min(weights)
    shifted = [w - low + 1 for w in weights]
    total = sum(shifted)
    return [w / total for w in shifted]


def float_cdf(probs):
    """Reference: the running float sums of the probabilities, the last set to 1."""
    cum = np.cumsum([float(q) for q in probs])
    cum[-1] = 1.0
    return cum.tolist()


class TestParentProbabilities:
    """recombination draws parents from _parent_cdf, checked against Fractions."""

    def test_known_two_book_split(self):
        heavy = Codebook.from_values(2, 1, 1, [0b11, 0b10])
        light = Codebook.from_values(2, 1, 1, [0b01, 0b00])
        weights = [effective_weight(heavy), effective_weight(light)]
        assert fraction_probabilities(weights) == [Fraction(3, 4), Fraction(1, 4)]
        assert search._parent_cdf(Population((heavy, light))) == [0.75, 1.0]

    def test_uniform_when_equal(self):
        book = Codebook.from_values(2, 1, 1, [0b11, 0b10])
        assert search._parent_cdf(Population((book, book, book))) == [1 / 3, 1 / 3 + 1 / 3, 1.0]

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=6))
    def test_sums_to_one_and_favors_heavy(self, picks):
        options = [
            Codebook.from_values(3, 1, 1, [0b000, 0b001]),
            Codebook.from_values(3, 1, 1, [0b011, 0b001]),
            Codebook.from_values(3, 1, 1, [0b011, 0b111]),
            Codebook.from_values(3, 1, 1, [0b110, 0b111]),
        ]
        population = Population(tuple(options[i] for i in picks))
        weights = [effective_weight(b) for b in population.codebooks]
        probs = fraction_probabilities(weights)
        assert sum(probs) == 1
        cum = search._parent_cdf(population)
        assert cum == float_cdf(probs)
        steps = np.diff([0.0] + cum)
        for (wa, pa) in zip(weights, steps):
            for (wb, pb) in zip(weights, steps):
                assert (wa > wb) == (pa > pb) or wa == wb


class TestRecombination:
    @given(parent_pairs())
    @settings(max_examples=300)
    def test_children_keep_min_distance(self, pair):
        first, second, anchor, split = pair
        child_one, child_two = recombine_pair(first, second, anchor, split)
        child_one.validate()
        child_two.validate()

        def exchange(own, other):
            near = [v for v in own.values.tolist() if (v ^ anchor).bit_count() <= split - own.d]
            far = [v for v in other.values.tolist() if (v ^ anchor).bit_count() >= split]
            return Codebook.from_values(own.n, own.k, own.d, near + far)

        assert (child_one, child_two) == (exchange(first, second), exchange(second, first))

    def test_split_extremes_swap_or_keep(self):
        first = Codebook.from_values(3, 2, 2, [0b000, 0b011])
        second = Codebook.from_values(3, 2, 2, [0b101, 0b110])
        anchor = 0b000
        # split 0: the near side is empty, so the children trade all codewords
        # and are the parent objects themselves, which the search keeps unextended
        child_one, child_two = recombine_pair(first, second, anchor, 0)
        assert child_one is second and child_two is first
        # split n+d: the far side is empty, so each child is its own parent
        child_one, child_two = recombine_pair(first, second, anchor, 5)
        assert child_one is first and child_two is second

    def test_rejects_mismatched_parents(self):
        first = Codebook.from_values(3, 2, 2, [0b000])
        second = Codebook.from_values(4, 2, 2, [0b0000])
        with pytest.raises(ValueError):
            recombine_pair(first, second, 0, 2)
        with pytest.raises(ValueError, match="share n, k and d"):
            recombine_pair(first, Codebook.from_values(3, 3, 2, [0b000]), 0, 2)
        with pytest.raises(ValueError):
            recombine_pair(first, first, 0, 6)
        for anchor in (-1, 8):
            with pytest.raises(ValueError, match="anchor"):
                recombine_pair(first, first, anchor, 2)

    def test_population_round(self):
        books = tuple(
            Codebook.from_values(4, 2, 2, vals)
            for vals in ([0b0000, 0b0011], [0b1111, 0b1100], [0b0101], [0b1010, 0b0110])
        )
        children = recombination(Population(books), _stream(7, 99))
        assert len(children.codebooks) == 4
        assert children.generation == 1
        for b in children.codebooks:
            b.validate()

    def test_odd_population_rejected(self):
        book = Codebook.from_values(3, 1, 1, [0b111])
        with pytest.raises(ValueError):
            recombination(Population((book, book, book)), _stream(0, 0))


@st.composite
def near_tie_fitnesses(draw):
    """k, 2 to 12 fitnesses at or next to one anchor, fractions with
    denominators below 2**k and often the largest, and one word set per book."""
    k = draw(st.integers(1, 12))
    top = (1 << k) - 1
    anchor = Fraction(draw(st.integers(0, 12 << k)), draw(st.integers(1, top)))
    fits = []
    for _ in range(draw(st.integers(2, 12))):
        den = draw(st.sampled_from(sorted({1, top, max(top - 1, 1)})) | st.integers(1, top))
        near = Fraction(max(0, math.floor(anchor * den) + draw(st.integers(-1, 1))), den)
        fits.append(draw(st.sampled_from([anchor, near])))
    words = draw(st.lists(st.sets(st.integers(0, 7), max_size=3), min_size=len(fits),
                          max_size=len(fits)))
    return k, fits, [sorted(w) for w in words]


class TestSelectionArithmetic:
    """_ranked and recombination read fitnesses as integers; the Fraction
    arithmetic they replace stays here as the reference."""

    @given(near_tie_fitnesses())
    @example((10, [Fraction(5, 3), Fraction(1667, 1000), Fraction(5, 3)], [[1], [2], [3]]))
    @example((3, [Fraction(1, 7), Fraction(1, 6), Fraction(0), Fraction(1, 7)], [[], [], [], [1]]))
    @settings(max_examples=300)
    def test_ranks_and_cumulates_as_fractions(self, case):
        k, fits, words = case
        books = [Codebook.from_values(12, k, 1, w) for w in words]
        weight = {id(b): f for b, f in zip(books, fits)}
        population = Population(tuple(books))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "effective_weight", lambda b: weight[id(b)])
            ranked = search._ranked(books)
            cum = search._parent_cdf(population)
        reference = sorted(books, key=lambda b: (-weight[id(b)], -b.m, tuple(b.values.tolist())))
        assert [id(b) for b in ranked] == [id(b) for b in reference]
        assert cum == float_cdf(fraction_probabilities(fits))


def branched_selection(parents, children):
    """Reference: the reserve rule written as three cases on the q complete books."""
    p = len(parents.codebooks)
    ranked = search._ranked(dict.fromkeys(parents.codebooks + children.codebooks))
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


@st.composite
def selection_pools(draw):
    """Parents and children of p books at (4, 2, 1), each complete or not, with repeats."""
    p = 2 * draw(st.integers(1, 5))
    books = st.sets(st.integers(0, 15), min_size=1, max_size=7).map(
        lambda values: Codebook.from_values(4, 2, 1, values)
    )
    pool = draw(st.lists(books, min_size=1, max_size=2 * p))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2 * p, max_size=2 * p))
    return Population(tuple(picks[:p])), Population(tuple(picks[p:]), generation=1)


class TestSelection:
    def _book(self, values, n=4, k=2, d=1):
        return Codebook.from_values(n, k, d, values)

    @given(selection_pools())
    @settings(max_examples=300)
    def test_matches_branched_reference(self, pools):
        parents, children = pools
        assert selection(parents, children) == branched_selection(parents, children)

    def test_keeps_fittest_without_complete(self):
        a = self._book([0b1111])
        b = self._book([0b0111])
        c = self._book([0b0011])
        e = self._book([0b0001])
        kept = selection(Population((a, b)), Population((c, e), generation=1))
        assert kept.codebooks == (a, b)
        assert kept.generation == 1

    def test_reserves_half_for_complete(self):
        complete_heavy = self._book([0b1111, 0b1110, 0b1101, 0b1011])
        complete_light = self._book([0b0000, 0b0001, 0b0010, 0b0100])
        complete_mid = self._book([0b1000, 0b1100, 0b0110, 0b1111])
        short_heavy = self._book([0b1111])
        kept = selection(
            Population((complete_heavy, complete_light)),
            Population((complete_mid, short_heavy), generation=3),
        )
        # three complete books exceed the p/2 = 1 quota: only the heaviest
        # complete one survives, alongside the top incomplete one
        assert set(kept.codebooks) == {complete_heavy, short_heavy}

    def test_all_complete_survive_when_few(self):
        complete = self._book([0b0000, 0b0001, 0b0010, 0b0100])
        shorts = [self._book([v]) for v in (0b1111, 0b0111, 0b0011)]
        kept = selection(
            Population((complete, shorts[0])),
            Population((shorts[1], shorts[2]), generation=1),
        )
        assert complete in kept.codebooks

    def test_duplicates_collapse_then_refill(self):
        book = self._book([0b1111])
        kept = selection(Population((book, book)), Population((book, book), generation=1))
        assert kept.codebooks == (book, book)

    def test_size_mismatch_rejected(self):
        book = self._book([0b1111])
        with pytest.raises(ValueError):
            selection(Population((book, book)), Population((book,), generation=1))

    @staticmethod
    def _last_word_pair():
        """Two 2**16-word books at n = 17 that tie on fitness and size and differ
        only in their last word, 0xFFFF against 0x1FFFE, both of weight 16."""
        head = np.arange((1 << 16) - 1, dtype=np.uint32)
        return [Codebook.from_values(17, 16, 1, np.append(head, np.uint32(last)))
                for last in (0x1FFFE, 0xFFFF)]

    def test_last_word_breaks_a_tie_in_tuple_order(self):
        books = self._last_word_pair()
        assert effective_weight(books[0]) == effective_weight(books[1])
        reference = sorted(books, key=lambda b: tuple(b.values.tolist()))
        assert [id(b) for b in search._ranked(books)] == [id(b) for b in reference]
        assert reference[0].values[-1] == 0xFFFF and books[1] < books[0]

    def test_ranking_keeps_no_copy_of_the_words(self):
        """Hashing, comparing and ranking books leaves nothing per word behind."""
        first, second = self._last_word_pair()
        tracemalloc.start()
        try:
            assert hash(first) != hash(second) and first != second
            search._ranked([first, second])
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / (first.m + second.m) < 0.01


class TestStopCheck:
    config = DesignConfig(patience=3, max_generations=100)

    @staticmethod
    def _records(sizes=None, weights=None, complete=False):
        if sizes is None:
            sizes = [4] * len(weights)
        if weights is None:
            weights = [Fraction(8)] * len(sizes)
        return [
            GenerationRecord(Fraction(w), s, complete) for w, s in zip(weights, sizes)
        ]

    def test_requires_history(self):
        with pytest.raises(ValueError):
            stop_check([], self.config)

    def test_waits_for_full_window(self):
        assert not stop_check(self._records(sizes=[3, 3, 3]), self.config)

    def test_stalled_size_stops_before_completion(self):
        assert stop_check(self._records(sizes=[3, 3, 3, 3]), self.config)
        assert not stop_check(self._records(sizes=[3, 3, 3, 4]), self.config)

    def test_stalled_weight_stops_after_completion(self):
        records = self._records(weights=[9, 9, 9, 9], complete=True)
        assert stop_check(records, self.config)
        growing = self._records(weights=[6, 7, 8, 9], sizes=[4, 4, 4, 4], complete=True)
        assert not stop_check(growing, self.config)

    def test_generation_cap(self):
        config = DesignConfig(patience=50, max_generations=2)
        records = self._records(sizes=[1, 2, 3])
        assert stop_check(records, config)


class TestConfigValidation:
    def test_rejects_odd_population(self):
        with pytest.raises(ValueError):
            DesignConfig(population_size=5)

    def test_rejects_bad_mutation_rate(self):
        for rate in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                DesignConfig(mutation_rate=rate)

    def test_rejects_bad_init_range(self):
        with pytest.raises(ValueError):
            DesignConfig(init_size_range=(3, 2))
        with pytest.raises(ValueError):
            DesignConfig(init_size_range=(0, 2))

    @pytest.mark.parametrize("field, value", [
        ("population_size", 4.0), ("patience", 2.5), ("max_generations", 2.5),
        ("init_size_range", (1.5, 3)), ("init_size_range", (1, 3.0)), ("seed", True),
        ("population_size", np.bool_(True)),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        """A float or a bool is refused up front, not failed on (a TypeError from
        range or a slice) or silently run (seed=True as seed 1)."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            DesignConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        config = DesignConfig(population_size=np.int64(4), init_size_range=(np.int32(1), 3),
                              patience=np.uint8(2), max_generations=np.int16(3), seed=np.int64(7))
        assert genetic_local_search(3, 2, 1, config).best_ones == 9
        stored = (config.population_size, *config.init_size_range, config.patience,
                  config.max_generations, config.seed)
        assert stored == (4, 1, 3, 2, 3, 7)
        assert all(type(value) is int for value in stored)


class TestInitialPopulation:
    def test_sizes_within_clamped_range(self):
        config = DesignConfig(population_size=10, init_size_range=(1, 5))
        population = initial_population(4, 2, 1, config, _stream(3, 0))
        assert len(population.codebooks) == 10
        for book in population.codebooks:
            assert 1 <= book.m <= 3
            book.validate()

    def test_all_books_respect_distance(self):
        config = DesignConfig(population_size=10, init_size_range=(2, 5))
        population = initial_population(6, 3, 3, config, _stream(11, 0))
        for book in population.codebooks:
            book.validate()


def extend_every_child(population, config, states, parents=None):
    """Reference local search: every book extended, its parents and precomputed
    seed states ignored, and the mutation positions drawn from
    SeedSequence([seed, 1, generation, index])."""
    books = []
    for idx, book in enumerate(population.codebooks):
        entropy = [config.seed, 1, population.generation, idx]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        positions = np.flatnonzero(rng.random(book.n) < config.mutation_rate).tolist()
        books.append(search.local_search(book, positions))
    return Population(tuple(books), population.generation)


class TestGeneticLocalSearch:
    def test_golden_max_density_instance(self):
        report = genetic_local_search(3, 2, 1, DesignConfig(seed=0))
        assert report.best_ones == 9
        assert report.best.is_complete
        report.best.validate()

    def test_golden_distance_two_instance(self):
        report = genetic_local_search(3, 2, 2, DesignConfig(seed=0))
        assert report.best_ones == 6

    def test_report_invariants(self, designed_books):
        book = designed_books[(10, 4, 3)]
        assert book.m == 16
        book.validate()
        assert book.min_distance >= 3

    def test_deterministic_for_seed(self):
        a = genetic_local_search(5, 2, 2, DesignConfig(seed=13))
        b = genetic_local_search(5, 2, 2, DesignConfig(seed=13))
        assert a == b

    def test_seed_is_used_whole(self):
        """Seeds 2**64 and 0 draw from different streams and design different books."""
        assert _stream(1 << 64, 0).random() != _stream(0, 0).random()
        wide = genetic_local_search(8, 3, 3, DesignConfig(seed=1 << 64))
        assert wide.best != genetic_local_search(8, 3, 3, DesignConfig(seed=0)).best

    @given(st.integers(0, 1 << 70), st.lists(st.integers(0, 1 << 33), max_size=3))
    @example(0, [0, 0])
    @example((1 << 32) - 1, [1 << 32])
    @example(1 << 64, [(1 << 33) - 1])
    def test_stream_draws_as_seed_sequence_of_ints(self, seed, key):
        entropy = np.random.SeedSequence([seed, *key])
        expected = np.random.Generator(np.random.PCG64(entropy)).random(4)
        assert _stream(seed, *key).random(4).tolist() == expected.tolist()

    @given(st.lists(st.lists(st.integers(0, (1 << 32) - 1), min_size=4, max_size=8),
                    min_size=1, max_size=12))
    @example([search._words(1 << 32, 1, 7, index) for index in range(3)])
    @example([search._words((1 << 64) + 5, 1, generation, 1) for generation in range(3)])
    @example([search._words(3, 1, generation, 0) for generation in (0, (1 << 32) - 1, 1 << 32)])
    def test_seed_states_match_seed_sequence(self, rows):
        """The chunk mixer gives each row SeedSequence's state, rows of several
        word counts mixed in one call among them."""
        expected = [np.random.SeedSequence(row).generate_state(4, np.uint64).tolist()
                    for row in rows]
        assert search._seed_states(rows).tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1 << 32, (1 << 64) + 5])
    def test_mutation_states_draw_as_streams(self, seed):
        """Across the chunks of 8, 16 and 17 generations up to generation 40."""
        generations = list(search._mutation_states(seed, 2, 40))
        assert len(generations) == 41
        for generation, states in enumerate(generations):
            for index, state in enumerate(states):
                rng = np.random.Generator(np.random.PCG64(search._SeedState(state)))
                expected = _stream(seed, 1, generation, index).random(4)
                assert rng.random(4).tolist() == expected.tolist()

    def test_seed_states_only_for_generations_run(self, monkeypatch):
        """Patience stops a run capped at 10**12 generations, whose seed states
        would take 320 TB at once: the run computes them for at most twice the
        generations it ran, and its peak stays under 128 KiB."""
        genetic_local_search(7, 3, 3, DesignConfig(max_generations=5))  # tables cached
        mixer, rows = search._seed_states, []
        monkeypatch.setattr(search, "_seed_states", lambda chunk: rows.append(len(chunk))
                            or mixer(chunk))
        tracemalloc.start()
        try:
            report = genetic_local_search(7, 3, 3, DesignConfig(max_generations=10**12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.generations_run < 100
        assert sum(rows) <= 2 * 10 * (report.generations_run + 1)
        assert peak < 128 << 10

    @pytest.mark.parametrize(
        "n,k,d,generations",
        [(7, 3, 3, 30), (10, 4, 3, 30), (10, 5, 3, 30), (13, 4, 4, 8), (16, 6, 4, 4)],
    )
    def test_kept_children_match_extending_every_child(self, monkeypatch, n, k, d, generations):
        """Keeping children that are parent objects unextended gives the same
        report as extending every child."""
        extend, calls = search.local_search, []

        def counted(book, positions):
            calls.append(book)
            return extend(book, positions)

        monkeypatch.setattr(search, "local_search", counted)
        skipped = 0
        for seed in (0, 1, (1 << 64) + 5):
            config = DesignConfig(seed=seed, max_generations=generations)
            calls.clear()
            fast = genetic_local_search(n, k, d, config)
            searched = len(calls)
            with monkeypatch.context() as patch:
                patch.setattr(search, "_local_searched", extend_every_child)
                assert genetic_local_search(n, k, d, config) == fast
            skipped += len(calls) - 2 * searched
        # some children were parent objects, which only the reference extended
        assert skipped > 0

    def test_infeasible_instance_reports_failure(self):
        report = genetic_local_search(2, 2, 2, DesignConfig(seed=0, max_generations=40))
        assert not report.succeeded
        assert report.best is None
        assert report.best_ones is None

    def test_weight_history_recorded(self):
        report = genetic_local_search(3, 2, 1, DesignConfig(seed=4))
        assert len(report.weight_history) == report.generations_run + 1
        assert report.weight_history[-1] >= report.weight_history[0]


def test_record_generation_tracks_population():
    a = Codebook.from_values(3, 1, 1, [0b111, 0b110])
    b = Codebook.from_values(3, 1, 1, [0b001])
    record = record_generation(Population((a, b)))
    assert record.max_weight == Fraction(5)
    assert record.max_size == 2
    assert record.any_complete
