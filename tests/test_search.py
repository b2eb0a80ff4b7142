import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdcode import (
    Codebook,
    effective_weight,
    extend_codebook,
    genetic_local_search,
    initial_population,
    local_search,
    min_distance,
    mutate,
    parent_probabilities,
    recombination,
    recombine_pair,
    selection,
    stop_check,
    total_ones,
)
from hdcode import search
from hdcode.search import (
    DesignConfig,
    GenerationRecord,
    Population,
    _stream,
    record_generation,
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


def ball_scatter_extend(book):
    """Reference kernel: a bool array of all 2**n words and one scatter per ball."""
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
    """Valid books of 0 to 16 words at n <= 13, on both sides of the n = 6/7
    switch from one bitset block to many and of the n = 12/13 switch from
    the ball table to the bitset, at any distance."""
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(1, n))
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    return Codebook.from_values(n, min(3, n), d, greedy_filter(n, d, raw))


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

    def test_greedy_scan_finds_hamming_size(self):
        book = extend_codebook(Codebook(n=7, k=4, d=3))
        assert book.m == 16
        assert min_distance(book) == 3

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

            def recording_selection(parents, children, literal=False):
                kept = selection(parents, children, literal)
                seen.extend([parents, children, kept])
                return kept

            monkeypatch.setattr(search, "selection", recording_selection)
            genetic_local_search(n, k, d, DesignConfig(seed=0, max_generations=1))
            return seen

        fast = first_generation()
        monkeypatch.setattr(search, "extend_codebook", ball_scatter_extend)
        assert first_generation() == fast
        assert len(fast) == 3

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
        # 2**18 uint64 blocks, 2 MiB
        tracemalloc.start()
        try:
            book = extend_codebook(Codebook(n=24, k=3, d=12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert book.is_complete and book.is_valid()
        assert peak < 32 << 20

    @given(st.data())
    @settings(max_examples=40)
    def test_contains_input_and_is_maximal(self, data):
        n = data.draw(st.integers(2, 7))
        d = data.draw(st.integers(1, min(3, n)))
        book = small_books(data.draw, n, min(2, n), d)
        extended = extend_codebook(book)
        assert set(book.values.tolist()) <= set(extended.values.tolist())
        assert extended.is_valid()
        assert extend_codebook(extended) == extended


class TestExtendKernels:
    """The ball-table and bitset kernels called directly, each where it can run.

    extend_codebook only reaches the bitset kernel at n >= 13, so these
    tests keep it covered from one block (n = 6) up.
    """

    @classmethod
    def teardown_class(cls):
        search._ball_table.cache_clear()  # n = 13 tables take 8 MiB each

    @given(seed_books(min_n=6))
    @settings(max_examples=120, deadline=None)
    def test_both_kernels_match_ball_scatter(self, book):
        expected = ball_scatter_extend(book)
        assert search._table_extend(book) == expected
        assert search._bitset_extend(book) == expected

    @given(seed_books(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_table_kernel_below_one_block(self, book):
        assert search._table_extend(book) == ball_scatter_extend(book)

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
            ball = sum(1 << y for y in range(1 << 12) if (x ^ y).bit_count() <= 3)
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
        assert result.is_valid()
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


class TestEffectiveWeight:
    def test_short_codebook_scales_up(self):
        book = Codebook.from_values(4, 3, 1, [0b1111, 0b0001])
        assert effective_weight(book) == Fraction(5 * 8, 2)

    def test_complete_codebook_counts_ones(self):
        book = Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101, 0b011])
        assert effective_weight(book) == Fraction(9)

    def test_oversize_reads_best_subset_unless_literal(self):
        book = Codebook.from_values(3, 1, 1, [0b111, 0b110, 0b101, 0b011])
        assert effective_weight(book) == Fraction(5)
        assert effective_weight(book, literal=True) == Fraction(9)

    def test_empty_book_has_zero_weight(self):
        assert effective_weight(Codebook(n=4, k=2, d=1)) == 0

    @given(random_books(), st.booleans())
    def test_matches_sorted_reference(self, book, literal):
        """Differential check against a plain-Python ranking of the values."""
        ranked = sorted(book.values.tolist(), key=lambda v: (-v.bit_count(), -v))
        ones = [v.bit_count() for v in ranked]
        if book.m == 0:
            expected = Fraction(0)
        elif book.m < book.size_target:
            expected = Fraction(sum(ones) * book.size_target, book.m)
        elif literal:
            expected = Fraction(sum(ones))
        else:
            expected = Fraction(sum(ones[: book.size_target]))
        weight = effective_weight(book, literal)
        assert type(weight) is Fraction
        assert weight == expected


class TestParentProbabilities:
    def test_known_two_book_split(self):
        heavy = Codebook.from_values(2, 1, 1, [0b11, 0b10])
        light = Codebook.from_values(2, 1, 1, [0b01, 0b00])
        probs = parent_probabilities(Population((heavy, light)))
        assert probs == [Fraction(3, 4), Fraction(1, 4)]

    def test_uniform_when_equal(self):
        book = Codebook.from_values(2, 1, 1, [0b11, 0b10])
        probs = parent_probabilities(Population((book, book, book)))
        assert probs == [Fraction(1, 3)] * 3

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=6))
    def test_sums_to_one_and_favors_heavy(self, picks):
        options = [
            Codebook.from_values(3, 1, 1, [0b000, 0b001]),
            Codebook.from_values(3, 1, 1, [0b011, 0b001]),
            Codebook.from_values(3, 1, 1, [0b011, 0b111]),
            Codebook.from_values(3, 1, 1, [0b110, 0b111]),
        ]
        population = Population(tuple(options[i] for i in picks))
        probs = parent_probabilities(population)
        assert sum(probs) == 1
        weights = [effective_weight(b) for b in population.codebooks]
        for (wa, pa) in zip(weights, probs):
            for (wb, pb) in zip(weights, probs):
                assert (wa > wb) == (pa > pb) or wa == wb


class TestRecombination:
    @given(parent_pairs())
    @settings(max_examples=300)
    def test_children_keep_min_distance(self, pair):
        first, second, anchor, split = pair
        child_one, child_two = recombine_pair(first, second, anchor, split)
        assert child_one.is_valid()
        assert child_two.is_valid()

    def test_split_extremes_swap_or_keep(self):
        first = Codebook.from_values(3, 2, 2, [0b000, 0b011])
        second = Codebook.from_values(3, 2, 2, [0b101, 0b110])
        anchor = 0b000
        # split 0: the near side is empty, so the children trade all codewords
        child_one, child_two = recombine_pair(first, second, anchor, 0)
        assert set(child_one.values.tolist()) == {0b101, 0b110}
        assert set(child_two.values.tolist()) == {0b000, 0b011}
        # split n+d: the far side is empty, so each child keeps its parent
        child_one, child_two = recombine_pair(first, second, anchor, 5)
        assert child_one.values.tolist() == first.values.tolist()
        assert child_two.values.tolist() == second.values.tolist()

    def test_rejects_mismatched_parents(self):
        first = Codebook.from_values(3, 2, 2, [0b000])
        second = Codebook.from_values(4, 2, 2, [0b0000])
        with pytest.raises(ValueError):
            recombine_pair(first, second, 0, 2)
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
        assert all(b.is_valid() for b in children.codebooks)

    def test_odd_population_rejected(self):
        book = Codebook.from_values(3, 1, 1, [0b111])
        with pytest.raises(ValueError):
            recombination(Population((book, book, book)), _stream(0, 0))


class TestSelection:
    def _book(self, values, n=4, k=2, d=1):
        return Codebook.from_values(n, k, d, values)

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


class TestInitialPopulation:
    def test_sizes_within_clamped_range(self):
        config = DesignConfig(population_size=10, init_size_range=(1, 5))
        population = initial_population(4, 2, 1, config, _stream(3, 0))
        assert len(population.codebooks) == 10
        for book in population.codebooks:
            assert 1 <= book.m <= 3
            assert book.is_valid()

    def test_all_books_respect_distance(self):
        config = DesignConfig(population_size=10, init_size_range=(2, 5))
        population = initial_population(6, 3, 3, config, _stream(11, 0))
        for book in population.codebooks:
            assert book.is_valid()


class TestGeneticLocalSearch:
    def test_golden_max_density_instance(self):
        report = genetic_local_search(3, 2, 1, DesignConfig(seed=0))
        assert report.best_ones == 9
        assert report.best.is_complete
        assert report.best.is_valid()

    def test_golden_distance_two_instance(self):
        report = genetic_local_search(3, 2, 2, DesignConfig(seed=0))
        assert report.best_ones == 6

    def test_report_invariants(self, designed_books):
        book = designed_books[(10, 4, 3)]
        assert book.m == 16
        assert book.is_valid()
        assert min_distance(book) >= 3

    def test_deterministic_for_seed(self):
        a = genetic_local_search(5, 2, 2, DesignConfig(seed=13))
        b = genetic_local_search(5, 2, 2, DesignConfig(seed=13))
        assert a == b

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
