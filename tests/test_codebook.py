import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hdcode import (
    Codebook,
    CodebookFormatError,
    exact_distance_spectrum,
    extend_codebook,
    finalize,
    message_order,
    min_distance,
    mutate,
    parse_codebook,
    positions_to_mask,
    serialize_codebook,
    total_ones,
)


def codebooks(max_n=8):
    def build(n):
        values = st.sets(st.integers(0, (1 << n) - 1), min_size=2, max_size=min(8, 1 << n))
        return values.map(lambda vs: _book_from(n, sorted(vs)))
    return st.integers(2, max_n).flatmap(build)


def _book_from(n, values):
    dmin = min(
        (a ^ b).bit_count() for a, b in itertools.combinations(values, 2)
    )
    k = max(1, min(n, (len(values) - 1).bit_length()))
    return Codebook.from_values(n, k, dmin, values)


class TestCodebook:
    def test_counts_and_flags(self):
        book = Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101, 0b011])
        assert book.m == 4
        assert book.size_target == 4
        assert book.is_complete
        assert total_ones(book) == 9
        assert min_distance(book) == 1

    def test_validate_names_offending_pair(self):
        book = Codebook.from_values(3, 2, 2, [0b000, 0b001, 0b110])
        with pytest.raises(CodebookFormatError, match="000 and 001"):
            book.validate()
        assert not book.is_valid()

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Codebook(3, 2, 1, (5, 5))

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError, match="fit in n=3 bits"):
            Codebook(3, 2, 1, (5, 8))
        with pytest.raises(ValueError, match="fit in n=3 bits"):
            Codebook(3, 2, 1, (-1, 5))

    def test_length_out_of_domain_rejected(self):
        for n in (0, 25):
            with pytest.raises(ValueError, match="n must be in"):
                Codebook(n, 1, 1)

    def test_codewords_canonically_sorted(self):
        book = Codebook.from_values(3, 2, 1, [0b110, 0b001, 0b110])
        assert book.values == (0b001, 0b110)
        assert Codebook(3, 2, 1, (0b110, 0b001)) == book

    def test_min_distance_needs_two(self):
        with pytest.raises(ValueError):
            min_distance(Codebook.from_values(4, 2, 2, [3]))

    @given(codebooks())
    def test_min_distance_matches_naive(self, book):
        naive = min((a ^ b).bit_count() for a, b in itertools.combinations(book.values, 2))
        assert min_distance(book) == naive


class TestMutation:
    @given(codebooks(), st.data())
    def test_involution_and_isometry(self, book, data):
        positions = data.draw(st.sets(st.integers(0, book.n - 1)))
        flipped = mutate(book, positions)
        assert mutate(flipped, positions) == book
        before = sorted(
            (a ^ b).bit_count() for a, b in itertools.combinations(book.values, 2)
        )
        after = sorted(
            (a ^ b).bit_count() for a, b in itertools.combinations(flipped.values, 2)
        )
        assert before == after

    def test_position_zero_is_most_significant(self):
        assert positions_to_mask([0], 4) == 0b1000
        assert positions_to_mask([3], 4) == 0b0001
        assert positions_to_mask([], 4) == 0

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            positions_to_mask([4], 4)


class TestFinalize:
    def test_keeps_heaviest_subset(self):
        book = Codebook.from_values(4, 1, 1, [0b0000, 0b0001, 0b0111, 0b1111])
        kept = finalize(book)
        assert kept.values == (0b0111, 0b1111)

    def test_tie_prefers_lexicographically_larger(self):
        book = Codebook.from_values(3, 1, 1, [0b011, 0b101, 0b110])
        kept = finalize(book)
        assert set(kept.values) == {0b101, 0b110}

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            finalize(Codebook.from_values(4, 2, 1, [1, 2]))

    def test_message_order_heaviest_first(self):
        book = Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101, 0b011])
        order = message_order(book)
        assert order == (0b111, 0b110, 0b101, 0b011)

    @given(st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, min(n, 4)),
            st.sets(st.integers(0, (1 << n) - 1), max_size=min(40, 1 << n)),
        )
    ))
    def test_ranking_matches_sorted_reference(self, case):
        """Differential check of finalize and message_order against plain sorting."""
        n, k, values = case
        book = Codebook.from_values(n, k, 1, values)
        ranked = sorted(values, key=lambda v: (-v.bit_count(), -v))
        assert message_order(book) == tuple(ranked)
        if len(values) < 1 << k:
            with pytest.raises(ValueError):
                finalize(book)
        else:
            assert finalize(book).values == tuple(sorted(ranked[: 1 << k]))


class TestSerialization:
    def test_round_trip(self):
        book = Codebook.from_values(5, 2, 2, [0b00000, 0b00111, 0b11001, 0b11110])
        again = parse_codebook(serialize_codebook(book))
        assert again == book

    def test_serialized_text_is_canonical(self):
        book = Codebook.from_values(3, 1, 1, [0b01, 0b10])
        text = serialize_codebook(book)
        assert text == serialize_codebook(parse_codebook(text))
        assert text.endswith("\n")
        assert json.loads(text)["codewords"] == ["001", "010"]

    @given(codebooks())
    def test_round_trip_property(self, book):
        assert parse_codebook(serialize_codebook(book)) == book

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            "[]",
            '{"n": 3, "k": 2, "d": 1}',
            '{"n": 3, "k": 2, "d": 1, "codewords": "111"}',
            '{"n": 3, "k": 2, "d": 1, "codewords": [7]}',
            '{"n": 3, "k": 2, "d": 1, "codewords": ["1111"]}',
            '{"n": 3, "k": 2, "d": 1, "codewords": ["111", "111"]}',
            '{"n": true, "k": 2, "d": 1, "codewords": ["111"]}',
            '{"n": 3, "k": 2, "d": 2, "codewords": ["111", "110"]}',
            '{"n": 3, "k": 2, "d": 1, "codewords": ["121"]}',
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(CodebookFormatError):
            parse_codebook(doc)

    def test_malformed_bitstrings_rejected(self):
        for text in ("", "012", "1 0", "ab"):
            doc = json.dumps({"n": max(len(text), 1), "k": 1, "d": 1, "codewords": [text]})
            with pytest.raises(CodebookFormatError, match="malformed bitstring"):
                parse_codebook(doc)


def brute_first_close_pair(book):
    """The validate message for the first pair (i < j, row-major) closer than d."""
    for a, b in itertools.combinations(book.values, 2):
        dist = (a ^ b).bit_count()
        if dist < book.d:
            return (
                f"codewords {a:0{book.n}b} and {b:0{book.n}b} "
                f"are at distance {dist} < d={book.d}"
            )
    return None


def brute_spectrum(book):
    counts = [[0] * (book.n + 1) for _ in book.values]
    for i, a in enumerate(book.values):
        for j, b in enumerate(book.values):
            if i != j:
                counts[i][(a ^ b).bit_count()] += 1
    return counts


@st.composite
def complete_books(draw):
    """Complete books with n <= 10, k <= 5 and any d, most of them invalid."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(n, 5)))
    values = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1 << k, max_size=1 << k))
    return Codebook.from_values(n, k, draw(st.integers(1, n)), values)


class TestDistanceKernel:
    """validate, min_distance and the spectrum share one row-block kernel."""

    @pytest.mark.parametrize("rows", [None, 1, 3])
    @given(book=complete_books())
    def test_matches_brute_force(self, rows, book):
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                # the budget of `rows` rows of uint32 XORs: many blocks per book
                mp.setattr("hdcode.codebook.DISTANCE_BUDGET_BYTES", 4 * book.m * rows)
            expected = brute_first_close_pair(book)
            if expected is None:
                book.validate()
            else:
                with pytest.raises(CodebookFormatError) as info:
                    book.validate()
                assert str(info.value) == expected
            naive = min((a ^ b).bit_count() for a, b in itertools.combinations(book.values, 2))
            assert min_distance(book) == naive
            counts = exact_distance_spectrum(book).counts
            assert counts.tolist() == brute_spectrum(book)

    def test_golay_book_stays_within_memory_bound(self):
        book = extend_codebook(Codebook(23, 12, 7))
        assert book.m == 4096
        for run in (book.validate, lambda: min_distance(book),
                    lambda: exact_distance_spectrum(book)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20
        # the binary Golay code is distance-invariant: A_7 = 253 from every word
        assert min_distance(book) == 7
        assert np.all(exact_distance_spectrum(book).counts[:, 7] == 253)
