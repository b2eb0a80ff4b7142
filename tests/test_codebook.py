import itertools
import json
import math

import pytest
from hypothesis import given, strategies as st

from hdcode import (
    Codebook,
    CodebookFormatError,
    Codeword,
    distance_to_codebook,
    finalize,
    hamming_distance,
    lex_successor,
    message_order,
    min_distance,
    mutate,
    parse_codebook,
    positions_to_mask,
    serialize_codebook,
    total_ones,
)


def words(max_n=10):
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(Codeword, st.just(n), st.integers(0, (1 << n) - 1))
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


class TestCodeword:
    def test_string_round_trip(self):
        w = Codeword.from_string("01101")
        assert (w.n, w.value) == (5, 0b01101)
        assert str(w) == "01101"
        assert w.bits == (0, 1, 1, 0, 1)
        assert w.weight == 3

    def test_leading_zeros_significant(self):
        assert Codeword.from_string("0011") != Codeword.from_string("011")

    def test_rejects_bad_strings(self):
        for text in ("", "012", "1 0", "ab"):
            with pytest.raises(CodebookFormatError):
                Codeword.from_string(text)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Codeword(3, 8)
        with pytest.raises(ValueError):
            Codeword(0, 0)
        with pytest.raises(ValueError):
            Codeword(25, 0)

    @given(words())
    def test_str_parse_identity(self, w):
        assert Codeword.from_string(str(w)) == w
        assert len(str(w)) == w.n

    @given(words())
    def test_weight_counts_ones(self, w):
        assert w.weight == str(w).count("1")


class TestHammingDistance:
    def test_known_values(self):
        a = Codeword.from_string("1100")
        b = Codeword.from_string("1010")
        assert hamming_distance(a, b) == 2
        assert hamming_distance(a, a) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(Codeword(3, 1), Codeword(4, 1))

    @given(words(), words(), words())
    def test_metric_axioms(self, a, b, c):
        n = max(a.n, b.n, c.n)
        a, b, c = (Codeword(n, w.value) for w in (a, b, c))
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, b) == 0) == (a == b)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


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

    def test_codewords_canonically_sorted(self):
        book = Codebook.from_values(3, 2, 1, [0b110, 0b001, 0b110])
        assert book.values == (0b001, 0b110)
        assert book.codewords == (Codeword(3, 0b001), Codeword(3, 0b110))
        assert Codebook(3, 2, 1, (0b110, 0b001)) == book

    def test_empty_distance_is_infinite(self):
        empty = Codebook(n=4, k=2, d=2)
        assert distance_to_codebook(Codeword(4, 7), empty) == math.inf

    def test_min_distance_needs_two(self):
        with pytest.raises(ValueError):
            min_distance(Codebook.from_values(4, 2, 2, [3]))

    @given(codebooks())
    def test_min_distance_matches_naive(self, book):
        naive = min(
            hamming_distance(a, b) for a, b in itertools.combinations(book.codewords, 2)
        )
        assert min_distance(book) == naive


class TestMutation:
    @given(codebooks(), st.data())
    def test_involution_and_isometry(self, book, data):
        positions = data.draw(st.sets(st.integers(0, book.n - 1)))
        flipped = mutate(book, positions)
        assert mutate(flipped, positions) == book
        before = sorted(
            hamming_distance(a, b) for a, b in itertools.combinations(book.codewords, 2)
        )
        after = sorted(
            hamming_distance(a, b) for a, b in itertools.combinations(flipped.codewords, 2)
        )
        assert before == after

    def test_position_zero_is_most_significant(self):
        assert positions_to_mask([0], 4) == 0b1000
        assert positions_to_mask([3], 4) == 0b0001
        assert positions_to_mask([], 4) == 0

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            positions_to_mask([4], 4)


class TestLexSuccessor:
    def test_increments_value(self):
        assert lex_successor(Codeword(4, 5)) == Codeword(4, 6)

    def test_all_ones_has_no_successor(self):
        with pytest.raises(ValueError):
            lex_successor(Codeword(3, 7))

    @given(words())
    def test_successor_is_next_in_order(self, w):
        if w.value == (1 << w.n) - 1:
            return
        nxt = lex_successor(w)
        assert nxt.value == w.value + 1
        assert str(w) < str(nxt)


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
        assert [w.value for w in order] == [0b111, 0b110, 0b101, 0b011]

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
        assert message_order(book) == tuple(Codeword(n, v) for v in ranked)
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
