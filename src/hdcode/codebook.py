"""Binary codebooks with Hamming-distance arithmetic.

A codeword is a fixed-length bit vector stored as a plain integer, most
significant bit first, so integer order coincides with lexicographic order
on the bitstrings.  A codebook is a read-only sorted uint32 array of such
integers together with its design parameters (n, k, d): length n, a target
of 2**k codewords, and a minimum pairwise Hamming distance of d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_N = 24  # exhaustive 2**n scans stay tractable below this

# Byte budget for one row block of the pairwise distance kernel: its (rows, m)
# uint32 XOR matrix, the larger of its two temporaries (the uint8 popcounts
# are a quarter of it).  A 4,096-word book then takes 64 rows per block.
DISTANCE_BUDGET_BYTES = 1 << 20


class CodebookFormatError(ValueError):
    """A codebook document or value violates the file contract."""


@dataclass(frozen=True, eq=False)
class Codebook:
    """Distinct length-n words under a (n, k, d) design contract.

    The words are stored only as `values`, a read-only sorted uint32 array
    (MSB first), so codebook equality and hashing are structural, over
    word_bytes().  Construction checks the parameter domain, that every
    value fits in n bits, and distinctness; the O(m^2 n) pairwise-distance
    invariant is checked by validate().
    """

    n: int
    k: int
    d: int
    values: np.ndarray = ()

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must be in [1, {MAX_N}], got {self.n}")
        if not 0 < self.d <= self.n:
            raise ValueError(f"d must satisfy 0 < d <= n, got d={self.d} n={self.n}")
        if not 0 < self.k <= self.n:
            raise ValueError(f"k must satisfy 0 < k <= n, got k={self.k} n={self.n}")
        values = _word_array(self.values, self.n)
        if not (values[1:] > values[:-1]).all():
            values = np.sort(values)
            same = values[1:] == values[:-1]
            if same.any():
                raise ValueError(f"duplicate codeword {int(values[same.argmax()]):0{self.n}b}")
        elif values is self.values and values.flags.writeable:
            values = values.copy()  # the caller's array must not alias the book
        if values.size and int(values[-1]) >> self.n:
            raise ValueError(f"codeword values must fit in n={self.n} bits")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, n: int, k: int, d: int, values: Iterable[int]) -> "Codebook":
        """Build from raw integer codeword values, deduplicating."""
        words = np.sort(_word_array(values, n))
        step = words[1:] != words[:-1]
        if not step.all():
            words = words[np.concatenate(([True], step))]
        words.setflags(write=False)
        return cls(n, k, d, words)

    def word_bytes(self) -> bytes:
        """The words as big-endian 4-byte groups.

        Byte order of these strings is the order of the word tuples, a book
        that is a prefix of another coming first.
        """
        return self.values.astype(">u4").tobytes()

    def __eq__(self, other):
        if not isinstance(other, Codebook):
            return NotImplemented
        return (self.n, self.k, self.d) == (other.n, other.k, other.d) and (
            self.word_bytes() == other.word_bytes()
        )

    def __hash__(self):
        return hash((self.n, self.k, self.d, self.word_bytes()))

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def size_target(self) -> int:
        return 1 << self.k

    @property
    def is_complete(self) -> bool:
        return self.m >= self.size_target

    def bitstrings(self) -> tuple[str, ...]:
        fmt = f"0{self.n}b"
        return tuple(format(v, fmt) for v in self.values.tolist())

    def validate(self) -> None:
        """Check the pairwise-distance invariant, naming the first violating pair.

        Pairs (i, j), i < j, are scanned in row-major order.  The first row
        with any close word only has close words to its right: one on its
        left would have put that pair in an earlier row.
        """
        for start, block in _distance_blocks(self):
            close = block < self.d
            first = int(close.argmax())
            if close.flat[first]:
                i, j = divmod(first, self.m)
                a = format(int(self.values[start + i]), f"0{self.n}b")
                b = format(int(self.values[j]), f"0{self.n}b")
                raise CodebookFormatError(
                    f"codewords {a} and {b} are at distance {block.flat[first]} < d={self.d}"
                )

    def is_valid(self) -> bool:
        try:
            self.validate()
        except CodebookFormatError:
            return False
        return True


def _word_array(values: Iterable[int], n: int) -> np.ndarray:
    """The values as a uint32 array.

    Values of any other type are checked to fit in n bits before the cast;
    a uint32 array is returned as it is, for the caller to check.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.uint32:
            return values
        fits = not values.size or (values.min() >= 0 and values.max() < 1 << n)
    else:
        values = list(values)
        fits = not values or (min(values) >= 0 and max(values) < 1 << n)
    if not fits:
        raise ValueError(f"codeword values must fit in n={n} bits")
    return np.asarray(values, dtype=np.uint32)


def _distance_blocks(book: Codebook) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise Hamming distances of the codewords, one block of rows at a time.

    Yields (start, block) where block[r, j] is the distance between words
    start + r and j as a (rows, m) uint8 array, with each word's distance to
    itself set to n + 1, a value no pair reaches.  Rows per block keep the
    uint32 XOR matrix within DISTANCE_BUDGET_BYTES (never fewer than one row).
    """
    vals = book.values
    m = len(vals)
    rows = max(1, DISTANCE_BUDGET_BYTES // (vals.itemsize * max(m, 1)))
    for start in range(0, m, rows):
        block = np.bitwise_count(vals[start : start + rows, None] ^ vals)
        block.reshape(-1)[start :: m + 1] = book.n + 1
        yield start, block


def min_distance(book: Codebook) -> int:
    """Minimum pairwise Hamming distance over all distinct codeword pairs."""
    if book.m < 2:
        raise ValueError("min distance is undefined for fewer than 2 codewords")
    return min(int(block.min()) for _, block in _distance_blocks(book))


def total_ones(book: Codebook) -> int:
    """Sum of Hamming weights over all codewords (the quantity maximized)."""
    return int(np.bitwise_count(book.values).sum())


def positions_to_mask(positions: Iterable[int], n: int) -> int:
    """XOR mask for a set of bit positions, position 0 being the MSB."""
    mask = 0
    for p in set(positions):
        if not 0 <= p < n:
            raise ValueError(f"position {p} out of range for n={n}")
        mask |= 1 << (n - 1 - p)
    return mask


def mutate(book: Codebook, positions: Iterable[int]) -> Codebook:
    """Flip the bits at the given positions in every codeword.

    This is a distance-preserving isometry (XOR with a fixed mask), so the
    (n, k, d) property of the codebook is unchanged, and applying the same
    mutation twice restores the original codebook.
    """
    mask = positions_to_mask(positions, book.n)
    return Codebook.from_values(book.n, book.k, book.d, book.values ^ np.uint32(mask))


def _by_weight(values: np.ndarray) -> np.ndarray:
    """Heaviest first; ties go to the lexicographically larger word."""
    return values[np.lexsort((values, np.bitwise_count(values)))[::-1]]


def finalize(book: Codebook) -> Codebook:
    """Reduce to the 2**k heaviest codewords.

    Ties are broken in favor of the lexicographically larger codeword, for
    determinism.  Any subset of a distance-d codebook keeps distance >= d.
    """
    target = book.size_target
    if book.m < target:
        raise ValueError(
            f"incomplete codebook: {book.m} codewords, finalize needs at least {target}"
        )
    return Codebook(book.n, book.k, book.d, _by_weight(book.values)[:target])


def message_order(book: Codebook) -> tuple[int, ...]:
    """The codewords in message-index order: heaviest first, larger value first on ties."""
    return tuple(_by_weight(book.values).tolist())


def parse_codebook(text: str) -> Codebook:
    """Parse a codebook JSON document and validate every invariant."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodebookFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CodebookFormatError("document must be a JSON object")
    for key in ("n", "k", "d", "codewords"):
        if key not in doc:
            raise CodebookFormatError(f"missing field {key!r}")
    n, k, d = doc["n"], doc["k"], doc["d"]
    for name, val in (("n", n), ("k", k), ("d", d)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise CodebookFormatError(f"field {name!r} must be an integer")
    raw = doc["codewords"]
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise CodebookFormatError("field 'codewords' must be a list of bitstrings")
    for s in raw:
        if len(s) != n or not set(s) <= {"0", "1"}:
            raise CodebookFormatError(
                f"malformed bitstring {s!r}: expected exactly {n} characters over '0'/'1'"
            )
    try:
        book = Codebook(n, k, d, tuple(int(s, 2) for s in raw))
    except ValueError as exc:
        raise CodebookFormatError(str(exc)) from exc
    book.validate()
    return book


def codebook_document(book: Codebook) -> dict:
    """The JSON object of a codebook: its parameters and MSB-first bitstrings."""
    return {"n": book.n, "k": book.k, "d": book.d, "codewords": list(book.bitstrings())}


def serialize_codebook(book: Codebook) -> str:
    """Render the canonical JSON document (keys sorted, codewords in stored order)."""
    return json.dumps(codebook_document(book), sort_keys=True, indent=2) + "\n"


def load_codebook(path) -> Codebook:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_codebook(fh.read())


def save_codebook(book: Codebook, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_codebook(book))
