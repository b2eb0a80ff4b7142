"""Binary codebooks with Hamming-distance arithmetic.

A codeword is a fixed-length bit vector stored as a plain integer, most
significant bit first, so integer order coincides with lexicographic order
on the bitstrings.  A codebook is a read-only sorted uint32 array of
distinct such integers, given in any order, together with its design
parameters (n, k, d): length n, a target of 2**k codewords, and a minimum
pairwise Hamming distance of d.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
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

    The words, given in any order, are stored only as `values`, a read-only
    sorted uint32 copy (MSB first), so codebook equality and hashing are
    structural, over word_bytes.  Construction checks the parameter domain,
    that every value fits in n bits, and distinctness; the size is left to
    require_size_target, since the search holds books past 2**k words, and
    the O(m^2 n) pairwise-distance invariant to validate().
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
        values = np.sort(_word_array(self.values, self.n))  # a copy: no caller aliases it
        step = values[1:] != values[:-1]
        if not step.all():
            raise ValueError(f"duplicate codeword {int(values[step.argmin()]):0{self.n}b}")
        if values.size and int(values[-1]) >> self.n:
            raise ValueError(f"codeword values must fit in n={self.n} bits")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, n: int, k: int, d: int, values: Iterable[int]) -> "Codebook":
        """Build from raw integer codeword values; the same as the constructor."""
        return cls(n, k, d, values)

    @cached_property
    def word_bytes(self) -> bytes:
        """The words as big-endian 4-byte groups.

        Byte order of these strings is the order of the word tuples, a book
        that is a prefix of another coming first.  Built once per book.
        """
        return self.values.astype(">u4").tobytes()

    @cached_property
    def min_distance(self) -> int:
        """Minimum pairwise Hamming distance of the words, measured once per book.

        Construction does not enforce d (validate() does), so a book that was
        never validated may fall below it, and any book may exceed it.
        """
        if self.m < 2:
            raise ValueError("min distance is undefined for fewer than 2 codewords")
        return min(int(block.min()) for _, block in _distance_blocks(self))

    def __eq__(self, other):
        if not isinstance(other, Codebook):
            return NotImplemented
        return (self.n, self.k, self.d) == (other.n, other.k, other.d) and (
            self.word_bytes == other.word_bytes
        )

    def __hash__(self):
        return hash((self.n, self.k, self.d, self.word_bytes))

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def size_target(self) -> int:
        return 1 << self.k

    @property
    def is_complete(self) -> bool:
        return self.m >= self.size_target

    def require_size_target(self, purpose: str) -> None:
        """Refuse, naming the purpose, a book whose size is not 2**k words."""
        if self.m != self.size_target:
            raise ValueError(
                f"{purpose} requires exactly 2**k = {self.size_target} codewords, got {self.m}"
            )

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


def _word_array(values: Iterable[int], n: int) -> np.ndarray:
    """The values as a uint32 array.

    Values of any other type are checked to be integers, not bools, that fit
    in n bits before the cast; a uint32 array is returned as it is, for the
    caller to check.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.uint32:
            return values
        values = values.tolist()
    else:
        values = list(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"codeword values must be integers, got {v!r}")
    if values and (min(values) < 0 or max(values) >= 1 << n):
        raise ValueError(f"codeword values must fit in n={n} bits")
    return np.asarray(values, dtype=np.uint32)


def _integer(name: str, value, low: int, bits: int | None = None) -> int:
    """A count or seed as a Python int, so a numpy unsigned one never wraps, refused by name
    unless it is an int or numpy integer (not a bool) >= low and, given bits, < 2**bits."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if bits is not None and not low <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [{low}, 2**{bits}), got {value}")
    if value < low:
        raise ValueError(f"{name} must be " + (f">= {low}" if low else "a nonnegative integer"))
    return value


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


def distance_distribution(book: Codebook) -> np.ndarray:
    """B[w] = number of ordered codeword pairs (i, j) at Hamming distance w.

    A length-(n+1) int64 array.  Each word pairs with itself, so B[0] = m
    and the entries sum to m**2.
    """
    counts = np.zeros(book.n + 2, dtype=np.int64)
    for _, block in _distance_blocks(book):
        counts += np.bincount(block.ravel(), minlength=book.n + 2)
    counts[0] = book.m  # bin n+1 holds the self-distances
    return counts[:-1]


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
    if book.m > book.size_target:
        raise CodebookFormatError(f"too many codewords: {book.m} > 2**k = {book.size_target}")
    book.validate()
    return book


def codebook_document(book: Codebook) -> dict:
    """The JSON object of a codebook: its parameters and MSB-first bitstrings."""
    return {"n": book.n, "k": book.k, "d": book.d, "codewords": list(book.bitstrings())}


def serialize_codebook(book: Codebook) -> str:
    """Render the canonical JSON document (keys sorted, codewords in stored order)."""
    return json.dumps(codebook_document(book), sort_keys=True, indent=2) + "\n"


def load_codebook(path) -> Codebook:
    """Read and parse a codebook file; a file that is not UTF-8 or does not
    parse is refused with a CodebookFormatError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_codebook(fh.read())
    except (UnicodeDecodeError, CodebookFormatError) as exc:
        raise CodebookFormatError(f"{path}: {exc}") from exc


def save_codebook(book: Codebook, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_codebook(book))
