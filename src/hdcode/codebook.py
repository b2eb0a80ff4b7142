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
from typing import Iterable, Iterator

import numpy as np

MAX_N = 24  # exhaustive 2**n scans stay tractable below this

# Byte budget for one row block of the pairwise distance kernel: its (rows, m)
# uint32 XOR matrix, the larger of its two temporaries (the uint8 popcounts
# are a quarter of it).  A 4,096-word book then takes 64 rows per block.
DISTANCE_BUDGET_BYTES = 1 << 20


_set = object.__setattr__  # a slot past Codebook's own refusal to assign a field


class CodebookFormatError(ValueError):
    """A codebook document or value violates the file contract."""


class Codebook:
    """Distinct length-n words under a (n, k, d) design contract.

    The words, given in any order, are stored only as `values`, a read-only
    sorted uint32 copy (MSB first), so codebook equality, hashing and order
    are structural, over values.  Construction checks the parameter domain,
    n in [1, MAX_N] and k and d in [1, n], each an int or numpy integer and
    stored as an int, that every value fits in n bits, and distinctness; the
    size is left to require_size_target, since the search holds books past
    2**k words, and the O(m^2 n) pairwise-distance invariant to validate().

    A book stores its slots alone: the four fields, fixed once set, then the
    hash, min_distance and search.effective_weight, each None until first use.
    """

    _FIELDS = ("n", "k", "d", "values")
    __slots__ = _FIELDS + ("_hash", "_min_distance", "_effective_weight")

    def __init__(self, n: int, k: int, d: int, values: Iterable[int] = ()):
        # each slot is set once, checked: the search builds thousands of books
        n = _integer("n", n, 1, MAX_N)
        k, d = _integer("k", k, 1, n), _integer("d", d, 1, n)
        values = np.sort(_word_array(values, n))  # a copy: no caller aliases it
        step = values[1:] != values[:-1]
        if np.count_nonzero(step) < step.size:
            raise ValueError(f"duplicate codeword {int(values[step.argmin()]):0{n}b}")
        if values.size and int(values[-1]) >> n:
            raise ValueError(f"codeword values must fit in n={n} bits")
        values.setflags(write=False)
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "d", d)
        _set(self, "values", values)
        _set(self, "_hash", None)
        _set(self, "_min_distance", None)
        _set(self, "_effective_weight", None)

    def __setattr__(self, name, value):
        if name in Codebook._FIELDS:
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}")

    def __reduce__(self):
        return Codebook, (self.n, self.k, self.d, self.values)  # unpickling checks again

    def __repr__(self):
        return f"Codebook(n={self.n}, k={self.k}, d={self.d}, values={self.values!r})"

    @classmethod
    def from_values(cls, n: int, k: int, d: int, values: Iterable[int]) -> "Codebook":
        """Build from raw integer codeword values; the same as the constructor."""
        return cls(n, k, d, values)

    @property
    def min_distance(self) -> int:
        """Minimum pairwise Hamming distance of the words, measured once per book.

        Construction does not enforce d (validate() does), so a book that was
        never validated may fall below it, and any book may exceed it.
        """
        if self._min_distance is None:
            if self.m < 2:
                raise ValueError("min distance is undefined for fewer than 2 codewords")
            self._min_distance = min(int(block.min()) for _, block in _distance_blocks(self))
        return self._min_distance

    def __eq__(self, other):
        if not isinstance(other, Codebook):
            return NotImplemented
        return hash(self) == hash(other) and (self.n, self.k, self.d, self.m) == (
            other.n, other.k, other.d, other.m
        ) and self.values.tobytes() == other.values.tobytes()

    def __hash__(self):
        if self._hash is None:  # once per book
            self._hash = hash((self.n, self.k, self.d, self.values.tobytes()))
        return self._hash

    def __lt__(self, other):
        """Word-tuple order: the first differing word decides, a prefix comes first."""
        if not isinstance(other, Codebook):
            return NotImplemented
        a, b = self.values, other.values
        size = min(a.size, b.size)
        differ = a[:size] != b[:size]
        first = differ.argmax() if size else 0
        return bool(a[first] < b[first]) if size and differ[first] else a.size < b.size

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


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """A count, seed or parameter as a Python int, so a numpy unsigned one never wraps,
    refused by name unless it is an int or numpy integer (not a bool) in [low, high],
    or >= low when high is None.  An int passes the first test alone: the search
    calls this for every book, mask, anchor, split and mutation position."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if high is None:
        if value < low:
            raise ValueError(f"{name} must be " + (f">= {low}" if low else "a nonnegative integer"))
    elif not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
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
        mask |= 1 << (n - 1 - _integer("position", p, 0, n - 1))
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
    raw = doc["codewords"]
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise CodebookFormatError("field 'codewords' must be a list of bitstrings")
    try:
        book = Codebook(doc["n"], doc["k"], doc["d"])  # the parameters, before any word
        for s in raw:
            if len(s) != book.n or not set(s) <= {"0", "1"}:
                raise ValueError(
                    f"malformed bitstring {s!r}: expected exactly {book.n} characters over '0'/'1'"
                )
        book = Codebook(book.n, book.k, book.d, tuple(int(s, 2) for s in raw))
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
