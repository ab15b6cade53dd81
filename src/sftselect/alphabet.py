"""Ordered alphabets and conversion between symbol tokens and index arrays."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import UnknownSymbol, ValidationError

#: Reserved token for the empty word in the text formats; never a valid symbol.
EPSILON_TOKEN = "eps"


class Alphabet:
    """An ordered set of symbol tokens.

    The declaration order is fixed at construction and drives every
    lexicographic enumeration, report ordering, and inverse-CDF sampling in
    the package, so that identical inputs give identical outputs.
    """

    __slots__ = ("_symbols", "_index", "_single_char", "_byte_lut", "_byte_out")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(str(s) for s in symbols)
        if not syms:
            raise ValidationError("alphabet must contain at least one symbol")
        if len(set(syms)) != len(syms):
            raise ValidationError(f"alphabet symbols are not pairwise distinct: {syms}")
        for s in syms:
            if s == EPSILON_TOKEN:
                raise ValidationError(f"{EPSILON_TOKEN!r} is reserved for the empty word")
            # one whitespace-free token splits into itself; empty splits into []
            if s.split() != [s] or s.startswith("#"):
                raise ValidationError(f"invalid symbol token {s!r}")
        self._symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}
        self._single_char = all(len(s) == 1 for s in syms)
        # byte fast path only when every symbol fits in latin-1
        self._byte_lut = self._byte_out = None
        if self._single_char and all(ord(s) < 256 for s in syms):
            self._byte_out = np.array([ord(s) for s in syms], dtype=np.uint8)
            self._byte_lut = np.full(256, -1, dtype=np.int64)
            self._byte_lut[self._byte_out] = np.arange(len(syms))

    @property
    def symbols(self) -> tuple[str, ...]:
        return self._symbols

    @property
    def single_char(self) -> bool:
        return self._single_char

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def __contains__(self, symbol) -> bool:
        return symbol in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._symbols)!r})"

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(symbol, self._symbols) from None

    def symbol(self, index: int) -> str:
        return self._symbols[index]

    def encode(self, word: Iterable[str]) -> np.ndarray:
        """Convert a word (iterable of tokens; a str iterates per character)
        into an int64 index array; the first symbol outside the alphabet is
        refused with its 1-based position in the word."""
        if isinstance(word, str) and self._byte_lut is not None:
            try:
                raw = np.frombuffer(word.encode("latin-1"), dtype=np.uint8)
            except UnicodeEncodeError as exc:
                self.encode(word[: exc.start])  # an earlier foreign symbol comes first
                raise UnknownSymbol(word[exc.start], self._symbols, exc.start + 1) from None
            idx = self._byte_lut[raw]
            bad = np.nonzero(idx < 0)[0]
            if bad.size:
                raise UnknownSymbol(word[bad[0]], self._symbols, int(bad[0]) + 1)
            return idx
        word = word if isinstance(word, (str, list, tuple)) else list(word)
        try:
            return np.array([self._index[s] for s in word], dtype=np.int64)
        except KeyError as exc:
            raise UnknownSymbol(exc.args[0], self._symbols, word.index(exc.args[0]) + 1) from None

    def decode(self, indices: Sequence[int]) -> tuple[str, ...]:
        return tuple(self._symbols[i] for i in indices)

    def text(self, indices: Sequence[int]) -> str:
        """Render an index array as text: concatenated for single-character
        alphabets, whitespace-separated tokens otherwise."""
        if self._byte_out is not None:
            arr = np.asarray(indices, dtype=np.int64)
            return self._byte_out[arr].tobytes().decode("latin-1")
        sep = "" if self._single_char else " "
        return sep.join(self._symbols[i] for i in indices)

    def word_label(self, word: Iterable[str]) -> str:
        """Human/CSV label for a word of tokens (``eps`` for the empty word)."""
        toks = tuple(word)
        if not toks:
            return EPSILON_TOKEN
        return "".join(toks) if self._single_char else " ".join(toks)

    def words(self, length: int):
        """All words of the given length in lexicographic (declaration) order."""
        return itertools.product(self._symbols, repeat=length)


def word_token(word: Iterable[str], single_char: bool) -> str:
    """A word as one whitespace-free token (``eps`` if empty) for snake state
    names and lemma lines: symbols concatenated over single characters, else
    joined by ``.`` with each symbol's ``\\`` and ``.`` escaped as ``\\\\`` and
    ``\\.``, so (ab, c), (a, bc) and (a.bc,) all stay apart."""
    if single_char:
        return "".join(word) or EPSILON_TOKEN
    return ".".join(s.replace("\\", "\\\\").replace(".", "\\.") for s in word) or EPSILON_TOKEN


def as_word(word: Iterable[str]) -> tuple[str, ...]:
    """Normalize any token iterable (including a plain str) to a tuple."""
    return tuple(word)
