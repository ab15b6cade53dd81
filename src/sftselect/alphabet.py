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

    __slots__ = ("_symbols", "_index", "_single_char", "_byte_in", "_byte_out")

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
        # byte fast path only when every symbol fits in latin-1: one
        # bytes.translate table each way, a foreign byte read as 255, past
        # every letter (whitespace and "#" leave at most 243 symbols)
        self._byte_in = self._byte_out = None
        if self._single_char and all(ord(s) < 256 for s in syms):
            table_in, table_out = bytearray(b"\xff" * 256), bytearray(256)
            for i, s in enumerate(syms):
                table_in[ord(s)], table_out[i] = i, ord(s)
            self._byte_in, self._byte_out = bytes(table_in), bytes(table_out)

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
        if isinstance(word, str):
            letters = self._byte_letters(word)
            if letters is not None:
                return letters.astype(np.int64)
        # a foreign symbol is found, and named, by the symbol-by-symbol path
        word = word if isinstance(word, (str, list, tuple)) else list(word)
        try:
            return np.array([self._index[s] for s in word], dtype=np.int64)
        except KeyError as exc:
            raise UnknownSymbol(exc.args[0], self._symbols, word.index(exc.args[0]) + 1) from None

    def _byte_letters(self, text: str, delete: bytes = b""):
        """The uint8 letters of ``text``, a read-only array, the characters
        of ``delete`` dropped, by one ``bytes.translate``; None without a
        byte table, or when ``text`` holds a character not in latin-1 or
        another not in the alphabet."""
        if self._byte_in is None:
            return None
        try:
            raw = text.encode("latin-1")
        except UnicodeEncodeError:
            return None
        letters = np.frombuffer(raw.translate(self._byte_in, delete), dtype=np.uint8)
        return letters if not letters.size or letters.max() < len(self._symbols) else None

    def decode(self, indices: Sequence[int]) -> tuple[str, ...]:
        """The symbols of an index array; an index outside [0, #A) is refused."""
        return tuple(self._symbols[i] for i in _require_letters(indices, len(self)).tolist())

    def text(self, indices: Sequence[int]) -> str:
        """Render an index array, in its own integer dtype, as text: concatenated
        for single-character alphabets, whitespace-separated tokens otherwise."""
        arr = _require_letters(indices, len(self))
        if self._byte_out is not None:
            raw = arr.astype(np.uint8, copy=False).tobytes()
            return raw.translate(self._byte_out).decode("latin-1")
        sep = "" if self._single_char else " "
        return sep.join(self._symbols[i] for i in arr.tolist())

    def word_label(self, word: Iterable[str]) -> str:
        """Human/CSV label for a word of tokens (``eps`` for the empty word)."""
        toks = tuple(word)
        if not toks:
            return EPSILON_TOKEN
        return "".join(toks) if self._single_char else " ".join(toks)

    def words(self, length: int):
        """All words of the given length in lexicographic (declaration) order."""
        if length < 0:
            raise ValidationError(f"word length {length} is negative")
        return itertools.product(self._symbols, repeat=length)


def _require_letters(letters, size: int) -> np.ndarray:
    """``letters`` as a 1-D integer array (int64 if not one); any other shape,
    any letter outside [0, size), or any float that is not a whole number,
    is refused."""
    letters = np.asarray(letters)
    if letters.ndim != 1:
        raise ValidationError(f"letters must be a 1-D array, not one of shape {letters.shape}")
    if letters.dtype.kind == "f":
        whole = np.isfinite(letters) & (np.trunc(letters) == letters)
        if not whole.all():
            raise ValidationError(f"letter {letters[~whole][0]} is not a whole number")
    letters = letters if letters.dtype.kind in "iu" else letters.astype(np.int64)
    if letters.size and (letters.max() >= size or letters.dtype.kind == "i" and letters.min() < 0):
        bad = letters[(letters < 0) | (letters >= size)][0]
        raise ValidationError(f"letter {bad} is outside [0, {size})")
    return letters


def word_token(word: Iterable[str], single_char: bool) -> str:
    """A word as one whitespace-free token (``eps`` if empty) for snake state
    names and lemma lines: symbols concatenated over single characters, else
    joined by ``.`` with each symbol's ``\\`` and ``.`` escaped as ``\\\\`` and
    ``\\.``, so (ab, c), (a, bc) and (a.bc,) all stay apart."""
    if single_char:
        return "".join(word) or EPSILON_TOKEN
    return ".".join(s.replace("\\", "\\\\").replace(".", "\\.") for s in word) or EPSILON_TOKEN

