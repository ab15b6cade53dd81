"""Reproducible sequence generation and block-frequency estimation.

Sequences are handled as numpy arrays of symbol indices (see
``Alphabet.encode``/``text``); at desk scale (10**6 symbols) this keeps
generation and counting inside the acceptance-time budgets.

The pseudo-random generator is splitmix64, fixed bit-for-bit so samples are
identical across platforms and languages: the state advances by adding
0x9E3779B97F4A7C15 modulo 2**64 and each output is the mixed state
(z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
z ^= z>>31); a uniform real in [0,1) is the top 53 bits over 2**53.
Seeds are integers in [0, 2**64), checked by :class:`GeneratorSpec`.

Symbols are drawn by inverse CDF in alphabet order: the symbol drawn with
u from weights w is the first i with u < w[0] + ... + w[i], summed left
to right, or the last positive weight when u reaches the row total.  A
Markov sample is therefore a deterministic walk (see
:func:`sftselect.machines.run_states`) over a draw table built once per
measure.  Its letters are the intervals that the distinct cumulative sums
of every row of P, and of pi, cut out of [0,1); its states are the
symbols plus a start state whose row is pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .alphabet import Alphabet
from .errors import BlockLengthOutOfRange, ValidationError
from .machines import run_states, transition_rows
from .measures import MarkovMeasure, block_measure_array

SLIDING = "sliding"
ALIGNED = "aligned"

CHAMPERNOWNE = "champernowne"
MARKOV_SAMPLE = "markov-sample"

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


class SplitMix64:
    """Scalar splitmix64 stream; the reference for the vectorized path.
    The seed is taken modulo 2**64 (range checks belong to callers)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = (z ^ (z >> 30)) * _M1 & _MASK
        z = (z ^ (z >> 27)) * _M2 & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def splitmix64_floats(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Values offset+1 .. offset+count of the splitmix64 [0,1) stream for
    ``seed`` taken modulo 2**64, computed in one vectorized pass (the
    generator is counter based: the i-th state is seed + i * gamma)."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _draw_table(mu: MarkovMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(breaks, table) for inverse-CDF sampling of ``mu`` as a table walk.

    ``breaks`` holds the sorted distinct cumulative sums of the rows of P
    and of pi; the letter of u is ``searchsorted(breaks, u, "right")``.
    ``table[r, L]`` is the symbol drawn from row r (row #A is pi) by every
    u with that letter: the number of row-r sums <= ``breaks[L-1]``, or the
    row's last positive weight when that number is #A.  The table takes
    (#A+1) * (U+1) entries, where U <= #A * (#A+1) is the number of breaks.
    """
    weights = np.vstack([mu.P.entries, mu.pi.weights])
    cums = np.cumsum(weights, axis=1)
    breaks = np.unique(cums)
    na = weights.shape[1]
    table = np.zeros((na + 1, breaks.size + 1), dtype=np.int64)
    for r in range(na + 1):
        table[r, 1:] = np.searchsorted(cums[r], breaks, side="right")
        last = np.flatnonzero(weights[r] > 0.0)[-1]
        table[r, table[r] == na] = last
    return breaks, table


def _champernowne_chunks(base: int, n: int, chunk: int):
    """Bounded-size pieces of the by-length, then lexicographic word
    concatenation; at most ~chunk symbols are materialized at a time."""
    emitted = 0
    length = 1
    while emitted < n:
        count = base**length
        code = 0
        while code < count and emitted < n:
            batch = min(max(chunk // length, 1), count - code)
            codes = np.arange(code, code + batch, dtype=np.int64)
            digits = np.empty((batch, length), dtype=np.int64)
            for j in range(length - 1, -1, -1):
                digits[:, j] = codes % base
                codes //= base
            flat = digits.reshape(-1)
            take = min(flat.size, n - emitted)
            yield flat[:take]
            emitted += take
            code += batch
        length += 1


def champernowne(alphabet, n: int) -> np.ndarray:
    """First ``n`` symbols of the concatenation of all nonempty words ordered
    by length and then lexicographically; the canonical normal sequence."""
    if not isinstance(alphabet, Alphabet):
        alphabet = Alphabet(alphabet)
    return generate(GeneratorSpec(kind=CHAMPERNOWNE, alphabet=alphabet, n=n))


def sample_markov(mu: MarkovMeasure, seed: int, n: int) -> np.ndarray:
    """Sample the first ``n`` symbols of a mu-distributed sequence: the first
    symbol from the stationary vector, each next one from the row of its
    predecessor, consuming one splitmix64 value per symbol."""
    return generate(
        GeneratorSpec(kind=MARKOV_SAMPLE, alphabet=mu.alphabet, n=n, measure=mu, seed=seed)
    )


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible description of an input-sequence source."""

    kind: str
    alphabet: Alphabet
    n: int
    measure: Optional[MarkovMeasure] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (CHAMPERNOWNE, MARKOV_SAMPLE):
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        if self.kind == MARKOV_SAMPLE and self.measure is None:
            raise ValidationError("markov-sample generation needs a measure")
        if self.measure is not None and self.measure.alphabet != self.alphabet:
            raise ValidationError("generator measure alphabet mismatch")
        if self.n < 0:
            raise ValidationError("length must be nonnegative")
        if not 0 <= self.seed <= _MASK:
            raise ValidationError(f"seed {self.seed} is outside [0, 2**64)")


def generate(spec: GeneratorSpec) -> np.ndarray:
    pieces = list(generate_chunks(spec))
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


def generate_chunks(spec: GeneratorSpec, chunk: int = 1 << 16) -> Iterable[np.ndarray]:
    """Yield the sequence of ``spec`` in bounded chunks so consumers never
    hold the whole sequence (the splitmix64 stream is counter based, so a
    Markov sample continues exactly across chunk boundaries)."""
    if chunk < 1:
        raise ValidationError(f"chunk size must be positive, got {chunk}")
    if spec.kind == CHAMPERNOWNE:
        yield from _champernowne_chunks(len(spec.alphabet), spec.n, chunk)
        return
    breaks, table = _draw_table(spec.measure)
    rows = transition_rows(table)
    state = len(spec.alphabet)  # the start row, pi
    produced = 0
    while produced < spec.n:
        take = min(chunk, spec.n - produced)
        us = splitmix64_floats(spec.seed, take, offset=produced)
        path = run_states(rows, np.searchsorted(breaks, us, side="right"), state)
        state = int(path[-1])
        produced += take
        yield path[1:]


class BlockCounter:
    """Streaming block counter over symbol-index chunks.

    SLIDING counts every window of length k (n-k+1 of them over n symbols);
    ALIGNED counts the disjoint blocks w1 w2 ... (floor(n/k) of them).
    Memory is one #A**k count vector plus a k-sized carry; block codes are
    int64, so #A**k may not exceed 2**63 - 1.
    """

    def __init__(self, alphabet_size: int, k: int, mode: str = SLIDING):
        if k < 1:
            raise BlockLengthOutOfRange("block length must be at least 1")
        # past k = 63 even two symbols overflow; stop before a huge power
        if alphabet_size > 1 and (k >= 64 or alphabet_size**k > _INT64_MAX):
            raise BlockLengthOutOfRange(
                f"block length {k} over {alphabet_size} symbols gives "
                f"{alphabet_size}**{k} blocks, past the int64 code range"
            )
        if mode not in (SLIDING, ALIGNED):
            raise ValidationError(f"unknown counting mode {mode!r}")
        self.base = alphabet_size
        self.k = k
        self.mode = mode
        self.counts = np.zeros(alphabet_size**k, dtype=np.int64)
        self.n = 0
        self._carry = np.zeros(0, dtype=np.int64)

    def update(self, chunk: np.ndarray):
        chunk = np.asarray(chunk, dtype=np.int64)
        self.n += chunk.size
        seq = np.concatenate([self._carry, chunk]) if self._carry.size else chunk
        k, base = self.k, self.base
        if self.mode == SLIDING:
            if seq.size >= k:
                codes = seq[: seq.size - k + 1].copy()
                for j in range(1, k):
                    codes *= base
                    codes += seq[j : seq.size - k + 1 + j]
                self.counts += np.bincount(codes, minlength=self.counts.size)
                self._carry = seq[seq.size - k + 1 :].copy()
            else:
                self._carry = seq.copy()
        else:
            whole = (seq.size // k) * k
            if whole:
                blocks = seq[:whole].reshape(-1, k)
                codes = blocks[:, 0].copy()
                for j in range(1, k):
                    codes *= base
                    codes += blocks[:, j]
                self.counts += np.bincount(codes, minlength=self.counts.size)
            self._carry = seq[whole:].copy()

    @property
    def windows(self) -> int:
        """Number of blocks counted so far."""
        if self.mode == SLIDING:
            return max(self.n - self.k + 1, 0)
        return self.n // self.k


@dataclass(frozen=True)
class FrequencyReport:
    """Counts and frequencies of every length-k block over a prefix,
    including blocks that never occur (so discrepancies see them)."""

    alphabet: Alphabet
    mode: str
    k: int
    n: int
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = self.n - self.k + 1 if self.mode == SLIDING else self.n // self.k
        total = int(self.counts.sum())
        if total != max(expected, 0):
            raise ValidationError(
                f"block counts sum to {total}, expected {expected}"
            )

    @property
    def windows(self) -> int:
        return self.n - self.k + 1 if self.mode == SLIDING else self.n // self.k

    @property
    def frequencies(self) -> np.ndarray:
        w = self.windows
        return self.counts / w if w else np.zeros_like(self.counts, dtype=float)

    def _code(self, word) -> int:
        word = tuple(word)
        if len(word) != self.k:
            raise BlockLengthOutOfRange(f"block {word!r} does not have length {self.k}")
        code = 0
        for s in word:
            code = code * len(self.alphabet) + self.alphabet.index(s)
        return code

    def count_of(self, word) -> int:
        return int(self.counts[self._code(word)])

    def frequency_of(self, word) -> float:
        w = self.windows
        return self.count_of(word) / w if w else 0.0

    def items(self):
        """(word, count, frequency) for every block, lexicographic order."""
        freqs = self.frequencies
        for code, word in enumerate(self.alphabet.words(self.k)):
            yield word, int(self.counts[code]), float(freqs[code])


def block_frequencies(alphabet, x, k: int, mode: str = SLIDING) -> FrequencyReport:
    """Count the length-k blocks of ``x`` (token iterable or index array)."""
    if not isinstance(alphabet, Alphabet):
        alphabet = Alphabet(alphabet)
    idx = x if isinstance(x, np.ndarray) else alphabet.encode(x)
    if k < 1:
        raise BlockLengthOutOfRange("block length must be at least 1")
    if k > idx.size:
        raise BlockLengthOutOfRange(
            f"block length {k} exceeds the sequence length {idx.size}"
        )
    counter = BlockCounter(len(alphabet), k, mode)
    counter.update(idx)
    return FrequencyReport(
        alphabet=alphabet, mode=mode, k=k, n=counter.n, counts=counter.counts
    )


def discrepancy(report: FrequencyReport, mu: MarkovMeasure) -> float:
    """Largest absolute gap between a block frequency and its measure, over
    all #A**k blocks (absent blocks included)."""
    if mu.alphabet != report.alphabet:
        raise ValidationError("report and measure use different alphabets")
    target = block_measure_array(mu, report.k)
    return float(np.max(np.abs(report.frequencies - target)))
