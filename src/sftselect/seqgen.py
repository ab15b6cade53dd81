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
:func:`sftselect.machines._emitted`) over a draw table built once per
measure.  Its letters are the intervals that the distinct cumulative sums
(breaks) of every row of P, and of pi, cut out of [0,1): the letter of u
counts the breaks <= u, read off the raw uint64 by integer thresholds
(:func:`_thresholds`), one comparison each (2 for the golden-mean Parry
measure) or by binary search past 255.  Its states, emitted as uint8, are
the symbols plus a start state whose row is pi.  The walk gathers the end
of each k-letter block that synchronizes (its letters lead every state to
one state): every block of an i.i.d. measure, whose rows agree (k = 10 for
uniform binary), and 94% for golden mean (k = 7); a loose block takes a step.

One place, :func:`_block_counters`, maps each block counter of ``freq``
and experiments to the lengths it serves: one sliding counter serves every
length, aligned mode one per length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .alphabet import Alphabet, _require_letters
from .errors import BlockLengthOutOfRange, ValidationError
from .machines import _emitted, _narrow_dtype, _require_budget, block_codes, block_letters
from .machines import transition_rows
from .measures import MarkovMeasure, block_measure_array

SLIDING = "sliding"
ALIGNED = "aligned"

CHAMPERNOWNE = "champernowne"
MARKOV_SAMPLE = "markov-sample"

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
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


def _splitmix64_bits(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs offset+1 .. offset+count of the splitmix64 stream for ``seed``
    taken modulo 2**64, mixed in place in one vectorized pass (the
    generator is counter based: the i-th state is seed + i * gamma)."""
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK)
    shifted = np.empty_like(z)  # one buffer for the rounds' shifts
    for shift, mult in ((30, _M1), (27, _M2)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def splitmix64_floats(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """The [0,1) values of :func:`_splitmix64_bits`: top 53 bits over 2**53."""
    return (_splitmix64_bits(seed, count, offset) >> np.uint64(11)) * 2.0**-53


def _draw_table(mu: MarkovMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(breaks, table) for inverse-CDF sampling of ``mu`` as a table walk.

    ``breaks`` holds the sorted distinct cumulative sums of the rows of P
    and of pi; :func:`_draw_letters` gives the letter of each u.
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


def _thresholds(breaks: np.ndarray) -> np.ndarray:
    """T_b = ceil(b * 2**53) * 2**11 for each break b < 1: u = (z >> 11) *
    2**-53 >= b exactly when z >= T_b, and u < 1 never reaches b >= 1."""
    return np.ceil(breaks[breaks < 1.0] * 2.0**53).astype(np.uint64) << np.uint64(11)


def _draw_letters(breaks: np.ndarray, us: np.ndarray) -> np.ndarray:
    """``searchsorted(breaks, us, "right")``, also for uint64 ``us`` and
    :func:`_thresholds`; up to 255 breaks (a uint8 count) a sum of
    comparisons is faster (3 breaks, 2**16 values: 0.07 against 1.1 ms)."""
    if breaks.size > 255:
        return np.searchsorted(breaks, us, side="right")
    letters = np.zeros(us.size, dtype=np.uint8)
    for b in breaks:
        letters += us >= b
    return letters


def _champernowne_chunks(base: int, n: int, chunk: int):
    """Bounded-size pieces of the by-length, then lexicographic word
    concatenation, as :func:`block_letters` spells them in the narrow dtype
    of ``base - 1``; at most ~chunk symbols are materialized at a time."""
    for length in itertools.count(1):
        words, batch = base**length, max(chunk // length, 1)
        for code in range(0, words, batch):
            if n <= 0:
                return
            codes = np.arange(code, min(code + batch, words), dtype=np.int64)
            flat = block_letters(codes, length, base).reshape(-1)[:n]
            n -= flat.size
            yield flat


def champernowne(alphabet, n: int) -> np.ndarray:
    """First ``n`` symbols of the concatenation of all nonempty words ordered
    by length and then lexicographically; the canonical normal sequence."""
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
    return np.concatenate([np.zeros(0, dtype=np.int64), *generate_chunks(spec)])


def generate_chunks(spec: GeneratorSpec, chunk: int = 1 << 16) -> Iterable[np.ndarray]:
    """Yield the sequence of ``spec`` in bounded chunks so consumers never
    hold the whole sequence (the splitmix64 stream is counter based, so a
    Markov sample continues exactly across chunk boundaries).  Chunks come
    in the narrow dtype of their largest value: Markov chunks are uint8 up
    to 254 symbols, Champernowne chunks up to 256; :func:`generate` is int64."""
    if chunk < 1:
        raise ValidationError(f"chunk size must be positive, got {chunk}")
    if spec.kind == CHAMPERNOWNE:
        yield from _champernowne_chunks(len(spec.alphabet), spec.n, chunk)
        return
    breaks, table = _draw_table(spec.measure)
    thresholds = _thresholds(breaks)  # no draw reaches a letter past these breaks
    walk_table = transition_rows(table[:, : thresholds.size + 1])
    # the states: the symbols, the start row (pi) and the dead state
    symbols = walk_table.trace.astype(_narrow_dtype(len(spec.alphabet) + 1))
    state = len(spec.alphabet)  # the start row, pi
    for lo in range(0, spec.n, chunk):
        z = _splitmix64_bits(spec.seed, min(chunk, spec.n - lo), offset=lo)
        letters, state = _emitted(walk_table, symbols, _draw_letters(thresholds, z), state)
        yield letters


class BlockCounter:
    """Streaming block counter over symbol-index chunks.

    SLIDING counts every window of length k (n-k+1 of them over n symbols);
    ALIGNED counts the disjoint blocks w1 w2 ... (floor(n/k) of them).
    Memory is one #A**k int64 count vector, at most COUNT_BUDGET_BYTES,
    plus a k-sized carry in the chunks' dtype.  Each chunk's block codes
    (:func:`block_codes`, narrow) are added into the counts in place by
    ``np.add.at``, so no #A**k vector is made per chunk.  A sliding counter
    also gives the exact counts of every shorter length (:meth:`marginal`).
    """

    def __init__(self, alphabet_size: int, k: int, mode: str = SLIDING):
        if k < 1:
            raise BlockLengthOutOfRange("block length must be at least 1")
        counts = f"{alphabet_size}**{k} int64 counts"
        what = f"block length {k} over {alphabet_size} symbols needs {counts}"
        _require_budget(alphabet_size ** min(k, 64) * 8, what, BlockLengthOutOfRange)
        if mode not in (SLIDING, ALIGNED):
            raise ValidationError(f"unknown counting mode {mode!r}")
        self.base = alphabet_size
        self.k = k
        self.mode = mode
        self.counts = np.zeros(alphabet_size**k, dtype=np.int64)
        self.n = 0
        self._carry = np.zeros(0, dtype=np.int64)

    def update(self, chunk: np.ndarray):
        """Count ``chunk`` in its own integer dtype; a foreign letter, or an
        array that is not 1-D, is refused before anything is counted."""
        chunk = _require_letters(chunk, self.base)
        self.n += chunk.size
        seq = np.concatenate([self._carry, chunk]) if self._carry.size else chunk
        step = 1 if self.mode == SLIDING else self.k
        codes = block_codes(seq, self.k, self.base, step)
        np.add.at(self.counts, codes, 1)
        self._carry = seq[codes.size * step :].copy()

    def marginal(self, k: int) -> np.ndarray:
        """Counts of the length-k blocks: the counter's own for k = self.k,
        and for a sliding counter those of every 1 <= k < self.k."""
        return next(self._marginals([k]))[1]

    def _marginals(self, ks):
        """Yield (k, :meth:`marginal` k) for the distinct ``ks``, longest first.
        Each k-window is the prefix of one counted window, or lies in the
        carry, the last min(n, self.k - 1) symbols.  The prefix counts at k
        are those at k + 1 summed over their last letter, exact integers."""
        prefix, j = self.counts, self.k
        for k in sorted(ks, reverse=True):
            if k != self.k and self.mode != SLIDING:
                raise ValidationError("aligned blocks of different lengths do not nest")
            if not 1 <= k <= self.k:
                raise BlockLengthOutOfRange(f"block length {k} is outside 1..{self.k}")
            while j > k:  # the strided sums beat a reshape sum over a short last axis
                prefix, j = sum(prefix[a :: self.base] for a in range(self.base)), j - 1
            # a copy, as the next length folds from prefix; the carry is
            # shorter than self.k, so self.counts itself gains no window
            counts = prefix.copy() if k < self.k else self.counts
            np.add.at(counts, block_codes(self._carry, k, self.base, 1), 1)
            yield k, counts


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
        total = int(self.counts.sum())
        if total != self.windows:
            raise ValidationError(f"block counts sum to {total}, expected {self.windows}")

    @property
    def windows(self) -> int:
        """The number of blocks counted; no window fits into fewer than k
        symbols, so a sliding count is never negative."""
        return max(self.n - self.k + 1, 0) if self.mode == SLIDING else self.n // self.k

    @property
    def frequencies(self) -> np.ndarray:
        w = self.windows
        return self.counts / w if w else np.zeros_like(self.counts, dtype=float)

    def max_gap(self, target: np.ndarray) -> float:
        """Largest absolute gap between a block frequency and its target."""
        return float(np.max(np.abs(self.frequencies - target)))

    def _code(self, word) -> int:
        word = tuple(word)
        if len(word) != self.k:
            raise BlockLengthOutOfRange(f"block {word!r} does not have length {self.k}")
        return int(block_codes(self.alphabet.encode(word), self.k, len(self.alphabet))[0])

    def count_of(self, word) -> int:
        return int(self.counts[self._code(word)])

    def frequency_of(self, word) -> float:
        w = self.windows
        return self.count_of(word) / w if w else 0.0


def block_frequencies(alphabet, x, k: int, mode: str = SLIDING) -> FrequencyReport:
    """Count the length-k blocks of ``x`` (token iterable or index array)."""
    return block_frequency_reports(alphabet, x, [k], mode)[k]


def _block_counters(base: int, ks, mode: str, least: int = 1) -> dict:
    """Each counter that serves the lengths ``ks``, mapped to its lengths in
    the order of ``ks``: one sliding counter at max(ks + [least]) serves them
    all by its marginals; aligned blocks do not nest, so each has its own."""
    if mode == SLIDING:
        return {BlockCounter(base, max(*ks, least)): list(ks)}
    return {BlockCounter(base, k, mode): [k] for k in ks}


def _block_reports(alphabet: Alphabet, counters: dict) -> dict:
    """The FrequencyReport of each length of a :func:`_block_counters` map, in
    its order; a counter's lengths come down its one ``_marginals`` ladder."""
    reports = {}
    for c, ks in counters.items():
        counts = dict(c._marginals(ks))
        reports.update((k, FrequencyReport(alphabet, c.mode, k, c.n, counts[k])) for k in ks)
    return reports


def _block_lengths(ks) -> list:
    """The distinct block lengths ``ks`` in ascending order, each at least 1."""
    ks = sorted(set(ks))
    if ks[0] < 1:
        raise BlockLengthOutOfRange("block length must be at least 1")
    return ks


def _require_fit(k: int, n: int):
    """Refuse a block length ``k`` past a sequence of ``n`` symbols."""
    if k > n:
        raise BlockLengthOutOfRange(f"block length {k} exceeds the sequence length {n}")


def _count_blocks(alphabet: Alphabet, ks: list, mode: str, chunks) -> dict:
    """FrequencyReports for the lengths ``ks`` of :func:`_block_lengths`:
    the counters of :func:`_block_counters` are made, so a length past the
    count budget is refused, before the first chunk is taken from
    ``chunks``; then each chunk is fed once to each counter, and a length
    past the whole sequence is refused."""
    counters = _block_counters(len(alphabet), ks, mode)
    for chunk in chunks:
        for counter in counters:
            counter.update(chunk)
    _require_fit(ks[-1], next(iter(counters)).n)
    return _block_reports(alphabet, counters)


def block_frequency_reports(alphabet, x, ks, mode: str = SLIDING) -> dict:
    """FrequencyReports for the nonempty block lengths ``ks``, by ascending
    k, from the counters of :func:`_block_counters`.  A length past the
    sequence is refused before the count budget is checked."""
    alphabet = Alphabet(alphabet)
    idx = x if isinstance(x, np.ndarray) else alphabet.encode(x)
    ks = _block_lengths(ks)
    _require_fit(ks[-1], idx.size)
    return _count_blocks(alphabet, ks, mode, [idx])


def discrepancy(report: FrequencyReport, mu: MarkovMeasure) -> float:
    """Largest absolute gap between a block frequency and its measure, over
    all #A**k blocks (absent blocks included)."""
    if mu.alphabet != report.alphabet:
        raise ValidationError("report and measure use different alphabets")
    return report.max_gap(block_measure_array(mu, report.k))
