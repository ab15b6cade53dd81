"""Run-counting bounds, checked exactly, and the enumeration oracle.

The checks read output-prefix tables of one layout: at run length n, a row
per start state and a column per word w of length <= min(n, K), by length
and then lexicographically, holding the count or measure of the length-n
runs from that state whose output begins with w:

* counts come from one backward recurrence over the rows of all states,
  with exact Python ints, so they cost O(n * |Q| * #A**K * #A) and need no
  cap; ``lemma_check`` holds the layers of one pass for all states;
* measures come from one walk of the run tree for a group of start states
  at once, which pops slices of at most ``machines._SLICE`` nodes of one
  depth off a stack, in lexicographic run order at every depth.  Each
  node's weight is added to its output prefixes' running sums in array
  order (``np.add.at``, never per-slice sums added up), so every sum is
  taken over the runs in lexicographic order, exactly as the enumeration
  adds them, and its floats are bit for bit the enumeration's; whether a
  prefix is output at all is tracked apart from its sum (an absent one
  reads 0.0).  The walk visits all #A**n nodes, for a single check too
  (only the count tables are cut to one word), and is capped.

Each check reads ``_count_tables`` or ``_measure_tables`` itself, and is
made by one kernel, ``_check_rows``, one-sided or the two-sided equirun
band, which zips a table row with its words: a count is checked against
#A**(n - |w|) exactly, a measure against the conditional measure of w with
a float tolerance.  The public checks make :class:`LemmaCheckResult`
objects from the rows as they are read; the CLI writes the rows themselves.

Enumerating runs outright (:func:`enumerate_runs`, ``_walk_runs``) is the
oracle the tables are tested against; it stays capped, and past the cap the
statistical path is the right tool.  It walks the run tree a node at a
time, with one stack of nodes (state, depth, symbol read into it, keeps,
weight) pushed in reverse alphabet order, and keeps the path to the popped
node in two lists, its inputs and their keep bits, written at the node's
depth.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, compress, islice
from typing import Iterator, Optional

import numpy as np

from .compat import CompatibilityWitness, _step_weights
from .errors import CapExceeded, NotCompatible, NotStronglyConnected, ValidationError
from .machines import _SLICE, Automaton, Selector, _require_budget, _require_oblivious, scc_decomposition
from .measures import MarkovMeasure, conditional_word_measure

DEFAULT_RUN_CAP = 1 << 20


@dataclass(frozen=True)
class RunEnumeration:
    """All realizable runs of one length from one state, in lexicographic
    input order: (input, output, end) triples."""

    start: object
    length: int
    runs: tuple

    @property
    def count(self) -> int:
        return len(self.runs)


def _check_cap(machine, n: int, cap: int):
    if n < 0:
        raise ValidationError(f"run length {n} is negative")
    size = len(machine.alphabet)
    if size > 1 and n > max(cap.bit_length(), 64):  # past the cap: name #A**n, build none
        raise CapExceeded(f"{size}**{n}", cap)
    nominal = size**n
    if nominal > cap:
        raise CapExceeded(nominal, cap)


def _walk_runs(machine, start, n: int, weights=None) -> Iterator[tuple]:
    """Depth-first enumeration of the realizable length-n runs from ``start``,
    as (input, output, end, weight) with inputs in lexicographic order.
    ``weights(state, symbol)`` multiplies into the run weight per step, left
    to right from 1.0 (1.0 throughout when omitted).  Output is () for automata."""
    machine.state_index(start)
    is_selector = isinstance(machine, Selector)
    symbols = machine.alphabet.symbols[::-1]
    inputs, kept = [None] * n, [False] * n
    stack = [(start, 0, None, False, 1.0)]
    while stack:
        state, d, a, keeps, acc = stack.pop()
        if d:
            inputs[d - 1], kept[d - 1] = a, keeps
        if d == n:
            yield tuple(inputs), tuple(compress(inputs, kept)), state, acc
            continue
        for b in symbols:
            step = machine.step_or_none(state, b)
            if step is not None:
                target, keeps = step if is_selector else (step, False)
                weight = acc if weights is None else acc * weights(state, b)
                stack.append((target, d + 1, b, keeps, weight))


def enumerate_runs(machine, start, n: int, cap: int = DEFAULT_RUN_CAP) -> RunEnumeration:
    """Materialize every realizable length-n run from ``start`` with its
    output and end state, inputs in lexicographic order."""
    _check_cap(machine, n, cap)
    runs = tuple((u, v, end) for u, v, end, _w in _walk_runs(machine, start, n))
    return RunEnumeration(start=start, length=n, runs=runs)


@dataclass(frozen=True)
class LemmaCheckResult:
    """Outcome of one counting-bound check.

    ``value`` is the measured count or measure, checked against
    [lower, upper]; ``strict`` records whether the upper comparison held
    strictly (the stated bounds are strict except for degenerate base
    cases where both sides are equal)."""

    lemma: str
    state: object
    n: int
    word: tuple
    value: float
    upper: float
    lower: Optional[float] = None
    epsilon: Optional[float] = None
    passed: bool = False
    strict: bool = False


def _words_to(size: int, length: int) -> int:
    """The number of words of length <= ``length`` over ``size`` letters,
    counted at most to length 64 (past any budget) for two or more."""
    return length + 1 if size == 1 else (size ** (min(length, 64) + 1) - 1) // (size - 1)


def _check_length(n: int):
    """Refuse a run length of ``sys.maxsize`` or more, which no table reaches
    (``islice`` takes no longer count)."""
    if n >= sys.maxsize:
        raise ValidationError(f"run lengths from sys.maxsize = {sys.maxsize} on are out of reach")


def _check_size(length: int, words: int, results=0, result_bytes=0, cells=0, digits=0):
    """Refuse, before anything is built, a check whose words, held results and
    table cells would pass ``COUNT_BUDGET_BYTES``, each counted at its cost
    measured with tracemalloc: 40 + 8 * ``length`` bytes a word (as a tuple;
    ``lemma-check`` holds each word's token in its place), ``result_bytes`` a
    result, as its caller holds it, 120 a table cell (see :func:`_cells`; a
    count's slot and int or a measure's sum, presence byte, slot and value took
    17-50 on tables of many cells a layer), and an int digit's size for each
    of ``digits``, the digits of big counts past their first."""
    need = words * (40 + 8 * length) + results * result_bytes + cells * 120
    need += digits * sys.int_info.sizeof_digit
    _require_budget(need, f"the checks would take {need} bytes")


def _digits(size: int, n: int) -> int:
    """The int digits past the first of a count of length-n runs, at most ``size``**n."""
    return n * (size - 1).bit_length() // sys.int_info.bits_per_digit


def _count_tables(selector: Selector, k: int, word: Optional[tuple] = None) -> Iterator[np.ndarray]:
    """Yield, for n = 0, 1, 2, ..., the count table at n: an object array of
    Python ints, a row per state index and a column per word w of length
    <= min(n, k), by length and then lexicographically, holding the number
    of length-n runs from that state whose output begins with w.  A run from
    q that reads a to t outputs what the run from t outputs, behind a if q
    keeps a, so a row at n + 1 adds up its targets' rows at n: a drop adds
    the row as it is; a keep of a adds the column of () to () and the
    column of each w shorter than k to that of a.w.  Given ``word`` (k =
    |word|), column j is its suffix of length j, which a keep of the letter
    before it moves to j + 1.  Layers are held column by column, so one map
    of the cells arcs add from and into, in source order, cut, serves all."""
    nxt, keep = selector.tables()
    nq, size = nxt.shape
    if word is None:  # a keep of a moves code x of length j < k to x + (a + 1) * #A**j
        short = np.arange(_words_to(size, k - 1))
        reach = size ** np.repeat(np.arange(k), size ** np.arange(k))
        moves = [(short, short + (a + 1) * reach) for a in range(size)]
    else:  # one word of each length, as over one letter
        hits = [np.flatnonzero([word[k - 1 - j] == a for j in range(k)]) for a in selector.alphabet]
        moves, size = [(hit, hit + 1) for hit in hits], 1
    every, pairs = np.arange(_words_to(size, k)), []
    for a, (src, dst) in enumerate(moves):  # cell (column, row) is column * nq + row
        for kept, (cols, into) in ((False, (every, every)), (True, (np.r_[0, src], np.r_[0, dst]))):
            rows = np.flatnonzero((nxt[:, a] >= 0) & (keep[:, a] == kept))
            pairs.append(((cols[:, None] * nq + nxt[rows, a]).ravel(), (into[:, None] * nq + rows).ravel()))
    src, dst = map(np.concatenate, zip(*pairs))
    order = np.argsort(src)
    src, dst = src[order], dst[order]
    layer, n = np.ones((1, nq), dtype=object), 0
    while True:
        yield layer.T
        cells, n = layer.reshape(-1), n + 1
        layer = np.zeros((_words_to(size, min(n, k)), nq), dtype=object)
        cut = src.searchsorted(len(cells))
        np.add.at(layer.reshape(-1), dst[:cut], cells[src[:cut]])


def _weights(selector: Selector, mu, witness, n: int, cap: int):
    """The step weights of the measure walk to run length n, after checking
    that ``witness`` has last-selected labels and that #A**n is within
    ``cap``; None without a measure (the count tables need neither).  Row q
    is the lift of the measure out of state index q (see
    :func:`compat._step_weights`)."""
    if mu is None:
        return None
    if witness is None or witness.last_selected is None:
        raise NotCompatible(["witness lacks the last-selected labeling"])
    _check_cap(selector, n, cap)
    return _step_weights(selector, mu, witness)


def _cells(size: int, n: int, k: int) -> int:
    """The cells one start state's count or measure tables hold to run length
    n, with prefixes cut at k: at depth d, every word of length <= min(d, k)."""
    m = min(n, k)
    top = _words_to(size, m)
    shorter = m * (m + 1) // 2 if size == 1 else (top - 1 - m) // (size - 1)
    return shorter + (n - m + 1) * top


def _measure_tables(selector: Selector, starts, n_max: int, k: int, weight_rows) -> list:
    """For each of ``starts`` and n = 0..n_max, its row of the measure
    table at n in the columns of :func:`_count_tables`: an object array
    holding, for every output prefix w with |w| <= k, the total weight of
    the length-n runs from that start whose output begins with w, or the
    0.0 an absent prefix (one no run outputs) reads.

    A run weighs the product, in reading order, of ``weight_rows[state,
    symbol]`` over its steps.  The walk pops slices of at most ``_SLICE``
    nodes of one depth, the root slice holding every start; a node is
    (start, state, weight, its output cut at k as its index among the words
    of its length, that length).
    A slice's children come from one gather of the next-state and keep
    tables, parent-major and letter-minor, weighing ``acc * row[a]``, and
    are pushed as slices in reverse, so at every depth the nodes of each
    start are popped in lexicographic run order.  A node adds its weight
    to each of its output prefixes, keyed (start, word code) over the words
    of length <= k, with ``np.add.at``, which adds in array order to the
    depth's running sums from 0.0: each sum is taken over the runs in
    lexicographic order, bit for bit that of adding up the enumeration.
    Presence is tracked apart from the sums, so a prefix whose runs all
    weigh 0.0 is present.  The value types match the enumeration too: 1.0
    at n = 0 and ``np.float64`` from n = 1 (the weights the enumeration
    multiplies are numpy scalars), the Python 0.0 where absent."""
    nxt, keep = selector.tables()
    weights = np.asarray(weight_rows, dtype=np.float64)
    size, k, group = len(selector.alphabet), min(k, n_max), len(starts)
    powers = size ** np.arange(k + 1, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(powers)))  # the codes of the words shorter than j
    widths = [_words_to(size, min(d, k)) for d in range(n_max + 1)]  # the codes at depth d
    sums = [np.zeros(group * width) for width in widths]
    seen = [np.zeros(group * width, dtype=bool) for width in widths]
    letters, zeros = np.arange(size), np.zeros(group, dtype=np.int64)
    states = np.array([selector.state_index(p) for p in starts], dtype=np.int64)
    stack = [(0, (np.arange(group), states, np.ones(group), zeros, zeros))]
    while stack:
        d, (s, q, acc, x, m) = stack.pop()
        base = s * widths[d]
        for j in range(min(d, k) + 1):
            cut = m >= j
            key = base[cut] + offsets[j] + x[cut] // powers[m[cut] - j]
            np.add.at(sums[d], key, acc[cut])
            seen[d][key] = True
        if d == n_max:
            continue
        targets = nxt[q]
        defined = targets >= 0
        keeps = keep[q] & (m < k)[:, None]
        children = (
            np.broadcast_to(s[:, None], targets.shape)[defined],
            targets[defined],
            (acc[:, None] * weights[q])[defined],
            np.where(keeps, x[:, None] * size + letters, x[:, None])[defined],
            (m[:, None] + keeps)[defined],
        )
        for lo in reversed(range(0, len(children[0]), _SLICE)):
            stack.append((d + 1, tuple(a[lo : lo + _SLICE] for a in children)))
    layers = [np.full((group, 1), 1.0, dtype=object)]
    for d in range(1, n_max + 1):
        values = np.full(group * widths[d], 0.0, dtype=object)
        values[seen[d]] = list(sums[d][seen[d]])
        layers.append(values.reshape(group, widths[d]))
    return [[layer[i] for layer in layers] for i in range(group)]


def _bound(mu: Optional[MarkovMeasure]):
    """The conditional measure of ``mu``, (label, w) -> float, each pair
    computed once; None in count mode."""
    return None if mu is None else lru_cache(maxsize=None)(partial(conditional_word_measure, mu))


def _check_rows(selector, bound, witness, p, n: int, values, words, tol, epsilon=None):
    """The checks of the table row of (p, n), its ``values`` zipped with
    ``words``, in order, as tuples in :class:`LemmaCheckResult`'s field
    order: the run count (``bound`` None) or measure of w against
    #A**(n - |w|), once per length, or the conditional measure of w after
    the last-selected label of p, read from ``bound`` (see :func:`_bound`).
    Counts are exact, so ``tol`` applies to measures only.  Given
    ``epsilon``, the two-sided equirun check with lower bound (1 - epsilon) *
    upper; ``strict`` is then ``value < upper``, and ``value < upper - tol``
    for the one-sided checks (Python bools)."""
    if bound is None:
        kind, size, tol, length = "count", len(selector.alphabet), 0, None
    else:
        kind, label = "measure", witness.last_selected[p]
    lemma = f"{kind}-upper" if epsilon is None else f"equirun-{kind}"
    for w, value in zip(words, values):
        if bound is not None:
            upper = bound(label, w)
        elif len(w) != length:
            length = len(w)
            upper = size ** (n - length)
        if epsilon is None:
            passed, strict = bool(value <= upper + tol), bool(value < upper - tol)
            yield lemma, p, n, w, value, upper, None, None, passed, strict
        else:
            try:
                lower = (1.0 - epsilon) * upper
            except OverflowError:  # a count past the float range
                band = f"equirun band at n = {n} cannot be a float"
                raise ValidationError(f"{band}: #A**(n - k) = {size}**{n - length}") from None
            passed = bool(lower - tol <= value <= upper + tol)
            yield lemma, p, n, w, value, upper, lower, epsilon, passed, bool(value < upper)


def _result(selector, bound, witness, p, n: int, w: tuple, value, tol, epsilon=None):
    """The check of one count or measure ``value`` of w (see :func:`_check_rows`)."""
    return LemmaCheckResult(*next(_check_rows(selector, bound, witness, p, n, [value], [w], tol, epsilon)))


def _prefix_check(selector, mu, witness, start, n, word, require_oblivious, cap, tol):
    """The value and check of one (start, n, word), shared by the two public
    single checks; the count tables keep the suffixes of ``word`` only, the
    measure walk visits every run to n."""
    w = tuple(word)
    if len(w) > n:
        raise ValidationError(f"|word| = {len(w)} exceeds run length {n}")
    if require_oblivious:
        _require_oblivious(selector)
    rows = _weights(selector, mu, witness, n, cap)
    _check_length(n)
    if rows is None:
        q = selector.state_index(start)
        value = next(islice(_count_tables(selector, len(w), w), n, None))[q, -1]
    else:  # a group of one; w's column, by length then lexicographically, in bijective base #A
        alphabet = selector.alphabet
        _check_size(len(w), 0, cells=_cells(len(alphabet), n, len(w)))
        column = reduce(lambda c, a: c * len(alphabet) + alphabet.index(a) + 1, w, 0)
        value = _measure_tables(selector, [start], n, len(w), rows)[0][n][column]
    return value, _result(selector, _bound(mu), witness, start, n, w, value, tol)


def count_output_prefix_runs(
    selector: Selector,
    start,
    n: int,
    word,
    *,
    require_oblivious: bool = True,
) -> tuple[int, LemmaCheckResult]:
    """Count length-n runs from ``start`` whose output begins with ``word``
    and check the count against #A**(n - |word|).

    The bound is stated for oblivious selectors; pass
    ``require_oblivious=False`` to probe individual states of a mixed-action
    machine anyway (the check then reports whatever holds empirically).
    """
    return _prefix_check(selector, None, None, start, n, word, require_oblivious, 0, 0.0)


def measure_output_prefix_runs(
    selector: Selector,
    mu: MarkovMeasure,
    witness: CompatibilityWitness,
    start,
    n: int,
    word,
    cap: int = DEFAULT_RUN_CAP,
    tol: float = 1e-12,
) -> tuple[float, LemmaCheckResult]:
    """Total conditional measure (given the last-read label of ``start``) of
    the length-n inputs whose output begins with ``word``, checked against
    the conditional measure of ``word`` after the last-selected label.

    The stated bound is strict except in degenerate base cases (n = 0 with
    the empty word makes both sides 1), so the check accepts equality and
    records strictness separately.  The walk is capped at ``cap`` nominal
    runs (#A**n).
    """
    return _prefix_check(selector, mu, witness, start, n, word, True, cap, tol)


def _lemma_rows(selector, n_max: int, w_max: int, mu, witness, cap: int, tol: float = 1e-12):
    """The checks of :func:`lemma_check`, a table's rows at a time; the cap
    and the budget are checked at the call."""
    if n_max < 0 or w_max < 0:
        raise ValidationError(f"n_max {n_max} and w_max {w_max} must be >= 0")
    _require_oblivious(selector)
    weights = _weights(selector, mu, witness, n_max, cap)
    _check_length(n_max)
    states, size, m = selector.states, len(selector.alphabet), min(n_max, w_max)
    top = _words_to(size, m)
    if weights is None:  # one pass for all states, at the first read, its layers held
        cells = len(states) * _cells(size, n_max, m) + 3 * (n_max + 1)  # and three a layer's arrays
        digits = len(states) * top * (n_max + 1) * _digits(size, n_max) // 2
        _check_size(m, top, cells=cells, digits=digits)
        held = (list(islice(_count_tables(selector, m), n_max + 1)) for _ in [0])
        tables = ((layer[q] for layer in layers) for layers in held for q in range(len(states)))
    else:  # a group of states walked at once, when its first state is reached
        cells = _cells(size, n_max, w_max)
        group = min(len(states), max(1, _SLICE // cells))
        _check_size(m, top, cells=group * cells)
        tables = (
            per_n
            for lo in range(0, len(states), group)
            for per_n in _measure_tables(selector, states[lo : lo + group], n_max, w_max, weights)
        )
    bound, words = _bound(mu), selector.alphabet.words  # made as a row checks them, never held
    return (
        _check_rows(selector, bound, witness, p, n, values, chain(*map(words, range(min(n, m) + 1))), tol)
        for p, per_n in zip(states, tables)
        for n, values in enumerate(per_n)
    )


def lemma_check(
    selector: Selector,
    n_max: int,
    w_max: int,
    mu: Optional[MarkovMeasure] = None,
    witness: Optional[CompatibilityWitness] = None,
    cap: int = DEFAULT_RUN_CAP,
    tol: float = 1e-12,
) -> Iterator[LemmaCheckResult]:
    """Every check of :func:`count_output_prefix_runs` (or, given ``mu`` and
    ``witness``, of :func:`measure_output_prefix_runs`) for each state p,
    n = 0..n_max and word w with |w| <= min(n, w_max), in that order.

    All checks from one state read its rows of one table per n, built
    once: one count pass makes every state's rows, at the first read, and
    holds its layers; the measure walk makes the tables of a group of
    consecutive states at once, as many as hold at most ``_SLICE`` cells
    between them (see :func:`_cells`), or one.  Only the measure walk is
    capped at ``cap`` nominal runs (#A**n_max).  The cap and the budget of
    :func:`_check_size` are checked at the call, the budget with every
    count layer, or one group's measure tables, held; the
    results are made one at a time, from the rows of one table at a time,
    so the budget counts none of them, and each bound is computed once per
    table and length for counts, once per (label, word) for measures.
    """
    tables = _lemma_rows(selector, n_max, w_max, mu, witness, cap, tol)
    return (LemmaCheckResult(*row) for rows in tables for row in rows)


@dataclass(frozen=True)
class EquirunScanResult:
    """Least run length at which every (state, word) count sits inside the
    two-sided band, with the check rows (see :func:`_check_rows`) at the
    reported length, a tuple per state; ``results`` makes their objects at
    its first read."""

    k: int
    epsilon: float
    witness_n: Optional[int]
    rows: tuple

    @cached_property
    def results(self) -> tuple:
        return tuple(LemmaCheckResult(*row) for rows in self.rows for row in rows)

    @property
    def passed(self) -> bool:
        return self.witness_n is not None


def equirun_scan(
    selector: Selector,
    k: int,
    epsilon: float,
    n_max: int,
    mu: Optional[MarkovMeasure] = None,
    witness: Optional[CompatibilityWitness] = None,
    cap: int = DEFAULT_RUN_CAP,
    tol: float = 1e-12,
) -> EquirunScanResult:
    """Scan n = k..n_max for the least length at which, for every state p and
    every length-k word w, the runs outputting w first sit within
    [(1-epsilon) * bound, bound].

    Uniform mode bounds run counts by #A**(n-k); Markov mode (measure plus
    witness) bounds the conditional run measure by the conditional measure
    of w after the last-selected label of p.  Only Markov mode walks runs,
    once per n for all states, and only it is capped at ``cap`` nominal
    runs (#A**n).  An ``n_max`` below k leaves nothing to scan and raises
    ValidationError, as do k < 1, an epsilon that is negative or NaN, the
    first n whose count band #A**(n-k) is past the float range, and a
    scan past the budget of :func:`_check_size`: the count pass holds a
    layer of every state's rows and the next, with counts as large as at
    n_max, a walk to n every state's measure tables to n (counted at each
    n, with the cap), and a check row is counted at 640 +
    n_max bytes, what a result object cost with the previous length's and
    its printed line; a row costs less.
    """
    if k < 1 or not epsilon >= 0:
        raise ValidationError(f"equirun scan needs k >= 1 and epsilon >= 0, got {k} and {epsilon}")
    if n_max < k:
        raise ValidationError(f"n_max {n_max} is below the block length {k}")
    _require_oblivious(selector)
    if not scc_decomposition(selector).strongly_connected:
        raise NotStronglyConnected("equirun scan expects a strongly connected selector")
    size, states = len(selector.alphabet), selector.states
    blocks, nq, first = size ** min(k, 64), len(states), _words_to(size, k - 1)
    cells = 2 * nq * _words_to(size, k) if mu is None else 0  # a count layer and the next
    _check_size(k, blocks, nq * blocks, 640 + n_max, cells, cells * _digits(size, n_max))
    words, bound = list(selector.alphabet.words(k)), _bound(mu)
    # the count tables of all states grow one layer per n; the measure walk
    # is redone for each n, over all states, after the cap and budget checks
    # for that n
    counts = islice(_count_tables(selector, k), k, None)
    for n in range(k, n_max + 1):
        weights, checks = _weights(selector, mu, witness, n, cap), []
        if weights is None:
            tables = next(counts)
        else:
            _check_size(k, blocks, nq * blocks, 640 + n_max, nq * _cells(size, n, k))
            tables = [per_n[n] for per_n in _measure_tables(selector, states, n, k, weights)]
        for p, values in zip(states, tables):
            rows = _check_rows(selector, bound, witness, p, n, values[first:], words, tol, epsilon)
            checks.append(tuple(rows))
        if all(passed for rows in checks for *_check, passed, _strict in rows):
            return EquirunScanResult(k=k, epsilon=epsilon, witness_n=n, rows=tuple(checks))
    return EquirunScanResult(k=k, epsilon=epsilon, witness_n=None, rows=tuple(checks))


def brute_force_prefix_selection(x, dfa: Automaton, accepting) -> tuple:
    """Literal prefix selection: keep x[i] exactly when the DFA accepts
    x[1:i-1], deciding each prefix by a fresh run from the initial state.

    Quadratic on purpose; this is the definition-level reference for the
    selector machinery.
    """
    word = tuple(x)
    accepting = set(accepting)
    out = []
    for i in range(1, len(word) + 1):
        prefix = word[: i - 1]
        state = dfa.initial
        alive = True
        for a in prefix:
            state = dfa.step_or_none(state, a)
            if state is None:
                alive = False
                break
        if alive and state in accepting:
            out.append(word[i - 1])
    return tuple(out)
