"""Run-counting bounds, checked exactly, and the enumeration oracle.

The checks read per-start-state tables that map every output prefix of
length <= K to its count or measure at every run length n <= n_max:

* counts come from a forward dynamic program over (state, output truncated
  to K) with exact integers, so they cost O(n * |Q| * #A**K * #A) and need
  no cap;
* measures come from one pre-order walk of the run tree with children in
  alphabet order, so every sum is taken over the runs in lexicographic
  order, exactly as the enumeration adds them, and its floats are bit for
  bit the enumeration's.  The walk visits all #A**n nodes, for a single
  check too (only the count DP is pruned to one word), and is capped.

Both come from one table source, ``_tables``, and every check, one-sided
or the two-sided equirun band, is made by one kernel, ``_check_rows``, as
plain rows a table at a time: a count is checked against #A**(n - |w|)
exactly, a measure against the conditional measure of w with a float
tolerance.  The public checks make :class:`LemmaCheckResult` objects from
the rows as they are read; the CLI writes the rows themselves.

Enumerating runs outright (:func:`enumerate_runs`, ``_walk_runs``) is the
oracle the tables are tested against; it stays capped, and past the cap the
statistical path is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .alphabet import as_word
from .compat import CompatibilityWitness, _step_weights
from .errors import CapExceeded, NotCompatible, NotStronglyConnected, ValidationError
from .machines import COUNT_BUDGET_BYTES, Automaton, Selector, _require_oblivious, scc_decomposition
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
    nominal = len(machine.alphabet) ** n
    if nominal > cap:
        raise CapExceeded(nominal, cap)


def _walk_runs(machine, start, n: int, weights=None) -> Iterator[tuple]:
    """Depth-first enumeration of the realizable length-n runs from ``start``.

    Yields (input, output, end, weight) with inputs in lexicographic order.
    ``weights(state, symbol)`` multiplies into the run weight per step; the
    weight is 1.0 when omitted.  Output is () for automata.
    """
    machine.state_index(start)
    if n == 0:
        yield (), (), start, 1.0
        return
    is_selector = isinstance(machine, Selector)
    symbols = machine.alphabet.symbols
    na = len(symbols)
    sym_idx = [0] * n
    states = [start] + [None] * n
    acc = [1.0] * (n + 1)
    kept = [False] * n
    inputs = [None] * n
    d = 0
    while d >= 0:
        if d == n:
            out = tuple(inputs[i] for i in range(n) if kept[i])
            yield tuple(inputs), out, states[n], acc[n]
            d -= 1
            continue
        i = sym_idx[d]
        if i >= na:
            sym_idx[d] = 0
            d -= 1
            continue
        sym_idx[d] = i + 1
        a = symbols[i]
        step = machine.step_or_none(states[d], a)
        if step is None:
            continue
        if is_selector:
            target, keeps = step
        else:
            target, keeps = step, False
        inputs[d] = a
        kept[d] = keeps
        states[d + 1] = target
        acc[d + 1] = acc[d] if weights is None else acc[d] * weights(states[d], a)
        d += 1


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


def _steps(selector: Selector) -> list:
    """Per state index, the defined transitions in alphabet order as
    (symbol index, symbol, target index, keeps)."""
    symbols, keep = selector.alphabet.symbols, selector.tables()[1]
    steps = [[] for _ in selector.states]
    for q, a, t in selector._arcs():
        steps[q].append((a, symbols[a], t, keep.item(q, a)))
    return steps


def _words_to(size: int, length: int) -> int:
    """The number of words of length <= ``length`` over ``size`` letters,
    counted at most to length 64 (past any budget) for two or more."""
    return length + 1 if size == 1 else (size ** (min(length, 64) + 1) - 1) // (size - 1)


def _check_size(length: int, words: int, keys: int, results: int = 0, result_bytes: int = 0):
    """Refuse, before anything is built, a check whose words, count-DP keys
    and held results would pass ``COUNT_BUDGET_BYTES``, each counted at its
    cost measured with tracemalloc: 40 + 8 * ``length`` bytes a word (as a
    tuple; ``lemma-check`` holds each word's token in its place), 176 + 8 *
    ``length`` a key (with its share of the prefix table) and
    ``result_bytes`` a result, as its caller holds it."""
    need = words * (40 + 8 * length) + keys * (176 + 8 * length) + results * result_bytes
    if need > COUNT_BUDGET_BYTES:
        raise ValidationError(
            f"the checks would take {need} bytes, past the budget of {COUNT_BUDGET_BYTES} bytes"
        )


def _count_layers(selector: Selector, start, k: int, word: Optional[tuple] = None) -> Iterator[dict]:
    """Yield, for n = 0, 1, 2, ..., the number of length-n runs from
    ``start`` per (state index, output truncated to k).

    Counts are exact integers and runs with the same key are merged, so
    each step costs O(|Q| * #A**k * #A) and a layer holds at most
    |Q| * (#A**0 + ... + #A**k) keys.  Given ``word`` (with k = |word|),
    runs whose output stops being a prefix of it are dropped on the way,
    which leaves O(|Q| * k) keys."""
    steps = _steps(selector)
    layer = {(selector.state_index(start), ()): 1}
    while True:
        yield layer
        following: dict = {}
        for (q, out), c in layer.items():
            for _ai, a, t, keeps in steps[q]:
                if keeps and len(out) < k:
                    if word is not None and word[len(out)] != a:
                        continue
                    key = (t, out + (a,))
                else:
                    key = (t, out)
                following[key] = following.get(key, 0) + c
        layer = following


def _prefix_counts(layer: dict) -> dict:
    """The table of a :func:`_count_layers` layer: every output prefix w
    (|w| <= k) -> the number of its runs whose output begins with w.
    Prefixes no run outputs are absent."""
    table: dict = {}
    for (_q, out), c in layer.items():
        for i in range(len(out) + 1):
            w = out[:i]
            table[w] = table.get(w, 0) + c
    return table


def _weights(selector: Selector, mu, witness, n: int, cap: int):
    """The step weights of the measure walk to run length n, after checking
    that ``witness`` has last-selected labels and that #A**n is within
    ``cap``; None without a measure (the count DP needs neither).  Row q
    is the lift of the measure out of state index q (see
    :func:`compat._step_weights`), as Python floats."""
    if mu is None:
        return None
    if witness is None or witness.last_selected is None:
        raise NotCompatible(["witness lacks the last-selected labeling"])
    _check_cap(selector, n, cap)
    return _step_weights(selector, mu, witness).tolist()


def _measure_tables(selector: Selector, start, n_max: int, k: int, weight_rows) -> list:
    """For n = 0..n_max, the table mapping every output prefix w with
    |w| <= k to the total weight of the length-n runs from ``start`` whose
    output begins with w (prefixes no run outputs are absent).

    A run weighs the product, in reading order, of
    ``weight_rows[state][symbol]`` over its steps.  One pre-order walk
    visits the run tree with children in alphabet order, so the runs of
    each length reach their sums in lexicographic order, and each sum
    starts from 0.0: the floats are bit for bit those of adding up the
    enumeration.  The value types match it too: 1.0 at n = 0 and
    ``np.float64`` from n = 1 (the weights the enumeration multiplies are
    numpy scalars)."""
    steps = _steps(selector)
    tables: list = [{} for _ in range(n_max + 1)]
    stack = [(selector.state_index(start), 0, 1.0, ((),))] if tables else []
    while stack:
        q, d, acc, prefixes = stack.pop()
        table = tables[d]
        for w in prefixes:
            table[w] = table.get(w, 0.0) + acc
        if d == n_max:
            continue
        row = weight_rows[q]
        out = prefixes[-1]
        for ai, a, t, keeps in reversed(steps[q]):
            child = prefixes
            if keeps and len(out) < k:
                child = prefixes + (out + (a,),)
            stack.append((t, d + 1, acc * row[ai], child))
    for table in tables[1:]:
        for w, value in table.items():
            table[w] = np.float64(value)
    return tables


def _tables(selector: Selector, start, n_max: int, k: int, rows, word: Optional[tuple] = None):
    """The tables of n = 0..n_max from ``start``: output prefix w with
    |w| <= k -> the runs whose output begins with w, counted lazily by the
    DP of :func:`_count_layers` (pruned to ``word``) when ``rows`` is None,
    else weighed by the walk of :func:`_measure_tables` over ``rows``, as a list."""
    if rows is None:
        return map(_prefix_counts, islice(_count_layers(selector, start, k, word), n_max + 1))
    return _measure_tables(selector, start, n_max, k, rows)


def _bound(mu: Optional[MarkovMeasure]):
    """The conditional measure of ``mu``, (label, w) -> float, each pair
    computed once; None in count mode."""
    return None if mu is None else lru_cache(maxsize=None)(partial(conditional_word_measure, mu))


def _check_rows(selector, bound, witness, p, n: int, table: dict, groups, tol, epsilon=None):
    """The checks of the table of (p, n) for the words of ``groups``, pairs
    (length, words), in order, as tuples in :class:`LemmaCheckResult`'s
    field order: the run count (``bound`` None) or measure of w in
    ``table`` (0 if absent) against #A**(n - |w|), once per length, or the
    conditional measure of w after the last-selected label of p, read from
    ``bound`` (see :func:`_bound`).  Counts are exact, so ``tol`` applies to
    measures only.  Given ``epsilon``, the two-sided equirun check with
    lower bound (1 - epsilon) * upper; ``strict`` is then ``value < upper``,
    and ``value < upper - tol`` for the one-sided checks."""
    if bound is None:
        kind, zero, size, tol = "count", 0, len(selector.alphabet), 0
    else:
        kind, zero, label = "measure", 0.0, witness.last_selected[p]
    lemma, get = f"{kind}-upper" if epsilon is None else f"equirun-{kind}", table.get
    for length, words in groups:
        if bound is None:
            upper = size ** (n - length)
        for w in words:
            value = get(w, zero)
            if bound is not None:
                upper = bound(label, w)
            if epsilon is None:
                passed, strict = value <= upper + tol, value < upper - tol
                yield lemma, p, n, w, value, upper, None, None, passed, strict
            else:
                lower = (1.0 - epsilon) * upper
                passed = lower - tol <= value <= upper + tol
                yield lemma, p, n, w, value, upper, lower, epsilon, passed, value < upper


def _result(selector, bound, witness, p, n: int, w: tuple, value, tol, epsilon=None):
    """The check of one count or measure ``value`` of w (see :func:`_check_rows`)."""
    rows = _check_rows(selector, bound, witness, p, n, {w: value}, [(len(w), [w])], tol, epsilon)
    return LemmaCheckResult(*next(rows))


def _prefix_check(selector, mu, witness, start, n, word, require_oblivious, cap, tol):
    """The value and check of one (start, n, word), shared by the two public
    single checks; the count DP is pruned to the prefixes of ``word``, the
    measure walk visits every run to n."""
    w = as_word(word)
    if len(w) > n:
        raise ValidationError(f"|word| = {len(w)} exceeds run length {n}")
    if require_oblivious:
        _require_oblivious(selector)
    rows = _weights(selector, mu, witness, n, cap)
    value = list(_tables(selector, start, n, len(w), rows, w))[n].get(w, 0 if mu is None else 0.0)
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
    nq, m = len(selector.states), min(n_max, w_max)
    top = _words_to(len(selector.alphabet), m)
    _check_size(m, top, nq * top)
    bound, words = _bound(mu), selector.alphabet.words  # made as a table checks them, never held
    return (
        _check_rows(selector, bound, witness, p, n, table, groups, tol)
        for p in selector.states
        for n, table in enumerate(_tables(selector, p, n_max, w_max, weights))
        for groups in [[(length, words(length)) for length in range(min(n, m) + 1)]]
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

    All checks from one state read one table, built once.  Only the
    measure walk is capped at ``cap`` nominal runs (#A**n_max).  The cap
    and the budget of :func:`_check_size` are checked at the call; the
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
    and only it is capped at ``cap`` nominal runs (#A**n).  An ``n_max``
    below k leaves nothing to scan and raises ValidationError, as do k < 1,
    an epsilon that is negative or NaN, and a scan past the budget of
    :func:`_check_size`: each state keeps its count DP, and a check row is
    counted at 640 + n_max bytes, what a result object cost with the
    previous length's and its printed line; a row costs less.
    """
    if k < 1 or not epsilon >= 0:
        raise ValidationError(f"equirun scan needs k >= 1 and epsilon >= 0, got {k} and {epsilon}")
    if n_max < k:
        raise ValidationError(f"n_max {n_max} is below the block length {k}")
    _require_oblivious(selector)
    if not scc_decomposition(selector).strongly_connected:
        raise NotStronglyConnected("equirun scan expects a strongly connected selector")
    size, nq = len(selector.alphabet), len(selector.states)
    blocks = size ** min(k, 64)
    _check_size(k, blocks, nq * nq * _words_to(size, k), nq * blocks, 640 + n_max)
    words = list(selector.alphabet.words(k))
    bound = _bound(mu)
    # the count DP grows one layer per n, so each state keeps its own; the
    # measure walk is redone for each n, after the cap check for that n
    counts = [islice(_tables(selector, p, n_max, k, None), k, None) for p in selector.states]
    for n in range(k, n_max + 1):
        weights, checks = _weights(selector, mu, witness, n, cap), []
        for p, layers in zip(selector.states, counts):
            table = next(layers) if weights is None else _tables(selector, p, n, k, weights)[n]
            rows = _check_rows(selector, bound, witness, p, n, table, [(k, words)], tol, epsilon)
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
    word = as_word(x)
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
