"""Run-counting bounds, checked exactly, and the enumeration oracle.

The checks read per-start-state tables that map every output prefix of
length <= K to its count or measure at every run length n <= n_max:

* counts come from a forward dynamic program over (state, output truncated
  to K) with exact integers, so they cost O(n * |Q| * #A**K * #A) and need
  no cap;
* measures come from one pre-order walk of the run tree with children in
  alphabet order, so every sum is taken over the runs in lexicographic
  order, exactly as the enumeration adds them, and its floats are bit for
  bit the enumeration's.  The walk visits #A**n nodes and is capped.

Enumerating runs outright (:func:`enumerate_runs`, ``_walk_runs``) is the
oracle the tables are tested against; it stays capped, and past the cap the
statistical path is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .alphabet import as_word
from .compat import CompatibilityWitness
from .errors import CapExceeded, NotCompatible, NotStronglyConnected, ValidationError
from .machines import KEEP, Automaton, Selector, _require_oblivious, scc_decomposition
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


def _require_last_selected(witness: CompatibilityWitness):
    if witness.last_selected is None:
        raise NotCompatible(["witness lacks the last-selected labeling"])


def _steps(selector: Selector) -> list:
    """Per state index, the defined transitions in alphabet order as
    (symbol index, symbol, target index, keeps)."""
    alpha = selector.alphabet
    index = selector.state_index
    steps = [[] for _ in selector.states]
    for q, a, act, t in selector.transitions():
        steps[index(q)].append((alpha.index(a), a, index(t), act == KEEP))
    return steps


def _count_layers(selector: Selector, start, k: int, word: Optional[tuple] = None) -> Iterator[dict]:
    """Yield, for n = 0, 1, 2, ..., the number of length-n runs from
    ``start`` per (state index, output truncated to k).

    Counts are exact integers and runs with the same key are merged, so
    each step costs O(|Q| * #A**k * #A).  Given ``word`` (with k = |word|),
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


def _step_weight_rows(selector: Selector, mu: MarkovMeasure, witness: CompatibilityWitness) -> dict:
    """State index -> the weight of reading each selector symbol (by index)
    from that state: the transition-matrix entry out of its last-read label."""
    entries = mu.P.entries.tolist()
    alpha = mu.alphabet
    cols = [alpha.index(a) for a in selector.alphabet]
    return {
        selector.state_index(q): [entries[alpha.index(s)][c] for c in cols]
        for q, s in witness.last_read.items()
    }


def _measure_tables(
    selector: Selector, start, n_max: int, k: int, weight_rows, word: Optional[tuple] = None
) -> list:
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
    numpy scalars).  Given ``word`` (with k = |word|), subtrees whose output
    stops being a prefix of it are skipped; the runs that remain are summed
    in the same order."""
    import numpy as np

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
                if word is not None and word[len(out)] != a:
                    continue
                child = prefixes + (out + (a,),)
            stack.append((t, d + 1, acc * row[ai], child))
    for table in tables[1:]:
        for w, value in table.items():
            table[w] = np.float64(value)
    return tables


def _count_result(selector: Selector, start, n: int, w: tuple, count: int) -> LemmaCheckResult:
    bound = len(selector.alphabet) ** (n - len(w))
    return LemmaCheckResult(
        lemma="count-upper",
        state=start,
        n=n,
        word=w,
        value=count,
        upper=bound,
        passed=count <= bound,
        strict=count < bound,
    )


def _measure_result(
    mu: MarkovMeasure, witness: CompatibilityWitness, start, n: int, w: tuple, value, tol: float
) -> LemmaCheckResult:
    bound = conditional_word_measure(mu, witness.last_selected[start], w)
    return LemmaCheckResult(
        lemma="measure-upper",
        state=start,
        n=n,
        word=w,
        value=value,
        upper=bound,
        passed=value <= bound + tol,
        strict=value < bound - tol,
    )


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
    w = as_word(word)
    if len(w) > n:
        raise ValidationError(f"|word| = {len(w)} exceeds run length {n}")
    if require_oblivious:
        _require_oblivious(selector)
    layer = next(islice(_count_layers(selector, start, len(w), w), n, None))
    count = _prefix_counts(layer).get(w, 0)
    return count, _count_result(selector, start, n, w, count)


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
    w = as_word(word)
    if len(w) > n:
        raise ValidationError(f"|word| = {len(w)} exceeds run length {n}")
    _require_oblivious(selector)
    _require_last_selected(witness)
    _check_cap(selector, n, cap)
    rows = _step_weight_rows(selector, mu, witness)
    value = _measure_tables(selector, start, n, len(w), rows, w)[n].get(w, 0.0)
    return value, _measure_result(mu, witness, start, n, w, value, tol)


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
    measure walk is capped at ``cap`` nominal runs (#A**n_max).
    """
    _require_oblivious(selector)
    if mu is not None:
        _require_last_selected(witness)
        _check_cap(selector, n_max, cap)
        rows = _step_weight_rows(selector, mu, witness)
    alpha = selector.alphabet
    words = [tuple(alpha.words(length)) for length in range(min(n_max, w_max) + 1)]
    for p in selector.states:
        if mu is None:
            tables = map(_prefix_counts, islice(_count_layers(selector, p, w_max), n_max + 1))
        else:
            tables = _measure_tables(selector, p, n_max, w_max, rows)
        for n, table in enumerate(tables):
            for length in range(min(n, w_max) + 1):
                for w in words[length]:
                    if mu is None:
                        yield _count_result(selector, p, n, w, table.get(w, 0))
                    else:
                        yield _measure_result(mu, witness, p, n, w, table.get(w, 0.0), tol)


@dataclass(frozen=True)
class EquirunScanResult:
    """Least run length at which every (state, word) count sits inside the
    two-sided band, with the per-pair results at the reported length."""

    k: int
    epsilon: float
    witness_n: Optional[int]
    results: tuple

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
    and only it is capped at ``cap`` nominal runs (#A**n).
    """
    _require_oblivious(selector)
    if not scc_decomposition(selector).strongly_connected:
        raise NotStronglyConnected("equirun scan expects a strongly connected selector")
    markov = mu is not None
    if markov and (witness is None or witness.last_selected is None):
        raise NotCompatible(["equirun scan in Markov mode needs a selector witness"])
    alpha = selector.alphabet
    words = list(alpha.words(k))
    if markov:
        rows = _step_weight_rows(selector, mu, witness)
    else:
        counts = [
            islice(map(_prefix_counts, _count_layers(selector, p, k)), k, None)
            for p in selector.states
        ]

    last_results: tuple = ()
    for n in range(k, n_max + 1):
        if markov:
            _check_cap(selector, n, cap)
        results = []
        all_ok = True
        for i, p in enumerate(selector.states):
            if markov:
                table = _measure_tables(selector, p, n, k, rows)[n]
            else:
                table = next(counts[i])
            for w in words:
                value = table.get(w, 0.0 if markov else 0)
                if markov:
                    upper = conditional_word_measure(mu, witness.last_selected[p], w)
                    lower = (1.0 - epsilon) * upper
                    ok = (lower - tol) <= value <= (upper + tol)
                else:
                    upper = len(alpha) ** (n - k)
                    lower = (1.0 - epsilon) * upper
                    ok = lower <= value <= upper
                all_ok = all_ok and ok
                results.append(
                    LemmaCheckResult(
                        lemma="equirun-measure" if markov else "equirun-count",
                        state=p,
                        n=n,
                        word=w,
                        value=value,
                        upper=upper,
                        lower=lower,
                        epsilon=epsilon,
                        passed=ok,
                        strict=value < upper,
                    )
                )
        last_results = tuple(results)
        if all_ok:
            return EquirunScanResult(
                k=k, epsilon=epsilon, witness_n=n, results=last_results
            )
    return EquirunScanResult(k=k, epsilon=epsilon, witness_n=None, results=last_results)


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
