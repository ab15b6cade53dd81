"""Differential tests of the output-prefix tables behind the run-counting
checks against the run enumeration ``_walk_runs``: counts must be equal,
measures ``repr``-identical (type included), and the equirun scan must give
the lines an enumeration-based scan gives.  The count tables are also
checked against the forward (state, output) dynamic program they replaced,
kept here as ``reference_count_layers`` and ``reference_prefix_counts``.
Tables are read through ``row_table``, which turns a row of a table's
word-code columns back into a dict of its present cells."""

import random
from itertools import chain, count, islice
from typing import Iterator, Optional

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import oracles
from sftselect.cli import _format_lemma_line
from sftselect.oracles import _count_tables, _measure_tables, _walk_runs

from conftest import random_complete_dfa, random_irreducible_measure, random_selector


def _steps(selector) -> list:
    """Per state index, the defined transitions in alphabet order as
    (symbol index, symbol, target index, keeps)."""
    symbols, keep = selector.alphabet.symbols, selector.tables()[1]
    steps = [[] for _ in selector.states]
    for q, a, t in selector._arcs():
        steps[q].append((a, symbols[a], t, keep.item(q, a)))
    return steps


def row_table(row, alphabet, word=None) -> dict:
    """A table row as {word: value} over its present cells: a count that is
    not 0, a measure that is a np.float64 sum (absent prefixes read the
    Python float 0.0), and 1.0 at n = 0.  The columns are the words by
    length and then lexicographically, or given ``word``, its suffixes by
    length."""
    if word is None:
        words = chain.from_iterable(map(alphabet.words, count()))
    else:
        words = (word[len(word) - j :] for j in count())
    return {w: v for v, w in zip(row, words) if v != 0 or type(v) is np.float64}


def reference_count_layers(selector, start, k: int, word: Optional[tuple] = None) -> Iterator[dict]:
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


def reference_prefix_counts(layer: dict) -> dict:
    """The table of a :func:`reference_count_layers` layer: every output prefix w
    (|w| <= k) -> the number of its runs whose output begins with w.
    Prefixes no run outputs are absent."""
    table: dict = {}
    for (_q, out), c in layer.items():
        for i in range(len(out) + 1):
            w = out[:i]
            table[w] = table.get(w, 0) + c
    return table


def enumerated_counts(selector, start, n, k) -> dict:
    """Every output prefix w with |w| <= k -> the number of length-n runs
    whose output begins with w, counted off the enumeration."""
    table = {}
    for _u, v, _end, _wt in _walk_runs(selector, start, n):
        for i in range(min(len(v), k) + 1):
            table[v[:i]] = table.get(v[:i], 0) + 1
    return table


def enumerated_measure(selector, start, n, w, weights):
    """The measure of the length-n runs whose output begins with ``w``,
    added up in enumeration order from 0.0."""
    value = 0.0
    for _u, v, _end, wt in _walk_runs(selector, start, n, weights):
        if v[: len(w)] == w:
            value += wt
    return value


def all_words(alphabet, k):
    return [w for length in range(k + 1) for w in alphabet.words(length)]


def random_weights(rng, selector):
    """Random step weights, some zero, as the tables take them (rows of
    Python floats) and as the enumeration takes them (numpy scalars)."""
    rows = [
        [rng.choice((0.0, rng.random(), rng.random())) for _ in selector.alphabet]
        for _ in selector.states
    ]
    array = np.array(rows)

    def weights(state, a):
        return array[selector.state_index(state), selector.alphabet.index(a)]

    return rows, weights


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    partial=st.booleans(),
    n_max=st.integers(0, 8),
    k=st.integers(0, 4),
)
def test_count_tables_equal_enumeration(seed, partial, n_max, k):
    rng = random.Random(seed)
    selector = random_selector(rng, partial=partial)
    start = rng.choice(selector.states)
    key_limit = len(selector.states) * len(all_words(selector.alphabet, k))
    q = selector.state_index(start)
    for n, layer in enumerate(_count_tables(selector, k)):
        if n > n_max:
            break
        # one row of words of length <= k per state: polynomially many cells
        assert layer.size <= key_limit
        table = row_table(layer[q], selector.alphabet)
        assert table == enumerated_counts(selector, start, n, k)
        for w in all_words(selector.alphabet, min(n, k)):
            count, result = ss.count_output_prefix_runs(
                selector, start, n, w, require_oblivious=False
            )
            assert count == table.get(w, 0)
            assert type(count) is int
            assert result.value == count


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    partial=st.booleans(),
    n_max=st.integers(0, 8),
    k=st.integers(0, 4),
)
def test_measure_tables_equal_enumeration_bit_for_bit(seed, partial, n_max, k):
    rng = random.Random(seed)
    selector = random_selector(rng, partial=partial)
    start = rng.choice(selector.states)
    rows, weights = random_weights(rng, selector)
    (tables,) = _measure_tables(selector, [start], n_max, k, rows)
    assert len(tables) == n_max + 1
    for n, row in enumerate(tables):
        table = row_table(row, selector.alphabet)
        assert set(table) == set(enumerated_counts(selector, start, n, k))
        for w in all_words(selector.alphabet, k):
            expected = enumerated_measure(selector, start, n, w, weights)
            got = table.get(w, 0.0)
            assert repr(got) == repr(expected)
            assert type(got) is type(expected)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    size=st.integers(1, 3),
    partial=st.booleans(),
    oblivious=st.booleans(),
    n_max=st.integers(0, 40),
    k=st.integers(0, 6),
)
def test_count_tables_equal_forward_dp(seed, size, partial, oblivious, n_max, k):
    rng = random.Random(seed)
    selector = random_selector(rng, partial=partial, symbols=tuple("012"[:size]))
    if oblivious:  # one action per state, drawn afresh
        action = {q: rng.choice(("keep", "drop")) for q in selector.states}
        arcs = [(q, a, action[q], t) for q, a, _action, t in selector.transitions()]
        selector = ss.Selector(selector.alphabet, selector.states, selector.initial, arcs)
        assert ss.is_oblivious(selector)[0]
    layers = list(islice(_count_tables(selector, k), n_max + 1))
    for q, start in enumerate(selector.states):
        reference = islice(reference_count_layers(selector, start, k), n_max + 1)
        got = [row_table(layer[q], selector.alphabet) for layer in layers]
        assert got == list(map(reference_prefix_counts, reference))
    # one word per length, each letter drawn at random: its suffixes only
    for length in range(min(k, n_max) + 1):
        word = tuple(rng.choice(selector.alphabet.symbols) for _ in range(length))
        tables = list(islice(_count_tables(selector, length, word), n_max + 1))
        for start in selector.states:
            reference = islice(reference_count_layers(selector, start, length, word), n_max + 1)
            expected = [reference_prefix_counts(layer).get(word, 0) for layer in reference]
            q = selector.state_index(start)
            got = [row_table(layer[q], selector.alphabet, word).get(word, 0) for layer in tables]
            assert got == expected


def test_measure_value_types(after_ones):
    rows = [[0.25, 0.75], [0.5, 0.5]]
    (cells,) = _measure_tables(after_ones, ["q0"], 2, 1, rows)
    tables = [row_table(row, after_ones.alphabet) for row in cells]
    assert repr(tables[0][()]) == "1.0"
    assert type(tables[1][()]) is np.float64
    # from q0 no run of length 1 keeps a symbol: its cell holds the Python 0.0
    assert ("0",) not in tables[1]
    assert cells[1][1] == 0.0 and type(cells[1][1]) is float


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    size=st.integers(1, 3),
    max_states=st.integers(1, 12),
    partial=st.booleans(),
    n_max=st.integers(0, 70),
    k=st.integers(0, 3),
)
@example(seed=0, size=2, max_states=12, partial=False, n_max=70, k=3)
@example(seed=1, size=3, max_states=5, partial=True, n_max=70, k=2)
def test_held_count_rows_past_int64_equal_forward_dp(seed, size, max_states, partial, n_max, k):
    """Every row of the layers a count pass holds equals the forward DP,
    past 2**63 too, with Python ints in every cell, absent prefixes' 0
    included."""
    rng = random.Random(seed)
    selector = random_selector(rng, max_states, partial=partial, symbols=tuple("012"[:size]))
    layers = list(islice(_count_tables(selector, k), n_max + 1))
    for q, start in enumerate(selector.states):
        reference = islice(reference_count_layers(selector, start, k), n_max + 1)
        for n, (layer, expected) in enumerate(zip(layers, reference)):
            assert all(type(value) is int for value in layer[q])
            assert row_table(layer[q], selector.alphabet) == reference_prefix_counts(expected)
            if not partial:  # every input is a run
                assert layer[q, 0] == size**n


def test_lemma_check_makes_one_count_pass(monkeypatch, even_positions):
    """Count mode makes one pass for all start states, at the first read,
    and reads every state's rows off its held layers."""
    expected = [_format_lemma_line(r) for r in ss.lemma_check(even_positions, 9, 3)]
    calls, count_tables = [], oracles._count_tables

    def spy(selector, *args):
        calls.append(args)
        return count_tables(selector, *args)

    monkeypatch.setattr(oracles, "_count_tables", spy)
    results = ss.lemma_check(even_positions, 9, 3)
    assert calls == []
    assert [_format_lemma_line(r) for r in results] == expected
    assert calls == [(3,)]


@pytest.mark.parametrize("n", range(0, 9))
def test_nonoblivious_counts_equal_enumeration(nonoblivious, n):
    for p in nonoblivious.states:
        table = enumerated_counts(nonoblivious, p, n, n)
        for w in all_words(nonoblivious.alphabet, n):
            count, _result = ss.count_output_prefix_runs(
                nonoblivious, p, n, w, require_oblivious=False
            )
            assert count == table.get(w, 0)
        # n + 1 symbols is longer than any output of a length-n run
        layer = next(islice(_count_tables(nonoblivious, n + 1), n, None))
        assert row_table(layer[nonoblivious.state_index(p)], nonoblivious.alphabet) == table


def test_lemma_check_equals_per_word_calls(after_ones, even_positions, golden, golden_witness):
    counted = list(ss.lemma_check(after_ones, 8, 3))
    measured = list(ss.lemma_check(even_positions, 8, 3, mu=golden, witness=golden_witness))
    assert len(counted) == 2 * sum(2 ** (min(n, 3) + 1) - 1 for n in range(9))
    for r in counted:
        _count, single = ss.count_output_prefix_runs(after_ones, r.state, r.n, r.word)
        assert _format_lemma_line(r) == _format_lemma_line(single)
        assert r.value == enumerated_counts(after_ones, r.state, r.n, len(r.word)).get(r.word, 0)
    entries = golden.P.entries

    def weights(state, a):
        return entries[golden.alphabet.index(golden_witness.last_read[state]), golden.alphabet.index(a)]

    for r in measured:
        _value, single = ss.measure_output_prefix_runs(
            even_positions, golden, golden_witness, r.state, r.n, r.word
        )
        assert _format_lemma_line(r) == _format_lemma_line(single)
        expected = enumerated_measure(even_positions, r.state, r.n, r.word, weights)
        assert repr(r.value) == repr(expected)


def test_lemma_check_caps_only_measures(even_positions, golden, golden_witness, after_ones):
    with pytest.raises(ss.CapExceeded):
        list(ss.lemma_check(even_positions, 6, 1, mu=golden, witness=golden_witness, cap=32))
    list(ss.lemma_check(even_positions, 5, 1, mu=golden, witness=golden_witness, cap=32))
    assert all(r.passed for r in ss.lemma_check(after_ones, 40, 2, cap=32))
    with pytest.raises(ss.NotOblivious):
        list(ss.lemma_check(ss.fixtures.nonoblivious_selector(), 2, 1))


def reference_equirun(selector, k, epsilon, n_max, mu=None, witness=None, tol=1e-12):
    """The equirun scan done by enumerating every run of every length:
    (witness n or None, result lines at the last length scanned)."""
    markov = mu is not None
    alpha = selector.alphabet
    weights = None
    if markov:
        entries = mu.P.entries

        def weights(state, a):
            return entries[mu.alphabet.index(witness.last_read[state]), mu.alphabet.index(a)]

    lines = []
    for n in range(k, n_max + 1):
        lines = []
        all_ok = True
        for p in selector.states:
            buckets = {}
            for _u, v, _end, wt in _walk_runs(selector, p, n, weights):
                if len(v) >= k:
                    zero = 0.0 if markov else 0
                    buckets[v[:k]] = buckets.get(v[:k], zero) + (wt if markov else 1)
            for w in alpha.words(k):
                value = buckets.get(w, 0.0 if markov else 0)
                if markov:
                    upper = ss.conditional_word_measure(mu, witness.last_selected[p], w)
                    lower = (1.0 - epsilon) * upper
                    ok = (lower - tol) <= value <= (upper + tol)
                else:
                    upper = len(alpha) ** (n - k)
                    lower = (1.0 - epsilon) * upper
                    ok = lower <= value <= upper
                all_ok = all_ok and ok
                result = ss.LemmaCheckResult(
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
                lines.append(_format_lemma_line(result))
        if all_ok:
            return n, lines
    return None, lines


def assert_same_scan(scan, reference):
    witness_n, lines = reference
    assert scan.witness_n == witness_n
    assert [_format_lemma_line(r) for r in scan.results] == lines


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    k=st.integers(1, 3),
    epsilon=st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.6]),
    n_max=st.integers(0, 9),
)
def test_equirun_uniform_equals_enumeration(seed, k, epsilon, n_max):
    rng = random.Random(seed)
    dfa, accepting = random_complete_dfa(rng)
    selector = ss.dfa_to_selector(dfa, accepting)
    assume(ss.scc_decomposition(selector).strongly_connected)
    if n_max < k:
        with pytest.raises(ss.ValidationError, match="below the block length"):
            ss.equirun_scan(selector, k, epsilon, n_max)
        return
    scan = ss.equirun_scan(selector, k, epsilon, n_max)
    assert_same_scan(scan, reference_equirun(selector, k, epsilon, n_max))


def last_symbol_selector():
    """Keeps every symbol; its state is the last symbol read."""
    return ss.Selector(
        ["0", "1"],
        ["s0", "s1"],
        "s0",
        [(f"s{a}", b, "keep", f"s{b}") for a in "01" for b in "01"],
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    k=st.integers(1, 3),
    epsilon=st.sampled_from([0.0, 0.01, 0.1, 0.5]),
    n_max=st.integers(0, 8),
)
def test_equirun_markov_equals_enumeration(seed, k, epsilon, n_max):
    selector = last_symbol_selector()
    mu = random_irreducible_measure(random.Random(seed), 2)
    witness = ss.check_selector_compatibility(selector, mu).witness
    if n_max < k:
        with pytest.raises(ss.ValidationError, match="below the block length"):
            ss.equirun_scan(selector, k, epsilon, n_max, mu=mu, witness=witness)
        return
    scan = ss.equirun_scan(selector, k, epsilon, n_max, mu=mu, witness=witness)
    assert_same_scan(scan, reference_equirun(selector, k, epsilon, n_max, mu, witness))


@pytest.mark.parametrize("k,epsilon", [(1, 0.5), (2, 0.2), (2, 0.001)])
def test_equirun_markov_on_golden_fixture_equals_enumeration(even_positions_sc, golden, k, epsilon):
    trimmed = even_positions_sc
    witness = ss.check_selector_compatibility(trimmed, golden).witness
    scan = ss.equirun_scan(trimmed, k, epsilon, 10, mu=golden, witness=witness)
    assert_same_scan(scan, reference_equirun(trimmed, k, epsilon, 10, golden, witness))


def test_equirun_caps_only_markov_mode():
    selector = last_symbol_selector()
    assert ss.equirun_scan(selector, 2, 0.0, 12, cap=16).witness_n == 2
    witness = ss.check_selector_compatibility(selector, ss.fixtures.uniform_binary_measure()).witness
    with pytest.raises(ss.CapExceeded):
        ss.equirun_scan(
            selector, 2, 0.0, 12, mu=ss.fixtures.uniform_binary_measure(), witness=witness, cap=2
        )
