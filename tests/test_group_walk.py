"""Differential tests of the grouped block walk and of the comparison
letters of Markov sampling against their scalar references: a per-letter
loop and ``run_word`` for ``run_states``, ``walk`` and
``SelectionCursor.feed_indices``; ``searchsorted`` and a scalar
``SplitMix64`` inverse CDF for ``generate_chunks``.  Tables are drawn on
both sides of ``_GROUP_STATES`` and walked over lengths around the block,
group and slice lengths.  Also the snake budget against a traced build."""

import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect import machines
from sftselect.machines import run_states, transition_rows
from sftselect.seqgen import _draw_letters, _draw_table

from conftest import random_irreducible_measure, reference_sample
from test_block_kernel import random_table, scalar_states

# table states 1..20 plus the dead one: both sides of _GROUP_STATES = 16
STATES = st.integers(1, 20)
# slice lengths: the default, one of fewer blocks than a group, and one
# that ends inside a group
SPANS = st.sampled_from([None, 100, 1000])


def lengths(k: int):
    kg = k * machines._GROUP
    edges = [0, 1, k - 1, k, kg - 1, kg, kg + 1, 3 * kg + k + 1]
    return st.sampled_from(edges) | st.integers(0, 4 * kg)


def table_selector(nxt: np.ndarray, rng: random.Random) -> ss.Selector:
    """A selector over ``nxt`` (-1 entries left undefined) with random
    actions, symbols "0", "1", ..."""
    states = [f"s{i}" for i in range(len(nxt))]
    symbols = [str(a) for a in range(nxt.shape[1])]
    transitions = [
        (states[i], symbols[a], rng.choice(("keep", "drop")), states[t])
        for i, row in enumerate(nxt.tolist())
        for a, t in enumerate(row)
        if t >= 0
    ]
    return ss.Selector(symbols, states, states[0], transitions)


@pytest.mark.parametrize("nq, na", [(1, 1), (3, 4), (11, 2), (40, 3)])
def test_end_holds_the_block_rows_times_the_block_count(nq, na):
    table = transition_rows(random_table(np.random.default_rng(nq), nq, na, 0.1))
    assert table.end.shape == (nq + 1, na**table.k)
    assert (table.end // na**table.k).tolist() == [list(row) for row in table.rows]
    assert not (table.end % na**table.k).any()


@settings(max_examples=250, deadline=None)
@given(
    data=st.data(),
    nq=STATES,
    na=st.integers(1, 4),
    holes=st.sampled_from([0.0, 0.02, 0.3]),
    span=SPANS,
)
def test_run_states_matches_scalar_loop(data, nq, na, holes, span):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    nxt = random_table(rng, nq, na, holes)
    table = transition_rows(nxt)
    letters = rng.integers(0, na, size=data.draw(lengths(table.k)))
    state = data.draw(st.integers(0, nq))  # the dead state is a valid start
    with pytest.MonkeyPatch.context() as mp:
        if span is not None:
            mp.setattr(machines, "_SLICE", span)
        path = run_states(table, letters, state)
    assert path.tolist() == scalar_states(nxt, letters.tolist(), state)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    nq=STATES,
    holes=st.sampled_from([0.0, 0.01, 0.1]),
    span=SPANS,
)
def test_cursor_and_walk_match_run_word(data, nq, holes, span):
    """``feed_indices`` over pieces, which walks through ``walk``, gives
    ``run_word``'s output and end state, or its error at the same
    position, with the cursor left on the offending symbol."""
    seed = data.draw(st.integers(0, 2**32))
    nxt = random_table(np.random.default_rng(seed), nq, 2, holes)
    selector = table_selector(nxt, random.Random(seed))
    k = transition_rows(selector.tables()[0]).k
    n = data.draw(lengths(k))
    word = selector.alphabet.decode(np.random.default_rng(seed + 1).integers(0, 2, size=n))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
    try:
        expected, expected_err = ss.run_word(selector, selector.initial, word), None
    except ss.UndefinedTransition as err:
        expected, expected_err = None, err
    cursor = ss.SelectionCursor(selector)
    got = []
    with pytest.MonkeyPatch.context() as mp:
        if span is not None:
            mp.setattr(machines, "_SLICE", span)
        try:
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                got += cursor.feed_indices(selector.alphabet.encode(word[lo:hi])).tolist()
        except ss.UndefinedTransition as err:
            assert expected_err is not None
            assert (err.state, err.symbol, err.position) == (
                expected_err.state, expected_err.symbol, expected_err.position,
            )
            assert (cursor.position, cursor.state) == (err.position, err.state)
            return
    assert expected_err is None
    assert selector.alphabet.decode(got) == expected.output
    assert (cursor.position, cursor.state) == (n, expected.end)


def test_small_tables_take_a_python_step_per_group(monkeypatch):
    """The one Python loop runs over whole groups when the table is small
    and over blocks when it is not; both walks match the scalar loop."""
    steps = []
    block_ends = machines._block_ends

    def counted(rows, codes, state):
        steps.append(len(codes))
        return block_ends(rows, codes, state)

    monkeypatch.setattr(machines, "_block_ends", counted)
    rng = np.random.default_rng(3)
    for nq, grouped in ((3, True), (machines._GROUP_STATES, False)):
        nxt = random_table(rng, nq, 2, 0.0)
        table = transition_rows(nxt)
        blocks = machines._SLICE // table.k
        letters = rng.integers(0, 2, size=blocks * table.k)
        steps.clear()
        assert run_states(table, letters, 0).tolist() == scalar_states(nxt, letters.tolist(), 0)
        assert steps == ([-(-blocks // machines._GROUP)] if grouped else [blocks])


def test_walk_across_full_slices_in_groups():
    rng = np.random.default_rng(11)
    nxt = random_table(rng, 5, 3, 0.0)
    table = transition_rows(nxt)
    assert len(table.end) <= machines._GROUP_STATES
    letters = rng.integers(0, 3, size=2 * machines._SLICE + table.k * machines._GROUP + 1)
    assert run_states(table, letters, 2).tolist() == scalar_states(nxt, letters.tolist(), 2)


def _short_last_row():
    # symbol 2 has weight 0 in two rows, and row 1 sums to 1 - 1e-13, so
    # u at or past its total falls back to its last positive weight
    alpha = ss.Alphabet(["0", "1", "2"])
    rows = np.array([[0.5, 0.5, 0.0], [0.3, 0.3, 0.4 - 1e-13], [0.6, 0.4, 0.0]])
    P = ss.StochasticMatrix(alpha, rows)
    return ss.MarkovMeasure(ss.stationary_distribution(P), P)


def _edge_values(breaks: np.ndarray) -> np.ndarray:
    """0, the largest float below 1, and every break with its neighbours."""
    values = [0.0, float(np.nextafter(1.0, 0.0))]
    for b in breaks.tolist():
        values += [b, float(np.nextafter(b, 0.0)), float(np.nextafter(b, 2.0))]
    return np.array([u for u in values if 0.0 <= u < 1.0])


@pytest.mark.parametrize(
    "make",
    [
        fx.golden_parry_measure,
        fx.uniform_binary_measure,
        _short_last_row,
        lambda: random_irreducible_measure(random.Random(5), 4),
        lambda: random_irreducible_measure(random.Random(6), 15),  # up to 240 breaks
        lambda: random_irreducible_measure(random.Random(7), 17),  # over 255 breaks
    ],
)
def test_draw_letters_match_searchsorted(make):
    breaks, _table = _draw_table(make())
    us = np.concatenate([_edge_values(breaks), np.random.default_rng(0).random(5000)])
    letters = _draw_letters(breaks, us)
    assert letters.tolist() == np.searchsorted(breaks, us, side="right").tolist()


@settings(max_examples=200, deadline=None)
@given(
    breaks=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=300, unique=True),
    data=st.data(),
)
def test_draw_letters_match_searchsorted_on_any_breaks(breaks, data):
    breaks = np.array(sorted(breaks))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    us = np.concatenate([_edge_values(breaks), rng.random(200)])
    assert _draw_letters(breaks, us).tolist() == np.searchsorted(breaks, us, "right").tolist()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("make", [fx.golden_parry_measure, _short_last_row])
def test_generate_chunks_matches_scalar_reference(make, seed):
    """Chunks that split blocks (7), end one letter short of and past a
    group of the golden table (k = 5: 79, 81), and span several groups."""
    mu = make()
    spec = ss.GeneratorSpec(
        kind=ss.MARKOV_SAMPLE, alphabet=mu.alphabet, n=3000, measure=mu, seed=seed
    )
    expected = reference_sample(mu, seed, spec.n)
    for chunk in (7, 79, 81, 3 * 80 + 2, 1 << 16):
        pieces = list(ss.generate_chunks(spec, chunk))
        assert np.array_equal(np.concatenate(pieces), expected)


def _full_shift(na: int) -> ss.Automaton:
    symbols = [str(a) for a in range(na)]
    return ss.Automaton(symbols, ["q"], "q", [("q", a, "q") for a in symbols])


@pytest.mark.parametrize(
    "make, n",
    [
        (lambda: fx.after_ones_selector().underlying_automaton(), 10),
        (lambda: fx.even_positions_selector().underlying_automaton(), 10),
        (lambda: _full_shift(2), 10),
        (lambda: _full_shift(4), 5),
    ],
)
def test_snake_peak_within_its_counted_bytes(monkeypatch, make, n):
    """The traced peak of building a snake stays within its states times
    the bytes per run that ``_snake_runs`` counts against the budget."""
    machine = make()
    with monkeypatch.context() as mp:
        mp.setattr(machines, "COUNT_BUDGET_BYTES", 0)
        with pytest.raises(ss.ValidationError) as err:
            machines.snake_automaton(machine, n)
    per_run = int(re.search(r"runs of (\d+) bytes", str(err.value)).group(1))
    tracemalloc.start()
    try:
        snake = machines.snake_automaton(machine, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(snake.states) * per_run


def test_largest_admitted_snake_fits_the_budget():
    """With 24 bytes per next state and label letter plus 256 per run, the
    binary full shift's largest admitted snake is n = 20, whose runs stay
    within the budget, and n = 21 is refused."""
    machine = _full_shift(2)
    assert len(machines._snake_runs(machine, 20)) == 2**20
    with pytest.raises(ss.ValidationError, match="runs of 808 bytes, past the budget"):
        machines.snake_automaton(machine, 21)
