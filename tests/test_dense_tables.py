"""Machines stored as dense next-state/keep tables: the snake construction
against a definition-level reference on partial machines, construction
order, read-only tables, size refusals and repeated block lengths."""

import io
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect.cli import main
from sftselect.experiment import write_experiment_csv
from sftselect.formats import machine_digest, serialize_automaton, serialize_selector


@st.composite
def partial_machines(draw):
    """(symbols, states, initial, transition dict) of a random partial
    deterministic machine."""
    n = draw(st.integers(1, 5))
    symbols = ["a", "b", "c"][: draw(st.integers(1, 3))]
    states = [f"s{i}" for i in draw(st.permutations(range(n)))]
    delta = {
        (q, a): states[draw(st.integers(0, n - 1))]
        for q in states
        for a in symbols
        if draw(st.integers(0, 3))
    }
    return symbols, states, states[draw(st.integers(0, n - 1))], delta


def reference_snake(symbols, states, initial, delta, n):
    """The length-n runs (p, w) by start state, then lexicographic word, read
    off the transition dict; the next-state index table (-1 where the slid
    run does not exist); and the initial run."""

    def end(p, w):
        for a in w:
            p = delta.get((p, a))
            if p is None:
                break
        return p

    runs = [(p, w) for p in states for w in itertools.product(symbols, repeat=n) if end(p, w)]
    index = {run: i for i, run in enumerate(runs)}
    table = [[index.get((delta[p, w[0]], w[1:] + (a,)), -1) for a in symbols] for p, w in runs]
    first = next((run for run in runs if run[0] == initial), runs[0] if runs else None)
    return runs, table, first


@settings(max_examples=200, deadline=None)
@given(machine=partial_machines(), n=st.integers(1, 4))
def test_snake_matches_reference_on_partial_machines(machine, n):
    symbols, states, initial, delta = machine
    automaton = ss.Automaton(symbols, states, initial, [(q, a, t) for (q, a), t in delta.items()])
    runs, table, first = reference_snake(symbols, states, initial, delta, n)
    if not runs:
        with pytest.raises(ss.ValidationError, match="no run of length"):
            ss.snake_automaton(automaton, n)
        return
    snake = ss.snake_automaton(automaton, n)
    assert snake.states == tuple(runs)
    assert snake.tables()[0].tolist() == table
    assert snake.initial == first
    assert snake.alphabet == automaton.alphabet


@settings(max_examples=100, deadline=None)
@given(machine=partial_machines(), seed=st.integers(0, 2**32 - 1))
def test_transition_order_does_not_matter(machine, seed):
    symbols, states, initial, delta = machine
    rng = random.Random(seed)
    moves = [(q, a, rng.choice((ss.KEEP, ss.DROP)), t) for (q, a), t in delta.items()]
    shuffled = rng.sample(moves, len(moves))
    one, two = (ss.Selector(symbols, states, initial, m) for m in (moves, shuffled))
    assert one == two
    assert serialize_selector(one) == serialize_selector(two)
    assert machine_digest(one) == machine_digest(two)
    autos = [ss.Automaton(symbols, states, initial, [(q, a, t) for q, a, _k, t in m]) for m in (moves, shuffled)]
    assert autos[0] == autos[1] == one.underlying_automaton()
    assert serialize_automaton(autos[0]) == serialize_automaton(autos[1])


def test_tables_are_read_only(after_ones, even_positions):
    dfa, accepting = ss.selector_to_dfa(after_ones)
    machines = [
        after_ones,
        even_positions,
        dfa,
        ss.dfa_to_selector(dfa, accepting),
        even_positions.underlying_automaton(),
        ss.snake_automaton(dfa, 3),
    ]
    for machine in machines:
        for table in machine.tables():
            with pytest.raises(ValueError):
                table[0, 0] = table[0, 0]
    assert [len(m.tables()) for m in machines] == [2, 2, 1, 2, 1, 1]


def test_tables_hold_undefined_markers(even_positions):
    nxt, keep = even_positions.tables()
    missing = {(even_positions.state_index(q), even_positions.alphabet.index(a))
               for q, a in even_positions.missing_pairs()}
    assert missing == {tuple(ij) for ij in np.argwhere(nxt < 0).tolist()}
    assert not keep[nxt < 0].any()


class TestSizeRefusals:
    def test_api_snake_past_budget(self, after_ones):
        dfa = ss.selector_to_dfa(after_ones)[0]
        for n in (40, 64, 10**6):
            with pytest.raises(ss.ValidationError, match="budget"):
                ss.snake_automaton(dfa, n)

    def test_api_chain_past_budget(self, after_ones):
        snake = ss.snake_automaton(ss.selector_to_dfa(after_ones)[0], 13)
        with pytest.raises(ss.ValidationError, match="dense chain over 16384 states"):
            ss.uniform_chain(snake)

    @pytest.mark.parametrize("n", [13, 40])
    def test_snake_cli_exits_one(self, capsys, n):
        args = ["snake", "--selector", str(fx.data_path("after_ones.sel")), "-n", str(n)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "budget" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_repeated_block_lengths_write_once(after_ones, uniform2):
    def csv(ks):
        spec = ss.GeneratorSpec(
            kind=ss.MARKOV_SAMPLE, alphabet=after_ones.alphabet, n=5000, measure=uniform2, seed=1
        )
        config = ss.ExperimentConfig(selector=after_ones, generator=spec, ks=ks)
        out = io.StringIO()
        write_experiment_csv(ss.run_experiment(config), out)
        return config.ks, out.getvalue()

    ks, text = csv((2, 1, 1))
    assert (ks, text) == csv((1, 2))
    assert text.count("# input_D_1=") == 1
