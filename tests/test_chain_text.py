"""State chains are checked on their edges and printed by one writer.

``chain`` and ``snake`` write a chain's measure text from its summed edges;
``chain`` must write the bytes of the old path, rebuilt below: the dense
matrix summed arc by arc, solved on its closed class, validated as a
``MarkovMeasure`` and formatted entry by entry.  Every vector a machine
chain solves is checked by its balance residual, so a solver that returns
a non-stationary vector raises.
"""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import chains, machines
from sftselect import fixtures as fx
from sftselect.cli import main
from sftselect.formats import parse_automaton, parse_measure, parse_selector, serialize_automaton, serialize_measure
from sftselect.measures import _solve_balance

from conftest import random_complete_dfa
from test_snake_edges import random_markov_machine


def old_chain_text(machine, weight) -> str:
    """``chain`` output as the old path wrote it, or None where that path
    found no stationary vector."""
    nq = len(machine.states)
    dense = np.zeros((nq, nq))
    for p, a, q in machine._arcs():
        dense[p, q] += weight(p, a)
    scc = ss.scc_decomposition(machine)
    closed = [c for c, rec in zip(scc.components, scc.recurrent) if rec]
    if len(closed) != 1:
        return None
    idx = [machine.state_index(q) for q in closed[0]]
    pi = np.zeros(nq)
    pi[idx] = _solve_balance(dense[np.ix_(idx, idx)])
    names = [str(q) for q in machine.states]
    measure = ss.MarkovMeasure(ss.Distribution(names, pi), ss.StochasticMatrix(names, dense))
    lines = ["alphabet " + " ".join(names)]
    lines.append("pi " + " ".join(repr(float(x)) for x in measure.pi.weights))
    lines += ["row " + " ".join(repr(float(x)) for x in row) for row in measure.P.entries]
    return "\n".join(lines) + "\n"


def uniform_weight(machine):
    na = len(machine.alphabet)
    return lambda _p, _a: 1.0 / na


def markov_weight(machine, mu, witness):
    states, symbols = machine.states, machine.alphabet.symbols
    return lambda p, a: mu.P[witness.last_read[states[p]], symbols[a]]


def run_chain(argv, out: Path) -> str:
    assert main(["chain", *argv, "--out", str(out)]) == 0
    return out.read_text()


FIXTURE_PAIRS = [
    ("after_ones.sel", None),
    ("even_positions.sel", "golden_parry.msr"),
    ("even_positions_full.sel", None),
    ("even_positions_full.sel", "uniform_binary.msr"),
    ("nonoblivious.sel", None),
]


@pytest.mark.parametrize("selector_name,measure_name", FIXTURE_PAIRS)
def test_chain_cli_bytes_equal_the_dense_path(tmp_path, selector_name, measure_name):
    selector = parse_selector(fx.data_path(selector_name))
    argv = ["--selector", str(fx.data_path(selector_name))]
    if measure_name is None:
        machine = selector.underlying_automaton()
        weight = uniform_weight(machine)
    else:
        mu = parse_measure(fx.data_path(measure_name))
        witness = ss.check_selector_compatibility(selector, mu).witness
        machine = selector
        weight = markov_weight(selector, mu, witness)
        argv += ["--measure", str(fx.data_path(measure_name))]
    expected = old_chain_text(machine, weight)
    assert expected is not None
    assert run_chain(argv, tmp_path / "chain.msr") == expected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_chain_cli_bytes_on_random_dfas(seed):
    dfa, _accepting = random_complete_dfa(random.Random(seed), max_states=8)
    expected = old_chain_text(dfa, uniform_weight(dfa))
    assume(expected is not None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dfa.aut"
        path.write_text(serialize_automaton(dfa))
        assert run_chain(["--automaton", str(path)], Path(tmp) / "chain.msr") == expected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_chain_cli_bytes_on_random_markov_machines(seed):
    try:
        machine, mu = random_markov_machine(random.Random(seed))
    except ss.NotIrreducible:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        aut, msr = Path(tmp) / "m.aut", Path(tmp) / "mu.msr"
        aut.write_text(serialize_automaton(machine))
        msr.write_text(serialize_measure(mu))
        machine, mu = parse_automaton(aut), parse_measure(msr)
        result = ss.check_automaton_compatibility(machine, mu)
        assert result.ok, result.violations
        expected = old_chain_text(machine, markov_weight(machine, mu, result.witness))
        assume(expected is not None)
        argv = ["--automaton", str(aut), "--measure", str(msr)]
        assert run_chain(argv, Path(tmp) / "chain.msr") == expected


class TestEverySolvedVectorIsChecked:
    @pytest.fixture
    def off_balance(self, monkeypatch):
        """Make the solver move a little mass from the first state of the
        closed class to the last."""
        def solve(P):
            x = _solve_balance(P)
            x[0] += 1e-6
            x[-1] -= 1e-6
            return x

        monkeypatch.setattr(chains, "_solve_balance", solve)

    def test_uniform_chain(self, off_balance, nonoblivious):
        with pytest.raises(ss.NotIrreducible, match="balance residual"):
            ss.uniform_chain(nonoblivious.underlying_automaton())

    def test_compatible_chain(self, off_balance, even_positions, golden, golden_witness):
        with pytest.raises(ss.NotIrreducible, match="balance residual"):
            ss.compatible_chain(even_positions, golden, golden_witness)

    def test_chain_cli_exits_two(self, off_balance, capsys):
        assert main(["chain", "--selector", str(fx.data_path("after_ones.sel"))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: vector is not stationary for the chain")

    def test_a_vector_that_is_no_distribution(self, monkeypatch, nonoblivious):
        monkeypatch.setattr(chains, "_solve_balance", lambda P: 2.0 * _solve_balance(P))
        with pytest.raises(ss.ValidationError, match="sum to"):
            ss.uniform_chain(nonoblivious.underlying_automaton())

    def test_the_solve_reads_the_cached_matrix(self, after_ones):
        chain = ss.uniform_chain(after_ones.underlying_automaton())
        assert "matrix" in vars(chain) and "entries" in vars(chain)
        assert chain.stationary is not None and not chain.stationary.flags.writeable


@pytest.mark.parametrize("measure", [False, True])
def test_snake_runs_are_found_once(monkeypatch, measure, even_positions, golden, golden_witness):
    calls = []
    find = machines._snake_runs

    def counted(machine, n):
        calls.append(n)
        return find(machine, n)

    monkeypatch.setattr(machines, "_snake_runs", counted)
    monkeypatch.setattr(chains, "_snake_runs", counted)
    if measure:
        machine = even_positions.underlying_automaton()
        dist = ss.snake_distribution(machine, 3, mu=golden, witness=golden_witness)
    else:
        machine = fx.after_ones_selector().underlying_automaton()
        dist = ss.snake_distribution(machine, 3)
    assert calls == [3]
    assert dist.snake == ss.snake_automaton(machine, 3)
    assert calls == [3, 3]
