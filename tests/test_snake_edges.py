"""The snake chain checked and printed from its edge arrays.

``snake_distribution`` checks the closed-form vector x by its balance
residual over the edges; the dense eigensolve it used to run stays here as
the test oracle.  ``snake`` writes its matrix text from the summed edges,
and must write the bytes of the old dense path, rebuilt below.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import chains, machines
from sftselect import fixtures as fx
from sftselect.chains import _chain, _check_stationary
from sftselect.cli import main
from sftselect.formats import parse_measure, parse_selector, serialize_measure
from sftselect.measures import STATIONARITY_TOL, _solve_balance

from conftest import random_complete_dfa


def _data(name) -> str:
    return str(fx.data_path(name))


def reference_snake(machine, n, mu=None, witness=None):
    """The old path, state by state: the snake, its closed form and its
    dense chain summed arc by arc in state then alphabet order."""
    snake = ss.snake_automaton(machine, n)
    na = len(machine.alphabet)
    symbols = machine.alphabet.symbols
    if mu is None:
        base = ss.uniform_chain(machine).stationary
        values = [base[machine.state_index(p)] / float(na) ** n for p, _w in snake.states]

        def weight(_s, _a):
            return 1.0 / na
    else:
        base = ss.compatible_chain(machine, mu, witness).stationary
        values = [
            base[machine.state_index(p)]
            * ss.conditional_word_measure(mu, witness.last_read[p], w)
            for p, w in snake.states
        ]

        def weight(s, a):
            return mu.P[snake.states[s][1][-1], symbols[a]]

    dense = np.zeros((len(snake.states),) * 2)
    for s, a, t in snake._arcs():
        dense[s, t] += weight(s, a)
    return snake, np.array(values), dense


def closed_class_eigensolve(snake, dense):
    """The stationary vector the old gate compared with: ``_solve_balance``
    on the unique closed class, zero elsewhere."""
    scc = ss.scc_decomposition(snake)
    closed = [c for c, rec in zip(scc.components, scc.recurrent) if rec]
    assert len(closed) == 1
    idx = [snake.state_index(q) for q in closed[0]]
    pi = np.zeros(len(snake.states))
    pi[idx] = _solve_balance(dense[np.ix_(idx, idx)])
    return pi


def assert_matches_oracle(dist, reference):
    snake, values, dense = reference
    assert dist.snake == snake
    assert dist.values.tobytes() == values.tobytes()
    assert dist.chain.stationary is dist.values
    assert 0.0 <= dist.check_residual <= STATIONARITY_TOL
    assert np.max(np.abs(dist.values - closed_class_eigensolve(snake, dense))) <= 1e-9
    assert dist.chain.matrix.tobytes() == dense.tobytes()


FIXTURE_CASES = [
    ("after_ones", None, range(1, 9)),
    ("nonoblivious", None, range(1, 6)),
    ("even_positions_full", None, range(1, 6)),
    ("even_positions", "golden", range(1, 6)),
]


@pytest.mark.parametrize("name,measure,ns", FIXTURE_CASES)
def test_closed_form_matches_eigensolve_on_fixtures(name, measure, ns):
    if name == "even_positions_full":
        selector = fx.even_positions_selector(include_forbidden_reads=True)
    else:
        selector = getattr(fx, f"{name}_selector")()
    machine = selector.underlying_automaton()
    mu = witness = None
    if measure:
        mu = fx.golden_parry_measure()
        witness = ss.check_selector_compatibility(selector, mu).witness
    for n in ns:
        dist = ss.snake_distribution(machine, n, mu=mu, witness=witness)
        assert_matches_oracle(dist, reference_snake(machine, n, mu, witness))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 11))
def test_closed_form_matches_eigensolve_on_random_dfas(seed, n):
    dfa, _accepting = random_complete_dfa(random.Random(seed), max_states=8)
    assume(len(dfa.states) * 2**n <= 2048)
    scc = ss.scc_decomposition(dfa)
    assume(sum(scc.recurrent) == 1)
    dist = ss.snake_distribution(dfa, n)
    assert_matches_oracle(dist, reference_snake(dfa, n))


def random_markov_machine(rng):
    """A measure with some zero steps and a machine compatible with it:
    states (last symbol, i), reading b leads to (b, random j), defined for
    every positive step, so the machine is shift-complete."""
    size = rng.randint(2, 3)
    symbols = [str(i) for i in range(size)]
    rows = np.array([[rng.random() + 0.05 for _ in symbols] for _ in symbols])
    for i in range(size):
        rows[i, rng.randrange(size)] *= rng.random() < 0.5
    rows /= rows.sum(axis=1, keepdims=True)
    P = ss.StochasticMatrix(symbols, rows)
    mu = ss.MarkovMeasure(ss.stationary_distribution(P), P)
    m = rng.randint(1, 3)
    states = [f"{a}.{i}" for a in symbols for i in range(m)]
    transitions = [
        (q, b, f"{b}.{rng.randrange(m)}")
        for q in states
        for b in symbols
        if mu.P[q.split(".")[0], b] > 0.0
    ]
    machine = ss.Automaton(symbols, states, states[0], transitions)
    machine.declare_labels(last_read={q: q.split(".")[0] for q in states})
    return machine, mu


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 6))
def test_closed_form_matches_eigensolve_on_random_markov_machines(seed, n):
    rng = random.Random(seed)
    try:
        machine, mu = random_markov_machine(rng)
    except ss.NotIrreducible:
        assume(False)
    assume(len(machine.states) * len(mu.alphabet) ** n <= 2048)
    result = ss.check_automaton_compatibility(machine, mu)
    assert result.ok, result.violations
    assume(sum(ss.scc_decomposition(machine).recurrent) == 1)
    dist = ss.snake_distribution(machine, n, mu=mu, witness=result.witness)
    assert_matches_oracle(dist, reference_snake(machine, n, mu, result.witness))


def old_snake_text(selector_name, n, measure_name=None):
    """``snake`` output as the old path wrote it: the dense matrix through
    ``MarkovMeasure`` validation, every entry formatted."""
    selector = parse_selector(_data(selector_name))
    machine = selector.underlying_automaton()
    mu = witness = None
    if measure_name:
        mu = parse_measure(_data(measure_name))
        witness = ss.check_selector_compatibility(selector, mu).witness
    snake, values, dense = reference_snake(machine, n, mu, witness)
    named = [ss.snake_state_label(q, machine.alphabet) for q in snake.states]
    measure = ss.MarkovMeasure(
        ss.Distribution(named, values), ss.StochasticMatrix(named, dense)
    )
    lines = ["alphabet " + " ".join(named)]
    lines.append("pi " + " ".join(repr(float(x)) for x in measure.pi.weights))
    lines += ["row " + " ".join(repr(float(x)) for x in row) for row in measure.P.entries]
    text = "\n".join(lines) + "\n"
    assert serialize_measure(measure) == text
    return text


@pytest.mark.parametrize(
    "selector,measure,n",
    [("after_ones.sel", None, n) for n in range(1, 9)]
    + [("even_positions.sel", "golden_parry.msr", n) for n in range(1, 4)],
)
def test_snake_cli_bytes_equal_the_dense_path(capsys, selector, measure, n):
    argv = ["snake", "--selector", _data(selector), "-n", str(n)]
    if measure:
        argv += ["--measure", _data(measure)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == old_snake_text(selector, n, measure)


def test_snake_cli_solves_no_snake_sized_matrix(monkeypatch, tmp_path):
    """The only dense solve left on the snake path is the base machine's own
    chain (its bytes fix the printed masses); none is snake-sized."""
    solve, solved = np.linalg.solve, []

    def guarded_solve(a, b):
        if len(a) > 2:  # after_ones has two states
            raise AssertionError(f"dense solve of a {a.shape} matrix on the snake path")
        solved.append(len(a))
        return solve(a, b)

    def no_lstsq(*_args, **_kwargs):
        raise AssertionError("least-squares solve on the snake path")

    monkeypatch.setattr(np.linalg, "solve", guarded_solve)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    out = tmp_path / "snake.msr"
    argv = ["snake", "--selector", _data("after_ones.sel"), "-n", "8", "--out", str(out)]
    assert main(argv) == 0
    assert solved == [2]
    assert out.read_text().count("\nrow ") == 512


class TestRefusalBeforeLabels:
    @pytest.fixture(autouse=True)
    def no_labels(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("snake labels were built")

        monkeypatch.setattr(machines, "block_letters", boom)
        monkeypatch.setattr(chains, "block_letters", boom)

    @pytest.mark.parametrize("n", [14, 18])
    def test_uniform_cli(self, capsys, n):
        assert main(["snake", "--selector", _data("after_ones.sel"), "-n", str(n)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: a dense chain over {2 * 2**n} states needs {2 * 2**n}**2 float64 "
            "entries, past the budget of 1073741824 bytes\n"
        )

    def test_markov_api(self, even_positions, golden, golden_witness):
        auto = even_positions.underlying_automaton()
        with pytest.raises(ss.ValidationError, match="dense chain over 16724 states"):
            ss.snake_distribution(auto, 16, mu=golden, witness=golden_witness)

    def test_labels_are_what_the_patch_stops(self, after_ones):
        with pytest.raises(AssertionError, match="labels were built"):
            ss.snake_distribution(after_ones.underlying_automaton(), 2)


class TestEdgeGate:
    def test_matrix_is_built_on_first_read(self, after_ones):
        dist = ss.snake_distribution(after_ones.underlying_automaton(), 6)
        chain = dist.chain
        assert "matrix" not in vars(chain)
        matrix = chain.matrix
        assert chain.matrix is matrix and not matrix.flags.writeable
        assert not any(a.flags.writeable for a in chain.edges + chain.entries)
        assert not dist.values.flags.writeable

    def test_a_moved_mass_is_not_stationary(self, after_ones):
        dist = ss.snake_distribution(after_ones.underlying_automaton(), 3)
        x = dist.values.copy()
        x[0] += 1e-6
        x[1] -= 1e-6
        with pytest.raises(ss.NotIrreducible, match="balance residual"):
            _check_stationary(dist.chain, x)

    def test_masses_must_form_a_probability_vector(self, after_ones):
        dist = ss.snake_distribution(after_ones.underlying_automaton(), 2)
        with pytest.raises(ss.ValidationError, match="sum to"):
            _check_stationary(dist.chain, dist.values * 2.0)
        x = dist.values.copy()
        x[0] = np.nan
        with pytest.raises(ss.ValidationError):
            _check_stationary(dist.chain, x)

    def test_rows_must_be_stochastic(self):
        one = ss.Automaton(["0", "1"], ["s", "t"], "s", [("s", "0", "t"), ("t", "0", "s"), ("t", "1", "t")])
        chain = _chain(one, np.full((2, 2), 0.5), solve=False)
        with pytest.raises(ss.ValidationError, match="row 's' sums to 0.5"):
            _check_stationary(chain, np.array([0.5, 0.5]))

    def test_several_closed_classes_are_refused(self):
        two = ss.Automaton(
            ["0", "1"], ["a", "b", "c"], "a",
            [("a", "0", "b"), ("a", "1", "c"), ("b", "0", "b"), ("b", "1", "b"),
             ("c", "0", "c"), ("c", "1", "c")],
        )
        chain = _chain(two, np.full((3, 2), 0.5), solve=False)
        with pytest.raises(ss.NotIrreducible, match="several closed classes"):
            _check_stationary(chain, np.array([0.0, 0.5, 0.5]))


def test_multichar_labels_are_dotted(tmp_path, capsys):
    """Words over multi-character symbols are spelled with ``.`` between
    symbols, so a snake state name is one token and not ``s*ab ab``."""
    path = tmp_path / "multi.aut"
    path.write_text("alphabet ab cd\nstates s\ninitial s\ntrans s ab s\ntrans s cd s\n")
    assert main(["snake", "--automaton", str(path), "-n", "2"]) == 0
    assert capsys.readouterr().out.startswith("alphabet s*ab.ab s*ab.cd s*cd.ab s*cd.cd\n")
    assert main(["snake", "--automaton", str(path), "-n", "1"]) == 0
    assert capsys.readouterr().out.startswith("alphabet s*ab s*cd\npi 0.5 0.5\n")
