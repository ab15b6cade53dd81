"""Decisions with one owner each: the exit status of every error type, the
lift of a measure onto a machine (``compat._step_weights``) and the one
chain builder, plus the constructors that take plain-list alphabets."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect.cli import main
from sftselect.compat import _step_weights
from sftselect.measures import _solve_balance

from conftest import random_complete_dfa

#: The documented exit status of every error class ``sftselect`` exports.
EXIT_CODES = {
    "SftSelectError": 1,
    "ParseError": 1,
    "ValidationError": 1,
    "WeightsNotNormalized": 1,
    "UnknownSymbol": 1,
    "BlockLengthOutOfRange": 1,
    "NonConvergence": 1,
    "DomainError": 2,
    "NotCompatible": 2,
    "NotIrreducible": 2,
    "NotOblivious": 2,
    "NotShiftComplete": 2,
    "NotStronglyConnected": 2,
    "Incomplete": 2,
    "UndefinedTransition": 2,
    "UnrealizableRun": 2,
    "CapExceeded": 2,
}

#: One instance of each class, as the library would raise it.
INSTANCES = {
    "SftSelectError": lambda: ss.SftSelectError("generic"),
    "ParseError": lambda: ss.ParseError(3, "bad token"),
    "ValidationError": lambda: ss.ValidationError("invalid"),
    "WeightsNotNormalized": lambda: ss.WeightsNotNormalized("weights sum to 0.9"),
    "UnknownSymbol": lambda: ss.UnknownSymbol("x", ["0", "1"]),
    "BlockLengthOutOfRange": lambda: ss.BlockLengthOutOfRange("k too large"),
    "NonConvergence": lambda: ss.NonConvergence(10),
    "DomainError": lambda: ss.DomainError("rejected"),
    "NotCompatible": lambda: ss.NotCompatible(["VIOLATION X q0 detail"]),
    "NotIrreducible": lambda: ss.NotIrreducible("reducible"),
    "NotOblivious": lambda: ss.NotOblivious("q1"),
    "NotShiftComplete": lambda: ss.NotShiftComplete([("q0", "1")]),
    "NotStronglyConnected": lambda: ss.NotStronglyConnected("not connected"),
    "Incomplete": lambda: ss.Incomplete("q0", "1"),
    "UndefinedTransition": lambda: ss.UndefinedTransition("q0", "1", 4),
    "UnrealizableRun": lambda: ss.UnrealizableRun("q0", ("1", "1")),
    "CapExceeded": lambda: ss.CapExceeded(1024, 1000),
}


def exported_errors():
    return {
        name
        for name, obj in vars(ss).items()
        if isinstance(obj, type) and issubclass(obj, ss.SftSelectError)
    }


def test_every_exported_error_has_a_documented_exit_code():
    assert exported_errors() == set(EXIT_CODES) == set(INSTANCES)
    for name, code in EXIT_CODES.items():
        assert getattr(ss, name).exit_code == code, name
        assert issubclass(getattr(ss, name), ss.DomainError) == (code == 2), name


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_main_exits_with_the_error_types_code(name, capsys, monkeypatch):
    exc = INSTANCES[name]()

    def cmd_parry(args):
        raise exc

    monkeypatch.setattr("sftselect.cli.cmd_parry", cmd_parry)
    assert main(["parry", str(fx.data_path("golden_mean.mat"))]) == EXIT_CODES[name]
    captured = capsys.readouterr()
    assert captured.out == ""
    if name == "NotCompatible":
        assert captured.err == "VIOLATION X q0 detail\n"
    elif name == "CapExceeded":
        assert captured.err == (
            f"error: {exc}; raise --max-enum or use the statistical path "
            "(the experiment subcommand) instead\n"
        )
    else:
        assert captured.err == f"error: {exc}\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _data(name):
    return str(fx.data_path(name))


#: (exported class, command line, the start of stderr) per real command path;
#: ``{tmp}`` stands for a scratch directory holding the inputs below.
COMMAND_ERRORS = [
    ("ParseError", ["lemma-check", "--selector", "{tmp}/bad.sel"], "error: line 0: unknown target"),
    ("ValidationError", ["stationary", _data("golden_mean.mat")], "error: row '0' sums to"),
    ("WeightsNotNormalized", ["stationary", "{tmp}/pi.msr"], "error: weights sum to"),
    ("UnknownSymbol", ["freq", "--k", "1", "--in", "{tmp}/x.txt"], "error: symbol '2'"),
    ("BlockLengthOutOfRange", ["freq", "--k", "11", "--in", "{tmp}/seq.txt"], "error: block length 11"),
    ("NotCompatible", ["experiment", "--selector", _data("after_ones.sel"), "--measure",
                       _data("golden_parry.msr"), "--n", "3000"], "VIOLATION "),
    ("NotIrreducible", ["parry", "{tmp}/red.mat"], "error: SFT matrix is not irreducible"),
    ("NotOblivious", ["lemma-check", "--selector", _data("nonoblivious.sel")], "error: state 'q1'"),
    ("NotShiftComplete", ["chain", "--selector", _data("even_positions.sel"), "--measure",
                          _data("uniform_binary.msr")], "error: machine is missing"),
    ("NotStronglyConnected", ["lemma-check", "--selector", _data("even_positions.sel"),
                              "--equirun", "1"], "error: equirun scan expects"),
    ("Incomplete", ["chain", "--selector", _data("even_positions.sel")], "error: machine is not complete"),
    ("UndefinedTransition", ["select", "--selector", _data("even_positions.sel"), "--in",
                             "{tmp}/seq.txt"], "error: no transition"),
    ("CapExceeded", ["lemma-check", "--selector", _data("even_positions_full.sel"), "--measure",
                     _data("uniform_binary.msr"), "--n-max", "12", "--max-enum", "1000"],
     "error: enumeration of 4096 runs exceeds the cap of 1000; raise --max-enum"),
]


@pytest.mark.parametrize("name,argv,err", COMMAND_ERRORS, ids=[c[0] for c in COMMAND_ERRORS])
def test_commands_exit_with_the_raised_types_code(name, argv, err, tmp_path, capsys):
    _write(tmp_path, "bad.sel", "alphabet 0 1\nstates q0\ninitial q0\ntrans q0 0 keep q9\n")
    _write(tmp_path, "pi.msr", "alphabet 0 1\npi 0.5 0.4\nrow 0.5 0.5\nrow 0.5 0.5\n")
    _write(tmp_path, "x.txt", "0102\n")
    _write(tmp_path, "seq.txt", "0100101101\n")
    _write(tmp_path, "red.mat", "alphabet 0 1\nrow 1.0 0.0\nrow 0.0 1.0\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv) == EXIT_CODES[name]
    assert capsys.readouterr().err.startswith(err)


def test_missing_file_exits_one(capsys):
    assert main(["lemma-check", "--selector", "/nonexistent/x.sel"]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2]")


class TestCliFixes:
    def test_equirun_n_max_below_k_is_refused(self, capsys):
        argv = ["lemma-check", "--selector", _data("after_ones.sel"), "--equirun", "5"]
        assert main(argv + ["--n-max", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --n-max 3 is below --equirun 5\n"
        # n_max == k scans that one length
        assert main(argv[:-1] + ["2", "--n-max", "2"]) == 3
        assert capsys.readouterr().out.startswith("LEMMA equirun-count p=q0 n=2 ")

    def test_equirun_scan_below_k_scans_nothing(self, after_ones):
        scan = ss.equirun_scan(after_ones, 5, 0.1, 3)
        assert scan.witness_n is None and scan.results == () and not scan.passed

    def test_experiment_measure_and_uniform_exclude_each_other(self, capsys):
        argv = ["experiment", "--selector", _data("even_positions_full.sel"), "--n", "3000", "--k", "1"]
        assert main(argv + ["--measure", _data("uniform_binary.msr"), "--uniform"]) == 1
        err = capsys.readouterr().err
        assert "usage: sftselect experiment" in err
        assert "not allowed with argument" in err
        assert main(argv + ["--uniform"]) in (0, 3)

    def test_freq_measure_still_wins_over_uniform(self, tmp_path, capsys):
        seq = _write(tmp_path, "seq.txt", "0100101101\n")
        common = ["freq", "--k", "1", "--in", seq, "--measure", _data("golden_parry.msr")]
        assert main(common) == 0
        alone = capsys.readouterr().out
        assert main(common + ["--uniform"]) == 0
        assert capsys.readouterr().out == alone


class TestPlainListAlphabets:
    def test_stochastic_matrix_row_error(self):
        with pytest.raises(ss.ValidationError, match="row '1' sums to"):
            ss.StochasticMatrix(["0", "1"], [[1.0, 0.0], [0.5, 0.6]])
        assert isinstance(ss.StochasticMatrix(["0", "1"], [[1.0, 0.0], [0.5, 0.5]]).alphabet, ss.Alphabet)

    def test_reducible_stationary(self):
        matrix = ss.StochasticMatrix(["0", "1"], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ss.NotIrreducible, match="no path from '0' to '1'"):
            ss.stationary_distribution(matrix)

    def test_reducible_parry(self):
        spec = ss.SftSpec(["0", "1"], [[1, 0], [0, 1]])
        assert isinstance(spec.alphabet, ss.Alphabet)
        with pytest.raises(ss.NotIrreducible, match="no path from '0' to '1'"):
            ss.parry_measure(spec)

    def test_distribution_unknown_symbol(self):
        dist = ss.Distribution(["0", "1"], [0.5, 0.5])
        assert isinstance(dist.alphabet, ss.Alphabet) and dist["1"] == 0.5
        with pytest.raises(ss.UnknownSymbol):
            dist["x"]

    def test_invalid_symbols_are_typed(self):
        with pytest.raises(ss.ValidationError, match="pairwise distinct"):
            ss.Distribution(["0", "0"], [0.5, 0.5])


def random_measure(rng, size):
    """A random irreducible measure over ``size`` symbols whose matrix has
    zero entries (each off-cycle entry is zero with probability 1/2; the
    cycle 0 -> 1 -> ... -> 0 keeps it irreducible)."""
    rows = np.array([[rng.random() if rng.random() < 0.5 else 0.0 for _ in range(size)]
                     for _ in range(size)])
    for i in range(size):
        rows[i, (i + 1) % size] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    P = ss.StochasticMatrix([str(i) for i in range(size)], rows)
    return ss.MarkovMeasure(ss.stationary_distribution(P), P)


def random_compatible_automaton(rng, mu):
    """A random partial automaton compatible with ``mu``: each state has a
    last-read label, every transition into a state reads its label, and
    reads only positive-probability steps."""
    symbols = mu.alphabet.symbols
    n = rng.randint(1, 6)
    label = {f"s{i}": rng.choice(symbols) for i in range(n)}
    by_label = {a: [q for q in label if label[q] == a] for a in symbols}
    transitions = [
        (q, a, rng.choice(by_label[a]))
        for q in label
        for a in symbols
        if by_label[a] and mu.P[label[q], a] > 0.0 and rng.random() < 0.8
    ]
    machine = ss.Automaton(list(symbols), list(label), "s0", transitions)
    machine.declare_labels(last_read=label)
    return machine


def reference_chain(machine, weight, solve):
    """The per-arc chain builder: ``matrix[p, q] += weight(p, a)`` for every
    transition in state then alphabet order, then the stationary vector of
    the unique closed class."""
    nq = len(machine.states)
    matrix = np.zeros((nq, nq))
    for p, a, q in machine._arcs():
        matrix[p, q] += weight(p, a)
    if not solve:
        return matrix, None
    scc = ss.scc_decomposition(machine)
    closed = [i for i, rec in enumerate(scc.recurrent) if rec]
    if len(closed) != 1:
        return matrix, None
    idx = [machine.state_index(q) for q in scc.components[closed[0]]]
    stationary = np.zeros(nq)
    stationary[idx] = _solve_balance(matrix[np.ix_(idx, idx)])
    return matrix, stationary


def assert_same_chain(chain, matrix, stationary):
    assert chain.matrix.tobytes() == matrix.tobytes()
    assert not chain.matrix.flags.writeable
    if stationary is None:
        assert chain.stationary is None
    else:
        assert chain.stationary.tobytes() == stationary.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(2, 3))
def test_compatible_chain_matches_per_arc_builder(seed, size):
    rng = random.Random(seed)
    mu = random_measure(rng, size)
    machine = random_compatible_automaton(rng, mu)
    result = ss.check_automaton_compatibility(machine, mu)
    assert result.ok, result.violations
    witness = result.witness
    weights = _step_weights(machine, mu, witness)
    assert weights.shape == (len(machine.states), size)
    for q, p in enumerate(machine.states):
        for a, symbol in enumerate(machine.alphabet):
            assert weights[q, a] == mu.P[witness.last_read[p], symbol]
    ok, missing = ss.is_shift_complete(machine, mu, witness)
    assert missing == [
        (p, a) for p in machine.states for a in machine.alphabet
        if mu.P[witness.last_read[p], a] > 0.0 and machine.step_or_none(p, a) is None
    ]
    states, symbols = machine.states, machine.alphabet.symbols
    matrix, stationary = reference_chain(
        machine, lambda p, a: mu.P[witness.last_read[states[p]], symbols[a]], ok
    )
    assert_same_chain(ss.compatible_chain(machine, mu, witness, require_complete=False),
                      matrix, stationary)
    if ok:
        assert_same_chain(ss.compatible_chain(machine, mu, witness), matrix, stationary)
    else:
        with pytest.raises(ss.NotShiftComplete):
            ss.compatible_chain(machine, mu, witness)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_uniform_chain_matches_per_arc_builder(seed):
    dfa, _accepting = random_complete_dfa(random.Random(seed), max_states=6)
    matrix, stationary = reference_chain(dfa, lambda _p, _a: 1.0 / len(dfa.alphabet), True)
    assert_same_chain(ss.uniform_chain(dfa), matrix, stationary)


def test_step_weights_read_the_measure_alphabet_order(golden):
    """A machine alphabet in another order than the measure's: columns
    follow the machine, rows the last-read label of each state."""
    swapped = ss.Automaton(["1", "0"], ["a", "b"], "a", [("a", "0", "a"), ("a", "1", "b"), ("b", "0", "a")])
    witness = ss.CompatibilityWitness(last_read={"a": "0", "b": "1"})
    weights = _step_weights(swapped, golden, witness)
    assert weights.tolist() == [[golden.P["0", "1"], golden.P["0", "0"]], [0.0, 1.0]]
    assert ss.is_shift_complete(swapped, golden, witness) == (True, [])
