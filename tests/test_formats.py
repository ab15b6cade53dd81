import hashlib

import numpy as np
import pytest

import sftselect as ss
from sftselect import fixtures as fx
from sftselect.formats import (
    machine_digest,
    parse_automaton_text,
    parse_matrix_text,
    parse_measure_text,
    parse_selector,
    parse_selector_text,
    parse_measure,
    parse_matrix,
    read_symbol_text,
    serialize_automaton,
    serialize_matrix,
    serialize_measure,
    serialize_selector,
    write_symbol_text,
)


#: name, parser, canonical writer and SHA-256 of each bundled data file.
#: The files are the fixtures' source of truth: an edit to one, to its
#: meaning or only to its format, fails here.
BUNDLED = [
    ("after_ones.sel", parse_selector, serialize_selector,
     "febe72c4cea489ee76d751037cd379a1e87b9078fa24fe737a2dded3969cdf6f"),
    ("nonoblivious.sel", parse_selector, serialize_selector,
     "65e063d82cd3770b614d78d73020f344beb01cf4c9a6050ea459c706b0c40a2d"),
    ("even_positions.sel", parse_selector, serialize_selector,
     "c80ed1e7c2a2cc4f3a504cf9aeaa5253fc24a1822535b4e188dc05955020fb62"),
    ("even_positions_full.sel", parse_selector, serialize_selector,
     "fc1cbc69453ccf0319ef234bde9ef5df706a31209e9222d336a1a60e9ff885d6"),
    ("even_positions_sc.sel", parse_selector, serialize_selector,
     "4ef60785fbf65ae43b10ae4ff9315f44b4d205b0f9d73d0dc8a7ac226e02b31b"),
    ("golden_mean.mat", parse_matrix, serialize_matrix,
     "183de18653f7c66d48959dd097a6d45c20de3b4dbcc1368d38bfa9733d47937c"),
    ("golden_parry.msr", parse_measure, serialize_measure,
     "ac716dd120eb7f33240869698275b1ad80ac3c4d3596027b95e973b937db2e17"),
    ("uniform_binary.msr", parse_measure, serialize_measure,
     "477002bc2230f38dfdc4d3c7e9c9d9f79606ed6e6766905eb752d2aab01b72ad"),
]


@pytest.mark.parametrize("name, parse, serialize, digest", BUNDLED)
def test_bundled_file_is_canonical_and_pinned(name, parse, serialize, digest):
    path = fx.data_path(name)
    assert path.read_text() == serialize(parse(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("make", [
    fx.after_ones_selector,
    fx.nonoblivious_selector,
    fx.even_positions_selector,
    lambda: fx.even_positions_selector(include_forbidden_reads=True),
])
def test_each_fixture_call_parses_a_fresh_machine(make):
    """``declare_labels`` changes a machine in place, so a fixture returns
    a new object each call: a declaration on one does not show on the next."""
    first, second = make(), make()
    assert first is not second and first == second
    first.declare_labels(last_selected={first.states[-1]: first.alphabet.symbols[0]})
    assert first != second == make()


class TestMachineFiles:
    def test_round_trip_selector(self):
        for built in (
            fx.after_ones_selector(),
            fx.nonoblivious_selector(),
            fx.even_positions_selector(),
        ):
            assert parse_selector_text(serialize_selector(built)) == built

    def test_round_trip_automaton(self):
        auto = fx.even_positions_selector().underlying_automaton()
        assert parse_automaton_text(serialize_automaton(auto)) == auto

    def test_comments_and_blank_lines(self):
        text = """
        # a selector
        alphabet 0 1

        states q0   # only one state here? no: two
        initial q0
        trans q0 0 keep q0
        trans q0 1 drop q0
        """
        machine = parse_selector_text(text)
        assert machine.states == ("q0",)

    def test_duplicate_transition_is_parse_error(self):
        text = "alphabet 0\nstates a\ninitial a\ntrans a 0 keep a\ntrans a 0 drop a\n"
        with pytest.raises(ss.ParseError) as err:
            parse_selector_text(text)
        assert err.value.line == 5

    def test_unknown_keyword(self):
        with pytest.raises(ss.ParseError):
            parse_selector_text("alphabet 0\nstates a\ninitial a\nfoo bar\n")

    def test_missing_sections(self):
        with pytest.raises(ss.ParseError):
            parse_selector_text("alphabet 0\nstates a\n")

    def test_bad_action(self):
        with pytest.raises(ss.ParseError):
            parse_selector_text(
                "alphabet 0\nstates a\ninitial a\ntrans a 0 copy a\n"
            )

    def test_automaton_rejects_action_column(self):
        with pytest.raises(ss.ParseError):
            parse_automaton_text(
                "alphabet 0\nstates a\ninitial a\ntrans a 0 keep a\n"
            )

    def test_eps_reserved(self):
        with pytest.raises(ss.ParseError):
            parse_selector_text("alphabet eps 1\nstates a\ninitial a\n")

    def test_iota_eta_declarations(self):
        machine = parse_selector_text(
            "alphabet 0 1\nstates a b\ninitial a\niota a 0\neta a 1\n"
            "trans a 0 drop b\ntrans b 0 drop b\n"
        )
        assert machine.declared_last_read == {"a": "0"}
        assert machine.declared_last_selected == {"a": "1"}

    def test_digest_is_stable_and_distinguishing(self):
        a = machine_digest(fx.after_ones_selector())
        b = machine_digest(fx.after_ones_selector())
        c = machine_digest(fx.nonoblivious_selector())
        assert a == b and a != c and len(a) == 12

    def test_random_round_trips(self):
        import random

        from conftest import random_selector

        rng = random.Random(6)
        for _ in range(100):
            machine = random_selector(rng, max_states=5)
            assert parse_selector_text(serialize_selector(machine)) == machine
            auto = machine.underlying_automaton()
            assert parse_automaton_text(serialize_automaton(auto)) == auto


class TestMeasureFiles:
    def test_bundled_golden_matches_closed_form(self, golden):
        parsed = parse_measure(fx.data_path("golden_parry.msr"))
        assert np.array_equal(parsed.pi.weights, golden.pi.weights)
        assert np.array_equal(parsed.P.entries, golden.P.entries)

    def test_bundled_matrix(self):
        spec = parse_matrix(fx.data_path("golden_mean.mat"))
        assert np.array_equal(spec.M, [[1.0, 1.0], [1.0, 0.0]])
        assert spec.irreducible

    def test_round_trip_measure(self, golden):
        again = parse_measure_text(serialize_measure(golden))
        assert np.array_equal(again.pi.weights, golden.pi.weights)
        assert np.array_equal(again.P.entries, golden.P.entries)

    def test_round_trip_matrix(self):
        spec = fx.golden_mean_sft()
        again = parse_matrix_text(serialize_matrix(spec))
        assert np.array_equal(again.M, spec.M)

    def test_bad_row_sum_rejected(self):
        text = "alphabet 0 1\npi 0.5 0.5\nrow 0.49 0.5\nrow 1 0\n"
        with pytest.raises(ss.ValidationError):
            parse_measure_text(text)

    def test_wrong_row_count(self):
        with pytest.raises(ss.ParseError):
            parse_measure_text("alphabet 0 1\npi 0.5 0.5\nrow 0.5 0.5\n")

    def test_not_a_number(self):
        with pytest.raises(ss.ParseError) as err:
            parse_matrix_text("alphabet 0\nrow x\n")
        assert err.value.line == 2

    def test_pi_forbidden_in_matrix(self):
        with pytest.raises(ss.ParseError):
            parse_matrix_text("alphabet 0\npi 1\nrow 1\n")


class TestSequenceText:
    def test_single_char_round_trip(self, binary):
        idx = read_symbol_text(binary, "0101\n1100\n")
        assert write_symbol_text(binary, idx) == "01011100"

    def test_multichar_tokens(self):
        alpha = ss.Alphabet(["lo", "hi"])
        idx = read_symbol_text(alpha, "lo hi hi\nlo")
        assert idx.tolist() == [0, 1, 1, 0]
        assert write_symbol_text(alpha, idx) == "lo hi hi lo"

    def test_unknown_symbol(self, binary):
        with pytest.raises(ss.UnknownSymbol):
            read_symbol_text(binary, "01021")

    @pytest.mark.parametrize(
        "symbols, text, symbol, position",
        [
            (["0", "1"], "01021", "2", 4),  # byte path
            (["0", "1"], "01 1\n0x2", "x", 5),  # whitespace is not a symbol
            (["0", "1"], "01x\u20ac", "x", 3),  # before a non-latin-1 character
            (["0", "1"], "011\u20acx", "\u20ac", 4),
            (["\u03b1", "\u03b2"], "\u03b1\u03b2\u03b3", "\u03b3", 3),  # characters, no byte table
            (["lo", "hi"], "lo hi\nhi  mid lo", "mid", 4),  # tokens
        ],
    )
    def test_unknown_symbol_names_its_position(self, symbols, text, symbol, position):
        with pytest.raises(ss.UnknownSymbol) as err:
            read_symbol_text(ss.Alphabet(symbols), text)
        assert (err.value.symbol, err.value.position) == (symbol, position)
        assert str(err.value) == f"symbol {symbol!r} is not in alphabet {symbols} at position {position}"


M = "alphabet 0 1\nstates a b\ninitial a\n"  # a machine's first three lines
R = "alphabet 0 1\npi 0.5 0.5\nrow 0.5 0.5\nrow 0.5 0.5\n"  # a measure


#: (parser, text, ParseError.line, message) of every refusal of a file:
#: a line refused names it, an error of the whole file names no line.
REFUSALS = [
    (parse_selector_text, M + "trans a 0 keep a\nfoo bar\n", 5, "unknown keyword 'foo'"),
    (parse_selector_text, M + "alphabet 0 1\n", 4, "duplicate alphabet line"),
    (parse_selector_text, M + "states a\n", 4, "duplicate states line"),
    (parse_selector_text, M + "initial b\n", 4, "duplicate initial line"),
    (parse_selector_text, "alphabet eps 1\n", 1, "'eps' is reserved for the empty word"),
    (parse_selector_text, "alphabet 0 0\n", 1, "alphabet symbols are not pairwise distinct: ('0', '0')"),
    (parse_selector_text, "states a b a\n", 1, "states must be nonempty and distinct"),
    (parse_selector_text, "alphabet 0\nstates\n", 2, "states must be nonempty and distinct"),
    (parse_selector_text, "initial a b\n", 1, "initial takes exactly one state"),
    (parse_selector_text, M + "iota a\n", 4, "iota takes a state and a symbol"),
    (parse_selector_text, M + "eta a 0 1\n", 4, "eta takes a state and a symbol"),
    (parse_selector_text, M + "trans a 0 a\n", 4,
     "trans takes 4 fields for a selector (src symbol keep|drop dst)"),
    (parse_automaton_text, M + "trans a 0 keep a\n", 4, "trans takes 3 fields for an automaton (src symbol dst)"),
    (parse_selector_text, M + "iota a 0\niota b 1\niota a 1\n", 6, "duplicate iota declaration for a"),
    (parse_selector_text, M + "eta b 0\neta b 0\n", 5, "duplicate eta declaration for b"),
    # the machine's own checks, at the line they were reading
    (parse_selector_text, M + "trans a 0 keep a\ntrans a 0 drop b\n", 5,
     "duplicate transition from 'a' on '0'"),
    (parse_selector_text, M + "trans a 0 keep a\ntrans a 1 copy a\n", 5, "invalid action 'copy'"),
    (parse_selector_text, M + "trans a 0 keep a\n\ntrans b 1 drop c\n", 6, "unknown target state 'c'"),
    (parse_automaton_text, M + "trans c 1 a\n", 4, "unknown state 'c'"),
    (parse_automaton_text, M + "# comment\ntrans a 2 a\n", 5, "symbol '2' is not in alphabet ['0', '1']"),
    (parse_selector_text, "initial c\n" + M.replace("initial a\n", ""), 1,
     "initial state 'c' is not a declared state"),
    (parse_selector_text, M + "trans a 0 keep a\niota c 0\n", 5, "unknown state 'c'"),
    (parse_selector_text, M + "iota a 0\neta b 2\n", 5, "symbol '2' is not in alphabet ['0', '1']"),
    # errors of the whole file
    (parse_selector_text, "states a\ninitial a\n", None, "missing alphabet line"),
    (parse_selector_text, "alphabet 0\ninitial a\n", None, "missing states line"),
    (parse_automaton_text, "alphabet 0\nstates a\n", None, "missing initial line"),
    (parse_measure_text, "pi 1.0\nrow 1.0\n", None, "missing alphabet line"),
    (parse_measure_text, "alphabet 0\nrow 1.0\n", None, "missing pi line"),
    (parse_matrix_text, "alphabet 0 1\nrow 1 1\n", None, "expected 2 row lines, found 1"),
    (parse_measure_text, R + "row 0.5 0.5\n", None, "expected 2 row lines, found 3"),
    # measure and matrix lines
    (parse_measure_text, R + "rho 1\n", 5, "unknown keyword 'rho'"),
    (parse_measure_text, R + "alphabet 0 1\n", 5, "duplicate alphabet line"),
    (parse_measure_text, R + "pi 0.5 0.5\n", 5, "duplicate pi line"),
    (parse_measure_text, R.replace("pi 0.5 0.5", "pi 0.5 0.5 0"), 2, "pi needs 2 entries, found 3"),
    (parse_measure_text, R.replace("row 0.5 0.5\nrow", "row 0.5\nrow"), 3, "row needs 2 entries, found 1"),
    (parse_measure_text, R.replace("pi 0.5", "pi x"), 2, "not a decimal number: 'x'"),
    (parse_matrix_text, "alphabet 0\nrow 1\n\npi 1\n", 4, "pi line not allowed in a matrix file"),
    (parse_matrix_text, "alphabet 0\nrow x\n", 2, "not a decimal number: 'x'"),
]


@pytest.mark.parametrize("parse, text, line, message", REFUSALS)
def test_every_refusal_names_its_line(parse, text, line, message):
    with pytest.raises(ss.ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.message) == (line, message)
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def _old_serialize_measure(mu) -> str:
    """The writer before zero cells skipped ``repr``: every entry formatted."""
    lines = ["alphabet " + " ".join(mu.alphabet.symbols)]
    lines.append("pi " + " ".join(repr(float(x)) for x in mu.pi.weights))
    for row in mu.P.entries:
        lines.append("row " + " ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _old_serialize_matrix(spec) -> str:
    lines = ["alphabet " + " ".join(spec.alphabet.symbols)]
    for row in spec.M:
        lines.append("row " + " ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


class TestSparseSerialization:
    def test_signed_zero_and_sparse_rows_match_dense_writer(self):
        alpha = ss.Alphabet(["a", "b", "c"])
        rows = [[0.5, -0.0, 0.5], [0.0, 0.0, 1.0], [1 / 3, 2 / 3, -0.0]]
        P = ss.StochasticMatrix(alpha, np.array(rows))
        mu = ss.MarkovMeasure(ss.stationary_distribution(P), P)
        text = serialize_measure(mu)
        assert text == _old_serialize_measure(mu)
        assert "-0.0" in text
        spec = ss.SftSpec(alpha, np.array([[1.0, -0.0, 2.5], [0.0, 0.0, 1e-300], [3.0, 0.0, 0.0]]))
        assert serialize_matrix(spec) == _old_serialize_matrix(spec)

    def test_snake_chain_matches_dense_writer(self):
        selector = fx.after_ones_selector()
        snake = ss.snake_automaton(ss.selector_to_dfa(selector)[0], 5)
        chain = ss.uniform_chain(snake)
        names = [ss.snake_state_label(q, selector.alphabet) for q in snake.states]
        mu = ss.MarkovMeasure(
            ss.Distribution(names, chain.stationary), ss.StochasticMatrix(names, chain.matrix)
        )
        assert serialize_measure(mu) == _old_serialize_measure(mu)
        back = parse_measure_text(serialize_measure(mu))
        assert np.array_equal(back.P.entries, mu.P.entries)
        assert np.array_equal(back.pi.weights, mu.pi.weights)

    def test_golden_measure_matches_dense_writer(self):
        mu = fx.golden_parry_measure()
        assert serialize_measure(mu) == _old_serialize_measure(mu)


def _old_header(machine) -> list:
    """The machine header as the per-kind writers built it."""
    lines = [
        "alphabet " + " ".join(machine.alphabet.symbols),
        "states " + " ".join(str(q) for q in machine.states),
        f"initial {machine.initial}",
    ]
    for key, mapping in (
        ("iota", machine.declared_last_read),
        ("eta", machine.declared_last_selected),
    ):
        for q in machine.states:
            if q in mapping:
                lines.append(f"{key} {q} {mapping[q]}")
    return lines


def _old_serialize(machine) -> str:
    """The two per-kind f-string writers the shared writer replaced."""
    lines = _old_header(machine)
    if isinstance(machine, ss.Selector):
        for src, symbol, action, dst in machine.transitions():
            lines.append(f"trans {src} {symbol} {action} {dst}")
    else:
        for src, symbol, dst in machine.transitions():
            lines.append(f"trans {src} {symbol} {dst}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_shared_writer_matches_per_kind_writers(seed):
    """``serialize_selector``, ``serialize_automaton`` and ``machine_digest``
    give the bytes of the old per-kind writers on random partial machines
    with declarations, their automata and snake automata (tuple states)."""
    import hashlib
    import random

    from conftest import random_selector

    rng = random.Random(seed)
    selector = random_selector(rng, max_states=5, partial=seed % 2 == 1)
    selector.declare_labels(
        last_read={q: rng.choice("01") for q in selector.states if rng.random() < 0.5},
        last_selected={q: rng.choice("01") for q in selector.states if rng.random() < 0.5},
    )
    automaton = selector.underlying_automaton()
    machines = [(serialize_selector, selector), (serialize_automaton, automaton)]
    try:
        machines.append((serialize_automaton, ss.snake_automaton(automaton, 1 + seed % 3)))
    except ss.ValidationError:  # a partial machine without a run of that length
        pass
    for writer, machine in machines:
        expected = _old_serialize(machine)
        assert writer(machine) == expected
        assert machine_digest(machine) == hashlib.sha256(expected.encode()).hexdigest()[:12]
