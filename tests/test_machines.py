import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss

from conftest import random_complete_dfa, random_selector, txt


class TestRunWord:
    def test_after_ones_hand_run(self, after_ones):
        run = ss.run_word(after_ones, "q0", "01101")
        assert txt(run.output) == "10"
        assert run.end == "q1"

    def test_nonoblivious_hand_run(self, nonoblivious):
        run = ss.run_word(nonoblivious, "q0", "0110")
        assert txt(run.output) == "01"
        assert run.end == "q2"

    def test_empty_run(self, after_ones):
        run = ss.run_word(after_ones, "q1", "")
        assert run.output == ()
        assert run.end == "q1"
        assert run.visits == {}

    def test_visits_count_sources(self, after_ones):
        run = ss.run_word(after_ones, "q0", "01101")
        assert sum(run.visits.values()) == 5
        assert run.visits == {"q0": 3, "q1": 2}

    def test_automaton_run_has_no_output(self, after_ones):
        run = ss.run_word(after_ones.underlying_automaton(), "q0", "0110")
        assert run.output == ()

    def test_undefined_transition_position(self, even_positions):
        with pytest.raises(ss.UndefinedTransition) as err:
            ss.run_word(even_positions, "000", "0011")
        assert err.value.position == 4  # reading 1 right after a 1 has no edge

    def test_unknown_symbol(self, after_ones):
        with pytest.raises(ss.UnknownSymbol):
            ss.run_word(after_ones, "q0", "0x")
        assert after_ones.step_or_none("q0", "x") is None

    def test_pure_function(self, nonoblivious):
        runs = [ss.run_word(nonoblivious, "q0", "011010") for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestStreaming:
    def test_apply_selector_matches_batch(self, after_ones):
        out = list(ss.apply_selector(after_ones, "01101"))
        assert txt(out) == "10"

    def test_identity_selector(self):
        keep_all = ss.Selector(
            ["0", "1"], ["s"], "s", [("s", "0", "keep", "s"), ("s", "1", "keep", "s")]
        )
        assert txt(ss.apply_selector(keep_all, "10101")) == "10101"

    def test_empty_selector(self):
        drop_all = ss.Selector(
            ["0", "1"], ["s"], "s", [("s", "0", "drop", "s"), ("s", "1", "drop", "s")]
        )
        assert txt(ss.apply_selector(drop_all, "10101")) == ""

    def test_cursor_resumable(self, after_ones):
        cursor = ss.SelectionCursor(after_ones)
        got = cursor.feed_many("011")
        got += cursor.feed_many("01")
        assert txt(got) == "10"
        assert cursor.position == 5
        assert cursor.state == "q1"

    def test_cursor_error_position(self, even_positions):
        cursor = ss.SelectionCursor(even_positions)
        cursor.feed_many("001")
        with pytest.raises(ss.UndefinedTransition) as err:
            cursor.feed("1")
        assert err.value.position == 4

    def test_feed_indices_matches_tokens(self, after_ones):
        rng = random.Random(5)
        for _ in range(50):
            word = "".join(rng.choice("01") for _ in range(rng.randint(0, 40)))
            by_tokens = txt(ss.SelectionCursor(after_ones).feed_many(word))
            idx = after_ones.alphabet.encode(word)
            by_indices = after_ones.alphabet.text(
                ss.SelectionCursor(after_ones).feed_indices(idx)
            )
            assert by_tokens == by_indices

    def test_shared_machine_across_threads(self, after_ones):
        # machines are immutable; concurrent runs over one instance agree
        import concurrent.futures

        words = ["".join(random.Random(i).choices("01", k=200)) for i in range(32)]
        expected = [ss.run_word(after_ones, "q0", w).output for w in words]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda w: ss.run_word(after_ones, "q0", w).output, words))
        assert got == expected

    def test_cursor_handoff_between_threads(self, after_ones):
        # the cursor is single-owner per feed call but may move between threads
        import concurrent.futures

        cursor = ss.SelectionCursor(after_ones)
        out = []
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            out += pool.submit(cursor.feed_many, "011").result()
        out += cursor.feed_many("01")
        assert txt(out) == "10" and cursor.position == 5

    def test_streaming_batch_agreement_random(self):
        # severed into chunks at arbitrary points, the stream equals the batch run
        rng = random.Random(20240811)
        for _ in range(1000):
            selector = random_selector(rng)
            word = [rng.choice("01") for _ in range(rng.randint(0, 64))]
            expected = ss.run_word(selector, selector.initial, word).output
            cursor = ss.SelectionCursor(selector)
            got = []
            i = 0
            while i < len(word):
                j = min(len(word), i + rng.randint(1, 7))
                got += cursor.feed_many(word[i:j])
                i = j
            assert tuple(got) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_output_is_subsequence(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    selector = random_selector(rng)
    word = data.draw(st.lists(st.sampled_from(["0", "1"]), max_size=48))
    run = ss.run_word(selector, selector.initial, word)
    assert len(run.output) <= len(run.input)
    it = iter(run.input)  # two-pointer subsequence scan
    assert all(any(x == y for y in it) for x in run.output)
    assert sum(run.visits.values()) == len(word)


class TestObliviousness:
    def test_nonoblivious_witness(self, nonoblivious):
        ok, state = ss.is_oblivious(nonoblivious)
        assert not ok
        assert state == "q1"

    def test_after_ones_is_oblivious(self, after_ones):
        assert ss.is_oblivious(after_ones) == (True, None)

    def test_single_state_keep(self):
        s = ss.Selector(["0"], ["s"], "s", [("s", "0", "keep", "s")])
        assert ss.is_oblivious(s) == (True, None)

    def test_state_action(self, after_ones, nonoblivious):
        assert ss.state_action(after_ones, "q0") == ss.DROP
        assert ss.state_action(after_ones, "q1") == ss.KEEP
        with pytest.raises(ss.NotOblivious):
            ss.state_action(nonoblivious, "q1")


class TestScc:
    def test_nonoblivious_one_recurrent_component(self, nonoblivious):
        report = ss.scc_decomposition(nonoblivious)
        assert report.components == (("q0", "q1", "q2"),)
        assert report.recurrent == (True,)
        assert report.strongly_connected

    def test_after_ones_strongly_connected(self, after_ones):
        report = ss.scc_decomposition(after_ones)
        assert report.components == (("q0", "q1"),)
        assert report.recurrent == (True,)

    def test_transient_head(self):
        chain = ss.Automaton(
            ["a"], ["q0", "q1"], "q0", [("q0", "a", "q1"), ("q1", "a", "q1")]
        )
        report = ss.scc_decomposition(chain)
        assert set(report.components) == {("q0",), ("q1",)}
        recurrent = {c: r for c, r in zip(report.components, report.recurrent)}
        assert recurrent[("q1",)] and not recurrent[("q0",)]
        assert not report.strongly_connected

    def test_reverse_topological_order_and_recurrence(self):
        rng = random.Random(7)
        for _ in range(200):
            dfa, _acc = random_complete_dfa(rng, max_states=6)
            report = ss.scc_decomposition(dfa)
            index = {q: i for i, c in enumerate(report.components) for q in c}
            # edges in the condensation always point to earlier components
            for src, dst in report.condensation_edges:
                assert src > dst
            for q, _a, t in dfa.transitions():
                assert index[q] >= index[t]
            # recurrent <=> no outgoing condensation edge, directly re-derived
            for i, flagged in enumerate(report.recurrent):
                leaves = any(src == i for src, _dst in report.condensation_edges)
                assert flagged == (not leaves)
            assert frozenset().union(*report.components) == frozenset(dfa.states)

    def test_recurrent_states_of_solid_even_positions(self, even_positions):
        report = ss.scc_decomposition(even_positions)
        assert ("010",) in report.components
        assert not report.recurrent[report.component_of("010")]
        assert report.recurrent[report.component_of("000")]


class TestSnake:
    def test_after_ones_snake_n1(self, after_ones):
        auto = after_ones.underlying_automaton()
        snake = ss.snake_automaton(auto, 1)
        assert set(snake.states) == {
            ("q0", ("0",)),
            ("q0", ("1",)),
            ("q1", ("0",)),
            ("q1", ("1",)),
        }
        assert snake.step(("q0", ("1",)), "0") == ("q1", ("0",))
        assert sum(1 for _ in snake.transitions()) == 8

    def test_single_state_snake(self):
        one = ss.Automaton(["0", "1"], ["s"], "s", [("s", "0", "s"), ("s", "1", "s")])
        snake = ss.snake_automaton(one, 3)
        assert len(snake.states) == 8
        assert {w for (_p, w) in snake.states} == set(one.alphabet.words(3))

    def test_partial_machine_omits_unrealizable(self, even_positions):
        auto = even_positions.underlying_automaton()
        snake = ss.snake_automaton(auto, 1)
        assert ("110", ("1",)) not in snake.states  # no edge reads 1 after 110
        assert ("010", ("0",)) in snake.states

    def test_snake_soundness_exhaustive(self):
        # every extension of a length-n run is a snake transition and back
        rng = random.Random(99)
        machines = [random_complete_dfa(rng)[0] for _ in range(12)]
        for machine in machines:
            for n in (1, 2, 3):
                snake = ss.snake_automaton(machine, n)
                states = set(snake.states)
                for p in machine.states:
                    for w in machine.alphabet.words(n):
                        run = ss.run_word(machine, p, w)
                        assert (p, w) in states
                        for a in machine.alphabet:
                            target = machine.step_or_none(run.end, a)
                            expected = (
                                machine.step(p, w[0]),
                                w[1:] + (a,),
                            )
                            assert snake.step_or_none((p, w), a) == (
                                expected if target is not None else None
                            )
                for (p, w), a, (q, v) in snake.transitions():
                    assert machine.step(p, w[0]) == q
                    assert w[1:] + (a,) == v


class TestDfaSelectorCorrespondence:
    def test_after_ones_from_dfa(self, after_ones):
        dfa = ss.Automaton(
            ["0", "1"],
            ["q0", "q1"],
            "q0",
            [("q0", "0", "q0"), ("q0", "1", "q1"), ("q1", "0", "q0"), ("q1", "1", "q1")],
        )
        assert ss.dfa_to_selector(dfa, {"q1"}) == after_ones

    def test_all_accepting_keeps_everything(self):
        dfa = ss.Automaton(["0"], ["s"], "s", [("s", "0", "s")])
        selector = ss.dfa_to_selector(dfa, {"s"})
        assert all(act == ss.KEEP for _q, _a, act, _t in selector.transitions())
        selector = ss.dfa_to_selector(dfa, set())
        assert all(act == ss.DROP for _q, _a, act, _t in selector.transitions())

    def test_selector_to_dfa(self, after_ones):
        dfa, accepting = ss.selector_to_dfa(after_ones)
        assert accepting == frozenset({"q1"})
        assert dfa == after_ones.underlying_automaton()

    def test_selector_to_dfa_rejects_nonoblivious(self, nonoblivious):
        with pytest.raises(ss.NotOblivious):
            ss.selector_to_dfa(nonoblivious)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            dfa, accepting = random_complete_dfa(rng)
            selector = ss.dfa_to_selector(dfa, accepting)
            back_dfa, back_accepting = ss.selector_to_dfa(selector)
            assert ss.dfa_to_selector(back_dfa, back_accepting) == selector


class TestValidationAndTrim:
    def test_duplicate_transition_rejected(self):
        with pytest.raises(ss.ValidationError):
            ss.Automaton(["0"], ["a"], "a", [("a", "0", "a"), ("a", "0", "a")])
        with pytest.raises(ss.ValidationError, match="duplicate state identifiers"):
            ss.Automaton(["0"], ["a", "a"], "a", [])
        with pytest.raises(ss.ValidationError, match="machine needs at least one state"):
            ss.Selector(["0"], [], "a", [])

    def test_check_trim(self, even_positions):
        ok, bad = even_positions.check_trim()
        assert not ok and bad == ["010"]  # unreachable without forbidden reads
        assert not even_positions.trim_checked

    def test_trim_full_variant(self, even_positions_full):
        ok, bad = even_positions_full.check_trim()
        assert ok and bad == []
        assert even_positions_full.trim_checked

    def test_dead_end_state_is_not_trim(self):
        machine = ss.Automaton(["0"], ["a", "b"], "a", [("a", "0", "b")])
        ok, bad = machine.check_trim()
        assert not ok
        assert set(bad) == {"a", "b"}  # no infinite run exists at all


def _warshall(machine):
    """Reflexive-transitive reachability of a machine's transition graph by
    Warshall's algorithm: ``reach[i][j]`` when state j can be reached from
    state i in zero or more steps."""
    n = len(machine.states)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for q in machine.states:
        for t in machine.successors(q):
            reach[machine.state_index(q)][machine.state_index(t)] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


@st.composite
def partial_automata(draw):
    n = draw(st.integers(1, 7))
    symbols = ["a", "b", "c"][: draw(st.integers(1, 3))]
    states = [f"s{i}" for i in draw(st.permutations(range(n)))]
    transitions = [
        (q, a, states[draw(st.integers(0, n - 1))])
        for q in states
        for a in symbols
        if draw(st.booleans())
    ]
    return ss.Automaton(symbols, states, states[draw(st.integers(0, n - 1))], transitions)


@settings(max_examples=300, deadline=None)
@given(machine=partial_automata())
def test_check_trim_matches_warshall(machine):
    reach = _warshall(machine)
    idx = machine.state_index
    states = range(len(machine.states))
    on_cycle = [
        any(reach[idx(t)][c] for t in machine.successors(machine.states[c])) for c in states
    ]
    init = idx(machine.initial)
    expected = [
        q
        for i, q in enumerate(machine.states)
        if not (reach[init][i] and any(reach[i][c] and on_cycle[c] for c in states))
    ]
    assert machine.check_trim() == (not expected, expected)
    assert machine.trim_checked == (not expected)


@settings(max_examples=300, deadline=None)
@given(machine=partial_automata())
def test_scc_decomposition_matches_warshall(machine):
    reach = _warshall(machine)
    idx = machine.state_index
    report = ss.scc_decomposition(machine)
    classes = {
        frozenset(t for t in machine.states if reach[idx(q)][idx(t)] and reach[idx(t)][idx(q)])
        for q in machine.states
    }
    assert {frozenset(c) for c in report.components} == classes
    for c in report.components:
        assert list(c) == sorted(c, key=idx)  # declaration order inside a component
        for q in c:
            assert report.component_of(q) == report.components.index(c)
    # reverse-topological: no component reaches a later one
    firsts = [idx(c[0]) for c in report.components]
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            assert not reach[a][b]
    expected_edges = {
        (report.component_of(q), report.component_of(t))
        for q in machine.states
        for t in machine.successors(q)
        if report.component_of(q) != report.component_of(t)
    }
    assert report.condensation_edges == expected_edges
    for c, recurrent in zip(report.components, report.recurrent):
        closed = all(
            not reach[idx(c[0])][j] or reach[j][idx(c[0])] for j in range(len(machine.states))
        )
        assert recurrent == closed


def test_long_path():
    n = 4000
    path = ss.Automaton(["a"], range(n), 0, [(i, "a", i + 1) for i in range(n - 1)])
    report = ss.scc_decomposition(path)
    assert report.components == tuple((i,) for i in reversed(range(n)))
    assert report.recurrent == (True,) + (False,) * (n - 1)
    assert report.condensation_edges == {(n - 1 - i, n - 2 - i) for i in range(n - 1)}
    assert path.check_trim() == (False, list(range(n)))  # no infinite run at all
    looped = ss.Automaton(
        ["a"], range(n), 0, [(i, "a", min(i + 1, n - 1)) for i in range(n)]
    )
    assert looped.check_trim() == (True, [])
    assert ss.scc_decomposition(looped).recurrent_states() == {n - 1}


class TestCursorRefusesForeignSymbols:
    """A symbol outside the alphabet is refused before it is consumed, so
    later positions stay right, as ``feed_indices`` refuses bad letters."""

    def test_feed_keeps_position_and_state(self, even_positions):
        cursor = ss.SelectionCursor(even_positions)
        cursor.feed_many("01")
        state = cursor.state
        with pytest.raises(ss.UnknownSymbol):
            cursor.feed("x")
        assert cursor.position == 2
        assert cursor.state == state == "011"  # 000 -0-> 100 -1-> 011, which has no 1
        with pytest.raises(ss.UndefinedTransition) as err:
            cursor.feed("1")
        assert err.value.position == 3

    def test_refusal_inside_feed_many(self, after_ones):
        cursor = ss.SelectionCursor(after_ones)
        with pytest.raises(ss.UnknownSymbol):
            cursor.feed_many("011x0")
        assert cursor.position == 3
        assert cursor.state == "q1"
        assert txt(cursor.feed_many("0")) == "0"
        assert cursor.position == 4
