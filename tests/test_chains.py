import itertools

import numpy as np
import pytest

import sftselect as ss
from sftselect import fixtures as fx


class TestUniformChain:
    def test_after_ones_chain(self, after_ones):
        chain = ss.uniform_chain(after_ones.underlying_automaton())
        assert np.allclose(chain.matrix, [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(chain.stationary, [0.5, 0.5], atol=1e-12)

    def test_single_state(self):
        one = ss.Automaton(["0", "1"], ["s"], "s", [("s", "0", "s"), ("s", "1", "s")])
        chain = ss.uniform_chain(one)
        assert chain.matrix.tolist() == [[1.0]]
        assert chain.stationary.tolist() == [1.0]

    def test_nonoblivious_chain(self, nonoblivious):
        chain = ss.uniform_chain(nonoblivious.underlying_automaton())
        assert np.allclose(
            chain.matrix,
            [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.0, 0.5]],
        )
        assert np.allclose(chain.stationary, [0.5, 0.25, 0.25], atol=1e-12)

    def test_incomplete_rejected(self, even_positions):
        with pytest.raises(ss.Incomplete):
            ss.uniform_chain(even_positions.underlying_automaton())


class TestCompatibleChain:
    def test_even_positions_entries(self, even_positions, golden, golden_witness):
        auto = even_positions.underlying_automaton()
        chain = ss.compatible_chain(auto, golden, golden_witness)
        assert chain.matrix.shape == (8, 8)
        i = auto.state_index
        assert chain.matrix[i("000"), i("100")] == golden.P["0", "0"]
        assert chain.matrix[i("000"), i("110")] == golden.P["0", "1"]
        assert np.allclose(chain.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert chain.stationary is not None
        assert chain.stationary_of("010") == 0.0  # unreachable without 1-after-1 reads
        resid = np.max(np.abs(chain.stationary @ chain.matrix - chain.stationary))
        assert resid <= 1e-10

    def test_support_automaton_chain_is_the_measure(self, golden):
        machine = ss.support_automaton(golden)
        witness = ss.check_automaton_compatibility(machine, golden).witness
        chain = ss.compatible_chain(machine, golden, witness)
        assert np.allclose(chain.matrix, golden.P.entries, atol=0)
        assert np.allclose(chain.stationary, golden.pi.weights, atol=1e-12)

    def test_uniform_measure_reduces_to_uniform_chain(self, even_positions_full, uniform2):
        machine = even_positions_full.underlying_automaton()
        witness = ss.check_automaton_compatibility(machine, uniform2).witness
        compat = ss.compatible_chain(machine, uniform2, witness)
        uniform = ss.uniform_chain(machine)
        assert np.allclose(compat.matrix, uniform.matrix, atol=0)

    def test_stochastic_iff_shift_complete(self, golden, binary):
        solid = fx.even_positions_selector()
        auto = solid.underlying_automaton()
        witness = ss.check_automaton_compatibility(auto, golden).witness
        # complete: rows sum to one (tested above); now break completeness
        pruned = ss.Automaton(
            binary,
            auto.states,
            auto.initial,
            [t for t in auto.transitions() if t[:2] != ("101", "1")],
        )
        pruned.declare_labels(last_read=auto.declared_last_read)
        w = ss.check_automaton_compatibility(pruned, golden).witness
        ok, missing = ss.is_shift_complete(pruned, golden, w)
        assert not ok
        with pytest.raises(ss.NotShiftComplete):
            ss.compatible_chain(pruned, golden, w)
        chain = ss.compatible_chain(pruned, golden, w, require_complete=False)
        sums = chain.matrix.sum(axis=1)
        assert sums[pruned.state_index("101")] < 1.0 - 1e-9
        assert chain.stationary is None


class TestSnakeDistribution:
    def test_after_ones_uniform_quarters(self, after_ones):
        dist = ss.snake_distribution(after_ones.underlying_automaton(), 1)
        assert np.allclose(dist.values, 0.25, atol=1e-12)

    def test_single_state_n2(self):
        one = ss.Automaton(["0", "1"], ["s"], "s", [("s", "0", "s"), ("s", "1", "s")])
        dist = ss.snake_distribution(one, 2)
        assert len(dist.snake.states) == 4
        assert np.allclose(dist.values, 0.25, atol=1e-12)

    def test_even_positions_golden_closed_form(self, even_positions, golden, golden_witness):
        auto = even_positions.underlying_automaton()
        chain = ss.compatible_chain(auto, golden, golden_witness)
        dist = ss.snake_distribution(auto, 1, mu=golden, witness=golden_witness)
        assert dist.check_residual <= 1e-9
        for (p, w) in dist.snake.states:
            expected = chain.stationary_of(p) * ss.conditional_word_measure(
                golden, golden_witness.last_read[p], w
            )
            assert dist.value_of((p, w)) == pytest.approx(expected, abs=1e-15)

    def test_closed_form_matches_eigensolve_all_fixtures(self, golden, golden_witness):
        machines = [
            (fx.after_ones_selector().underlying_automaton(), None, None),
            (fx.nonoblivious_selector().underlying_automaton(), None, None),
            (fx.even_positions_selector().underlying_automaton(), golden, golden_witness),
        ]
        for machine, mu, witness in machines:
            for n in (1, 2, 3):
                dist = ss.snake_distribution(machine, n, mu=mu, witness=witness)
                assert dist.check_residual <= 1e-9

    def test_projection_to_base_stationary(self, even_positions, golden, golden_witness):
        auto = even_positions.underlying_automaton()
        chain = ss.compatible_chain(auto, golden, golden_witness)
        for n in (1, 2, 3):
            dist = ss.snake_distribution(auto, n, mu=golden, witness=golden_witness)
            for p in auto.states:
                mass = sum(
                    dist.value_of(state)
                    for state in dist.snake.states
                    if state[0] == p
                )
                assert mass == pytest.approx(chain.stationary_of(p), abs=1e-12)
        uniform_auto = fx.after_ones_selector().underlying_automaton()
        base = ss.uniform_chain(uniform_auto)
        for n in (1, 2, 3):
            dist = ss.snake_distribution(uniform_auto, n)
            for p in uniform_auto.states:
                mass = sum(
                    dist.value_of(state)
                    for state in dist.snake.states
                    if state[0] == p
                )
                assert mass == pytest.approx(base.stationary_of(p), abs=1e-12)

    def test_markov_mode_argument_errors_are_typed(self, even_positions, golden, golden_witness):
        auto = even_positions.underlying_automaton()
        with pytest.raises(ss.ValidationError, match="needs a compatibility witness"):
            ss.snake_distribution(auto, 1, mu=golden)
        plain = ss.CompatibilityWitness(last_read=golden_witness.last_read)
        with pytest.raises(ss.ValidationError, match="no last-selected labeling"):
            ss.snake_distribution(auto, 1, mu=golden, witness=plain, labeling="last_selected")
        with pytest.raises(ss.ValidationError, match="unknown labeling"):
            ss.snake_distribution(auto, 1, mu=golden, witness=golden_witness, labeling="first")

    def test_last_selected_variant_differs_on_mixed_states(
        self, even_positions, golden, golden_witness
    ):
        auto = even_positions.underlying_automaton()
        via_read = ss.snake_distribution(auto, 1, mu=golden, witness=golden_witness)
        via_selected = ss.snake_distribution(
            auto, 1, mu=golden, witness=golden_witness, labeling="last_selected"
        )
        # they agree exactly on states whose two labels coincide
        for state in via_read.snake.states:
            p = state[0]
            if golden_witness.last_read[p] == golden_witness.last_selected[p]:
                assert via_read.value_of(state) == via_selected.value_of(state)
        assert not np.allclose(via_read.values, via_selected.values)


class TestLiftedRunMeasure:
    def test_empty_word_is_stationary_mass(self, even_positions, golden, golden_witness):
        chain = ss.compatible_chain(even_positions, golden, golden_witness)
        for p in even_positions.states:
            assert ss.lifted_run_measure(chain, golden, golden_witness, p, "") == (
                chain.stationary_of(p)
            )

    def test_forced_step_after_one(self, even_positions, golden, golden_witness):
        chain = ss.compatible_chain(even_positions, golden, golden_witness)
        # from a state whose last read is 1, reading 0 is sure
        assert ss.lifted_run_measure(chain, golden, golden_witness, "110", "0") == (
            pytest.approx(chain.stationary_of("110"), abs=1e-15)
        )

    def test_unrealizable_run(self, even_positions, golden, golden_witness):
        chain = ss.compatible_chain(even_positions, golden, golden_witness)
        with pytest.raises(ss.UnrealizableRun):
            ss.lifted_run_measure(chain, golden, golden_witness, "110", "1")

    def test_total_mass_over_words(self, even_positions, golden, golden_witness):
        chain = ss.compatible_chain(even_positions, golden, golden_witness)
        for k in range(1, 7):
            for p in ("000", "101"):
                total = 0.0
                for u in itertools.product("01", repeat=k):
                    try:
                        total += ss.lifted_run_measure(chain, golden, golden_witness, p, u)
                    except ss.UnrealizableRun:
                        pass
                assert total == pytest.approx(chain.stationary_of(p), abs=1e-12)


class TestEmpiricalFrequencies:
    def test_self_loop_full_frequency(self):
        one = ss.Automaton(["0", "1"], ["s"], "s", [("s", "0", "s"), ("s", "1", "s")])
        report = ss.empirical_state_frequencies(one, "0101010")
        assert report.counts == {"s": 7}
        assert report.max_deviation == 0.0

    def test_counts_sum_to_n(self, after_ones):
        auto = after_ones.underlying_automaton()
        x = ss.sample_markov(fx.uniform_binary_measure(), 3, 5000)
        report = ss.empirical_state_frequencies(auto, x)
        assert sum(report.counts.values()) == 5000

    def test_after_ones_statistics(self, after_ones):
        auto = after_ones.underlying_automaton()
        x = ss.sample_markov(fx.uniform_binary_measure(), 11, 10**6)
        report = ss.empirical_state_frequencies(auto, x)
        assert report.max_deviation < 0.01
        assert abs(report.ratio_of("q0") - 0.5) < 0.01
        assert abs(report.ratio_of("q1") - 0.5) < 0.01

    def test_short_input_is_typed(self, after_ones):
        with pytest.raises(ss.ValidationError, match="input has only 3 symbols, need 5"):
            ss.empirical_state_frequencies(after_ones.underlying_automaton(), "010", n=5)

    def test_undefined_transition(self, even_positions, golden, golden_witness):
        chain = ss.compatible_chain(even_positions, golden, golden_witness)
        with pytest.raises(ss.UndefinedTransition):
            ss.empirical_state_frequencies(even_positions, "0011", chain=chain)
