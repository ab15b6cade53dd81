import random

import pytest

import sftselect as ss

from conftest import random_complete_dfa, txt


class TestEnumerateRuns:
    def test_after_ones_two_steps(self, after_ones):
        enum = ss.enumerate_runs(after_ones, "q0", 2)
        assert [(txt(u), txt(v)) for u, v, _end in enum.runs] == [
            ("00", ""),
            ("01", ""),
            ("10", "0"),
            ("11", "1"),
        ]

    def test_zero_length(self, after_ones):
        enum = ss.enumerate_runs(after_ones, "q1", 0)
        assert enum.runs == (((), (), "q1"),)

    def test_even_positions_partial(self, even_positions):
        enum = ss.enumerate_runs(even_positions, "000", 1)
        assert enum.count == 2
        assert [txt(u) for u, _v, _e in enum.runs] == ["0", "1"]

    def test_count_matches_completeness(self, after_ones, even_positions):
        for n in range(0, 8):
            assert ss.enumerate_runs(after_ones, "q0", n).count == 2**n
            assert ss.enumerate_runs(even_positions, "000", n).count <= 2**n

    def test_lexicographic_and_distinct(self, even_positions):
        enum = ss.enumerate_runs(even_positions, "101", 6)
        inputs = [u for u, _v, _e in enum.runs]
        assert inputs == sorted(set(inputs))

    def test_cap(self, after_ones):
        with pytest.raises(ss.CapExceeded):
            ss.enumerate_runs(after_ones, "q0", 21)
        ss.enumerate_runs(after_ones, "q0", 5, cap=32)
        with pytest.raises(ss.CapExceeded):
            ss.enumerate_runs(after_ones, "q0", 6, cap=32)

    def test_enumeration_allows_mixed_actions(self, nonoblivious):
        # only the counting bounds assume obliviousness
        enum = ss.enumerate_runs(nonoblivious, "q0", 4)
        assert enum.count == 16
        assert ("".join(u) for u, _v, _e in enum.runs)  # runs materialized


class TestCountOutputPrefixRuns:
    def test_after_ones_example(self, after_ones):
        count, result = ss.count_output_prefix_runs(after_ones, "q0", 2, "1")
        assert count == 1
        assert result.passed and result.upper == 2

    def test_empty_prefix_counts_everything(self, after_ones):
        for n in range(0, 6):
            count, result = ss.count_output_prefix_runs(after_ones, "q0", n, "")
            assert count == 2**n == result.upper
            assert result.passed and not result.strict

    def test_all_drop_counts_nothing(self, binary):
        drop = ss.Selector(
            binary, ["s"], "s", [("s", "0", "drop", "s"), ("s", "1", "drop", "s")]
        )
        for n in (1, 2, 5):
            count, result = ss.count_output_prefix_runs(drop, "s", n, "0" * n)
            assert count == 0 and result.passed

    def test_requires_oblivious(self, nonoblivious):
        with pytest.raises(ss.NotOblivious):
            ss.count_output_prefix_runs(nonoblivious, "q0", 3, "0")

    def test_word_longer_than_run_is_typed(self, after_ones):
        with pytest.raises(ss.ValidationError, match="exceeds run length 2"):
            ss.count_output_prefix_runs(after_ones, "q0", 2, "101")

    def test_mixed_machine_checked_per_agreeing_state(self, nonoblivious):
        # the bound assumes obliviousness; on a mixed machine it is probed
        # only from states whose own outgoing actions agree, others skipped
        agreeing = [
            q
            for q in nonoblivious.states
            if len({a for p, _s, a, _t in nonoblivious.transitions() if p == q}) == 1
        ]
        assert agreeing == ["q0"]
        for p in agreeing:
            for n in range(0, 13):
                for wl in range(0, min(n, 6) + 1):
                    for w in nonoblivious.alphabet.words(wl):
                        _c, result = ss.count_output_prefix_runs(
                            nonoblivious, p, n, w, require_oblivious=False
                        )
                        assert result.passed

    def test_matches_direct_enumeration(self, after_ones, even_positions):
        for selector in (after_ones, even_positions):
            start = selector.states[0] if selector is after_ones else "000"
            for n in (0, 1, 3, 5):
                enum = ss.enumerate_runs(selector, start, n)
                for wl in range(0, min(n, 3) + 1):
                    for w in selector.alphabet.words(wl):
                        expected = sum(1 for _u, v, _e in enum.runs if v[:wl] == w)
                        count, _res = ss.count_output_prefix_runs(selector, start, n, w)
                        assert count == expected

    def test_disjoint_prefix_partition(self, after_ones):
        # counts over all words of one length plus short-output runs tile the
        # whole enumeration exactly
        for p in after_ones.states:
            for n in (2, 4, 6):
                enum = ss.enumerate_runs(after_ones, p, n)
                for k in range(1, min(n, 4) + 1):
                    total = sum(
                        ss.count_output_prefix_runs(after_ones, p, n, w)[0]
                        for w in after_ones.alphabet.words(k)
                    )
                    short = sum(1 for _u, v, _e in enum.runs if len(v) < k)
                    assert total + short == enum.count


class TestMeasureOutputPrefixRuns:
    def test_base_case_equality(self, even_positions, golden, golden_witness):
        value, result = ss.measure_output_prefix_runs(
            even_positions, golden, golden_witness, "000", 0, ""
        )
        assert value == 1.0 and result.upper == 1.0
        assert result.passed and not result.strict

    def test_bounded_by_first_symbol_measure(self, even_positions, golden, golden_witness):
        value, result = ss.measure_output_prefix_runs(
            even_positions, golden, golden_witness, "000", 4, "0"
        )
        assert result.upper == ss.conditional_word_measure(golden, "0", "0")
        assert value <= result.upper + 1e-12
        assert result.passed

    def test_word_longer_than_run_is_typed(self, even_positions, golden, golden_witness):
        with pytest.raises(ss.ValidationError, match="exceeds run length 1"):
            ss.measure_output_prefix_runs(even_positions, golden, golden_witness, "000", 1, "00")

    def test_all_drop_zero_measure(self, golden, binary):
        clean = ss.Selector(binary, ["a"], "a", [("a", "0", "drop", "a")])
        clean.declare_labels(last_read={"a": "0"})
        witness = ss.check_selector_compatibility(clean, golden).witness
        value, res = ss.measure_output_prefix_runs(clean, golden, witness, "a", 3, "000")
        assert value == 0.0 and res.passed

    def test_matches_direct_weighted_enumeration(
        self, even_positions, golden, golden_witness
    ):
        for p in ("000", "111"):
            for n in (2, 5):
                enum = ss.enumerate_runs(even_positions, p, n)
                for wl in (0, 1, 2):
                    for w in golden.alphabet.words(wl):
                        expected = sum(
                            ss.conditional_word_measure(
                                golden, golden_witness.last_read[p], u
                            )
                            for u, v, _e in enum.runs
                            if v[:wl] == w
                        )
                        value, _res = ss.measure_output_prefix_runs(
                            even_positions, golden, golden_witness, p, n, w
                        )
                        assert value == pytest.approx(expected, abs=1e-15)


class TestEquirunScan:
    def test_after_ones_k1_passes_at_two(self, after_ones):
        scan = ss.equirun_scan(after_ones, 1, 0.5, 20)
        assert scan.witness_n == 2
        by_state = {
            (r.state, txt(r.word)): r for r in scan.results
        }
        assert by_state[("q0", "0")].value == 1
        assert by_state[("q0", "1")].value == 1

    def test_all_keep_passes_at_k(self, binary):
        keep = ss.Selector(
            binary, ["s"], "s", [("s", "0", "keep", "s"), ("s", "1", "keep", "s")]
        )
        for k in (1, 2, 3):
            scan = ss.equirun_scan(keep, k, 0.25, 10)
            assert scan.witness_n == k
            assert all(r.value == r.upper for r in scan.results)

    def test_after_ones_k2(self, after_ones):
        scan = ss.equirun_scan(after_ones, 2, 0.1, 20)
        assert scan.passed and scan.witness_n <= 20

    def test_requires_strong_connectivity(self, binary):
        dangling = ss.Selector(
            binary,
            ["a", "b"],
            "a",
            [
                ("a", "0", "keep", "b"),
                ("a", "1", "keep", "b"),
                ("b", "0", "keep", "b"),
                ("b", "1", "keep", "b"),
            ],
        )
        with pytest.raises(ss.NotStronglyConnected):
            ss.equirun_scan(dangling, 1, 0.5, 5)

    def test_markov_mode_on_golden_fixture(self, even_positions, golden, golden_witness):
        # strongly connected part only: restrict to the recurrent component
        solid = even_positions
        # the solid machine is not strongly connected (010 is transient), so
        # build the scan on the machine without 010
        states = [q for q in solid.states if q != "010"]
        trimmed = ss.Selector(
            solid.alphabet,
            states,
            solid.initial,
            [t for t in solid.transitions() if t[0] != "010"],
        )
        trimmed.declare_labels(last_read={"000": "0"})
        result = ss.check_selector_compatibility(trimmed, golden)
        assert result.ok
        scan = ss.equirun_scan(
            trimmed, 1, 0.5, 16, mu=golden, witness=result.witness
        )
        assert scan.passed
        for r in scan.results:
            assert r.value <= r.upper + 1e-12


class TestBruteForceSelection:
    def test_documented_example(self):
        dfa = ss.Automaton(
            ["0", "1"],
            ["q0", "q1"],
            "q0",
            [("q0", "0", "q0"), ("q0", "1", "q1"), ("q1", "0", "q0"), ("q1", "1", "q1")],
        )
        assert txt(ss.brute_force_prefix_selection("01101", dfa, {"q1"})) == "10"

    def test_all_words_selected(self):
        dfa = ss.Automaton(["0", "1"], ["s"], "s", [("s", "0", "s"), ("s", "1", "s")])
        word = "0110100"
        assert txt(ss.brute_force_prefix_selection(word, dfa, {"s"})) == word
        assert txt(ss.brute_force_prefix_selection(word, dfa, set())) == ""

    def test_oracle_equivalence_random(self):
        rng = random.Random(20240811)
        mismatches = 0
        for _ in range(1000):
            dfa, accepting = random_complete_dfa(rng)
            word = "".join(rng.choice("01") for _ in range(rng.randint(0, 16)))
            selector = ss.dfa_to_selector(dfa, accepting)
            via_selector = ss.run_word(selector, selector.initial, word).output
            via_definition = ss.brute_force_prefix_selection(word, dfa, accepting)
            if via_selector != via_definition:
                mismatches += 1
        assert mismatches == 0
