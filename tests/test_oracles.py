import inspect
import random
import sys
import time
import tracemalloc
from itertools import islice

import pytest

import sftselect as ss
from sftselect import fixtures as fx
from sftselect import machines, oracles
from sftselect.cli import main

from conftest import random_complete_dfa, txt
from test_prefix_tables import assert_same_scan, reference_equirun


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

    def test_negative_length_is_typed(self, after_ones):
        with pytest.raises(ss.ValidationError, match="run length -1 is negative"):
            ss.enumerate_runs(after_ones, "q0", -1)

    def test_even_positions_partial(self, even_positions):
        enum = ss.enumerate_runs(even_positions, "000", 1)
        assert enum.count == 2
        assert [txt(u) for u, _v, _e in enum.runs] == ["0", "1"]

    def test_count_matches_completeness(self, after_ones, even_positions):
        automaton = even_positions.underlying_automaton()
        for n in range(0, 8):
            assert ss.enumerate_runs(after_ones, "q0", n).count == 2**n
            assert ss.enumerate_runs(even_positions, "000", n).count <= 2**n
            # an automaton has the selector's runs, each with an empty output
            runs = ss.enumerate_runs(even_positions, "000", n).runs
            bare = tuple((u, (), end) for u, _v, end in runs)
            assert ss.enumerate_runs(automaton, "000", n).runs == bare

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

    @pytest.mark.parametrize("size, n", [(2, 15000), (3, 3 * 10**7)])
    def test_far_past_the_cap_names_the_power(self, size, n):
        """#A**n past max(cap.bit_length(), 64) is named, never built: 2**15000
        has more digits than int-to-str allows, 3**(3 * 10**7) takes seconds."""
        start = time.perf_counter()
        with pytest.raises(ss.CapExceeded) as err:
            ss.enumerate_runs(_alternating(size, 1), "s0", n)
        assert time.perf_counter() - start < 1.0
        assert err.value.requested == f"{size}**{n}"
        assert str(err.value) == f"enumeration of {size}**{n} runs exceeds the cap of {1 << 20}"

    @pytest.mark.parametrize(
        "n, cap, requested",
        [(64, 1, 2**64), (65, 1, "2**65"), (101, 2**100, 2**101), (102, 2**100, "2**102")],
    )
    def test_cap_names_the_power_past_its_bit_length_and_64(self, n, cap, requested):
        with pytest.raises(ss.CapExceeded) as err:
            ss.enumerate_runs(_alternating(2, 1), "s0", n, cap=cap)
        assert err.value.requested == requested
        with pytest.raises(ss.CapExceeded, match=r"enumeration of 1 runs exceeds the cap of 0"):
            ss.enumerate_runs(_alternating(1, 1), "s0", n, cap=0)

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_count_band_past_the_float_range_is_refused(self, after_ones, k):
        """The first n whose #A**(n - k) no float holds is refused with a
        ValidationError naming it; a scan that stops short of it, or finds
        its witness before it, returns as before."""
        n = 1024 + k  # 2**1024 is the least power of 2 past the float range
        with pytest.raises(ss.ValidationError) as err:
            ss.equirun_scan(after_ones, k, 0.0, n + 50)
        assert str(err.value) == (
            f"equirun band at n = {n} cannot be a float: #A**(n - k) = 2**1024"
        )
        scan = ss.equirun_scan(after_ones, k, 0.0, n - 1)
        assert scan.witness_n is None
        assert {r.lower for r in scan.results} == {float(2 ** (n - 1 - k))}
        found = ss.equirun_scan(after_ones, k, 0.5, n + 50)
        assert found.witness_n is not None and found.witness_n < n
        assert found.results == ss.equirun_scan(after_ones, k, 0.5, found.witness_n).results

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

    def test_markov_mode_on_golden_fixture(self, even_positions_sc, golden):
        # even_positions is not strongly connected (010 is transient), so
        # scan the machine without 010
        trimmed = even_positions_sc
        result = ss.check_selector_compatibility(trimmed, golden)
        assert result.ok
        scan = ss.equirun_scan(
            trimmed, 1, 0.5, 16, mu=golden, witness=result.witness
        )
        assert scan.passed
        for r in scan.results:
            assert r.value <= r.upper + 1e-12
        for witness in (None, ss.CompatibilityWitness(result.witness.last_read, None)):
            with pytest.raises(ss.NotCompatible, match="witness lacks the last-selected labeling"):
                ss.equirun_scan(trimmed, 1, 0.5, 16, mu=golden, witness=witness)
        # the rows of one walk per n over all states are those of walking
        # every (state, n) on its own, up to the witness at n = 13
        scan = ss.equirun_scan(trimmed, 2, 0.5, 13, mu=golden, witness=result.witness)
        assert scan.witness_n == 13
        assert_same_scan(scan, reference_equirun(trimmed, 2, 0.5, 13, golden, result.witness))


def _alternating(size: int, states: int = 2) -> ss.Selector:
    """An oblivious selector over ``size`` letters whose states alternate,
    keeping in state 0 and dropping in the others."""
    symbols = [str(a) for a in range(size)]
    moves = [
        (f"s{q}", a, "keep" if q == 0 else "drop", f"s{(q + 1) % states}")
        for q in range(states)
        for a in symbols
    ]
    return ss.Selector(symbols, [f"s{q}" for q in range(states)], "s0", moves)


class TestBudget:
    """Exact checks too large for the count budget are refused before
    anything is built; what the budget counts is what the check holds."""

    @pytest.mark.parametrize("size, states", [(1, 1), (1, 3), (2, 2), (3, 2)])
    def test_counted_results_are_the_results(self, monkeypatch, size, states):
        seen, signature = [], inspect.signature(oracles._check_size)
        monkeypatch.setattr(
            oracles, "_check_size", lambda *args, **kw: seen.append(signature.bind(*args, **kw).arguments)
        )
        selector = _alternating(size, states)
        for n_max, w_max in ((0, 0), (3, 1), (4, 4), (5, 2), (2, 6), (6, 0)):
            # lemma results are made one at a time, so none is counted
            results = ss.lemma_check(selector, n_max, w_max)
            call = seen.pop()
            length, words = call["length"], call["words"]
            assert length == min(n_max, w_max)
            assert words == sum(size**m for m in range(length + 1))
            made = states * sum(size**m for n in range(n_max + 1) for m in range(min(n, w_max) + 1))
            # every layer of the count pass is held: a cell per check, and
            # three a layer for its arrays
            assert call["cells"] == made + 3 * (n_max + 1)
            assert sum(1 for _ in results) == made
        for k, n_max in ((1, 3), (3, 4)):
            scan = ss.equirun_scan(selector, k, 1.0, n_max)
            call = seen.pop()
            assert (call["words"], call["results"]) == (size**k, len(scan.results))

    @pytest.mark.parametrize(
        "check",
        [
            lambda sel: list(ss.lemma_check(sel, 40, 40)),
            lambda sel: list(ss.lemma_check(sel, 10**9, 10**9)),
            lambda sel: list(ss.lemma_check(_alternating(1), 10**9, 10**9)),
            lambda sel: ss.equirun_scan(sel, 40, 0.1, 40),
            lambda sel: ss.equirun_scan(sel, 10**9, 0.1, 10**9),
        ],
    )
    def test_oversized_checks_are_refused_at_once(self, after_ones, check):
        start = time.perf_counter()
        with pytest.raises(ss.ValidationError, match=r"checks would take \d+ bytes, past the budget"):
            check(after_ones)
        assert time.perf_counter() - start < 1.0

    def test_every_term_counts(self):
        """A word, a result or a measure-table cell alone can pass the budget,
        so no term may be subtracted."""
        budget = machines.COUNT_BUDGET_BYTES
        for args, kwargs in (
            ((budget // 8, 1), {}),  # one word of budget / 8 letters
            ((0, 0, 1, budget + 1), {}),  # one result
            ((0, 0), {"cells": budget // 120 + 1}),
            ((0, 0), {"digits": budget // sys.int_info.sizeof_digit + 1}),
        ):
            with pytest.raises(ss.ValidationError, match="past the budget"):
                oracles._check_size(*args, **kwargs)
        oracles._check_size(0, 1, 1, budget // 2, budget // 480, budget // 32)

    def test_equirun_counts_each_row_with_the_longest_line(self):
        """A check row is counted at 640 + n_max bytes: scanning to n_max =
        2**28, the four rows of a 2-state scan come past the budget, though
        its witness is n = 1; to 2**27 they fit."""
        selector = _alternating(2)
        assert ss.equirun_scan(selector, 1, 1.0, 2**27).witness_n == 1
        with pytest.raises(ss.ValidationError, match="past the budget"):
            ss.equirun_scan(selector, 1, 1.0, 2**28)

    def test_equirun_counts_one_layer_of_keys(self):
        """A scan holds one count layer, every state's table, not one per
        state: a 300-state scan at k = 6 is within the budget."""
        scan = ss.equirun_scan(_alternating(2, 300), 6, 1.0, 6)
        assert scan.witness_n == 6 and len(scan.results) == 300 * 2**6

    @pytest.mark.parametrize("equirun", [False, True])
    def test_counted_digits_bound_the_held_counts(self, monkeypatch, after_ones, equirun):
        """The int digits counted past each count's first bound those the
        held counts take, within a tenth: to 2**3000, every layer of a
        lemma pass, or a scan's layer at n_max and the next."""
        seen, signature = [], inspect.signature(oracles._check_size)
        monkeypatch.setattr(
            oracles, "_check_size", lambda *args, **kw: seen.append(signature.bind(*args, **kw).arguments)
        )
        n_max, digit = 3000, sys.int_info.bits_per_digit
        layers = list(islice(oracles._count_tables(after_ones, int(equirun)), n_max + 2))
        if equirun:
            ss.equirun_scan(after_ones, 1, 1.0, n_max)
            layers = layers[-2:]
        else:
            ss.lemma_check(after_ones, n_max, 0)
            layers = layers[:-1]
        held = sum(max(0, -(-c.bit_length() // digit) - 1) for layer in layers for c in layer.flat)
        assert held <= seen[0]["digits"] <= 1.1 * held

    def test_traced_peak_is_within_the_counted_bytes(self, monkeypatch, after_ones, tmp_path):
        """The CLI run stays within what is counted: lemma lines are written
        as they are made, equirun results and lines are held."""
        counted = []
        check_size = oracles._check_size

        def spy(length, words, results=0, result_bytes=0, cells=0, digits=0):
            need = words * (40 + 8 * length) + results * result_bytes + cells * 120
            counted.append(need + digits * sys.int_info.sizeof_digit)
            check_size(length, words, results, result_bytes, cells, digits)

        monkeypatch.setattr(oracles, "_check_size", spy)
        selector = str(fx.data_path("after_ones.sel"))
        for flags in (["--n-max", "12", "--w-max", "12"], ["--equirun", "10", "--n-max", "12"]):
            tracemalloc.start()
            try:
                main(["lemma-check", "--selector", selector, *flags, "--out", str(tmp_path / "out")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= counted.pop()


class TestBruteForceSelection:
    def test_documented_example(self):
        dfa = ss.Automaton(
            ["0", "1"],
            ["q0", "q1"],
            "q0",
            [("q0", "0", "q0"), ("q0", "1", "q1"), ("q1", "0", "q0"), ("q1", "1", "q1")],
        )
        assert txt(ss.brute_force_prefix_selection("01101", dfa, {"q1"})) == "10"
        # without q1 -1-> q1 the prefix 011 falls off, so its next symbol is dropped
        partial = ss.Automaton(
            ["0", "1"], ["q0", "q1"], "q0", [("q0", "0", "q0"), ("q0", "1", "q1"), ("q1", "0", "q0")]
        )
        assert txt(ss.brute_force_prefix_selection("0110", partial, {"q1"})) == "1"

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


def test_strict_keeps_its_per_kind_meaning(even_positions, golden, golden_witness):
    """One result builder serves all four checks: a measure within ``tol``
    below its bound passes both; it is strict for the equirun band
    (``value < upper``) but not for the upper check (``value < upper -
    tol``).  Counts ignore ``tol``."""
    from sftselect.oracles import _bound, _result

    p, w, tol = "100", ("0", "1"), 1e-9
    upper = ss.conditional_word_measure(golden, golden_witness.last_selected[p], w)
    value = upper - tol / 2
    one_sided = _result(even_positions, _bound(golden), golden_witness, p, 4, w, value, tol)
    band = _result(even_positions, _bound(golden), golden_witness, p, 4, w, value, tol, 0.1)
    assert (one_sided.lemma, one_sided.passed, one_sided.strict) == ("measure-upper", True, False)
    assert (band.lemma, band.passed, band.strict) == ("equirun-measure", True, True)
    assert band.lower == (1.0 - 0.1) * upper
    count = _result(even_positions, None, None, p, 4, w, 3, 5)
    assert (count.lemma, count.upper, count.passed, count.strict) == ("count-upper", 4, True, True)
    over = _result(even_positions, None, None, p, 4, w, 5, 5, 0.5)
    assert (over.lemma, over.lower, over.passed, over.strict) == ("equirun-count", 2.0, False, False)
    # at its bound a value passes and is not strict, counts and measures alike
    at = _result(even_positions, None, None, p, 4, w, 4, 0, 0.5)
    assert (at.lemma, at.upper, at.passed, at.strict) == ("equirun-count", 4, True, False)
    at = _result(even_positions, _bound(golden), golden_witness, p, 4, w, upper, tol, 0.1)
    assert (at.lemma, at.passed, at.strict) == ("equirun-measure", True, False)
    at = _result(even_positions, None, None, p, 4, w, 4, 0)
    assert (at.lemma, at.passed, at.strict) == ("count-upper", True, False)
