import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx

from conftest import random_selector


class TestInferIota:
    def test_even_positions_labels_are_last_read(self, even_positions, golden):
        labels = ss.infer_iota(even_positions)
        assert labels == {q: q[1] for q in even_positions.states}

    def test_clash_on_two_incoming_symbols(self, binary):
        machine = ss.Automaton(
            binary, ["p", "q"], "p", [("p", "0", "q"), ("p", "1", "q"), ("q", "0", "p")]
        )
        with pytest.raises(ss.NotCompatible) as err:
            ss.infer_iota(machine)
        kinds = {v.kind for v in err.value.violations}
        assert kinds == {"IotaClash"}

    def test_self_loop_infers_itself(self):
        loop = ss.Automaton(["0"], ["s"], "s", [("s", "0", "s")])
        assert ss.infer_iota(loop) == {"s": "0"}

    def test_missing_declaration(self, binary):
        machine = ss.Automaton(binary, ["p", "q"], "p", [("p", "0", "q"), ("q", "0", "q")])
        with pytest.raises(ss.NotCompatible) as err:
            ss.infer_iota(machine, declared={})
        assert {v.kind for v in err.value.violations} == {"MissingDeclaration"}
        assert ss.infer_iota(machine, declared={"p": "1"}) == {"p": "1", "q": "0"}

    def test_declarations_ignored_when_incoming_exists(self, even_positions_full, golden):
        # inference never consults declarations for states with incoming edges
        labels = ss.infer_iota(even_positions_full, declared={"011": "0", "000": "0"})
        assert labels["011"] == "1"


class TestAutomatonCompatibility:
    def test_solid_machine_has_witness(self, even_positions, golden):
        result = ss.check_automaton_compatibility(
            even_positions.underlying_automaton(), golden
        )
        assert result.ok
        assert result.witness.last_read == {q: q[1] for q in even_positions.states}
        assert result.witness.last_selected is None

    def test_forbidden_reads_reported_per_edge(self, even_positions_full, golden):
        result = ss.check_automaton_compatibility(
            even_positions_full.underlying_automaton(), golden
        )
        assert not result.ok
        forbidden = [v for v in result.violations if v.kind == "ForbiddenStep"]
        locations = {v.location for v in forbidden}
        assert locations == {
            ("010", "1", "110"),
            ("011", "1", "111"),
            ("110", "1", "010"),
            ("111", "1", "011"),
        }

    def test_uniform_measure_accepts_any_consistent_machine(self, uniform2):
        rng = random.Random(2)
        for _ in range(50):
            selector = random_selector(rng)
            machine = selector.underlying_automaton()
            result = ss.check_automaton_compatibility(
                machine,
                uniform2,
                declared={q: "0" for q in machine.states},
            )
            # iota clashes can still occur; forbidden steps cannot
            assert all(v.kind != "ForbiddenStep" for v in result.violations)


class TestSelectorCompatibility:
    def test_even_positions_witness(self, even_positions, golden):
        result = ss.check_selector_compatibility(even_positions, golden)
        assert result.ok
        assert result.witness.last_read == {q: q[1] for q in even_positions.states}
        assert result.witness.last_selected == {q: q[2] for q in even_positions.states}
        assert result.witness.unconstrained == ()

    def test_after_ones_rejected_by_golden(self, after_ones, golden):
        result = ss.check_selector_compatibility(after_ones, golden)
        assert not result.ok
        forbidden = [v for v in result.violations if v.kind == "ForbiddenStep"]
        assert forbidden and forbidden[0].location == ("q1", "1", "q1")
        assert "P[1,1] = 0" in forbidden[0].detail

    def test_uniform_accepts_consistent_selector(self, even_positions_full, uniform2):
        # no step is forbidden under the uniform measure, so a selector with
        # consistent labelings gets its witness
        result = ss.check_selector_compatibility(even_positions_full, uniform2)
        assert result.ok
        assert result.witness.last_read == {q: q[1] for q in even_positions_full.states}
        assert result.witness.last_selected == {
            q: q[2] for q in even_positions_full.states
        }

    def test_after_ones_inconsistent_even_over_uniform(self, after_ones, uniform2):
        # the drop edge q0 -1-> q1 carries eta(q0) into q1 while the keep
        # edges anchor eta(q1) = 1 and eta(q0) = 0: no labeling exists
        result = ss.check_selector_compatibility(after_ones, uniform2)
        assert not result.ok
        assert all(v.kind != "ForbiddenStep" for v in result.violations)
        assert any(v.kind == "EtaClash" for v in result.violations)

    def test_unconstrained_eta_defaults_to_iota(self, binary, uniform2):
        # no KEEP edge anywhere: the drop-connected class is unanchored and
        # defaults to the last-read label of its first member
        machine = ss.Selector(
            binary,
            ["a", "b"],
            "a",
            [("a", "0", "drop", "b"), ("b", "0", "drop", "b")],
        )
        machine.declare_labels(last_read={"a": "0"})
        result = ss.check_selector_compatibility(machine, uniform2)
        assert result.ok
        assert set(result.witness.unconstrained) == {"a", "b"}
        assert result.witness.last_selected == {"a": "0", "b": "0"}
        assert result.notes

    def test_unconstrained_class_with_mixed_iota(self, binary, uniform2):
        # drop edges join states whose last-read labels differ; the class
        # still gets one constant default (first member in state order)
        machine = ss.Selector(
            binary,
            ["a", "b"],
            "a",
            [("a", "1", "drop", "b"), ("b", "0", "drop", "a")],
        )
        result = ss.check_selector_compatibility(machine, uniform2)
        assert result.ok
        assert result.witness.last_read == {"a": "0", "b": "1"}
        assert result.witness.last_selected == {"a": "0", "b": "0"}
        assert set(result.witness.unconstrained) == {"a", "b"}

    def test_declared_eta_anchors_unconstrained_class(self, binary, uniform2):
        machine = ss.Selector(
            binary,
            ["a", "b"],
            "a",
            [("a", "0", "drop", "b"), ("b", "0", "drop", "b")],
        )
        machine.declare_labels(last_read={"a": "0"}, last_selected={"b": "1"})
        result = ss.check_selector_compatibility(machine, uniform2)
        assert result.ok
        assert result.witness.last_selected == {"a": "1", "b": "1"}
        assert result.witness.unconstrained == ()

    def test_keep_mismatch_reported(self, after_ones, golden):
        # when the anchors clash, the recheck also pins the keep transitions
        # whose source cannot have matching labels
        result = ss.check_selector_compatibility(after_ones, golden)
        kinds = {v.kind for v in result.violations}
        assert "KeepMismatch" in kinds and "EtaClash" in kinds

    def test_witness_soundness_recheck(self, even_positions, golden, golden_witness):
        # re-verify the returned witness against the raw definition
        w = golden_witness
        for p, a, act, q in even_positions.transitions():
            assert golden.P[w.last_read[p], a] > 0.0
            assert w.last_read[q] == a
            if act == ss.KEEP:
                assert w.last_selected[q] == a == w.last_read[q]
                assert w.last_selected[p] == w.last_read[p]
            else:
                assert w.last_selected[q] == w.last_selected[p]


class TestShiftComplete:
    def test_solid_even_positions_complete(self, even_positions, golden, golden_witness):
        ok, missing = ss.is_shift_complete(even_positions, golden, golden_witness)
        assert ok and missing == []

    def test_complete_machine_over_uniform(self, even_positions_full, uniform2):
        witness = ss.check_selector_compatibility(even_positions_full, uniform2).witness
        ok, missing = ss.is_shift_complete(even_positions_full, uniform2, witness)
        assert ok

    def test_solid_machine_incomplete_over_uniform(self, even_positions, uniform2):
        # under the uniform measure every continuation has positive weight,
        # so the missing 1-after-1 reads are reported
        witness = ss.check_selector_compatibility(even_positions, uniform2).witness
        ok, missing = ss.is_shift_complete(even_positions, uniform2, witness)
        assert not ok
        assert set(missing) == {("010", "1"), ("011", "1"), ("110", "1"), ("111", "1")}

    def test_missing_pair_listed(self, golden, binary):
        # drop one required transition from the solid machine
        s = fx.even_positions_selector()
        pruned = ss.Selector(
            binary,
            s.states,
            s.initial,
            [t for t in s.transitions() if t[:2] != ("101", "1")],
        )
        pruned.declare_labels(last_read=s.declared_last_read)
        result = ss.check_selector_compatibility(pruned, golden)
        assert result.ok
        ok, missing = ss.is_shift_complete(pruned, golden, result.witness)
        assert not ok and missing == [("101", "1")]


class TestPathSupport:
    def test_readable_paths_lie_in_support(self, even_positions, golden, golden_witness):
        # every realizable run from a positively-weighted start reads a word
        # of positive conditional measure (exhaustive to length 8)
        for p in even_positions.states:
            a0 = golden_witness.last_read[p]
            if golden.pi[a0] <= 0:
                continue
            for enum_len in (4, 8):
                for u, _v, _end in ss.enumerate_runs(even_positions, p, enum_len).runs:
                    assert ss.conditional_word_measure(golden, a0, u) > 0.0

    def test_output_stays_in_shift(self, even_positions, golden):
        # outputs of realizable runs never contain a forbidden block
        for p in even_positions.states:
            for u, v, _end in ss.enumerate_runs(even_positions, p, 10).runs:
                assert all((v[i], v[i + 1]) != ("1", "1") for i in range(len(v) - 1))


def _binary_measure_with_zeros(rng: random.Random, zero_diagonal) -> ss.MarkovMeasure:
    """A binary Markov measure whose listed diagonal entries are 0.0; the
    off-diagonal entries stay positive, so the pattern is irreducible."""
    rows = []
    for i in range(2):
        stay = 0.0 if i in zero_diagonal else rng.uniform(0.05, 0.95)
        rows.append([stay, 1.0 - stay] if i == 0 else [1.0 - stay, stay])
    P = ss.StochasticMatrix(ss.Alphabet(["0", "1"]), rows)
    return ss.MarkovMeasure(ss.stationary_distribution(P), P)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    zero_diagonal=st.sampled_from([(), (0,), (1,), (0, 1)]),
    declare=st.booleans(),
)
def test_automaton_check_is_the_selector_check_without_eta(seed, zero_diagonal, declare):
    """Both public checks run one checker: on a selector's automaton it
    reports, in order, exactly the last-read and ForbiddenStep violations
    of the selector check, adds nothing of its own, and agrees on the
    last-read labels whenever both pass."""
    rng = random.Random(seed)
    selector = random_selector(rng, max_states=5, partial=True)
    if declare:
        selector.declare_labels(
            last_read={q: rng.choice("01") for q in selector.states if rng.random() < 0.5},
            last_selected={q: rng.choice("01") for q in selector.states if rng.random() < 0.3},
        )
    mu = _binary_measure_with_zeros(rng, zero_diagonal)
    automaton = ss.check_automaton_compatibility(selector.underlying_automaton(), mu)
    full = ss.check_selector_compatibility(selector, mu)
    shared = ("IotaClash", "MissingDeclaration", "ForbiddenStep")
    assert list(automaton.violations) == [v for v in full.violations if v.kind in shared]
    assert automaton.notes == ()
    if automaton.ok:
        assert automaton.witness.last_selected is None
        assert automaton.witness.unconstrained == ()
        if full.ok:
            assert automaton.witness.last_read == full.witness.last_read
    else:
        assert not full.ok
