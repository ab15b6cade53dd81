"""Differential tests of the measure walk, which pops slices of same-depth
nodes for a group of start states at once, against the per-start run
enumeration ``_walk_runs``: every table's keys, and the ``repr`` and type
of every value.  ``_SLICE`` is cut to 1-3 nodes so that slices split at
every depth, and the groups of ``lemma_check`` are cut the same way."""

import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect import machines, oracles
from sftselect.cli import _format_lemma_line, main
from sftselect.oracles import _cells, _measure_tables, _walk_runs, _words_to

from conftest import random_selector
from test_prefix_tables import random_weights, row_table


def enumerated_tables(selector, start, n, k, weights) -> dict:
    """Every output prefix w with |w| <= k of a length-n run from ``start``
    -> the weight of those runs, added up in enumeration order from 0.0."""
    table = {}
    for _u, v, _end, weight in _walk_runs(selector, start, n, weights):
        for i in range(min(len(v), k) + 1):
            table[v[:i]] = table.get(v[:i], 0.0) + weight
    return table


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    size=st.integers(1, 3),
    partial=st.booleans(),
    n_max=st.integers(0, 6),
    k=st.integers(0, 4),
    slice_size=st.integers(1, 3) | st.just(1 << 16),
    which=st.sampled_from(["all", "subset", "one"]),
)
@example(seed=0, size=1, partial=False, n_max=6, k=4, slice_size=1, which="all")
@example(seed=1, size=2, partial=True, n_max=0, k=3, slice_size=2, which="all")
@example(seed=2, size=3, partial=False, n_max=5, k=0, slice_size=3, which="subset")
def test_group_walk_equals_per_start_enumeration(seed, size, partial, n_max, k, slice_size, which):
    rng = random.Random(seed)
    selector = random_selector(rng, partial=partial, symbols=tuple("012"[:size]))
    states = list(selector.states)
    starts = {
        "all": states,
        "subset": [q for q in states if rng.random() < 0.5] or states[-1:],
        "one": [rng.choice(states)],
    }[which]
    rows, weights = random_weights(rng, selector)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_SLICE", slice_size)
        tables = _measure_tables(selector, starts, n_max, k, rows)
    assert len(tables) == len(starts)
    for start, per_n in zip(starts, tables):
        assert len(per_n) == n_max + 1
        for n, row in enumerate(per_n):
            table = row_table(row, selector.alphabet)
            expected = enumerated_tables(selector, start, n, k, weights)
            assert table.keys() == expected.keys()
            for w, value in expected.items():
                assert repr(table[w]) == repr(value)
                assert type(table[w]) is type(value)


def test_prefixes_of_weightless_runs_are_present(after_ones):
    """A prefix output only by runs that weigh 0.0 is present, as the
    enumeration's np.float64(0.0), apart from the prefixes no run outputs."""
    (cells,) = _measure_tables(after_ones, ["q0"], 3, 2, [[0.0, 0.0], [0.0, 0.0]])
    tables = [row_table(row, after_ones.alphabet) for row in cells]
    assert tables[0] == {(): 1.0} and type(tables[0][()]) is float
    for n, table in enumerate(tables[1:], 1):
        expected = enumerated_tables(after_ones, "q0", n, 2, lambda _q, _a: np.float64(0.0))
        assert table.keys() == expected.keys()
        assert all(repr(value) == "np.float64(0.0)" for value in table.values())
    # no run of length 1 from q0 keeps a symbol
    assert ("0",) not in tables[1] and ("0",) in tables[2]


def test_cells_are_the_words_held_at_each_depth():
    for size in (1, 2, 3):
        for n in range(8):
            for k in range(10):
                held = sum(_words_to(size, min(d, k)) for d in range(n + 1))
                assert _cells(size, n, k) == held


@pytest.mark.parametrize("per_group", [0, 1, 2, 3, 7])
def test_lemma_rows_do_not_depend_on_the_group(monkeypatch, per_group, even_positions, golden,
                                               golden_witness):
    """Groups of one state to all states give the same lines, in (p, n, w)
    order; a group holds as many states as ``_SLICE`` cells allow, at least one."""
    expected = [
        _format_lemma_line(r)
        for r in ss.lemma_check(even_positions, 6, 2, mu=golden, witness=golden_witness)
    ]
    walked = []
    measure_tables = oracles._measure_tables

    def spy(selector, starts, *args):
        walked.append(len(starts))
        return measure_tables(selector, starts, *args)

    monkeypatch.setattr(oracles, "_SLICE", max(1, per_group * _cells(2, 6, 2)))
    monkeypatch.setattr(oracles, "_measure_tables", spy)
    got = ss.lemma_check(even_positions, 6, 2, mu=golden, witness=golden_witness)
    assert [_format_lemma_line(r) for r in got] == expected
    group = min(8, max(1, per_group))
    assert walked == [group] * (8 // group) + [8 % group] * (8 % group > 0)


def test_the_budget_counts_one_group(monkeypatch, even_positions, golden, golden_witness):
    """The budget counts the cells of the group walked at once: all 8 states
    here, not more; one state when a state's cells pass ``_SLICE``."""
    counted = []
    monkeypatch.setattr(oracles, "_check_size", lambda *args, **kw: counted.append(kw["cells"]))
    ss.lemma_check(even_positions, 6, 2, mu=golden, witness=golden_witness)
    ss.lemma_check(even_positions, 20, 16, mu=golden, witness=golden_witness)
    ss.measure_output_prefix_runs(even_positions, golden, golden_witness, "000", 9, ("0", "1"))
    assert counted == [8 * _cells(2, 6, 2), _cells(2, 20, 16), _cells(2, 9, 2)]


def test_one_walk_per_n_over_all_states(monkeypatch):
    """In Markov mode the equirun scan walks once per n, from every state."""
    selector = ss.Selector(
        ["0", "1"], ["s0", "s1"], "s0",
        [(f"s{a}", b, "keep", f"s{b}") for a in "01" for b in "01"],
    )
    mu = fx.uniform_binary_measure()
    witness = ss.check_selector_compatibility(selector, mu).witness
    walked = []
    measure_tables = oracles._measure_tables

    def spy(selector, starts, n, *args):
        walked.append((tuple(starts), n))
        return measure_tables(selector, starts, n, *args)

    monkeypatch.setattr(oracles, "_measure_tables", spy)
    scan = ss.equirun_scan(selector, 2, 0.0, 6, mu=mu, witness=witness)
    last = 6 if scan.witness_n is None else scan.witness_n
    assert walked == [(("s0", "s1"), n) for n in range(2, last + 1)]


def test_equirun_counts_each_walk_before_it(monkeypatch, even_positions_sc, golden):
    """The scan counts the tables of each n's walk at that n, with the cap:
    under a budget the rows fit but the walk to n = 5 does not, the scan
    that finds its witness at n = 13 is refused."""
    trimmed = even_positions_sc
    witness = ss.check_selector_compatibility(trimmed, golden).witness
    assert ss.equirun_scan(trimmed, 2, 0.5, 13, mu=golden, witness=witness).witness_n == 13
    rows = 4 * (40 + 8 * 2) + 7 * 4 * (640 + 13)
    monkeypatch.setattr(machines, "COUNT_BUDGET_BYTES", rows + 7 * _cells(2, 4, 2) * 120)
    walked = []
    measure_tables = oracles._measure_tables

    def spy(selector, starts, n, *args):
        walked.append(n)
        return measure_tables(selector, starts, n, *args)

    monkeypatch.setattr(oracles, "_measure_tables", spy)
    with pytest.raises(ss.ValidationError, match="past the budget"):
        ss.equirun_scan(trimmed, 2, 0.5, 13, mu=golden, witness=witness)
    assert walked == [2, 3, 4]


AFTER_ONES = str(fx.data_path("after_ones.sel"))


class TestRunLengthsPastMaxsize:
    """No table reaches a run length of sys.maxsize or more: it is refused
    with a typed error, not a raw ValueError from ``islice``."""

    @pytest.mark.parametrize("n", [sys.maxsize, sys.maxsize + 1, 2**63, 10**23])
    def test_library_calls(self, after_ones, n):
        with pytest.raises(ss.ValidationError, match="from sys.maxsize = .* on are out of reach"):
            ss.lemma_check(after_ones, n, 0)
        with pytest.raises(ss.ValidationError, match="from sys.maxsize = .* on are out of reach"):
            ss.count_output_prefix_runs(after_ones, "q0", n, ())

    def test_cli(self, capsys):
        argv = ["lemma-check", "--selector", AFTER_ONES, "--n-max", "9" * 23, "--w-max", "2"]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: run lengths from sys.maxsize = {sys.maxsize} on are out of reach\n"
        )

    def test_one_letter_measure_walk(self):
        """A one-letter alphabet passes any cap, so the length refuses it."""
        selector = ss.Selector(["a"], ["s"], "s", [("s", "a", "keep", "s")])
        mu = ss.uniform_measure(selector.alphabet)
        witness = ss.check_selector_compatibility(selector, mu).witness
        with pytest.raises(ss.ValidationError, match="out of reach"):
            ss.measure_output_prefix_runs(selector, mu, witness, "s", 2**63, ())
        assert ss.measure_output_prefix_runs(selector, mu, witness, "s", 40, ("a",))[0] == 1.0
