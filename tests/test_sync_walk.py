"""Differential tests of the synchronizing branch of the block walk: on a
complete table, a block whose word leads every live state to one state
(``WalkTable.sync``) ends there whatever state it began in, so one gather
of the codes gives those ends, and each loose block takes a Python step
from the end of the block before it.

Tables are drawn complete with a reset letter (every block holding it
synchronizes), complete with a permutation letter (its blocks alone are
loose), random complete, m-definite and partial.  ``sync`` is checked
against a scalar image search, walks from every start state against a
scalar loop and ``run_word``, the Python steps a slice takes by a spy, and
golden-mean Parry draws against the scalar ``SplitMix64`` reference."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect import machines
from sftselect.machines import _emitted, _selection_tables, run_states, transition_rows

from conftest import reference_sample
from test_block_kernel import random_table, scalar_states
from test_definite_walk import SPANS, lengths, scalar_keeps, scalar_sync, suffix_machine
from test_group_walk import table_selector


@st.composite
def sync_tables(draw):
    """(kind, next-state table): a reset letter, a permutation letter, random
    complete, m-definite or partial."""
    kind = draw(st.sampled_from(["reset", "permutation", "complete", "definite", "partial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "definite":
        m, na = draw(st.integers(1, 3)), draw(st.integers(2, 3))
        return kind, suffix_machine(rng, m, na, draw(st.booleans()))
    nq, na = draw(st.integers(2, 6)), draw(st.integers(2, 3))
    nxt = random_table(rng, nq, na, 0.3 if kind == "partial" else 0.0)
    letter = rng.integers(na)
    if kind == "reset":
        nxt[:, letter] = rng.integers(nq)
    if kind == "permutation":
        nxt[:, letter] = rng.permutation(nq)
    if kind == "partial":
        nxt[rng.integers(nq), rng.integers(na)] = -1
    return kind, nxt


@settings(max_examples=150, deadline=None)
@given(drawn=sync_tables())
def test_sync_matches_the_scalar_image_search(drawn):
    kind, nxt = drawn
    table = transition_rows(nxt)
    sync = scalar_sync(nxt, table.k)
    assert (None if table.sync is None else table.sync.tolist()) == sync
    if kind == "reset":  # the block of the reset letter alone, at least
        assert table.sync is not None
    if kind == "partial":
        assert table.sync is None


@settings(max_examples=150, deadline=None)
@given(data=st.data(), drawn=sync_tables(), span=SPANS)
def test_walks_from_every_state_match_scalar_loop_and_run_word(data, drawn, span):
    """Over the trace and over a selector's keep table, from every start
    state, the dead one too, at lengths that cross a patched ``_SLICE``."""
    _kind, nxt = drawn
    seed = data.draw(st.integers(0, 2**32))
    selector = table_selector(nxt, random.Random(seed))
    table, keeps = _selection_tables(selector)
    n = data.draw(lengths(table.k, span))
    letters = np.random.default_rng(seed).integers(0, nxt.shape[1], size=n)
    word = selector.alphabet.decode(letters)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machines, "_SLICE", span)
        for state in range(len(nxt) + 1):
            path = scalar_states(nxt, letters.tolist(), state)
            assert run_states(table, letters, state).tolist() == path
            kept, end = _emitted(table, keeps, letters, state)
            assert kept.tolist() == scalar_keeps(nxt, selector.tables()[1], letters.tolist(), state)
            assert end == path[-1]
            if state < len(nxt) and table.sync is not None:
                run = ss.run_word(selector, selector.states[state], word)
                assert selector.alphabet.decode(np.compress(kept, letters)) == run.output
                assert selector.states[end] == run.end


class CountedRows(list):
    """A walk table's rows that count the Python steps read from them."""

    steps = 0

    def __getitem__(self, state):
        self.steps += 1
        return super().__getitem__(state)


def spy_group_walks(mp) -> list:
    """Patch ``_block_ends`` to record how many codes each call walks; only
    the group walk and a step a block call it."""
    calls, block_ends = [], machines._block_ends

    def spied(rows, codes, state):
        calls.append(len(codes))
        return block_ends(rows, codes, state)

    mp.setattr(machines, "_block_ends", spied)
    return calls


# three states: letter 0 resets to state 2, letter 1 turns them in a cycle,
# so a block synchronizes exactly when it holds a 0 (k = 10)
RESET_CYCLE = np.array([[2, 1], [2, 2], [2, 0]])


@pytest.mark.parametrize("loose", [0, 1, 9, 10, 11, 40])
def test_a_slice_takes_a_step_a_loose_block_up_to_one_in_a_group(loose):
    """A slice of m = 160 blocks with at most m // _GROUP = 10 loose blocks
    takes exactly that many Python steps and no group walk; with more it
    takes the group walk, which reads no step off the rows."""
    table = transition_rows(RESET_CYCLE)
    k, m = table.k, 160
    assert (k, int((table.sync < 0).sum())) == (10, 1)
    rng = np.random.default_rng(loose)
    blocks = rng.integers(0, 2, size=(m, k))
    blocks[:, rng.integers(k)] = 0  # every block synchronizes ...
    # ... but these, the first two among them
    later = rng.choice(np.arange(2, m), size=max(loose - 2, 0), replace=False)
    blocks[np.concatenate([[0, 1], later])[:loose]] = 1
    letters = np.concatenate([blocks.ravel(), blocks.ravel()])  # two slices
    table = dataclasses.replace(table, rows=CountedRows(table.rows))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machines, "_SLICE", m * k)
        group_walks = spy_group_walks(mp)
        for state in range(len(RESET_CYCLE)):
            table.rows.steps, group_walks[:] = 0, []
            path = run_states(table, letters, state)
            assert path.tolist() == scalar_states(RESET_CYCLE, letters.tolist(), state)
            if loose <= m // machines._GROUP:
                assert (table.rows.steps, group_walks) == (2 * loose, [])
            else:
                assert (table.rows.steps, group_walks) == (0, [m // machines._GROUP] * 2)


@pytest.mark.parametrize("full", [False, True])
def test_even_positions_keeps_the_group_walk(full):
    """No block of even_positions synchronizes, since position parity
    survives every block, so its walk is the group walk: a Python step a
    group of blocks, none off the rows."""
    nxt = fx.even_positions_selector(include_forbidden_reads=full).tables()[0]
    table = transition_rows(nxt)
    assert table.sync is None
    table = dataclasses.replace(table, rows=CountedRows(table.rows))
    letters = np.random.default_rng(0).integers(0, 2, size=3 * table.k * machines._GROUP + 5)
    with pytest.MonkeyPatch.context() as mp:
        group_walks = spy_group_walks(mp)
        for state in range(len(nxt)):
            path = run_states(table, letters, state)
            assert path.tolist() == scalar_states(nxt, letters.tolist(), state)
    assert (table.rows.steps, group_walks) == (0, [3] * len(nxt))


def test_a_dead_start_takes_no_gather():
    """From the dead state every block ends dead, as ``sync`` would not say."""
    table = transition_rows(RESET_CYCLE)
    letters = np.zeros(5 * table.k, dtype=np.int64)
    assert run_states(table, letters, table.dead).tolist() == [table.dead] * (len(letters) + 1)


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_golden_parry_draws_match_scalar_reference(seed):
    """Golden-mean Parry draws, whose 7-letter blocks synchronize but for
    6%, over chunks that split blocks and cross a 2**16 chunk boundary."""
    mu = fx.golden_parry_measure()
    spec = ss.GeneratorSpec(ss.MARKOV_SAMPLE, mu.alphabet, (1 << 16) + 1009, measure=mu, seed=seed)
    expected = reference_sample(mu, seed, spec.n)
    for chunk in (7, 79, 1001, 1 << 16):
        assert np.array_equal(np.concatenate(list(ss.generate_chunks(spec, chunk))), expected)
