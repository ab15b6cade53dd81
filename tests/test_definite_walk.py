"""Differential tests of the block walk on definite tables: a complete
table whose j-letter words (j <= k) each lead every state to one state has
every k-letter block synchronize, so each block's end is read off its code.

Machines are drawn m-definite (m = 1..4, with and without transient
states), complete with a permutation letter (never definite), random
complete and partial.  Their walks from every start state, over the trace
and over a selector's keep table, are checked against a scalar loop and
``run_word``; ``sync`` against a scalar search of the image of the live
states under each k-letter word; and i.i.d. draws against the scalar
``SplitMix64`` inverse-CDF reference."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect import machines
from sftselect.machines import _emitted, _selection_tables, run_states, transition_rows
from sftselect.seqgen import _draw_table, _thresholds

from conftest import reference_sample
from test_block_kernel import random_table, scalar_states
from test_group_walk import table_selector

# slice lengths the walk is cut at: one under a group of blocks and two more
SPANS = st.sampled_from([40, 100, 333])


def suffix_machine(rng: np.random.Generator, m: int, na: int, transients: bool) -> np.ndarray:
    """The next-state table of a complete machine whose state is the last m
    letters read: its states are the m-letter words and, with
    ``transients``, the shorter words, numbered in a random order.  Every
    m-letter word leads every state to the state of that word, and for
    na >= 2 no shorter word leads all states to one, so its order is m."""
    sizes = range(0 if transients else m, m + 1)
    words = [w for n in sizes for w in itertools.product(range(na), repeat=n)]
    number = dict(zip(words, rng.permutation(len(words)).tolist()))
    nxt = np.empty((len(words), na), dtype=np.int64)
    for w in words:
        for a in range(na):
            nxt[number[w], a] = number[(w + (a,))[-m:]]
    return nxt


def scalar_sync(nxt: np.ndarray, k: int):
    """Per k-letter code, the one state that its word leads every state to,
    or -1, by scalar images of the state set in code order (the image of w
    a is the image of w under a); None for a partial table or when no word
    synchronizes."""
    if (nxt < 0).any():
        return None
    images = [frozenset(range(len(nxt)))]
    for _ in range(k):
        images = [frozenset(nxt[list(s), a].tolist()) for s in images for a in range(nxt.shape[1])]
    sync = [min(s) if len(s) == 1 else -1 for s in images]
    return sync if max(sync) >= 0 else None


def sync_list(table):
    """``table.sync`` as a list, or None."""
    return None if table.sync is None else table.sync.tolist()


def synchronizes_every_block(table) -> bool:
    return table.sync is not None and bool((table.sync >= 0).all())


@st.composite
def tables(draw):
    """(kind, next-state table): m-definite, complete with a permutation
    letter, random complete or partial."""
    kind = draw(st.sampled_from(["definite", "permutation", "complete", "partial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "definite":
        m, na, transients = draw(st.integers(1, 4)), draw(st.integers(2, 3)), draw(st.booleans())
        return kind, suffix_machine(rng, m, na, transients)
    nq, na = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    if kind == "permutation":
        nq, na = max(nq, 2), max(na, 2)
    nxt = random_table(rng, nq, na, 0.3 if kind == "partial" else 0.0)
    if kind == "permutation":
        nxt[:, 0] = rng.permutation(nq)
    if kind == "partial":
        nxt[rng.integers(nq), rng.integers(na)] = -1
    return kind, nxt


def lengths(k: int, span: int):
    """0 to 3 slices and 7 letters: slice crossings and a partial last block."""
    edges = [0, 1, k - 1, k, k + 1, span - 1, span, span + 1, 2 * span + k, 3 * span + 7]
    return st.sampled_from(edges) | st.integers(0, 3 * span + 7)


def scalar_keeps(nxt: np.ndarray, keep: np.ndarray, letters, state: int) -> list:
    """One keep bit per letter along :func:`scalar_states`; the dead state
    and undefined steps keep nothing."""
    path = scalar_states(nxt, letters, state)
    return [s < len(nxt) and nxt[s, a] >= 0 and bool(keep[s, a]) for s, a in zip(path, letters)]


@settings(max_examples=150, deadline=None)
@given(drawn=tables())
def test_sync_is_the_image_of_the_live_states(drawn):
    kind, nxt = drawn
    table = transition_rows(nxt)
    assert sync_list(table) == scalar_sync(nxt, table.k)
    if kind == "partial":
        assert table.sync is None
    if kind == "permutation":  # the block of the permutation letter alone
        assert not synchronizes_every_block(table)
    if table.sync is not None:
        # a block that synchronizes ends in sync[c] from every live state
        ends = list(machines._word_ends(nxt, table.k))[-1]
        c = np.flatnonzero(table.sync >= 0)
        assert (ends[: len(nxt), c] == table.sync[c]).all()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), na=st.integers(2, 3), transients=st.booleans())
def test_suffix_machines_synchronize_every_block_within_k(data, m, na, transients):
    """Every block synchronizes for m <= k, and none past it, since a k-letter
    word keeps the m - k letters before it."""
    nxt = suffix_machine(np.random.default_rng(data.draw(st.integers(0, 2**32))), m, na, transients)
    table = transition_rows(nxt)
    assert synchronizes_every_block(table) == (m <= table.k)
    assert (table.sync is None) == (m > table.k)


def test_no_sync_past_k_and_on_tables_whose_blocks_do_not_synchronize():
    # 4-letter words with transients: 341 states give k = 2 < 4
    nxt = suffix_machine(np.random.default_rng(0), 4, 4, True)
    assert transition_rows(nxt).k < 4 and scalar_sync(nxt, 4) is not None
    assert transition_rows(nxt).sync is None
    for full in (False, True):  # position parity survives every block
        selector = fx.even_positions_selector(include_forbidden_reads=full)
        assert transition_rows(selector.tables()[0]).sync is None
    breaks, draws = _draw_table(fx.golden_parry_measure())
    nxt = draws[:, : _thresholds(breaks).size + 1]
    table = transition_rows(nxt)
    assert (table.k, int((table.sync >= 0).sum()), table.sync.size) == (7, 2059, 3**7)
    assert sync_list(table) == scalar_sync(nxt, 7)
    partial = np.array([[0, 1], [1, -1]])  # 1-definite but for its hole
    assert transition_rows(partial).sync is None


def test_after_ones_and_uniform_draws_synchronize_every_block():
    table = transition_rows(fx.after_ones_selector().tables()[0])
    assert table.sync.tolist() == [c % 2 for c in range(2**table.k)]  # q1 after a 1
    breaks, draws = _draw_table(fx.uniform_binary_measure())
    table = transition_rows(draws[:, : _thresholds(breaks).size + 1])
    assert (table.k, table.letters, synchronizes_every_block(table)) == (10, 2, True)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), drawn=tables(), span=SPANS)
def test_walks_from_every_state_match_scalar_loop(data, drawn, span):
    """The trace walk from every start state, the dead one too, matches the
    scalar loop, and a definite table from a live state takes no block step."""
    _kind, nxt = drawn
    table = transition_rows(nxt)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    letters = rng.integers(0, nxt.shape[1], size=data.draw(lengths(table.k, span)))
    steps = []
    block_ends = machines._block_ends

    def counted(rows, codes, state):
        steps.append(state)
        return block_ends(rows, codes, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machines, "_SLICE", span)
        mp.setattr(machines, "_block_ends", counted)
        for state in range(len(nxt) + 1):
            path = run_states(table, letters, state)
            assert path.tolist() == scalar_states(nxt, letters.tolist(), state)
            assert not (synchronizes_every_block(table) and state < len(nxt) and steps)
            steps.clear()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), drawn=tables(), span=SPANS)
def test_keep_walks_from_every_state_match_run_word(data, drawn, span):
    """Over a selector's keep table, the kept bits from every start state
    match the scalar loop, and on a table with ``sync`` ``run_word``'s output."""
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
            kept, end = _emitted(table, keeps, letters, state)
            assert kept.tolist() == scalar_keeps(nxt, selector.tables()[1], letters.tolist(), state)
            assert end == scalar_states(nxt, letters.tolist(), state)[-1]
            if state < len(nxt) and table.sync is not None:
                run = ss.run_word(selector, selector.states[state], word)
                assert selector.alphabet.decode(np.compress(kept, letters)) == run.output
                assert selector.states[end] == run.end


@pytest.mark.parametrize("m", [1, 2])
def test_definite_walk_across_full_slices(m):
    """At the real slice length: 3 slices and 7 letters from every state."""
    nxt = suffix_machine(np.random.default_rng(m), m, 2, True)
    table = transition_rows(nxt)
    assert synchronizes_every_block(table)
    letters = np.random.default_rng(5).integers(0, 2, size=3 * machines._SLICE + 7)
    for state in range(len(nxt)):
        path = run_states(table, letters, state)
        assert path.tolist() == scalar_states(nxt, letters.tolist(), state)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "make",
    [
        lambda: ss.make_bernoulli(["0", "1"], [0.3, 0.7]),
        lambda: ss.uniform_measure(["a"]),
        lambda: ss.uniform_measure(["a", "b", "c"]),
    ],
)
def test_iid_draws_match_scalar_reference(make, seed):
    """Every block of an i.i.d. draw table synchronizes; its samples match
    the scalar reference over chunks that split blocks and cross chunk
    boundaries."""
    mu = make()
    assert (mu.P.entries == mu.pi.weights).all()
    breaks, draws = _draw_table(mu)
    assert synchronizes_every_block(transition_rows(draws[:, : _thresholds(breaks).size + 1]))
    spec = ss.GeneratorSpec(ss.MARKOV_SAMPLE, mu.alphabet, 3000, measure=mu, seed=seed)
    expected = reference_sample(mu, seed, spec.n)
    for chunk in (7, 79, 1001, 1 << 16):
        assert np.array_equal(np.concatenate(list(ss.generate_chunks(spec, chunk))), expected)
