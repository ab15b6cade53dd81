"""Differential tests of the block-table walk: ``run_states`` and ``walk``
against a scalar loop over the next-state table and against ``run_word``,
for tables that give k = 1 and k > 1, lengths around the block length,
machines that die inside a block or in the letters after the last block,
and cuts at chunk and slice boundaries."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import machines
from sftselect.machines import block_codes, block_letters, run_states, transition_rows, walk

from conftest import random_selector


def scalar_states(nxt: np.ndarray, letters, state: int) -> list:
    """One step per letter; -1 entries and the dead state lead to the dead
    state ``len(nxt)``."""
    dead = len(nxt)
    out = [state]
    for a in letters:
        state = dead if state == dead or nxt[state, a] < 0 else int(nxt[state, a])
        out.append(state)
    return out


def random_table(rng: np.random.Generator, nq: int, na: int, holes: float) -> np.ndarray:
    nxt = rng.integers(0, nq, size=(nq, na))
    nxt[rng.random((nq, na)) < holes] = -1
    return nxt


def code_dtype(base: int, k: int) -> np.dtype:
    """The dtype of ``block_codes``: the narrowest of uint8, uint16 and
    uint32 that holds base**k - 1, int64 past them."""
    top = base**k - 1
    dtypes = (np.uint8, np.uint16, np.uint32, np.int64)
    return next(np.dtype(t) for t in dtypes if top <= np.iinfo(t).max)


# (states, letters): small tables give k > 1, the wide ones k = 1
SHAPES = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 5)),
    st.tuples(st.integers(40, 50), st.integers(40, 50)),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=SHAPES, holes=st.sampled_from([0.0, 0.05, 0.3]))
def test_run_states_matches_scalar_loop(data, shape, holes):
    nq, na = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    nxt = random_table(rng, nq, na, holes)
    table = transition_rows(nxt)
    n = data.draw(st.integers(0, 3 * table.k + 1))
    letters = rng.integers(0, na, size=n)
    state = data.draw(st.integers(0, nq))  # the dead state is a valid start
    path = run_states(table, letters, state)
    assert path.dtype == np.int64
    assert path.tolist() == scalar_states(nxt, letters.tolist(), state)


def test_shapes_cover_both_block_regimes():
    rng = np.random.default_rng(0)
    assert transition_rows(random_table(rng, 2, 2, 0.0)).k > 1
    assert transition_rows(random_table(rng, 40, 40, 0.0)).k == 1


@settings(max_examples=200, deadline=None)
@given(nq=st.integers(1, 300), na=st.integers(1, 300))
def test_block_length_is_the_largest_within_budget(nq, na):
    k = transition_rows(np.zeros((nq, na), dtype=np.int64)).k
    budget = machines._BLOCK_BUDGET
    assert 1 <= k <= machines._MAX_BLOCK
    assert k == 1 or (nq + 1) * na**k * k <= budget
    assert k == machines._MAX_BLOCK or (nq + 1) * na ** (k + 1) * (k + 1) > budget


@pytest.mark.parametrize("budget", [1, 64, None])
def test_death_at_every_position(monkeypatch, budget):
    """A two-state machine with one hole dies at each position 1..3k+1 in
    turn: inside a block, at its edge and in the letters after the last
    block; ``walk`` reports that position, state and symbol."""
    if budget is not None:
        monkeypatch.setattr(machines, "_BLOCK_BUDGET", budget)
    selector = ss.Selector(
        ["0", "1"], ["a", "b"], "a",
        [("a", "0", "keep", "a"), ("a", "1", "drop", "b"), ("b", "0", "keep", "a")],
    )
    table = transition_rows(selector.tables()[0])
    for death in range(1, 3 * table.k + 2):
        # "1" from a leads to b, which has no "1"; start in b to die at once
        start, head = (1, "") if death == 1 else (0, "0" * (death - 2) + "1")
        letters = selector.alphabet.encode(head + "1" + "0" * (3 * table.k))
        with pytest.raises(ss.UndefinedTransition) as err:
            walk(selector, table, letters, start, position=5)
        assert (err.value.state, err.value.symbol, err.value.position) == ("b", "1", 5 + death)
        path = run_states(table, letters, start)
        assert path.tolist() == scalar_states(selector.tables()[0], letters.tolist(), start)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    budget=st.sampled_from([1, 48, None]),
    span=st.sampled_from([16, 17, 33, None]),
)
def test_walk_over_chunks_matches_run_word(data, budget, span):
    """Walking a word in chunks, each from the state the last one ended in,
    gives ``run_word``'s states, or its error, at every budget (k) and
    slice length."""
    mp = pytest.MonkeyPatch()
    try:
        if budget is not None:
            mp.setattr(machines, "_BLOCK_BUDGET", budget)
        if span is not None:
            mp.setattr(machines, "_SLICE", span)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        selector = random_selector(rng, max_states=5, partial=data.draw(st.booleans()))
        table = transition_rows(selector.tables()[0])
        word = data.draw(st.lists(st.sampled_from("01"), max_size=120))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(word)), max_size=4)))
        bounds = [0, *cuts, len(word)]
        try:
            expected = ss.run_word(selector, selector.initial, word)
            expected_err = None
        except ss.UndefinedTransition as err:
            expected_err = err
        state = selector.state_index(selector.initial)
        states = [state]
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                path = walk(selector, table, selector.alphabet.encode(word[lo:hi]), state, lo)
                states += path[1:].tolist()
                state = int(path[-1])
        except ss.UndefinedTransition as err:
            assert expected_err is not None
            assert (err.state, err.symbol, err.position) == (
                expected_err.state, expected_err.symbol, expected_err.position,
            )
            return
        assert expected_err is None
        assert selector.states[state] == expected.end
        # visit counts: each state as the source of a step
        visits = {}
        for s in states[:-1]:
            visits[selector.states[s]] = visits.get(selector.states[s], 0) + 1
        assert visits == expected.visits
    finally:
        mp.undo()


def test_walk_across_slices_matches_scalar_loop():
    rng = np.random.default_rng(7)
    nxt = random_table(rng, 3, 2, 0.0)
    table = transition_rows(nxt)
    n = 2 * machines._SLICE + 3 * table.k + 1
    letters = rng.integers(0, 2, size=n)
    assert run_states(table, letters, 1).tolist() == scalar_states(nxt, letters.tolist(), 1)


@pytest.mark.parametrize("bad", [-1, 2, 7])
def test_letters_outside_the_table_are_rejected(bad):
    table = transition_rows(np.array([[0, 1], [1, 0]]))
    letters = np.array([0, 1, bad, 0])
    with pytest.raises(ss.ValidationError, match=f"letter {bad} is outside"):
        run_states(table, letters, 0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), base=st.integers(1, 6))
def test_block_codes_are_big_endian(data, k, base):
    letters = data.draw(st.lists(st.integers(0, base - 1), max_size=40))
    codes = block_codes(np.array(letters, dtype=np.int64), k, base).tolist()
    expected = []
    for lo in range(0, len(letters) - len(letters) % k, k):
        code = 0
        for a in letters[lo : lo + k]:
            code = code * base + a
        expected.append(code)
    assert codes == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), base=st.integers(1, 6), step=st.integers(1, 9))
def test_block_codes_at_any_step_and_their_letters(data, k, base, step):
    """Codes of the k-blocks starting every ``step`` letters (step 1: the
    sliding windows) against a scalar Horner loop, inputs shorter than k
    included; ``block_letters`` inverts them, and the codes are a new
    array."""
    letters = data.draw(st.lists(st.integers(0, base - 1), max_size=3 * k + 2))
    arr = np.array(letters, dtype=np.int64)
    starts = range(0, len(letters) - k + 1, step)
    expected = []
    for lo in starts:
        code = 0
        for a in letters[lo : lo + k]:
            code = code * base + a
        expected.append(code)
    codes = block_codes(arr, k, base, step)
    assert codes.dtype == code_dtype(base, k)
    assert codes.tolist() == expected
    assert block_letters(codes, k, base).tolist() == [letters[lo : lo + k] for lo in starts]
    assert block_codes(arr, k, base, k).tolist() == block_codes(arr, k, base).tolist()
    codes[:] = np.iinfo(codes.dtype).max
    assert arr.tolist() == letters


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 20), dtype=st.sampled_from([np.int64, np.int32, np.uint8]))
def test_sliding_codes_by_doubling_match_horner(data, k, dtype):
    """Sliding windows of k = 1..20, Horner's rule up to k = 3 and doubling
    above, against a scalar Horner loop, for every base with base**k below
    2**63 up to 40 and inputs around k letters long; the letters stay as
    they were."""
    base = data.draw(st.integers(1, max(b for b in range(1, 41) if b**k < 2**63)))
    letters = data.draw(st.lists(st.integers(0, base - 1), max_size=3 * k + 2))
    arr = np.array(letters, dtype=dtype)
    expected = []
    for lo in range(len(letters) - k + 1):
        code = 0
        for a in letters[lo : lo + k]:
            code = code * base + a
        expected.append(code)
    codes = block_codes(arr, k, base, 1)
    assert codes.dtype == code_dtype(base, k)
    assert codes.tolist() == expected
    codes[:] = np.iinfo(codes.dtype).max
    assert arr.tolist() == letters


@settings(max_examples=100, deadline=None)
@given(data=st.data(), mode=st.sampled_from([ss.SLIDING, ss.ALIGNED]))
def test_wide_counter_over_uneven_chunks(data, mode):
    """``BlockCounter(2, 16)`` fed in uneven chunks, many shorter than a
    block so the carry spans them, against a scalar count of the whole
    sequence."""
    letters = data.draw(st.lists(st.integers(0, 1), max_size=160))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(letters)), max_size=10)))
    counter = ss.BlockCounter(2, 16, mode)
    for lo, hi in zip([0, *cuts], [*cuts, len(letters)]):
        counter.update(np.array(letters[lo:hi], dtype=np.int64))
    step = 1 if mode == ss.SLIDING else 16
    expected = Counter(
        int("".join(map(str, letters[lo : lo + 16])), 2) for lo in range(0, len(letters) - 15, step)
    )
    assert counter.n == len(letters)
    assert {code: int(c) for code, c in enumerate(counter.counts) if c} == expected
