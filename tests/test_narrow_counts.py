"""Block counting with narrow codes and in-place counts: ``BlockCounter``
against ``collections.Counter`` over the windows of the whole sequence,
in both modes and at every marginal, over random chunkings and chunk
dtypes; ``block_codes`` at the edges of its code dtypes against exact
Horner values; and the refusal of letter arrays that are not 1-D before
any counter or cursor state changes."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect.machines import block_codes


def window_counts(letters: list, k: int, step: int) -> Counter:
    """The big-endian binary code of every k-window starting every ``step`` letters."""
    return Counter(
        int("".join(map(str, letters[lo : lo + k])), 2) for lo in range(0, len(letters) - k + 1, step)
    )


def nonzero(counts: np.ndarray) -> dict:
    return {code: int(c) for code, c in enumerate(counts.tolist()) if c}


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 16),
    mode=st.sampled_from([ss.SLIDING, ss.ALIGNED]),
    dtype=st.sampled_from([np.uint8, np.int32, np.int64]),
)
def test_counter_matches_a_scalar_count_of_every_window(data, k, mode, dtype):
    """Chunks of 0, 1 or up to 40 letters, so the carry spans several; a
    sliding counter's whole marginal ladder and each marginal alone, and an
    aligned counter's own counts, against ``collections.Counter``."""
    sizes = data.draw(st.lists(st.one_of(st.integers(0, 1), st.integers(0, 40)), max_size=12))
    letters = data.draw(st.lists(st.integers(0, 1), min_size=sum(sizes), max_size=sum(sizes)))
    counter, lo = ss.BlockCounter(2, k, mode), 0
    for size in sizes:
        counter.update(np.array(letters[lo : lo + size], dtype=dtype))
        lo += size
    assert counter.n == len(letters)
    step = 1 if mode == ss.SLIDING else k
    assert nonzero(counter.counts) == window_counts(letters, k, step)
    ks = range(1, k + 1) if mode == ss.SLIDING else [k]
    for _ in range(2):  # reading the marginals leaves the counts as they were
        ladder = dict(counter._marginals(ks))
        for j in ks:
            assert ladder[j].dtype == np.int64 and ladder[j].size == 2**j
            assert nonzero(ladder[j]) == window_counts(letters, j, step)
            np.testing.assert_array_equal(counter.marginal(j), ladder[j])


# (base, k, code dtype) on both sides of 2**8, 2**16 and 2**32 codes
EDGES = [
    (2, 8, np.uint8),
    (2, 9, np.uint16),
    (16, 2, np.uint8),
    (17, 2, np.uint16),
    (256, 1, np.uint8),
    (257, 1, np.uint16),
    (2, 16, np.uint16),
    (2, 17, np.uint32),
    (256, 2, np.uint16),
    (257, 2, np.uint32),
    (2, 32, np.uint32),
    (2, 33, np.int64),
    (3, 20, np.uint32),
    (3, 21, np.int64),
    (65536, 2, np.uint32),
    (65537, 2, np.int64),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), edge=st.sampled_from(EDGES), sliding=st.booleans())
def test_block_codes_at_the_edges_of_their_dtypes(data, edge, sliding):
    """Letters mostly the largest, so the codes reach ``base**k - 1``;
    codes from letters of every integer dtype that holds them equal the
    int64 Horner values, in the narrowest dtype that holds them all."""
    base, k, code_dtype = edge
    letter = st.one_of(st.just(base - 1), st.integers(0, base - 1))
    letters = data.draw(st.lists(letter, max_size=3 * k + 2))
    dtypes = [t for t in (np.uint8, np.uint16, np.int32, np.int64) if base - 1 <= np.iinfo(t).max]
    arr = np.array(letters, dtype=data.draw(st.sampled_from(dtypes)))
    step = 1 if sliding else k
    wide = np.array(letters, dtype=np.int64)
    end = max((len(letters) - k) // step + 1, 0) * step
    horner = wide[:end:step].copy()
    for j in range(1, k):
        horner = horner * base + wide[j : j + end : step]
    codes = block_codes(arr, k, base, step)
    assert codes.dtype == code_dtype
    assert codes.tolist() == horner.tolist()
    assert arr.tolist() == letters


@pytest.mark.parametrize(
    "bad", [np.array(1), np.array([[0, 1], [1, 0]]), np.zeros((0, 2), dtype=np.uint8)]
)
class TestLettersThatAreNotOneDimensional:
    def test_counter_refuses_them_before_counting(self, binary, bad):
        for mode in (ss.SLIDING, ss.ALIGNED):
            counter = ss.BlockCounter(2, 2, mode)
            counter.update(np.array([0, 1, 1]))
            before = counter.counts.copy()
            with pytest.raises(ss.ValidationError, match="1-D array"):
                counter.update(bad)
            assert counter.n == 3
            np.testing.assert_array_equal(counter.counts, before)
            counter.update(np.array([0]))  # the carry went on from the 1 before
            step = 1 if mode == ss.SLIDING else 2
            assert nonzero(counter.counts) == window_counts([0, 1, 1, 0], 2, step)
            ss.FrequencyReport(binary, mode, 2, counter.n, counter.marginal(2))  # sums to its windows

    def test_cursor_refuses_them_where_it_stands(self, after_ones, bad):
        cursor = ss.SelectionCursor(after_ones)
        kept = cursor.feed_indices(np.array([1, 0]))
        state = cursor.state
        with pytest.raises(ss.ValidationError, match="1-D array"):
            cursor.feed_indices(bad)
        assert (cursor.position, cursor.state) == (2, state)
        rest = cursor.feed_indices(np.array([1, 1]))
        whole = ss.SelectionCursor(after_ones).feed_indices(np.array([1, 0, 1, 1]))
        assert [*kept, *rest] == whole.tolist()

    def test_text_and_decode_refuse_them(self, bad):
        for symbols in (["0", "1"], ["ab", "c"]):
            alpha = ss.Alphabet(symbols)
            for call in (alpha.text, alpha.decode):
                with pytest.raises(ss.ValidationError, match="1-D array"):
                    call(bad)
