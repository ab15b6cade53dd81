"""Walks that emit a per-letter table entry instead of an int64 path.

``machines._emitted`` over a selector's keep table (``_selection_tables``) gives
each letter's keep bit, checked against ``_selected`` of the full
``run_states`` path; ``run_experiment`` places the recurrent entry from the
first chunk that ends in a recurrent state, checked against ``run_word``
plus ``block_frequencies``.  Markov sampling compares raw splitmix64
outputs against integer thresholds, checked against the float draw at and
beside every threshold, and its chunks are uint8; the cursor hands
back kept letters in the dtype it was fed.  Also the refusals of
foreign letters, and of float letters that are not whole numbers, by
``BlockCounter.update`` and ``Alphabet.text``, and the Python bools of the
lemma checks.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect import machines
from sftselect.machines import _SLICE, _emitted, _selected, _selection_tables, run_states
from sftselect.seqgen import _draw_letters, _draw_table, _splitmix64_bits, _thresholds

from conftest import reference_sample
from test_block_kernel import random_table
from test_group_walk import table_selector
from test_selection_and_counters import reference_reports


def _around(k: int):
    """Walk lengths: empty, partial blocks, and both sides of a slice."""
    edges = [0, 1, k - 1, k + 1, _SLICE - 1, _SLICE, _SLICE + 1, _SLICE + k + 1]
    return st.sampled_from(edges) | st.integers(0, 40 * k)


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    nq=st.integers(1, 21),  # both sides of _GROUP_STATES, dead state included
    na=st.integers(1, 4),
    holes=st.sampled_from([0.0, 0.02, 0.3]),
    dtype=st.sampled_from([np.uint8, np.int64]),
)
def test_keep_bits_equal_the_selection_of_the_path(data, nq, na, holes, dtype):
    """On random partial, non-oblivious selectors (keep is False where a
    transition is undefined), from every state, the dead one too."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    nxt = random_table(rng, nq, na, holes)
    selector = table_selector(nxt, random.Random(data.draw(st.integers())))
    table, keeps = _selection_tables(selector)
    keep = selector.tables()[1]
    letters = rng.integers(0, na, size=data.draw(_around(table.k))).astype(dtype)
    state = data.draw(st.integers(0, nq))
    kept, end = _emitted(table, keeps, letters, state)
    path = run_states(table, letters, state)
    dead_keeps_nothing = np.vstack([keep, np.zeros(na, dtype=bool)])
    assert kept.dtype == bool and len(kept) == len(letters)
    np.testing.assert_array_equal(
        np.compress(kept, letters), _selected(dead_keeps_nothing, path, letters)
    )
    assert end == path[-1]


def test_keep_table_fits_the_block_budget():
    for nq, na in [(1, 1), (3, 2), (8, 2), (16, 3), (40, 7)]:
        nxt = random_table(np.random.default_rng(nq), nq, na, 0.1)
        selector = ss.Selector._from_tables(
            [str(a) for a in range(na)], range(nq), 0, nxt, np.ones((nq, na), dtype=bool)
        )
        table, keeps = _selection_tables(selector)
        assert table.dead == nq and keeps.shape == table.trace.shape
        assert keeps.nbytes <= machines._BLOCK_BUDGET
        assert not keeps[table.dead * na**table.k :].any()  # the dead row keeps nothing


def transient_line_selector(rng: random.Random, line: int, size: int) -> ss.Selector:
    """A complete oblivious selector over ``size`` symbols whose states
    t0..t(line-1) count the 1s read in a row (any other symbol goes back to
    t0) and after ``line`` of them enter up to 4 randomly wired states: the
    line is one transient class, entered late or never for a long line."""
    core = rng.randint(1, 4)
    states = [f"t{i}" for i in range(line)] + [f"c{i}" for i in range(core)]
    symbols = [str(a) for a in range(size)]
    transitions = []
    for i, q in enumerate(states):
        action = rng.choice(("keep", "drop"))
        for a in symbols:
            if i >= line:
                target = f"c{rng.randrange(core)}"
            elif a == "1":
                target = states[i + 1]
            else:
                target = "t0"
            transitions.append((q, a, action, target))
    return ss.Selector(symbols, states, states[0], transitions)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize("after_recurrent", [False, True])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), line=st.sampled_from([0, 1, 2, 4, 9, 30]))
def test_run_experiment_places_the_recurrent_entry(chunk, after_recurrent, data, line):
    """Lines of 0 to 2 states are entered in the first chunk but for the
    smallest chunks; 4 and 9 ones in a row come in a later chunk or never;
    30 never come."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    size = rng.choice((2, 3))
    selector = transient_line_selector(rng, line, size)
    mode = rng.choice((ss.SLIDING, ss.ALIGNED))
    n = data.draw(st.integers(200, 500))
    spec = ss.GeneratorSpec(
        kind=ss.MARKOV_SAMPLE, alphabet=selector.alphabet, n=n,
        measure=ss.uniform_measure(selector.alphabet), seed=rng.randrange(2**64),
    )
    config = ss.ExperimentConfig(
        selector=selector, generator=spec, ks=(1, 2), mode=mode,
        after_recurrent=after_recurrent, chunk=chunk,
    )
    report = ss.run_experiment(config)

    word = selector.alphabet.decode(ss.generate(spec))
    entry, _counted_in, counted_out, ins, outs = reference_reports(
        selector, word, (1, 2), mode, after_recurrent
    )
    assert report.recurrent_entry == entry
    assert report.output_length == len(counted_out)
    for side, expected in ((report.input_reports, ins), (report.output_reports, outs)):
        for k in (1, 2):
            assert side[k].n == expected[k].n
            np.testing.assert_array_equal(side[k].counts, expected[k].counts)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    nq=st.integers(1, 20),
    holes=st.sampled_from([0.01, 0.1, 0.4]),
    dtype=st.sampled_from([np.uint8, np.int64]),
)
def test_feed_indices_raises_the_walks_undefined_transition(data, nq, holes, dtype):
    """Fed in pieces, the cursor raises ``run_word``'s UndefinedTransition
    (state, symbol, position) and stops at it, and what it returned before
    is ``run_word``'s output up to there."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    nxt = random_table(rng, nq, 2, holes)
    selector = table_selector(nxt, random.Random(int(rng.integers(2**32))))
    letters = rng.integers(0, 2, size=data.draw(st.integers(0, 3000))).astype(dtype)
    word = selector.alphabet.decode(letters.tolist())
    cursor = ss.SelectionCursor(selector)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(letters)), max_size=4)))
    out = []
    try:
        for lo, hi in zip([0, *cuts], [*cuts, len(letters)]):
            out += selector.alphabet.decode(cursor.feed_indices(letters[lo:hi]).tolist())
    except ss.UndefinedTransition as err:
        with pytest.raises(ss.UndefinedTransition) as expected:
            ss.run_word(selector, selector.initial, word)
        assert (err.state, err.symbol, err.position) == (
            expected.value.state, expected.value.symbol, expected.value.position
        )
        assert (cursor.state, cursor.position) == (err.state, err.position)
        done = max([0, *[c for c in cuts if c < err.position]])  # the pieces returned whole
        assert tuple(out) == ss.run_word(selector, selector.initial, word[:done]).output
    else:
        run = ss.run_word(selector, selector.initial, word)
        assert tuple(out) == run.output and cursor.state == run.end


GOLDEN = (1 + 5**0.5) / 2
SPECIAL_BREAKS = [0.0, 5e-324, 1e-300, 0.5, 1 / GOLDEN, 1 - 2.0**-53, 1.0, 1 + 2.0**-52]


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_feed_indices_keeps_the_letters_dtype(even_positions_full, dtype):
    """Kept letters come back in the dtype they were fed in, so ``select``
    writes its uint8 pieces with no int64 copy between."""
    letters = np.random.default_rng(7).integers(0, 2, size=5000).astype(dtype)
    kept = ss.SelectionCursor(even_positions_full).feed_indices(letters)
    assert kept.dtype == dtype
    word = even_positions_full.alphabet.decode(letters)
    expected = ss.SelectionCursor(even_positions_full).feed_many(word)
    assert list(even_positions_full.alphabet.decode(kept)) == expected


def _float_letters(breaks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The letters of the float draws u = (z >> 11) * 2**-53."""
    return np.searchsorted(breaks, (z >> np.uint64(11)) * 2.0**-53, side="right")


def _beside(thresholds: np.ndarray) -> np.ndarray:
    """Every threshold T with T - 1 and T + 1 inside [0, 2**64), and both ends."""
    values = {0, 2**64 - 1}
    for t in thresholds.tolist():
        values.update(v for v in (t - 1, t, t + 1) if 0 <= v < 2**64)
    return np.array(sorted(values), dtype=np.uint64)


@pytest.mark.parametrize(
    "breaks",
    [
        SPECIAL_BREAKS,
        sorted(SPECIAL_BREAKS + np.random.default_rng(3).random(300).tolist()),
        sorted(SPECIAL_BREAKS + (np.random.default_rng(4).random(250) * 1.5).tolist()),
    ],
    ids=["special", "past-255", "around-255"],
)
def test_thresholds_match_the_float_draw(breaks):
    breaks = np.array(breaks)
    thresholds = _thresholds(breaks)
    assert thresholds.dtype == np.uint64 and thresholds.size == (breaks < 1).sum()
    z = np.concatenate([_beside(thresholds), _splitmix64_bits(9, 5000)])
    np.testing.assert_array_equal(_draw_letters(thresholds, z), _float_letters(breaks, z))
    u = (z >> np.uint64(11)) * 2.0**-53
    for b, t in zip(breaks.tolist(), thresholds.tolist()):
        np.testing.assert_array_equal(z >= np.uint64(t), u >= b)


@pytest.mark.parametrize("make", [fx.golden_parry_measure, fx.uniform_binary_measure])
def test_draw_table_thresholds_match_the_float_draw(make):
    breaks, _table = _draw_table(make())
    z = np.concatenate([_beside(_thresholds(breaks)), _splitmix64_bits(0, 5000)])
    np.testing.assert_array_equal(_draw_letters(_thresholds(breaks), z), _float_letters(breaks, z))


def test_splitmix64_floats_are_the_top_bits():
    z = _splitmix64_bits(2**64 - 1, 1000, offset=5)
    np.testing.assert_array_equal(
        ss.splitmix64_floats(2**64 - 1, 1000, offset=5), (z >> np.uint64(11)) * 2.0**-53
    )
    reference = ss.SplitMix64(2**64 - 1)
    assert [reference.next_u64() for _ in range(6)][5] == int(z[0])


def test_markov_chunks_are_uint8_and_samples_int64(golden):
    spec = ss.GeneratorSpec(
        kind=ss.MARKOV_SAMPLE, alphabet=golden.alphabet, n=1000, measure=golden, seed=2**64 - 1
    )
    chunks = list(ss.generate_chunks(spec, 300))
    assert {c.dtype for c in chunks} == {np.dtype(np.uint8)}
    sample = ss.sample_markov(golden, 2**64 - 1, 1000)
    assert sample.dtype == np.int64
    np.testing.assert_array_equal(np.concatenate(chunks), sample)
    np.testing.assert_array_equal(sample, reference_sample(golden, 2**64 - 1, 1000))
    champernowne = ss.GeneratorSpec(kind=ss.CHAMPERNOWNE, alphabet=golden.alphabet, n=100)
    assert next(iter(ss.generate_chunks(champernowne))).dtype == np.uint8
    assert ss.champernowne(golden.alphabet, 10).dtype == np.int64


class TestForeignLetters:
    def test_block_frequencies_refuse_a_letter_past_the_alphabet(self):
        with pytest.raises(ss.ValidationError, match="letter 2 is outside"):
            ss.block_frequencies(["0", "1"], np.array([1, 0, 2]), 2)

    @pytest.mark.parametrize("chunk", [[0, 1, -1, 0], [1, 2], np.array([3], dtype=np.uint8)])
    def test_counter_state_is_unchanged_by_a_refused_chunk(self, chunk):
        counter = ss.BlockCounter(2, 2)
        counter.update(np.array([1, 0, 1], dtype=np.uint8))
        before = (counter.n, counter.counts.copy(), counter.marginal(1).copy())
        with pytest.raises(ss.ValidationError):
            counter.update(chunk)
        assert counter.n == before[0]
        np.testing.assert_array_equal(counter.counts, before[1])
        np.testing.assert_array_equal(counter.marginal(1), before[2])

    @pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
    def test_uint8_chunks_count_as_int64_chunks(self, mode):
        x = np.random.default_rng(1).integers(0, 3, 1001)
        counters = [ss.BlockCounter(3, 4, mode) for _ in range(2)]
        for lo in range(0, x.size, 97):
            counters[0].update(x[lo : lo + 97])
            counters[1].update(x[lo : lo + 97].astype(np.uint8))
        assert counters[1]._carry.dtype == np.uint8
        np.testing.assert_array_equal(counters[0].counts, counters[1].counts)

    @pytest.mark.parametrize("symbols", [["0", "1"], ["ab", "c"]])
    def test_text_refuses_an_index_outside_the_alphabet(self, symbols):
        alpha = ss.Alphabet(symbols)
        for bad in ([-1, 0], [0, 2], np.array([2], dtype=np.uint8)):
            with pytest.raises(ss.ValidationError, match="outside"):
                alpha.text(bad)
        sep = "" if alpha.single_char else " "
        assert alpha.text(np.array([1, 0], dtype=np.uint8)) == sep.join(symbols[::-1])
        assert alpha.text([]) == ""


    @pytest.mark.parametrize("bad", [[1.9, 0.2], [0.0, 0.5], [np.nan], [np.inf], [-np.inf]])
    @pytest.mark.parametrize("symbols", [["0", "1"], ["ab", "c"]])
    def test_float_letters_that_are_not_whole_are_refused(self, symbols, bad):
        """They used to be truncated: ``text([1.9, 0.2])`` read ``"10"``."""
        alpha, counter = ss.Alphabet(symbols), ss.BlockCounter(2, 1)
        for call in (alpha.text, alpha.decode, counter.update):
            for letters in (bad, np.array(bad, dtype=np.float32)):
                with pytest.raises(ss.ValidationError, match="is not a whole number"):
                    call(letters)
        assert counter.n == 0 and not counter.counts.any()

    def test_whole_float_letters_are_read_as_integers(self):
        alpha, counter = ss.Alphabet(["0", "1"]), ss.BlockCounter(2, 1)
        assert alpha.text([1.0, 0.0, -0.0]) == "100"
        assert alpha.decode(np.array([1.0, 0.0])) == ("1", "0")
        assert alpha.decode([]) == () and alpha.text([]) == ""  # [] is a float64 array
        counter.update(np.array([1.0, 1.0, 0.0]))
        assert counter.counts.tolist() == [1, 2]
        with pytest.raises(ss.ValidationError, match="letter 2 is outside"):
            alpha.text([2.0])


def test_measure_checks_are_python_bools(even_positions, golden, golden_witness):
    checks = ss.lemma_check(even_positions, n_max=4, w_max=3, mu=golden, witness=golden_witness)
    start = even_positions.initial
    _value, single = ss.measure_output_prefix_runs(
        even_positions, golden, golden_witness, start, 3, "0"
    )
    results = [*checks, single]
    assert results and all(type(r.passed) is bool and type(r.strict) is bool for r in results)
