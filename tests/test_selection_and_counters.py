"""The selection step and the block-counter set, each with one owner.

``machines._selected`` turns a walk into the letters it keeps, for the
cursor and for ``run_experiment``; ``seqgen._block_counters`` chooses the
counters that serve a set of block lengths.  Both are checked here against
references that share neither: the 2-D index of the keep table, and
``run_word`` plus ``block_frequencies`` over the whole input.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect.machines import _SLICE, _selected

LENGTHS = st.one_of(st.sampled_from([0, 1, 2, _SLICE - 1, _SLICE, _SLICE + 1]), st.integers(0, 300))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    states=st.integers(1, 6),
    letters=st.integers(1, 5),
    n=LENGTHS,
    dtype=st.sampled_from([np.int64, np.uint8]),
)
def test_selected_equals_the_2d_index(seed, states, letters, n, dtype):
    """On random partial, non-oblivious keep tables (False where a
    transition is undefined) and random paths."""
    rng = np.random.default_rng(seed)
    defined = rng.random((states, letters)) < 0.75
    keep = (rng.random((states, letters)) < 0.5) & defined
    path = rng.integers(0, states, n + 1)
    x = rng.integers(0, letters, n).astype(dtype)
    got = _selected(keep, path, x)
    assert got.dtype == x.dtype
    np.testing.assert_array_equal(got, x[keep[path[:-1], x]])


def random_oblivious_selector(rng: random.Random, size: int) -> ss.Selector:
    """A complete oblivious selector over ``size`` symbols: a line of up to
    12 transient states leading into up to 4 randomly wired states, each
    state keeping all or none of what it reads."""
    line = rng.randint(0, 12)
    core = rng.randint(1, 4)
    states = [f"t{i}" for i in range(line)] + [f"c{i}" for i in range(core)]
    symbols = [str(a) for a in range(size)]
    transitions = []
    for i, q in enumerate(states):
        action = rng.choice(("keep", "drop"))
        for a in symbols:
            target = states[i + 1] if i + 1 < line else f"c{rng.randrange(core)}"
            transitions.append((q, a, action, target))
    return ss.Selector(symbols, states, states[0], transitions)


def reference_reports(selector, word, ks, mode, after_recurrent):
    """(recurrent entry, counted input, counted output, reports by side)
    from scalar steps, ``run_word`` and ``block_frequencies``."""
    recurrent = ss.scc_decomposition(selector).recurrent_states()
    q = selector.initial
    entry = 0 if q in recurrent else None
    for i, a in enumerate(word):
        if entry is not None:
            break
        q = selector.step(q, a)[0]
        if q in recurrent:
            entry = i + 1
    skip = 0
    if after_recurrent:
        skip = len(word) if entry is None else entry
    start = ss.run_word(selector, selector.initial, word[:skip]).end
    counted_in = word[skip:]
    counted_out = ss.run_word(selector, start, counted_in).output

    def reports(seq):
        out = {}
        for k in ks:
            if len(seq) >= k:
                out[k] = ss.block_frequencies(selector.alphabet, seq, k, mode)
            else:  # no block fits: every count is zero
                out[k] = ss.FrequencyReport(
                    selector.alphabet, mode, k, len(seq),
                    np.zeros(len(selector.alphabet) ** k, dtype=np.int64),
                )
        return out

    return entry, counted_in, counted_out, reports(counted_in), reports(counted_out)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
@pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
@pytest.mark.parametrize("after_recurrent", [False, True])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_run_experiment_matches_run_word_reference(chunk, mode, after_recurrent, data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    size = rng.choice((2, 3))
    selector = random_oblivious_selector(rng, size)
    ks = tuple(sorted(set(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))))
    n = data.draw(st.integers(max(ks) * 100, max(ks) * 100 + 200))
    spec = ss.GeneratorSpec(
        kind=ss.MARKOV_SAMPLE, alphabet=selector.alphabet, n=n,
        measure=ss.uniform_measure(selector.alphabet), seed=rng.randrange(2**32),
    )
    config = ss.ExperimentConfig(
        selector=selector, generator=spec, ks=ks, mode=mode,
        after_recurrent=after_recurrent, chunk=chunk,
    )
    report = ss.run_experiment(config)

    word = selector.alphabet.decode(ss.generate(spec))
    entry, counted_in, counted_out, ins, outs = reference_reports(
        selector, word, ks, mode, after_recurrent
    )
    assert report.recurrent_entry == entry
    assert report.input_length == n
    assert report.output_length == len(counted_out)
    for side, expected in ((report.input_reports, ins), (report.output_reports, outs)):
        assert sorted(side) == list(ks)
        for k in ks:
            assert (side[k].k, side[k].n, side[k].mode) == (k, expected[k].n, mode)
            np.testing.assert_array_equal(side[k].counts, expected[k].counts)


def test_recurrent_entry_inside_a_chunk():
    """A line of 10 transient states enters the recurrent loop after the
    tenth symbol, inside the second 7-symbol chunk; only what follows is
    counted with ``after_recurrent``."""
    states = [f"t{i}" for i in range(10)] + ["c"]
    transitions = [
        (q, a, "keep", states[i + 1]) for i, q in enumerate(states[:-1]) for a in "01"
    ] + [("c", a, "keep", "c") for a in "01"]
    selector = ss.Selector("01", states, "t0", transitions)
    spec = ss.GeneratorSpec(kind=ss.CHAMPERNOWNE, alphabet=selector.alphabet, n=300)
    for after in (False, True):
        report = ss.run_experiment(
            ss.ExperimentConfig(
                selector=selector, generator=spec, ks=(1, 2), chunk=7, after_recurrent=after
            )
        )
        assert report.recurrent_entry == 10
        word = ss.generate(spec)[10 if after else 0 :]
        assert report.output_length == report.input_reports[1].n == len(word)
        expected = ss.block_frequencies(selector.alphabet, word, 2)
        np.testing.assert_array_equal(report.output_reports[2].counts, expected.counts)
