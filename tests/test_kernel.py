"""Differential tests of the table-walk kernel against its scalar references:
``run_word`` for selection, and ``SplitMix64`` plus a scalar inverse CDF
for Markov sampling."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect.seqgen import _draw_table

from conftest import random_irreducible_measure, random_selector, reference_pick, reference_sample


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_feed_indices_over_pieces_matches_run_word(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    selector = random_selector(rng, partial=data.draw(st.booleans()))
    word = data.draw(st.lists(st.sampled_from("01"), max_size=64))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(word)), max_size=6)))
    bounds = [0, *cuts, len(word)]

    try:
        expected = ss.run_word(selector, selector.initial, word)
        expected_err = None
    except ss.UndefinedTransition as err:
        expected_err = err

    cursor = ss.SelectionCursor(selector)
    got, fed = [], 0
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            got += cursor.feed_indices(selector.alphabet.encode(word[lo:hi])).tolist()
            fed = hi
    except ss.UndefinedTransition as err:
        assert expected_err is not None
        assert (err.state, err.symbol, err.position) == (
            expected_err.state,
            expected_err.symbol,
            expected_err.position,
        )
        assert cursor.position == err.position
        assert cursor.state == err.state
        # what the pieces before the failing one emitted is still right
        prefix = ss.run_word(selector, selector.initial, word[:fed]).output
        assert selector.alphabet.decode(got) == prefix
        return
    assert expected_err is None
    assert selector.alphabet.decode(got) == expected.output
    assert cursor.position == len(word)
    assert cursor.state == expected.end


def _measure(rows) -> ss.MarkovMeasure:
    alpha = ss.Alphabet([str(i) for i in range(len(rows))])
    P = ss.StochasticMatrix(alpha, np.array(rows))
    return ss.MarkovMeasure(ss.stationary_distribution(P), P)


def _zero_first_short_row():
    # symbol 0 has weight 0 in two rows; row 2 sums to 1 - 1e-13, so every
    # u in [its total, 1) falls back to the row's last positive weight, 1
    return _measure([[0.0, 0.5, 0.5], [0.0, 0.2, 0.8], [0.3, 0.7 - 1e-13, 0.0]])


DRAW_MEASURES = [
    fx.golden_parry_measure,
    fx.uniform_binary_measure,
    _zero_first_short_row,
    lambda: random_irreducible_measure(random.Random(4), 3),
    lambda: random_irreducible_measure(random.Random(9), 5),
]


@pytest.mark.parametrize("make", DRAW_MEASURES)
def test_draw_table_matches_scalar_inverse_cdf(make):
    mu = make()
    breaks, table = _draw_table(mu)
    candidates = {0.0, float(np.nextafter(1.0, 0.0))}
    for b in breaks.tolist():
        candidates |= {b, float(np.nextafter(b, 0.0)), float(np.nextafter(b, 1.0))}
    us = sorted(u for u in candidates if 0.0 <= u < 1.0)
    letters = np.searchsorted(breaks, us, side="right")
    weights = mu.P.entries.tolist() + [mu.pi.weights.tolist()]
    for r, row in enumerate(weights):
        expected = [reference_pick(row, u) for u in us]
        assert table[r, letters].tolist() == expected


def test_draw_table_fallback_fires():
    mu = _zero_first_short_row()
    breaks, table = _draw_table(mu)
    total = float(np.cumsum(mu.P.entries[2])[-1])
    assert total < 1.0
    u = float(np.nextafter(total, 1.0))
    assert reference_pick(mu.P.entries[2].tolist(), u) == 1  # past every sum
    assert table[2, np.searchsorted(breaks, u, side="right")] == 1


@pytest.mark.parametrize("chunk, n", [(1, 300), (7, 2000), (1 << 16, 70_000)])
@pytest.mark.parametrize("make", [fx.golden_parry_measure, _zero_first_short_row])
def test_generate_chunks_matches_scalar_reference(make, chunk, n):
    mu = make()
    seed = 2**64 - 3
    spec = ss.GeneratorSpec(
        kind=ss.MARKOV_SAMPLE, alphabet=mu.alphabet, n=n, measure=mu, seed=seed
    )
    pieces = list(ss.generate_chunks(spec, chunk))
    assert all(p.size <= chunk for p in pieces)
    assert np.array_equal(np.concatenate(pieces), reference_sample(mu, seed, n))


def _transient_head_selector(length: int) -> ss.Selector:
    """Oblivious selector that walks ``length`` transient states on any
    input (keeping on every third) before an after-ones recurrent pair."""
    heads = [f"t{i}" for i in range(length)]
    transitions = []
    for i, q in enumerate(heads):
        nxt = heads[i + 1] if i + 1 < length else "r0"
        act = "keep" if i % 3 == 0 else "drop"
        transitions += [(q, "0", act, nxt), (q, "1", act, nxt)]
    transitions += [
        ("r0", "0", "drop", "r0"),
        ("r0", "1", "drop", "r1"),
        ("r1", "0", "keep", "r0"),
        ("r1", "1", "keep", "r1"),
    ]
    return ss.Selector(["0", "1"], heads + ["r0", "r1"], "t0", transitions)


@pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
def test_recurrent_entry_past_chunk_boundary(mode):
    selector = _transient_head_selector(19)  # entry at 19: third chunk of 8
    alpha = selector.alphabet
    spec = ss.GeneratorSpec(
        kind=ss.MARKOV_SAMPLE,
        alphabet=alpha,
        n=1000,
        measure=fx.uniform_binary_measure(),
        seed=11,
    )
    word = alpha.decode(ss.generate(spec))
    recurrent = ss.scc_decomposition(selector).recurrent_states()
    entry = next(
        i for i in range(len(word) + 1)
        if ss.run_word(selector, selector.initial, word[:i]).end in recurrent
    )
    assert 16 < entry <= 24
    head = ss.run_word(selector, selector.initial, word[:entry])
    tail_in = word[entry:]
    tail_out = ss.run_word(selector, head.end, tail_in).output

    for after in (False, True):
        config = ss.ExperimentConfig(
            selector=selector, generator=spec, ks=(1, 2, 3), mode=mode,
            after_recurrent=after, chunk=8,
        )
        report = ss.run_experiment(config)
        assert report.recurrent_entry == entry
        if not after:
            continue
        for k in config.ks:
            for reports, x in (
                (report.input_reports, tail_in),
                (report.output_reports, tail_out),
            ):
                expected = ss.block_frequencies(alpha, list(x), k, mode)
                assert reports[k].n == len(x)
                assert np.array_equal(reports[k].counts, expected.counts)
