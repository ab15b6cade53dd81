"""Differential tests of the block-row writer's count-table ranking and of
the marginal ladder.  ``_write_block_rows`` ranks a row from a presence
table over its key range when that range has at most #A**k entries, and
by the sorted distinct keys otherwise; both must write the bytes of the
sort-only ranking kept here as ``_sorted_block_rows``.  The marginals of a
sliding counter are taken down one ladder, each length from the next
longer one, and must equal ``marginal(k)`` and a direct recount."""

import io
import random
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import experiment, seqgen
from sftselect.measures import block_measure_array

from conftest import random_irreducible_measure


def _distinct(values):
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _sorted_block_rows(rep, targets, out):
    """The row writer before the count table: every row ranked among the
    sorted distinct (count rank, target bits rank) keys, and the labels of
    the last m letters built on each call."""
    counts = np.asarray(rep.counts, dtype=np.int64)
    columns = [counts]
    if targets is not None:
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        columns.append(targets.view(np.uint64))
    levels = [_distinct(column) for column in columns]
    alpha = rep.alphabet
    m = 1
    while m < rep.k and len(alpha) ** (m + 1) <= 1024:
        m += 1
    size = len(alpha) ** m
    slices = [slice(lo, lo + size) for lo in range(0, counts.size, size)]
    rank = np.empty(counts.size, dtype=np.int64)
    for s in slices:
        key = 0
        for column, level in zip(columns, levels):
            key = key * level.size + np.searchsorted(level, column[s])
        rank[s] = key
    keys = _distinct(rank)
    first = np.empty(keys.size, dtype=np.int64)
    for s in slices:
        rank[s] = np.searchsorted(keys, rank[s])
        first[rank[s]] = np.arange(s.start, s.stop)
    c, f = counts[first].tolist(), rep.frequencies[first].tolist()
    if targets is None:
        tails = [f",{c},{f!r}\n" for c, f in zip(c, f)]
    else:
        t = targets[first].tolist()
        tails = [f",{c},{f!r},{t!r},{abs(f - t)!r}\n" for c, f, t in zip(c, f, t)]
    tails = np.array(tails, dtype=object)
    sep = "" if alpha.single_char else " "
    quote = '"' if any(c in a for a in alpha for c in ',"') else ""
    triples = np.empty((size, 3), dtype=object)
    triples[:, 1] = [sep.join(w).replace('"', '""') + quote for w in alpha.words(m)]
    for head, s in zip(alpha.words(rep.k - m), slices):
        triples[:, 0] = quote + (sep.join(head).replace('"', '""') + sep if head else "")
        triples[:, 2] = tails[rank[s]]
        out.write("".join(triples.ravel().tolist()))


# multi-character tokens, and tokens that quote every label
_TOKENS = ["0", "1", "ab", "ccc", "α", "a,b", 'q"', "z"]
# how far the counts spread above the least: in and past #A**k
_SPREADS = ["zero", "one", "half", "rows", "past", "wide"]


def _counts(rng, rows, spread, tsize):
    if spread == "zero":
        return np.zeros(rows, dtype=np.int64)
    width = {"one": 1, "half": max(rows // (2 * tsize), 1), "rows": max(rows // tsize, 1),
             "past": rows // tsize + 1, "wide": 10**12}[spread]
    counts = rng.integers(0, width + 1, size=rows) + int(rng.choice([0, 3, 10**6]))
    counts[rng.random(rows) < 0.3] = 0  # absent blocks, as sliding counts have
    return counts


def _targets(rng, kind, alpha, k):
    rows = len(alpha) ** k
    if kind == "none":
        return None
    if kind == "few":
        return rng.choice([0.0, -0.0, 0.5, 1 / 3, 0.125], size=rows)
    if kind == "uniform":
        return np.full(rows, 1 / rows)
    mu = random_irreducible_measure(random.Random(int(rng.integers(2**32))), len(alpha))
    return block_measure_array(mu, k)  # Markov: about as many targets as rows


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_count_table_ranking_matches_sorted_ranking(data):
    symbols = data.draw(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4, unique=True))
    alpha = ss.Alphabet(symbols)
    na = len(symbols)
    k = data.draw(st.integers(1, max(k for k in range(1, 13) if na**k <= 4096) if na > 1 else 3))
    rows = na**k
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    targets = _targets(rng, data.draw(st.sampled_from(["none", "few", "uniform", "markov"])), alpha, k)
    tsize = 1 if targets is None else np.unique(targets.view(np.uint64)).size
    counts = _counts(rng, rows, data.draw(st.sampled_from(_SPREADS)), tsize)
    mode = data.draw(st.sampled_from([ss.SLIDING, ss.ALIGNED]))
    windows = int(counts.sum())
    n = windows + k - 1 if mode == ss.SLIDING else windows * k
    rep = ss.FrequencyReport(alphabet=alpha, mode=mode, k=k, n=n, counts=counts)
    expected = io.StringIO()
    _sorted_block_rows(rep, targets, expected)
    size = data.draw(st.sampled_from([1, 3, 1024]))
    with mock.patch.object(experiment, "_CSV_SLICE", size):
        got = io.StringIO()
        experiment._write_block_rows(rep, targets, got, {})
    assert got.getvalue() == expected.getvalue()


def test_both_rankings_at_every_length():
    """Counts that span less and more than #A**k, and a single row: one
    shared suffix dict across lengths, as a CSV or ``freq`` table uses."""
    rng = np.random.default_rng(22)
    for symbols, ks in ((["0", "1"], range(1, 15)), (["x", "y,y", 'z"'], range(1, 8)), (["0"], (1, 5))):
        alpha = ss.Alphabet(symbols)
        suffixes = {}
        for k in ks:
            rows = len(symbols) ** k
            for spread in ("one", "rows", "past", "wide"):
                counts = _counts(rng, rows, spread, 1)
                rep = ss.FrequencyReport(
                    alphabet=alpha, mode=ss.SLIDING, k=k, n=int(counts.sum()) + k - 1, counts=counts
                )
                for targets in (None, np.full(rows, 1 / rows)):
                    expected, got = io.StringIO(), io.StringIO()
                    _sorted_block_rows(rep, targets, expected)
                    experiment._write_block_rows(rep, targets, got, suffixes)
                    assert got.getvalue() == expected.getvalue()
        assert set(suffixes) == {min(k, 10 if len(symbols) == 2 else 6) for k in ks}


def _recount(whole, k, na):
    """Sliding block counts of ``whole`` by a scalar loop."""
    seen = Counter(tuple(whole[i : i + k]) for i in range(whole.size - k + 1))
    codes = [sum(int(a) * na ** (k - 1 - j) for j, a in enumerate(w)) for w in seen]
    counts = np.zeros(na**k, dtype=np.int64)
    counts[codes] = list(seen.values())
    return counts


@settings(max_examples=200, deadline=None)
@given(data=st.data(), na=st.integers(1, 3), top=st.integers(1, 7))
def test_marginal_ladder_matches_marginal_and_recount(data, na, top):
    # every carry length: the sequence runs from empty to past the top length
    n = data.draw(st.integers(0, top + 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    whole = rng.integers(0, na, size=n)
    counter = ss.BlockCounter(na, top)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        counter.update(whole[lo:hi])
    ks = data.draw(st.lists(st.integers(1, top), min_size=1, unique=True))
    ladder = dict(counter._marginals(ks))
    assert list(ladder) == sorted(ks, reverse=True)
    for k in ks:
        assert ladder[k].tolist() == counter.marginal(k).tolist() == _recount(whole, k, na).tolist()
    reports = seqgen._block_reports(ss.Alphabet([str(a) for a in range(na)]), {counter: ks})
    assert list(reports) == ks
    assert all(reports[k].counts.tolist() == ladder[k].tolist() for k in ks)
