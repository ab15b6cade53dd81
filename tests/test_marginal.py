"""Differential tests of counting every block length with one sliding
counter: ``BlockCounter.marginal`` against per-length reference counters,
``run_experiment`` CSV bytes across chunk sizes in sliding, recurrent-restart
and aligned mode, the forbidden-pair watch in both modes, the one-pass
target ladder, and the count budget, which must refuse a block length
before allocating anything."""

import io
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import experiment, seqgen
from sftselect import fixtures as fx
from sftselect.cli import main
from sftselect.experiment import write_experiment_csv
from sftselect.measures import block_measure_ladder

from conftest import random_irreducible_measure


@settings(max_examples=300, deadline=None)
@given(data=st.data(), na=st.integers(1, 3), top=st.integers(1, 6))
def test_marginal_matches_per_length_counters(data, na, top):
    # chunk sizes include 0, and the whole sequence may be shorter than top
    sizes = data.draw(st.lists(st.integers(0, 9), max_size=8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    chunks = [rng.integers(0, na, size=s) for s in sizes]
    counter = ss.BlockCounter(na, top)
    for chunk in chunks:
        counter.update(chunk)
    whole = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    for k in range(1, top + 1):
        reference = ss.BlockCounter(na, k)
        reference.update(whole)
        got = counter.marginal(k)
        assert got.dtype == np.int64
        assert got.tolist() == reference.counts.tolist()
        assert int(got.sum()) == max(whole.size - k + 1, 0)


def test_marginal_refuses_aligned_and_longer_blocks():
    with pytest.raises(ss.ValidationError):
        ss.BlockCounter(2, 3, ss.ALIGNED).marginal(2)
    counter = ss.BlockCounter(2, 3)
    for k in (0, 4):
        with pytest.raises(ss.BlockLengthOutOfRange):
            counter.marginal(k)


def test_block_frequency_reports_match_single_lengths(binary):
    x = ss.champernowne(binary, 3000)
    for mode in (ss.SLIDING, ss.ALIGNED):
        reports = seqgen.block_frequency_reports(binary, x, [5, 1, 3, 1], mode)
        assert list(reports) == [1, 3, 5]
        for k, rep in reports.items():
            counter = ss.BlockCounter(2, k, mode)
            counter.update(x)
            assert rep.counts.tolist() == counter.counts.tolist()


def test_ladder_matches_block_measure_array(golden):
    # one pass over unsorted, repeated lengths; every vector bit for bit
    ladder = list(block_measure_ladder(golden, [6, 1, 3, 3, 9]))
    assert [k for k, _ in ladder] == [1, 3, 3, 6, 9]
    for k, target in ladder:
        assert target.tobytes() == ss.block_measure_array(golden, k).tobytes()
    with pytest.raises(ss.ValidationError):
        next(block_measure_ladder(golden, [0, 2]))


def _gathered_ladder(mu, top):
    """The ladder as it was once built: each step gathers row i % n of P."""
    n, m = len(mu.alphabet), np.array(mu.pi.weights, dtype=float)
    yield m
    for _ in range(top - 1):
        m = (m[:, None] * mu.P.entries[np.arange(m.size) % n]).reshape(-1)
        yield m


def test_broadcast_ladder_matches_gathered_rows_bit_for_bit(golden, uniform2):
    """Broadcasting P over (m / n, n, 1) blocks multiplies the same operands
    as the row gather did, so every vector keeps its bits."""
    three = random_irreducible_measure(random.Random(17), 3)
    for mu, top in ((golden, 16), (uniform2, 16), (three, 6)):
        ladder = block_measure_ladder(mu, range(1, top + 1))
        for (k, got), want in zip(ladder, _gathered_ladder(mu, top), strict=True):
            assert got.tobytes() == want.tobytes(), k


class TestCountBudget:
    def test_budget_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            for size, k in ((2, 40), (2, 28), (3, 18), (20, 7)):
                with pytest.raises(ss.BlockLengthOutOfRange, match="budget"):
                    ss.BlockCounter(size, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(seqgen, "COUNT_BUDGET_BYTES", 8 * 2**10)
        assert ss.BlockCounter(2, 10).counts.size == 2**10
        for mode in (ss.SLIDING, ss.ALIGNED):
            with pytest.raises(ss.BlockLengthOutOfRange):
                ss.BlockCounter(2, 11, mode)
        assert ss.BlockCounter(1, 100).counts.size == 1

    @pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
    def test_experiment_cli_k40_exits_one(self, tmp_path, capsys, mode):
        args = [
            "experiment", "--selector", str(fx.data_path("after_ones.sel")),
            "--uniform", "--gen", "champernowne", "--n", "5000",
            "--k", "1", "--k", "40", "--mode", mode, "--out", str(tmp_path / "r.csv"),
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: block length 40") and "budget" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_freq_cli_k40_exits_one(self, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        seq.write_text("0110" * 40)
        assert main(["freq", "--k", "2", "--k", "40", "--in", str(seq)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: block length 40") and err.count("\n") == 1


def keep_first(count: int) -> ss.Selector:
    """Keeps the first ``count`` symbols, then drops everything."""
    states = [f"s{i}" for i in range(count + 1)]
    transitions = [(states[-1], a, "drop", states[-1]) for a in "01"]
    for i in range(count):
        transitions += [(states[i], a, "keep", states[i + 1]) for a in "01"]
    return ss.Selector(fx.binary_alphabet(), states, "s0", transitions)


def headed_after_ones() -> ss.Selector:
    """after_ones behind a transient head state that drops two symbols."""
    transitions = [
        ("h0", "0", "drop", "h1"), ("h0", "1", "drop", "h1"),
        ("h1", "0", "drop", "q0"), ("h1", "1", "drop", "q1"),
        ("q0", "0", "drop", "q0"), ("q0", "1", "drop", "q1"),
        ("q1", "0", "keep", "q0"), ("q1", "1", "keep", "q1"),
    ]
    return ss.Selector(fx.binary_alphabet(), ["h0", "h1", "q0", "q1"], "h0", transitions)


def render(config) -> str:
    buf = io.StringIO()
    write_experiment_csv(ss.run_experiment(config), buf)
    return buf.getvalue()


def uniform_spec(n=3000, seed=4):
    return ss.GeneratorSpec(
        kind=ss.MARKOV_SAMPLE, alphabet=fx.binary_alphabet(), n=n,
        measure=fx.uniform_binary_measure(), seed=seed,
    )


CSV_CASES = {
    "sliding": dict(selector=fx.after_ones_selector(), ks=(1, 2, 3, 5)),
    "sliding-k1-only": dict(selector=fx.after_ones_selector(), ks=(1,)),
    "after-recurrent": dict(selector=headed_after_ones(), ks=(3, 1), after_recurrent=True),
    "after-recurrent-markov": dict(
        selector=fx.even_positions_selector(), ks=(3, 1), after_recurrent=True,
        measure=fx.golden_parry_measure(),
        generator=ss.GeneratorSpec(
            kind=ss.MARKOV_SAMPLE, alphabet=fx.binary_alphabet(), n=3000,
            measure=fx.golden_parry_measure(), seed=8,
        ),
    ),
    "output-shorter-than-K": dict(selector=keep_first(2), ks=(1, 2, 3)),
    "output-shorter-than-K-recurrent": dict(
        selector=keep_first(2), ks=(1, 2, 3), after_recurrent=True
    ),
    "aligned": dict(selector=fx.after_ones_selector(), ks=(1, 2, 3, 5), mode=ss.ALIGNED),
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_bytes_do_not_depend_on_chunk_size(case):
    kw = {"generator": uniform_spec(), **CSV_CASES[case]}
    small, large = (render(ss.ExperimentConfig(**kw, chunk=c)) for c in (7, 1 << 16))
    assert small == large
    assert small.endswith("\n") and "# RESULT" in small


@pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
@pytest.mark.parametrize("selector", [fx.after_ones_selector(), keep_first(2)])
def test_reports_match_per_length_reference(selector, mode):
    spec = uniform_spec(n=2000)
    x = ss.generate(spec)
    y = np.asarray(ss.SelectionCursor(selector).feed_indices(x), dtype=np.int64)
    config = ss.ExperimentConfig(selector=selector, generator=spec, ks=(4, 1, 2), mode=mode, chunk=7)
    report = ss.run_experiment(config)
    assert report.output_length == y.size
    for reports, seq in ((report.input_reports, x), (report.output_reports, y)):
        for k in config.ks:
            reference = ss.BlockCounter(2, k, mode)
            reference.update(seq)
            assert reports[k].n == seq.size
            assert reports[k].counts.tolist() == reference.counts.tolist()


@pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
@pytest.mark.parametrize("ks", [(1,), (1, 2), (1, 3)])
def test_forbidden_pairs_caught_in_both_modes(monkeypatch, mode, ks):
    # after_ones is incompatible with the golden measure; let it run anyway
    # so its output, which repeats 1s, reaches the forbidden-pair watch
    monkeypatch.setattr(
        experiment, "check_selector_compatibility", lambda *a: SimpleNamespace(ok=True)
    )
    selector = fx.after_ones_selector()
    spec = uniform_spec(n=2000)
    y = "".join(
        selector.alphabet.decode(ss.SelectionCursor(selector).feed_indices(ss.generate(spec)))
    )
    expected = sum(y[i : i + 2] == "11" for i in range(len(y) - 1))
    assert expected > 0
    for chunk in (7, 1 << 16):
        config = ss.ExperimentConfig(
            selector=selector, generator=spec, measure=fx.golden_parry_measure(),
            ks=ks, mode=mode, chunk=chunk,
        )
        report = ss.run_experiment(config)
        assert report.forbidden_counts == {("1", "1"): expected}
        assert not report.support_ok
        buf = io.StringIO()
        write_experiment_csv(report, buf)
        assert buf.getvalue().splitlines()[-1].endswith(f"occ(11)={expected}")
