"""Decisions spelled once: the narrow dtype of block letters and
Champernowne chunks against scalar references, the word-end tables
against scalar stepping, each shared block counter fed once a chunk with
its reports in the caller's order of lengths, realizable runs decided by
``run_word``, one check of the snake labeling in both modes, and the CLI
refusing options a command would not read."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect import seqgen
from sftselect.cli import main
from sftselect.experiment import ExperimentConfig, run_experiment
from sftselect.machines import _word_ends, block_codes, block_letters


def letters_dtype(base: int) -> np.dtype:
    return np.dtype(np.uint8 if base <= 256 else np.uint16)


def scalar_letters(code: int, k: int, base: int) -> list:
    """The k big-endian letters of ``code`` by repeated divmod."""
    out = []
    for _ in range(k):
        code, a = divmod(code, base)
        out.append(a)
    return out[::-1]


@pytest.mark.parametrize("base", [1, 2, 3, 255, 256, 257])
@pytest.mark.parametrize("k", range(1, 17))
def test_block_letters_match_divmod_in_the_narrow_dtype(base, k):
    """Codes at both ends and random ones in between (below 2**63, past
    which no int64 code exists), given as int64 and as the narrow codes of
    ``block_codes``."""
    top = min(base**k, 2**63) - 1
    rng = np.random.default_rng(base * 100 + k)
    codes = [0, top, top // 2, *rng.integers(0, top, size=50, endpoint=True).tolist()]
    letters = block_letters(np.array(codes, dtype=np.int64), k, base)
    assert letters.dtype == letters_dtype(base)
    assert letters.shape == (len(codes), k)
    assert letters.tolist() == [scalar_letters(c, k, base) for c in codes]
    if base**k <= 2**63:  # block_codes' own dtype round-trips
        again = block_letters(block_codes(letters.ravel(), k, base), k, base)
        assert again.dtype == letters_dtype(base)
        assert again.tolist() == letters.tolist()


def scalar_champernowne(base: int, n: int) -> list:
    """The first n letters of every word by length, then lexicographically."""
    out = []
    for length in itertools.count(1):
        for word in itertools.product(range(base), repeat=length):
            if len(out) >= n:
                return out[:n]
            out.extend(word)


@pytest.mark.parametrize("base", [1, 2, 3, 257])
@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_champernowne_chunks_match_the_definition(base, chunk):
    n = 200_003 if chunk == 1 << 16 else 3_001
    alpha = ss.Alphabet([f"s{i}" for i in range(base)])
    spec = ss.GeneratorSpec(ss.CHAMPERNOWNE, alpha, n)
    chunks = list(ss.generate_chunks(spec, chunk))
    expected = scalar_champernowne(base, n)
    assert {c.dtype for c in chunks} == {letters_dtype(base)}
    assert np.concatenate(chunks).tolist() == expected
    longest = next(j for j in itertools.count(1) if sum(base**i * i for i in range(1, j + 1)) >= n)
    assert all(0 < c.size <= max(chunk, longest) for c in chunks)  # whole words, at least one
    for whole in (ss.generate(spec), ss.champernowne(alpha, n)):
        assert whole.dtype == np.int64
        assert whole.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data(), nq=st.integers(1, 6), na=st.integers(1, 3), n=st.integers(0, 5))
def test_word_ends_match_scalar_stepping(data, nq, na, n):
    """Every state, the dead one included, and every word of each length."""
    entries = data.draw(st.lists(st.integers(-1, nq - 1), min_size=nq * na, max_size=nq * na))
    nxt = np.array(entries, dtype=np.int64).reshape(nq, na)
    tables = list(_word_ends(nxt, n))
    assert len(tables) == n
    for j, table in enumerate(tables, start=1):
        assert table.shape == (nq + 1, na**j)
        for s in range(nq + 1):
            for code, word in enumerate(itertools.product(range(na), repeat=j)):
                q = s
                for a in word:
                    q = nq if q == nq or nxt[q, a] < 0 else int(nxt[q, a])
                assert table[s, code] == q


@pytest.fixture
def updates(monkeypatch):
    """The counter of each ``BlockCounter.update`` call, in call order."""
    calls = []
    update = ss.BlockCounter.update

    def spy(self, chunk):
        calls.append(self)
        return update(self, chunk)

    monkeypatch.setattr(ss.BlockCounter, "update", spy)
    return calls


@pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
def test_experiment_feeds_each_counter_once_a_chunk(updates, mode):
    """Sliding: one counter a side, the output's also the pair watch;
    aligned: one a length a side, plus the output's pair watch."""
    n, chunk, ks = 5_000, 700, (3, 1, 2)
    sel = fx.after_ones_selector()
    spec = ss.GeneratorSpec(ss.CHAMPERNOWNE, sel.alphabet, n)
    report = run_experiment(ExperimentConfig(sel, spec, ks=ks, mode=mode, chunk=chunk))
    chunks = len(list(ss.generate_chunks(spec, chunk)))
    counters = {id(c): c for c in updates}
    assert len(counters) == (2 if mode == ss.SLIDING else 2 * len(ks) + 1)
    assert all(updates.count(c) == chunks for c in counters.values())
    assert list(report.input_reports) == list(report.output_reports) == [1, 2, 3]
    assert report.output_length == report.output_reports[1].n


@pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
def test_count_blocks_feeds_each_counter_once_a_chunk(updates, mode):
    alpha = ss.Alphabet(["0", "1", "2"])
    x = ss.champernowne(alpha, 3_000)
    pieces = np.array_split(x, 5)
    reports = seqgen._count_blocks(alpha, [3, 1, 2], mode, pieces)
    assert list(reports) == [3, 1, 2]
    assert len(set(map(id, updates))) == (1 if mode == ss.SLIDING else 3)
    assert len(updates) == 5 * len(set(map(id, updates)))
    whole = seqgen.block_frequency_reports(alpha, x, [1, 2, 3], mode)
    assert all(reports[k].counts.tolist() == whole[k].counts.tolist() for k in (1, 2, 3))


def test_block_reports_keep_the_maps_order_of_lengths():
    counter = ss.BlockCounter(2, 4)
    counter.update(ss.champernowne(["0", "1"], 500))
    reports = seqgen._block_reports(fx.binary_alphabet(), {counter: [2, 4, 1, 3]})
    assert list(reports) == [2, 4, 1, 3]
    assert all(reports[k].counts.tolist() == counter.marginal(k).tolist() for k in reports)


class TestLiftedRunRefusals:
    @pytest.fixture
    def chain(self, even_positions, golden, golden_witness, monkeypatch):
        chain = ss.compatible_chain(even_positions, golden, golden_witness)

        def no_tables():
            raise AssertionError("lifted_run_measure read the machine's tables")

        monkeypatch.setattr(chain.machine, "tables", no_tables)
        return chain

    @pytest.mark.parametrize("word", [("2",), ("0", "x"), "01a"])
    def test_foreign_symbol_is_unrealizable(self, chain, golden, golden_witness, word):
        with pytest.raises(ss.UnrealizableRun) as err:
            ss.lifted_run_measure(chain, golden, golden_witness, "000", word)
        assert (err.value.state, err.value.word) == ("000", tuple(word))

    def test_undefined_step_is_unrealizable(self, chain, golden, golden_witness):
        with pytest.raises(ss.UnrealizableRun, match="no run from state '110' over input '011'"):
            ss.lifted_run_measure(chain, golden, golden_witness, "110", "011")  # 1 after 1

    def test_unknown_state_is_a_validation_error(self, chain, golden, golden_witness):
        with pytest.raises(ss.ValidationError, match="unknown state 'zz'"):
            ss.lifted_run_measure(chain, golden, golden_witness, "zz", "0")

    def test_realizable_run_is_measured(self, chain, golden, golden_witness):
        value = ss.lifted_run_measure(chain, golden, golden_witness, "000", "0")
        assert 0.0 < value < chain.stationary_of("000")


class TestUnknownLabeling:
    def test_uniform_mode(self, after_ones):
        with pytest.raises(ss.ValidationError, match="unknown labeling 'bogus'"):
            ss.snake_distribution(after_ones.underlying_automaton(), 2, labeling="bogus")

    def test_markov_mode(self, even_positions, golden, golden_witness):
        auto = even_positions.underlying_automaton()
        with pytest.raises(ss.ValidationError, match="unknown labeling 'bogus'"):
            ss.snake_distribution(auto, 2, mu=golden, witness=golden_witness, labeling="bogus")


AFTER_ONES = str(fx.data_path("after_ones.sel"))


class TestUnreadOptions:
    @pytest.mark.parametrize(
        "argv, err",
        [
            (["gen", "--kind", "champernowne", "--seed", "3", "--n", "5"],
             "--seed does not apply to --kind champernowne, which has no seed"),
            (["gen", "--kind", "champernowne", "--seed", "0", "--n", "5"],
             "--seed does not apply to --kind champernowne, which has no seed"),
            (["experiment", "--selector", AFTER_ONES, "--gen", "champernowne", "--seed", "1",
              "--n", "3000"],
             "--seed does not apply to --gen champernowne, which has no seed"),
            (["lemma-check", "--selector", AFTER_ONES, "--epsilon", "0.2"],
             "--epsilon does not apply without --equirun"),
            (["lemma-check", "--selector", AFTER_ONES, "--equirun", "2", "--w-max", "3"],
             "--w-max does not apply with --equirun"),
            (["lemma-check", "--selector", AFTER_ONES, "--max-enum", "1", "--n-max", "3"],
             "--max-enum does not apply without --measure"),
            (["lemma-check", "--selector", AFTER_ONES, "--equirun", "2", "--max-enum", "64"],
             "--max-enum does not apply without --measure"),
        ],
    )
    def test_refused_with_one_error_line(self, argv, err, capsys):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize(
        "absent, default",
        [
            (["gen", "--n", "50"], ["--seed", "0"]),
            (["experiment", "--selector", AFTER_ONES, "--n", "3000"], ["--seed", "0"]),
            (["lemma-check", "--selector", AFTER_ONES, "--n-max", "5"], ["--w-max", "4"]),
            (["lemma-check", "--selector", AFTER_ONES, "--equirun", "2", "--n-max", "12"],
             ["--epsilon", "0.1"]),
            (["lemma-check", "--selector", str(fx.data_path("even_positions.sel")), "--measure",
              str(fx.data_path("golden_parry.msr")), "--n-max", "5"], ["--max-enum", "1048576"]),
        ],
    )
    def test_absent_options_take_their_defaults(self, absent, default, capsys):
        outputs = []
        for argv in (absent, absent + default):
            outputs.append((main(argv), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].out

    def test_equirun_default_epsilon_in_the_refusal_text(self, capsys):
        argv = ["lemma-check", "--selector", AFTER_ONES, "--equirun", "0", "--n-max", "4"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: equirun scan needs k >= 1 and epsilon >= 0, got 0 and 0.1\n"
        )
