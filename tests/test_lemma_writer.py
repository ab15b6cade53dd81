"""``lemma-check`` writes each table's check rows as they come, with no
result object per line.  Its bytes must be the library's results written
through ``_format_lemma_line``, the one-line reference, in every mode; and
the two stream faults of the CLI stay mended: a reader that closes stdout
ends a command quietly, and a token longer than any symbol is refused at
once, with a short message.
"""

import io
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import cli
from sftselect import fixtures as fx
from sftselect.cli import _format_lemma_line, main
from sftselect.formats import serialize_machine

from conftest import random_complete_dfa

AFTER_ONES = str(fx.data_path("after_ones.sel"))
SRC = Path(ss.__file__).resolve().parents[1]


def _expected(results, single_char=True, footer="") -> str:
    return "".join(f"{_format_lemma_line(r, single_char)}\n" for r in results) + footer


def _cli(argv, capsys):
    status = main(["lemma-check", *argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    return status, captured.out


def _write(tmp_path, selector) -> str:
    path = tmp_path / "m.sel"
    path.write_text(serialize_machine(selector))
    return str(path)


def test_golden_measure_mode_equals_the_library(capsys, even_positions, golden, golden_witness):
    argv = ["--selector", str(fx.data_path("even_positions.sel")),
            "--measure", str(fx.data_path("golden_parry.msr")), "--n-max", "10", "--w-max", "4"]
    results = ss.lemma_check(even_positions, 10, 4, mu=golden, witness=golden_witness)
    assert _cli(argv, capsys) == (0, _expected(results))


def _dotted_selector() -> ss.Selector:
    """Oblivious over multi-character symbols, one of them dotted: q1 keeps
    what it reads, q0 drops it, and ``c`` leads to q1."""
    symbols = ["ab", "c", "d.e"]
    moves = [(q, a, "keep" if q == "q1" else "drop", "q1" if a == "c" else "q0")
             for q in ("q0", "q1") for a in symbols]
    return ss.Selector(symbols, ["q0", "q1"], "q0", moves)


def test_multi_character_alphabet_equals_the_library(tmp_path, capsys):
    selector = _dotted_selector()
    path = _write(tmp_path, selector)
    status, out = _cli(["--selector", path, "--n-max", "6", "--w-max", "3"], capsys)
    assert (status, out) == (0, _expected(ss.lemma_check(selector, 6, 3), False))
    assert "w=c.d\\.e " in out
    status, out = _cli(["--selector", path, "--equirun", "2", "--epsilon", "0.5",
                        "--n-max", "6"], capsys)
    scan = ss.equirun_scan(selector, 2, 0.5, 6)
    footer = f"# equirun witness n={scan.witness_n}\n" if scan.passed else ""
    assert (status, out) == (0 if scan.passed else 3, _expected(scan.results, False, footer))


def test_equirun_fail_lines_equal_the_library(capsys, after_ones):
    argv = ["--selector", AFTER_ONES, "--equirun", "2", "--epsilon", "0.0001", "--n-max", "12"]
    scan = ss.equirun_scan(after_ones, 2, 0.0001, 12)
    status, out = _cli(argv, capsys)
    assert not scan.passed and (status, out) == (3, _expected(scan.results))
    assert " FAIL\n" in out and " PASS\n" in out and "# equirun" not in out


def test_count_band_past_the_float_range_is_one_error_line(capsys):
    """A count-mode scan that reaches an n whose band no float holds exits
    1 with one error line naming n and #A**(n - k), and prints nothing."""
    argv = ["--selector", AFTER_ONES, "--equirun", "1", "--epsilon", "0", "--n-max", "1100"]
    status = main(["lemma-check", *argv])
    captured = capsys.readouterr()
    error = "error: equirun band at n = 1025 cannot be a float: #A**(n - k) = 2**1024\n"
    assert (status, captured.out, captured.err) == (1, "", error)
    # a scan that finds its witness first prints what it printed before
    argv = ["--selector", AFTER_ONES, "--equirun", "1", "--epsilon", "0.5"]
    assert _cli([*argv, "--n-max", "1100"], capsys) == _cli([*argv, "--n-max", "2"], capsys)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), n_max=st.integers(0, 8), w_max=st.integers(0, 4))
def test_random_oblivious_selectors_equal_the_library(seed, n_max, w_max):
    dfa, accepting = random_complete_dfa(random.Random(seed))
    selector = ss.dfa_to_selector(dfa, accepting)
    with tempfile.TemporaryDirectory() as tmp, mock.patch("sys.stdout", io.StringIO()) as out:
        path = _write(Path(tmp), selector)
        status = main(["lemma-check", "--selector", path, "--n-max", str(n_max),
                       "--w-max", str(w_max)])
    results = list(ss.lemma_check(selector, n_max, w_max))
    assert status == (0 if all(r.passed for r in results) else 3)
    assert out.getvalue() == _expected(results)


class _Writes:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_a_table_goes_out_in_more_than_one_write(after_ones):
    """Lines are flushed every ``_LEMMA_BATCH``, inside a table too."""
    sink = _Writes()
    with mock.patch.object(cli, "_LEMMA_BATCH", 4), mock.patch("sys.stdout", sink):
        assert main(["lemma-check", "--selector", AFTER_ONES, "--n-max", "6", "--w-max", "3"]) == 0
    assert "".join(sink.writes) == _expected(ss.lemma_check(after_ones, 6, 3))
    assert all(text.count("\n") == 4 for text in sink.writes[:-1])
    # the 15 lines of (q0, n = 5) span four writes
    assert sum(" p=q0 n=5 " in text for text in sink.writes) == 4


def _spawn(*args) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen([sys.executable, "-m", "sftselect.cli", *args], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


@pytest.mark.parametrize("command", ["lemma-check", "select"])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, command):
    """The reader takes one byte and closes its end: no ``error:`` line, and
    the documented status."""
    if command == "select":
        # after_ones keeps what follows a 1: 10^6 symbols select half of them
        path = tmp_path / "x.txt"
        path.write_text("01" * 500_000 + "\n")
        args = ["--in", str(path)]
    else:
        args = ["--n-max", "12", "--w-max", "12"]
    with _spawn(command, "--selector", AFTER_ONES, *args) as proc:
        try:
            assert proc.stdout.read(1)
            proc.stdout.close()
            err = proc.stderr.read()
            status = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert (status, err) == (cli.CLOSED_STDOUT, b"")


def test_a_closed_out_file_keeps_its_error_line(tmp_path):
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    args = ["--selector", AFTER_ONES, "--n-max", "12", "--w-max", "12", "--out", str(fifo)]
    with _spawn("lemma-check", *args) as proc:
        try:
            with open(fifo, "rb") as reader:  # waits for the command to open it
                assert reader.read(1) == b"L"
            err = proc.stderr.read()
            status = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert (status, err) == (1, b"error: [Errno 32] Broken pipe\n")


def _traced(argv, text):
    """(status, stderr, traced peak) of ``main(argv)`` reading ``text``."""
    stdin = io.StringIO(text)
    tracemalloc.start()
    try:
        with mock.patch("sys.stdin", stdin), mock.patch("sys.stdout", io.StringIO()), \
                mock.patch("sys.stderr", io.StringIO()) as err:
            status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return status, err.getvalue(), peak


@pytest.mark.parametrize("command, before", [("freq", ""), ("select", "ab c ")])
def test_a_long_token_is_refused_at_once(tmp_path, command, before):
    """A 10^6-character token cannot be a symbol; it is refused after the
    first piece of it, at its position in the whole input, shown by its
    first 32 characters, and it adds less than a few pieces to the peak."""
    selector = _dotted_selector()
    if command == "select":
        argv = ["select", "--selector", _write(tmp_path, selector)]
    else:
        argv = ["freq", "--k", "1", "--alphabet", *selector.alphabet.symbols]
    *_, short = _traced(argv, before + "c\n")
    status, err, peak = _traced(argv, before + "d" * 10**6 + " c\n")
    position = 1 + len(before.split())
    assert (status, err) == (1, (
        f"error: symbol {'d' * 32!r}... ({cli._PIECE - len(before)} characters read) "
        f"is not in alphabet ['ab', 'c', 'd.e'] at position {position}\n"
    ))
    assert peak - short < 4 * cli._PIECE


def test_a_long_symbol_is_shown_short():
    err = ss.UnknownSymbol("x" * 100, ["0", "1"], 7)
    shown = f"{'x' * 32!r}... (100 characters read)"
    assert str(err) == f"symbol {shown} is not in alphabet ['0', '1'] at position 7"
    assert err.symbol == "x" * 100
