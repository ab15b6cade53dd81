"""``select`` and ``freq`` read their input a piece at a time.

The reference is the whole-text path the reader replaced:
``read_symbol_text`` over the whole input, one ``SelectionCursor`` fed the
whole index array, and ``block_frequency_reports`` written through
``_write_block_rows``.  With the piece size cut to 1..7 characters, pieces
split tokens and runs of whitespace; at the default size each input here
is one piece.  Every output and every refusal must still be the
reference's, byte for byte.
"""

import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import cli
from sftselect.cli import main
from sftselect.experiment import _write_block_rows
from sftselect.formats import read_symbol_text, serialize_machine, write_symbol_text
from sftselect.seqgen import block_frequency_reports

ALPHABETS = {"binary": ["0", "1"], "multi": ["ab", "c", "ddd"], "greek": ["α", "β", "γ"]}
SPACES = [" ", "  ", "\n", "\t ", " \n ", "\x1c", "\x85", "\xa0", "\u3000"]
PIECES = [*range(1, 8), 1 << 16]  # and the default: one piece


def _selector(symbols, partial=False) -> ss.Selector:
    """Keeps each symbol read right after the last symbol of the alphabet;
    ``partial`` leaves that symbol undefined right after itself."""
    last = symbols[-1]
    steps = [
        (src, a, "keep" if src == "seen" else "drop", "seen" if a == last else "idle")
        for src in ("idle", "seen")
        for a in symbols
        if not (partial and src == "seen" and a == last)
    ]
    return ss.Selector(ss.Alphabet(symbols), ["idle", "seen"], "idle", steps)


def _text(symbols, tokens, seed=0) -> str:
    """``tokens`` joined by runs of whitespace: none between single
    characters now and then, some always between longer tokens."""
    rng = random.Random(seed)
    single = all(len(s) == 1 for s in symbols)
    gaps = [("" if single and rng.random() < 0.5 else rng.choice(SPACES)) for _ in tokens]
    return rng.choice(["", " ", "\n"]) + "".join(t + g for t, g in zip(tokens, gaps))


def _tokens(symbols, n, seed=0) -> list:
    rng = random.Random(seed)
    return [rng.choice(symbols) for _ in range(n)]


def _run(argv, text, source, tmp_path, capsys):
    """(exit status, stdout, stderr) of ``main(argv)`` reading ``text`` from
    an --in file or from stdin."""
    if source == "file":
        path = tmp_path / "in.txt"
        path.write_text(text)
        status = main([*argv, "--in", str(path)])
    else:
        with mock.patch("sys.stdin", io.StringIO(text)):
            status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _reference_select(selector, text) -> str:
    kept = ss.SelectionCursor(selector).feed_indices(read_symbol_text(selector.alphabet, text))
    return write_symbol_text(selector.alphabet, kept) + "\n"


def _reference_freq(alphabet, text, ks, mode) -> str:
    reports = block_frequency_reports(alphabet, read_symbol_text(alphabet, text), ks, mode)
    out = io.StringIO()
    out.write("block,count,frequency\n")
    for k in reports:
        _write_block_rows(reports[k], None, out)
    return out.getvalue()


def _reference_error(call) -> str:
    with pytest.raises(ss.SftSelectError) as info:
        call()
    return f"error: {info.value}\n"


@pytest.fixture
def machine_file(tmp_path):
    def write(selector):
        path = tmp_path / "m.sel"
        path.write_text(serialize_machine(selector))
        return str(path)

    return write


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name", ALPHABETS)
def test_select_equals_the_whole_text(name, source, piece, tmp_path, capsys, machine_file):
    symbols = ALPHABETS[name]
    selector = _selector(symbols)
    argv = ["select", "--selector", machine_file(selector)]
    for seed, n in enumerate((0, 1, 5, 40)):
        text = _text(symbols, _tokens(symbols, n, seed), seed)
        with mock.patch.object(cli, "_PIECE", piece):
            status, out, err = _run(argv, text, source, tmp_path, capsys)
        assert (status, out, err) == (0, _reference_select(selector, text), "")


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("mode", ["sliding", "aligned"])
@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name", ALPHABETS)
def test_freq_equals_the_whole_text(name, source, mode, piece, tmp_path, capsys):
    symbols = ALPHABETS[name]
    alphabet = ss.Alphabet(symbols)
    argv = ["freq", "--k", "3", "--k", "1", "--mode", mode, "--alphabet", *symbols]
    for seed, n in enumerate((3, 4, 40)):
        text = _text(symbols, _tokens(symbols, n, seed), seed)
        with mock.patch.object(cli, "_PIECE", piece):
            status, out, err = _run(argv, text, source, tmp_path, capsys)
        assert (status, out, err) == (0, _reference_freq(alphabet, text, [1, 3], mode), "")


@pytest.mark.parametrize("piece", [1, 3, 7])
@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text", ["", " \n\t ", "0", " 1 "])
def test_empty_and_short_input(text, source, piece, tmp_path, capsys, machine_file):
    selector = _selector(["0", "1"])
    alphabet = selector.alphabet
    with mock.patch.object(cli, "_PIECE", piece):
        status, out, err = _run(["select", "--selector", machine_file(selector)], text, source,
                                tmp_path, capsys)
        assert (status, out, err) == (0, _reference_select(selector, text), "")
        status, out, err = _run(["freq", "--k", "2"], text, source, tmp_path, capsys)
    expected = _reference_error(
        lambda: block_frequency_reports(alphabet, read_symbol_text(alphabet, text), [2])
    )
    assert (status, out, err) == (1, "", expected)


def _faulty_text(symbols, bad):
    """40 symbols, then ``bad``, then 10 more: the fault lies in a later piece."""
    return _text(symbols, [*_tokens(symbols, 40, 1), bad, *_tokens(symbols, 10, 2)], 3)


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name", ALPHABETS)
def test_foreign_symbol_in_a_later_piece(name, source, piece, tmp_path, capsys, machine_file):
    symbols = ALPHABETS[name]
    selector, alphabet = _selector(symbols), ss.Alphabet(symbols)
    text = _faulty_text(symbols, "x" if len(symbols[0]) == 1 else "abx")
    expected = _reference_error(lambda: read_symbol_text(alphabet, text))
    assert "at position 41" in expected
    with mock.patch.object(cli, "_PIECE", piece):
        select = _run(["select", "--selector", machine_file(selector)], text, source,
                      tmp_path, capsys)
        freq = _run(["freq", "--k", "1", "--alphabet", *symbols], text, source, tmp_path, capsys)
    assert freq == (1, "", expected)
    # the symbols before the foreign one were selected and written
    words = "".join(text.split()) if alphabet.single_char else text.split()
    before = alphabet.encode(words[:40])
    kept = ss.SelectionCursor(selector).feed_indices(before)
    assert select == (1, write_symbol_text(alphabet, kept), expected)


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name", ALPHABETS)
def test_undefined_transition_in_a_later_piece(name, source, piece, tmp_path, capsys,
                                               machine_file):
    symbols = ALPHABETS[name]
    selector = _selector(symbols, partial=True)
    alphabet, last = selector.alphabet, symbols[-1]
    # no symbol is the last one twice in a row until positions 41 and 42
    tokens = [symbols[i % (len(symbols) - 1)] if i % 2 else last for i in range(40)]
    text = _text(symbols, [*tokens, last, last, *symbols], 4)
    idx = read_symbol_text(alphabet, text)
    expected = _reference_error(lambda: ss.SelectionCursor(selector).feed_indices(idx))
    assert "at input position 42" in expected
    with mock.patch.object(cli, "_PIECE", piece):
        status, out, err = _run(["select", "--selector", machine_file(selector)], text, source,
                                tmp_path, capsys)
    kept = ss.SelectionCursor(selector).feed_indices(idx[:41])
    assert (status, out, err) == (2, write_symbol_text(alphabet, kept), expected)


def test_select_out_holds_the_selection_before_a_data_error(tmp_path, capsys, machine_file):
    """Like a Unix filter, ``select`` has written what the symbols before
    the faulty one select when it refuses; the status and the ``error:``
    line are those of the whole-text read."""
    selector = _selector(["0", "1"])
    path, out = tmp_path / "x.txt", tmp_path / "y.txt"
    path.write_text("0110" * 50_000 + "2" + "11")
    argv = ["select", "--selector", machine_file(selector), "--in", str(path), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: symbol '2' is not in alphabet ['0', '1'] at position 200001\n"
    )
    assert out.read_text() == "10" * 50_000


def test_select_refuses_to_write_over_its_input(tmp_path, capsys, machine_file):
    path = tmp_path / "x.txt"
    path.write_text("0110\n")
    argv = ["select", "--selector", machine_file(_selector(["0", "1"])), "--in", str(path)]
    assert main([*argv, "--out", str(path)]) == 1
    assert capsys.readouterr().err == "error: --in and --out name the same file\n"
    assert path.read_text() == "0110\n"


def test_freq_refuses_the_count_budget_before_reading(tmp_path, capsys):
    """``--k 40`` is refused before a piece of the input is read."""
    stdin = mock.Mock(read=mock.Mock(side_effect=AssertionError("the input was read")))
    with mock.patch("sys.stdin", stdin):
        assert main(["freq", "--k", "2", "--k", "40"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: block length 40 over 2 symbols") and err.count("\n") == 1
    path = tmp_path / "x.txt"
    path.write_text("01")  # shorter than 40, but the budget is the refusal
    with mock.patch.object(cli, "read_symbol_text", side_effect=AssertionError("read")):
        assert main(["freq", "--k", "40", "--in", str(path)]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("piece", [2, 1 << 16])
@pytest.mark.parametrize(
    "text, status, err",
    [
        ("0112x", 2, "error: no transition from state 'seen' on symbol '1' at input position 3\n"),
        ("01x11", 1, "error: symbol 'x' is not in alphabet ['0', '1'] at position 3\n"),
    ],
)
def test_select_reports_the_first_fault_in_input_order(text, status, err, piece, tmp_path,
                                                       capsys, machine_file):
    """With a foreign symbol and an undefined transition in the input, the
    one read first is refused, in the same piece or in different ones."""
    argv = ["select", "--selector", machine_file(_selector(["0", "1"], partial=True))]
    with mock.patch.object(cli, "_PIECE", piece):
        assert _run(argv, text, "stdin", tmp_path, capsys) == (status, "", err)


# single-character alphabets with and without a byte table: one with a
# symbol at byte 255, the byte table's mark for a foreign byte, and the
# largest, every latin-1 character that is not whitespace or "#"
BYTE_ALPHABETS = [
    ["0", "1"],
    ["b", "a", "\xe9"],
    ["\xff", "x"],
    [chr(c) for c in range(256) if not chr(c).isspace() and chr(c) != "#"],
]
WIDE_ALPHABETS = [["α", "β", "γ"], ["0", "€"]]
OTHERS = ["2", "#", "\xfe", "€", "　", " ", "λ"]  # foreign, or wider whitespace


@settings(max_examples=300, deadline=None)
@given(data=st.data(), symbols=st.sampled_from(BYTE_ALPHABETS + WIDE_ALPHABETS))
def test_translate_reader_equals_the_split_reader(data, symbols):
    """``read_symbol_text`` against ``encode`` of the split text and a scalar
    reference: the same letters, or the same refusal; uint8 letters over an
    alphabet with a byte table."""
    alphabet = ss.Alphabet(symbols)
    spaces = [chr(c) for c in range(256) if chr(c).isspace()]
    chars = sorted(set(symbols[:8] + spaces + OTHERS))
    text = data.draw(st.text(st.sampled_from(chars), max_size=60))
    joined = "".join(text.split())
    foreign = [(c, i + 1) for i, c in enumerate(joined) if c not in symbols][:1]
    try:
        expected = alphabet.encode(joined)
    except ss.UnknownSymbol as exc:
        assert [(exc.symbol, exc.position)] == foreign
        with pytest.raises(ss.UnknownSymbol) as got:
            read_symbol_text(alphabet, text)
        assert (got.value.symbol, got.value.position, str(got.value)) == (
            exc.symbol, exc.position, str(exc)
        )
        return
    letters = read_symbol_text(alphabet, text)
    assert not foreign
    assert letters.tolist() == expected.tolist() == [symbols.index(c) for c in joined]
    assert letters.dtype == (np.uint8 if symbols in BYTE_ALPHABETS else np.int64)
