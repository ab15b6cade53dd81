"""Files that are not UTF-8 text are refused with the offset of their first
undecodable byte: exit status 1 and one ``error:`` line, not a
UnicodeDecodeError traceback.  This holds for the symbol input of
``select`` and ``freq``, read a piece at a time, and for the machine,
measure and matrix files, read whole."""

import io
from unittest import mock

import pytest

import sftselect as ss
from sftselect import cli, formats
from sftselect import fixtures as fx
from sftselect.cli import main
from sftselect.formats import parse_measure, parse_selector

SELECTOR = str(fx.data_path("after_ones.sel"))
EURO = "€".encode()  # three bytes


def _error(path, data: bytes, offset: int, reason: str) -> str:
    return (
        f"error: {path}: byte {data[offset]:#04x} at byte offset {offset} "
        f"is not UTF-8 text ({reason})\n"
    )


def _file(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


SYMBOL_FILES = [
    (b"0110\xff01", "invalid start byte"),
    (b"01\n" * 70_000 + b"1\xc3(0", "invalid continuation byte"),  # past the first piece
    # cut at the end of the file, 12 bytes: the end of a piece of 2 or 3
    (b"0 1 1 0 1 " + EURO[:2], "unexpected end of data"),
]


@pytest.mark.parametrize("piece", [2, 3, 1 << 16])
@pytest.mark.parametrize("data, reason", SYMBOL_FILES)
@pytest.mark.parametrize(
    "argv", [["select", "--selector", SELECTOR], ["freq", "--k", "1"]], ids=["select", "freq"]
)
def test_symbol_file(argv, data, reason, piece, tmp_path, capsys):
    path = _file(tmp_path, "x.txt", data)
    offset = len(data) - len(data.lstrip(b"01 \n"))  # the first byte that is not ASCII
    with mock.patch.object(cli, "_PIECE", piece), mock.patch.object(formats, "_SCAN", piece):
        assert main([*argv, "--in", path]) == 1
    err = capsys.readouterr().err
    assert err == _error(path, data, offset, reason)


def test_offset_counts_the_bytes_of_wide_characters(tmp_path, capsys):
    """Offsets are in bytes: three a euro sign, with a piece boundary
    inside the characters when the file is scanned two bytes at a time."""
    data = EURO * 5 + b"\xff"
    path = _file(tmp_path, "x.txt", data)
    with mock.patch.object(formats, "_SCAN", 2):
        assert main(["freq", "--k", "1", "--alphabet", "€", "--in", path]) == 1
    assert capsys.readouterr().err == _error(path, data, 15, "invalid start byte")


def test_stdin_is_refused_without_an_offset(capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"0110\xff01"), encoding="utf-8")
    with mock.patch("sys.stdin", stdin):
        assert main(["select", "--selector", SELECTOR]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: stdin: byte 0xff is not UTF-8 text (invalid start byte)\n")


def _with_bad_comment(name, tmp_path) -> tuple:
    """A bundled file with a comment line holding a latin-1 é appended."""
    data = fx.data_path(name).read_bytes() + b"# caf\xe9\n"
    return _file(tmp_path, name, data), data, len(data) - 2


@pytest.mark.parametrize(
    "argv",
    [
        ["select", "--selector", "{}"],
        ["lemma-check", "--selector", "{}", "--n-max", "2"],
        ["chain", "--selector", "{}"],
    ],
)
def test_selector_file(argv, tmp_path, capsys):
    path, data, offset = _with_bad_comment("after_ones.sel", tmp_path)
    with mock.patch("sys.stdin", io.StringIO("0110")):
        assert main([arg.format(path) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", _error(path, data, offset, "invalid continuation byte"))
    with pytest.raises(ss.ParseError) as info:
        parse_selector(path)
    assert info.value.line is None


@pytest.mark.parametrize(
    "name, argv",
    [
        ("golden_parry.msr", ["freq", "--k", "1", "--measure", "{}"]),
        ("golden_parry.msr", ["compat", "--selector", SELECTOR, "--measure", "{}"]),
        ("golden_parry.msr", ["gen", "--kind", "sample", "--measure", "{}", "--n", "5"]),
        ("golden_parry.msr", ["stationary", "{}"]),
        ("golden_mean.mat", ["parry", "{}"]),
    ],
)
def test_measure_and_matrix_files(name, argv, tmp_path, capsys):
    path, data, offset = _with_bad_comment(name, tmp_path)
    with mock.patch("sys.stdin", io.StringIO("0110")):
        assert main([arg.format(path) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", _error(path, data, offset, "invalid continuation byte"))
    if name.endswith(".msr"):
        with pytest.raises(ss.ParseError) as info:
            parse_measure(path)
        assert info.value.line is None
