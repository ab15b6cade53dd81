"""``cli.main`` parses with one parser per process: no call leaves anything
in it that a later call sees, its help and usage text do not change from
one call to the next, and the handler it runs is looked up at each call."""

import pytest

from sftselect import cli
from sftselect import fixtures as fx
from sftselect.cli import build_parser, main

COMMANDS = [
    "gen", "select", "freq", "parry", "stationary",
    "compat", "chain", "snake", "lemma-check", "experiment",
]


def _symbols(tmp_path) -> str:
    path = tmp_path / "x.txt"
    path.write_text("0110100\n")
    return str(path)


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()


def test_an_appended_option_starts_empty_at_each_call(tmp_path, capsys):
    x = _symbols(tmp_path)
    assert main(["freq", "--k", "1", "--in", x]) == 0
    first = capsys.readouterr().out
    assert main(["freq", "--k", "2", "--in", x]) == 0
    second = capsys.readouterr().out
    assert first == "block,count,frequency\n0,4,0.5714285714285714\n1,3,0.42857142857142855\n"
    rows = second.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["00", "01", "10", "11"]


def test_a_valid_call_succeeds_after_a_usage_error(tmp_path, capsys):
    x = _symbols(tmp_path)
    assert main(["freq", "--in", x]) == 1
    assert "the following arguments are required: --k" in capsys.readouterr().err
    assert main(["freq", "--k", "1", "--in", x]) == 0
    out, err = capsys.readouterr()
    assert (out.splitlines()[0], err) == ("block,count,frequency", "")


def test_no_command_prints_the_usage_each_time(capsys):
    errs = []
    for _ in range(2):
        assert main([]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        errs.append(err)
    assert errs[0] == errs[1] and errs[0].startswith("usage: sftselect ")


@pytest.mark.parametrize(
    "command", [[]] + [[name] for name in COMMANDS], ids=lambda c: c[0] if c else "top"
)
def test_help_is_the_same_at_the_first_and_a_later_call(command, capsys):
    cli._parser.cache_clear()  # the next call builds the parser
    texts = []
    for _ in range(2):
        assert main([*command, "--help"]) == 0
        texts.append(capsys.readouterr())
    assert texts[0].err == texts[1].err == ""
    assert texts[0].out == texts[1].out
    assert texts[0].out.startswith(" ".join(["usage: sftselect", *command, ""]))


def test_a_handler_patched_after_a_call_is_the_one_that_runs(capsys, monkeypatch):
    matrix = str(fx.data_path("golden_mean.mat"))
    assert main(["parry", matrix]) == 0
    assert capsys.readouterr().out.startswith("theta ")
    monkeypatch.setattr(cli, "cmd_parry", lambda args: print("patched", args.matrix) or 3)
    assert main(["parry", matrix]) == 3
    assert capsys.readouterr().out == f"patched {matrix}\n"
