"""CLI paths: refusals of an incompatible measure, the support and eta
notes on stderr, ``stationary`` input, and multi-character words."""

from unittest import mock

import pytest

import sftselect as ss
from sftselect import experiment
from sftselect import fixtures as fx
from sftselect.cli import main
from sftselect.formats import parse_measure_text


def _data(name) -> str:
    return str(fx.data_path(name))


def _write(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", [["chain"], ["snake", "-n", "2"], ["lemma-check"]])
def test_incompatible_measure_exits_two_with_violations_on_stdout(command, capsys):
    code = main(
        command + ["--selector", _data("after_ones.sel"), "--measure", _data("golden_parry.msr")]
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert lines and all(line.startswith("VIOLATION ") for line in lines)
    assert "VIOLATION ForbiddenStep q1 1 q1 P[1,1] = 0" in lines


def test_snake_of_length_zero_exits_one(capsys):
    assert main(["snake", "--selector", _data("after_ones.sel"), "-n", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: snake construction needs n >= 1\n"


def test_experiment_reports_forbidden_output_blocks(tmp_path, capsys):
    """The support check stands behind compatibility: with the check let
    through, ``after_ones`` keeps the second 1 of every 11 in Champernowne
    input, so its output holds the pair 11 that golden-mean forbids."""
    passed = ss.CompatibilityResult(ss.CompatibilityWitness({}))
    with mock.patch.object(experiment, "check_selector_compatibility", return_value=passed):
        code = main(
            [
                "experiment", "--selector", _data("after_ones.sel"),
                "--measure", _data("golden_parry.msr"), "--gen", "champernowne",
                "--n", "2000", "--k", "1", "--out", str(tmp_path / "r.csv"),
            ]
        )
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("forbidden blocks in output: {'11': ")
    assert int(err[-1].split(": ")[-1].rstrip("}")) > 0
    assert (tmp_path / "r.csv").read_text().splitlines()[-1].startswith("# RESULT FAIL")


def test_compat_notes_unconstrained_eta_on_stderr(tmp_path, capsys):
    """No transition keeps, so one drop class holds both states and its
    last-selected label defaults to the last-read label of ``a``."""
    sel = _write(
        tmp_path, "drops.sel",
        "alphabet 0 1\nstates a b\ninitial a\n"
        "trans a 0 drop a\ntrans a 1 drop b\ntrans b 0 drop a\ntrans b 1 drop b\n",
    )
    assert main(["compat", "--selector", sel, "--measure", _data("uniform_binary.msr")]) == 0
    out, err = capsys.readouterr()
    assert out == "iota a 0\niota b 1\neta a 0\neta b 0\n"
    assert err == (
        "# UnconstrainedEta a: no selection reaches this state; defaulted to iota\n"
        "# UnconstrainedEta b: no selection reaches this state; defaulted to iota\n"
    )


class TestStationary:
    def test_measure_missing_a_row_names_the_row_count(self, tmp_path, capsys):
        bad = _write(tmp_path, "short.msr", "alphabet 0 1\npi 0.5 0.5\nrow 0.5 0.5\n")
        assert main(["stationary", bad]) == 1
        assert capsys.readouterr().err == "error: expected 2 row lines, found 1\n"

    def test_measure_pi_is_still_validated(self, tmp_path, capsys):
        bad = _write(tmp_path, "pi.msr", "alphabet 0 1\npi 0.9 0.1\nrow 0.5 0.5\nrow 0.5 0.5\n")
        assert main(["stationary", bad]) == 1
        assert capsys.readouterr().err.startswith("error: pi is not stationary for P")

    @pytest.mark.parametrize(
        "text, expected",
        [
            (None, "pi 0.7236067977499789 0.27639320225002106\n"),
            ("alphabet 0 1\nrow 0.5 0.5\nrow 1 0\n", "pi 0.6666666666666667 0.3333333333333333\n"),
            ("alphabet a b c\nrow 0.25 0.5 0.25\nrow 0.5 0 0.5\nrow 1 0 0\n", "pi 0.5 0.25 0.25\n"),
        ],
    )
    def test_measure_and_matrix_bytes(self, tmp_path, capsys, text, expected):
        path = _data("golden_parry.msr") if text is None else _write(tmp_path, "p.mat", text)
        assert main(["stationary", path]) == 0
        assert capsys.readouterr().out == expected

    def test_non_stochastic_matrix_is_refused(self, capsys):
        assert main(["stationary", _data("golden_mean.mat")]) == 1
        assert capsys.readouterr().err.startswith("error: row '0' sums to")


class TestMultiCharacterWords:
    SELECTOR = (
        "alphabet ab c a bc\nstates q0\ninitial q0\n"
        "trans q0 ab keep q0\ntrans q0 c keep q0\ntrans q0 a keep q0\ntrans q0 bc keep q0\n"
    )

    def test_snake_output_parses_back(self, tmp_path, capsys):
        sel = _write(tmp_path, "multi.sel", self.SELECTOR)
        assert main(["snake", "--selector", sel, "-n", "2"]) == 0
        mu = parse_measure_text(capsys.readouterr().out)
        assert mu.alphabet.symbols[:4] == ("q0*ab.ab", "q0*ab.c", "q0*ab.a", "q0*ab.bc")
        assert len(mu.alphabet) == 16
        assert mu.pi.weights.tolist() == [1 / 16] * 16

    def test_lemma_lines_tell_the_words_apart(self, tmp_path, capsys):
        sel = _write(tmp_path, "multi.sel", self.SELECTOR)
        assert main(["lemma-check", "--selector", sel, "--n-max", "2", "--w-max", "2"]) == 0
        words = [line.split(" w=")[1].split()[0] for line in capsys.readouterr().out.splitlines()]
        assert "ab.c" in words and "a.bc" in words
        assert "eps" in words and "ab" in words
        assert all(" " not in w for w in words)

    def test_single_character_words_stay_concatenated(self):
        assert ss.snake_state_label(("q", ("0", "1")), ss.Alphabet("01")) == "q*01"
        assert ss.snake_state_label(("q", ("0", "1")), ss.Alphabet(["0", "1", "10"])) == "q*0.1"
