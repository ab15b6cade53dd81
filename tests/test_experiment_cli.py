import csv
import io
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sftselect as ss
from sftselect import fixtures as fx
from sftselect.cli import main
from sftselect.experiment import write_experiment_csv
from sftselect.formats import parse_selector, serialize_machine, write_symbol_text
from sftselect.seqgen import block_frequency_reports


def make_config(selector, measure, gen_measure, n=50_000, seed=3, **kw):
    spec = ss.GeneratorSpec(
        kind=ss.MARKOV_SAMPLE,
        alphabet=selector.alphabet,
        n=n,
        measure=gen_measure,
        seed=seed,
    )
    return ss.ExperimentConfig(selector=selector, generator=spec, measure=measure, **kw)


class TestRunExperiment:
    def test_uniform_mode_passes(self, after_ones, uniform2):
        report = ss.run_experiment(make_config(after_ones, None, uniform2))
        assert report.passed and report.support_ok
        assert report.recurrent_entry == 0
        assert report.input_length == 50_000
        assert 0 < report.output_length < 50_000
        assert set(report.output_discrepancies) == {1, 2, 3}

    def test_markov_mode_passes(self, even_positions, golden):
        report = ss.run_experiment(make_config(even_positions, golden, golden))
        assert report.passed and report.support_ok
        assert report.forbidden_counts == {("1", "1"): 0}
        assert report.compatibility is not None and report.compatibility.ok

    def test_incompatible_selector_raises(self, after_ones, golden):
        with pytest.raises(ss.NotCompatible) as err:
            ss.run_experiment(make_config(after_ones, golden, golden))
        assert any(v.kind == "ForbiddenStep" for v in err.value.violations)

    def test_nonoblivious_rejected(self, nonoblivious, uniform2):
        with pytest.raises(ss.NotOblivious):
            ss.run_experiment(make_config(nonoblivious, None, uniform2))

    def test_impossible_tolerance_fails(self, after_ones, uniform2):
        report = ss.run_experiment(
            make_config(after_ones, None, uniform2, tolerance=1e-9)
        )
        assert not report.passed

    def test_short_input_rejected(self, after_ones, uniform2):
        with pytest.raises(ss.ValidationError):
            make_config(after_ones, None, uniform2, n=100)
        for kw, message in (
            ({"ks": (0, 1)}, "block lengths must be >= 1"),
            ({"mode": "diagonal"}, "unknown counting mode 'diagonal'"),
        ):
            with pytest.raises(ss.ValidationError, match=message):
                make_config(after_ones, None, uniform2, **kw)
        # a compatible measure over the same symbols in another order
        golden, flipped = fx.golden_parry_measure(), ss.Alphabet(["1", "0"])
        mu = ss.MarkovMeasure(
            ss.Distribution(flipped, golden.pi.weights[::-1]),
            ss.StochasticMatrix(flipped, golden.P.entries[::-1, ::-1]),
        )
        config = make_config(fx.even_positions_selector(), mu, golden, n=1000)
        with pytest.raises(ss.ValidationError, match="target measure and selector use different alphabets"):
            ss.run_experiment(config)

    def test_after_recurrent_restarts_counting(self, uniform2, binary):
        # selector with a transient head state that drops everything
        selector = ss.Selector(
            binary,
            ["head", "a", "b"],
            "head",
            [
                ("head", "0", "drop", "a"),
                ("head", "1", "drop", "a"),
                ("a", "0", "keep", "b"),
                ("a", "1", "keep", "b"),
                ("b", "0", "keep", "a"),
                ("b", "1", "keep", "a"),
            ],
        )
        base = make_config(selector, None, uniform2, n=10_000)
        report = ss.run_experiment(base)
        assert report.recurrent_entry == 1
        restarted = ss.run_experiment(
            make_config(selector, None, uniform2, n=10_000, after_recurrent=True)
        )
        assert restarted.output_reports[1].n == report.output_reports[1].n
        assert restarted.input_reports[1].n == report.input_reports[1].n - 1

    def test_aligned_mode(self, after_ones, uniform2):
        report = ss.run_experiment(
            make_config(after_ones, None, uniform2, mode=ss.ALIGNED)
        )
        assert report.passed
        # aligned windows: floor(n/k) disjoint blocks per stream
        for k, rep in report.output_reports.items():
            assert rep.windows == report.output_length // k

    def test_memory_stays_bounded(self, after_ones, uniform2):
        config = make_config(after_ones, None, uniform2, n=30_000, chunk=1 << 10)
        report = ss.run_experiment(config)
        for k, rep in report.output_reports.items():
            assert rep.counts.size == 2**k  # one counter cell per block only

    def test_chunk_size_invariance(self, even_positions, golden):
        small = ss.run_experiment(make_config(even_positions, golden, golden, chunk=773))
        large = ss.run_experiment(make_config(even_positions, golden, golden, chunk=1 << 18))
        assert small.output_discrepancies == large.output_discrepancies
        assert small.recurrent_entry == large.recurrent_entry

    def test_off_support_input_raises_with_position(self, even_positions, golden):
        # champernowne contains the forbidden block, so the partial machine
        # must fall off with an exact position instead of mis-stepping
        config = ss.ExperimentConfig(
            selector=even_positions,
            generator=ss.GeneratorSpec(
                kind=ss.CHAMPERNOWNE, alphabet=even_positions.alphabet, n=10_000
            ),
            measure=golden,
            ks=(1,),
        )
        with pytest.raises(ss.UndefinedTransition) as err:
            ss.run_experiment(config)
        assert err.value.position == 7  # second 1 of the first 11 block


class TestCsv:
    def render(self, report):
        buf = io.StringIO()
        write_experiment_csv(report, buf)
        return buf.getvalue()

    def test_schema_and_determinism(self, after_ones, uniform2):
        report = ss.run_experiment(make_config(after_ones, None, uniform2))
        text = self.render(report)
        again = self.render(ss.run_experiment(make_config(after_ones, None, uniform2)))
        assert text == again  # byte-identical
        lines = text.splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "block,count,frequency,target,abs_error"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 2 + 4 + 8
        blocks = [row.split(",")[0] for row in data]
        assert blocks == sorted(blocks, key=lambda b: (len(b), b))
        assert lines[-1] == "# RESULT PASS"

    def test_fail_footer(self, after_ones, uniform2):
        report = ss.run_experiment(
            make_config(after_ones, None, uniform2, tolerance=1e-9)
        )
        assert self.render(report).splitlines()[-1].startswith("# RESULT FAIL")

    def test_golden_csv_bytes(self, after_ones, uniform2):
        # full-file regression: every byte of a small CSV is pinned
        report = ss.run_experiment(
            make_config(after_ones, None, uniform2, n=500, seed=99, ks=(1,), tolerance=0.2)
        )
        assert self.render(report) == (
            "# generator=markov-sample\n"
            "# seed=99\n"
            "# n=500\n"
            "# selector=febe72c4cea4\n"
            "# mode=sliding\n"
            "# tolerance=0.2\n"
            "# target=uniform\n"
            "# recurrent_entry=0\n"
            "# output_length=264\n"
            "# input_D_1=0.028000000000000025\n"
            "block,count,frequency,target,abs_error\n"
            "0,120,0.45454545454545453,0.5,0.04545454545454547\n"
            "1,144,0.5454545454545454,0.5,0.045454545454545414\n"
            "# RESULT PASS\n"
        )


def _old_block_rows(rep, targets) -> str:
    """The row writer before distinct tails were formatted once: one
    ``repr`` triple per block, labels from ``Alphabet.words``."""
    freqs = rep.frequencies
    out = []
    for code, word in enumerate(rep.alphabet.words(rep.k)):
        label = rep.alphabet.word_label(word)
        f = float(freqs[code])
        t = float(targets[code])
        out.append(f"{label},{int(rep.counts[code])},{f!r},{t!r},{abs(f - t)!r}\n")
    return "".join(out)


class TestCsvRowsMatchPerBlockWriter:
    def rows(self, report):
        config = report.config
        return "".join(
            _old_block_rows(report.output_reports[k], ss.block_measure_array(config.target, k))
            for k in sorted(config.ks)
        )

    def test_markov_target(self, even_positions, golden):
        report = ss.run_experiment(
            make_config(even_positions, golden, golden, n=20_000, ks=(1, 2, 3, 7))
        )
        buf = io.StringIO()
        write_experiment_csv(report, buf)
        assert self.rows(report) in buf.getvalue()

    def test_uniform_target_and_batches(self, after_ones, uniform2):
        # k = 13 gives 8,192 rows, two write batches
        report = ss.run_experiment(make_config(after_ones, None, uniform2, n=20_000, ks=(13, 2)))
        buf = io.StringIO()
        write_experiment_csv(report, buf)
        assert self.rows(report) in buf.getvalue()

    def test_signed_zero_targets_and_token_labels(self):
        from sftselect.experiment import _write_block_rows

        rng = np.random.default_rng(5)
        alpha = ss.Alphabet(["x", "yy", "z"])
        k = 3
        counts = rng.integers(0, 4, size=3**k)
        counts[::5] = 0
        targets = rng.choice([0.0, -0.0, 0.125, 1 / 27, 0.5], size=3**k)
        rep = ss.FrequencyReport(
            alphabet=alpha, mode=ss.SLIDING, k=k, n=int(counts.sum()) + k - 1, counts=counts
        )
        buf = io.StringIO()
        _write_block_rows(rep, targets, buf)
        text = buf.getvalue()
        assert text == _old_block_rows(rep, targets)
        assert ",-0.0," in text and text.startswith("x x x,")


class TestCliExitCodes:
    def test_select_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        code = main(
            [
                "select",
                "--selector",
                str(fx.data_path("after_ones.sel")),
                "--in",
                str(self._write(tmp_path, "x.txt", "01101\n")),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == "10\n"
        # without --in the sequence is read from stdin
        with mock.patch("sys.stdin", io.StringIO("01101\n")):
            assert main(["select", "--selector", str(fx.data_path("after_ones.sel"))]) == 0
        assert capsys.readouterr().out == "10\n"

    @staticmethod
    def _write(tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_parry_output(self, capsys):
        code = main(["parry", str(fx.data_path("golden_mean.mat"))])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("theta 1.618033988749")
        assert "alphabet 0 1" in out

    def test_stationary(self, capsys):
        code = main(["stationary", str(fx.data_path("golden_parry.msr"))])
        assert code == 0
        assert capsys.readouterr().out.startswith("pi 0.7236067977")

    def test_freq_rows(self, tmp_path, capsys):
        p = self._write(tmp_path, "seq.txt", "0100011011")
        code = main(["freq", "--k", "1", "--mode", "sliding", "--in", str(p)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "0,5,0.5" in out and "1,5,0.5" in out

    def test_freq_uniform_target_columns(self, tmp_path, capsys):
        p = self._write(tmp_path, "seq.txt", "0100011011")
        code = main(["freq", "--k", "1", "--uniform", "--in", str(p)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "block,count,frequency,target,abs_error"
        assert "0,5,0.5,0.5,0.0" in out

    def test_compat_witness_exit_zero(self, capsys):
        code = main(
            [
                "compat",
                "--selector",
                str(fx.data_path("even_positions.sel")),
                "--measure",
                str(fx.data_path("golden_parry.msr")),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for q in ("000", "001", "010", "011", "100", "101", "110", "111"):
            assert f"iota {q} {q[1]}" in out
            assert f"eta {q} {q[2]}" in out

    def test_compat_violations_exit_two(self, capsys):
        code = main(
            [
                "compat",
                "--selector",
                str(fx.data_path("after_ones.sel")),
                "--measure",
                str(fx.data_path("golden_parry.msr")),
            ]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "VIOLATION ForbiddenStep" in out
        assert "P[1,1] = 0" in out

    def test_parse_failure_exit_one(self, tmp_path, capsys):
        bad = self._write(tmp_path, "bad.sel", "alphabet 0\nstates a\n")
        assert main(["select", "--selector", str(bad), "--in", str(bad)]) == 1

    def test_bad_measure_validation_exit_one(self, tmp_path, capsys):
        bad = self._write(
            tmp_path, "bad.msr", "alphabet 0 1\npi 0.5 0.5\nrow 0.49 0.5\nrow 1 0\n"
        )
        assert main(["stationary", str(bad)]) == 1

    def test_usage_error_exit_one(self, capsys):
        assert main(["freq"]) == 1  # --k is required
        assert main([]) == 1
        assert main(["--help"]) == 0

    def test_experiment_exit_matrix(self, tmp_path, capsys):
        sel = str(fx.data_path("after_ones.sel"))
        msr = str(fx.data_path("golden_parry.msr"))
        common = ["experiment", "--selector", sel, "--n", "20000", "--k", "1"]
        out = tmp_path / "r.csv"
        assert main(common + ["--uniform", "--out", str(out)]) == 0
        assert out.read_text().endswith("# RESULT PASS\n")
        assert (
            main(common + ["--uniform", "--tolerance", "1e-12", "--out", str(out)])
            == 3
        )
        assert out.read_text().splitlines()[-1].startswith("# RESULT FAIL")
        assert main(common + ["--measure", msr, "--out", str(out)]) == 2
        capsys.readouterr()

    def test_experiment_markov_pass(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(
            [
                "experiment",
                "--selector",
                str(fx.data_path("even_positions.sel")),
                "--measure",
                str(fx.data_path("golden_parry.msr")),
                "--n",
                "50000",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "# RESULT PASS" in text
        capsys.readouterr()

    def test_gen_deterministic(self, capsys):
        assert main(["gen", "--kind", "uniform", "--n", "32", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--kind", "uniform", "--n", "32", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip()) == 32

    def test_gen_seed_out_of_range_exit_one(self, capsys):
        for seed in ("-1", str(2**64)):
            assert main(["gen", "--kind", "uniform", "--n", "8", "--seed", seed]) == 1
            assert capsys.readouterr().err.startswith("error: seed")

    def test_freq_block_length_past_int64_exit_one(self, tmp_path, capsys):
        p = self._write(tmp_path, "seq.txt", "0110" * 40)
        assert main(["freq", "--k", "64", "--in", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: block length 64")

    def test_gen_champernowne(self, capsys):
        assert main(["gen", "--kind", "champernowne", "--n", "10"]) == 0
        assert capsys.readouterr().out.strip() == "0100011011"

    def test_gen_sample_needs_measure(self, capsys):
        assert main(["gen", "--kind", "sample", "--n", "100"]) == 1
        assert "needs --measure" in capsys.readouterr().err
        golden, path = fx.golden_parry_measure(), str(fx.data_path("golden_parry.msr"))
        assert main(["gen", "--kind", "sample", "--measure", path, "--n", "100", "--seed", "7"]) == 0
        expected = write_symbol_text(golden.alphabet, ss.sample_markov(golden, 7, 100))
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--kind", "sample", "--measure", "{msr}", "--alphabet", "x", "y"],
             "error: --alphabet ['x', 'y'] does not apply to --kind sample, "
             "which draws over the measure's alphabet\n"),
            (["--kind", "champernowne", "--measure", "{msr}"],
             "error: --measure does not apply to --kind champernowne, only to --kind sample\n"),
            (["--measure", "{msr}"],
             "error: --measure does not apply to --kind uniform, only to --kind sample\n"),
        ],
    )
    def test_gen_refuses_options_its_kind_does_not_use(self, argv, err, capsys):
        msr = str(fx.data_path("golden_parry.msr"))
        assert main(["gen", "--n", "12", *[a.replace("{msr}", msr) for a in argv]]) == 1
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("kind", ["uniform", "champernowne"])
    @pytest.mark.parametrize("symbols", [["0", "1"], ["ab", "c", "ddd"]])
    def test_gen_writes_a_chunk_at_a_time(self, kind, symbols):
        """Past three 2**16-symbol chunks the text goes out in several
        writes, which together are the whole sequence rendered at once."""
        n = 3 * (1 << 16) + 5
        buf = _RowsPerWrite()
        with mock.patch("sys.stdout", buf):
            assert main(["gen", "--kind", kind, "--n", str(n), "--alphabet", *symbols]) == 0
        alpha = ss.Alphabet(symbols)
        if kind == "uniform":
            spec = ss.GeneratorSpec(ss.MARKOV_SAMPLE, alpha, n, measure=ss.uniform_measure(alpha))
        else:
            spec = ss.GeneratorSpec(ss.CHAMPERNOWNE, alpha, n)
        assert buf.getvalue() == write_symbol_text(alpha, ss.generate(spec)) + "\n"
        assert len(buf.rows) > 4

    @pytest.mark.parametrize("command", [["chain"], ["snake", "-n", "3"]])
    @pytest.mark.parametrize(
        "name, measure", [("after_ones.sel", []), ("even_positions.sel", ["--measure", "golden_parry.msr"])]
    )
    def test_selector_reads_as_its_automaton(self, command, name, measure, tmp_path, capsys):
        selector = parse_selector(fx.data_path(name))
        automaton = self._write(tmp_path, "m.aut", serialize_machine(selector.underlying_automaton()))
        measure = [measure[0], str(fx.data_path(measure[1]))] if measure else []
        outputs = []
        for machine in (["--selector", str(fx.data_path(name))], ["--automaton", str(automaton)]):
            assert main([*command, *machine, *measure]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    def test_csv_quotes_labels_with_comma_or_quote(self, tmp_path, capsys):
        """Labels over symbols with , or " are quoted (RFC 4180), so every
        row reads back with its label and as many fields as the header;
        k = 7 over three symbols puts a head and a suffix in each label."""
        symbols = ["a,b", 'c"d', "e"]
        alpha = ss.Alphabet(symbols)
        seq = self._write(tmp_path, "x.txt", " ".join(symbols[i % 5 % 3] for i in range(200)))
        sel = self._write(
            tmp_path,
            "all.sel",
            f"alphabet {' '.join(symbols)}\nstates q\ninitial q\n"
            + "".join(f"trans q {a} keep q\n" for a in symbols),
        )
        out = tmp_path / "out.csv"
        commands = [
            (["freq", "--k", "1", "--k", "2", "--alphabet", *symbols, "--in", str(seq)], (1, 2), 3),
            (["experiment", "--selector", str(sel), "--gen", "champernowne", "--n", "3000",
              "--k", "1", "--k", "7", "--out", str(out)], (1, 7), 5),
        ]
        for args, ks, fields in commands:
            assert main(args) in (0, 3)  # 3: a k = 7 discrepancy past the tolerance
            text = out.read_text() if "--out" in args else capsys.readouterr().out
            rows = [r for r in csv.reader(io.StringIO(text)) if not r[0].startswith("#")]
            assert {len(r) for r in rows} == {fields}
            assert [r[0] for r in rows[1:]] == [" ".join(w) for k in ks for w in alpha.words(k)]

    def test_snake_uniform(self, capsys):
        code = main(
            ["snake", "--selector", str(fx.data_path("after_ones.sel")), "-n", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "alphabet q0*0 q0*1 q1*0 q1*1"
        assert out[1] == "pi 0.25 0.25 0.25 0.25"

    def test_snake_markov(self, capsys):
        code = main(
            [
                "snake",
                "--selector",
                str(fx.data_path("even_positions.sel")),
                "--measure",
                str(fx.data_path("golden_parry.msr")),
                "-n",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("alphabet 000*0 000*1")
        assert " 0.0 " in out[1]  # transient 010*0 carries zero mass

    def test_chain_markov(self, capsys):
        code = main(
            [
                "chain",
                "--selector",
                str(fx.data_path("even_positions.sel")),
                "--measure",
                str(fx.data_path("golden_parry.msr")),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("alphabet 000 001 010 011 100 101 110 111")

    def test_lemma_check_lines_and_exit(self, capsys):
        code = main(
            [
                "lemma-check",
                "--selector",
                str(fx.data_path("after_ones.sel")),
                "--n-max",
                "4",
                "--w-max",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line.startswith("LEMMA count-upper p=") for line in out)
        assert all(line.endswith("PASS") for line in out)
        assert "LEMMA count-upper p=q0 n=2 w=0 value=1 bound=2 PASS" in out

    def test_lemma_check_markov(self, capsys):
        code = main(
            [
                "lemma-check",
                "--selector",
                str(fx.data_path("even_positions.sel")),
                "--measure",
                str(fx.data_path("golden_parry.msr")),
                "--n-max",
                "3",
                "--w-max",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert all("measure-upper" in line and line.endswith("PASS") for line in out)

    def test_lemma_check_equirun(self, capsys):
        code = main(
            [
                "lemma-check",
                "--selector",
                str(fx.data_path("after_ones.sel")),
                "--equirun",
                "2",
                "--epsilon",
                "0.1",
                "--n-max",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "# equirun witness n=9"

    def test_lemma_check_counts_reach_n_64(self, capsys):
        code = main(
            [
                "lemma-check",
                "--selector",
                str(fx.data_path("after_ones.sel")),
                "--n-max",
                "64",
                "--w-max",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 * (1 + 3 + 7 + 15 + 31 + 63 + 127 * 59)
        assert all(line.endswith(" PASS") for line in out)
        assert (
            "LEMMA count-upper p=q0 n=64 w=eps value=18446744073709551616 "
            "bound=18446744073709551616 PASS"
        ) in out

    def test_lemma_check_lines_cross_write_batches(self, capsys):
        from sftselect import cli

        sel = str(fx.data_path("after_ones.sel"))
        assert main(["lemma-check", "--selector", sel, "--n-max", "14", "--w-max", "6"]) == 0
        out = capsys.readouterr().out
        results = ss.lemma_check(fx.after_ones_selector(), 14, 6)
        assert out == "".join(f"{cli._format_lemma_line(r)}\n" for r in results)
        assert out.count("\n") > 2 * cli._LEMMA_BATCH

    def test_lemma_check_caps_measure_walks_only(self, capsys):
        even = str(fx.data_path("even_positions.sel"))
        golden = str(fx.data_path("golden_parry.msr"))
        args = ["lemma-check", "--selector", even, "--n-max", "6", "--w-max", "1"]
        assert main([*args, "--measure", golden, "--max-enum", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: enumeration of 64 runs exceeds the cap of 32")
        assert "raise --max-enum" in captured.err
        # counts read no cap, so the option is refused without --measure
        assert main([*args, "--max-enum", "32"]) == 1
        assert capsys.readouterr() == ("", "error: --max-enum does not apply without --measure\n")
        assert main(args) == 0

    def test_lemma_check_far_past_the_cap_is_one_error_line(self, capsys):
        """At n = 15000 the refusal names 2**15000, a count with more digits
        than int-to-str allows, instead of printing it."""
        even = str(fx.data_path("even_positions.sel"))
        golden = str(fx.data_path("golden_parry.msr"))
        args = ["lemma-check", "--selector", even, "--measure", golden, "--n-max", "15000"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: enumeration of 2**15000 runs exceeds the cap of 1048576; raise --max-enum"
        )

    def test_lemma_check_prints_counts_past_the_digit_limit(self, capsys):
        """Counts print in full past the interpreter's int-to-str limit."""
        sel = str(fx.data_path("after_ones.sel"))
        args = ["lemma-check", "--selector", sel, "--n-max", "2200", "--w-max", "0"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            status = main(args)
        finally:
            sys.set_int_max_str_digits(limit)
        assert status == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 * 2201
        for line in out:
            fields = dict(field.split("=", 1) for field in line.split()[2:7])
            assert int(fields["value"]) == 2 ** int(fields["n"]) == int(fields["bound"])

    def test_lemma_check_max_enum_help(self, capsys):
        assert main(["lemma-check", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "cap on the nominal runs (#A**n) of a measure walk; counts are not capped" in help_text


def _old_freq_rows(report, targets) -> str:
    """The ``freq`` row loop before it wrote through ``_write_block_rows``
    (``targets`` None for the three-column table)."""
    alphabet, freqs = report.alphabet, report.frequencies
    lines = []
    for code, word in enumerate(alphabet.words(report.k)):
        label = alphabet.word_label(word)
        f = float(freqs[code])
        row = f"{label},{int(report.counts[code])},{f!r}"
        if targets is not None:
            t = float(targets[code])
            row += f",{t!r},{abs(f - t)!r}"
        lines.append(row + "\n")
    return "".join(lines)


_TOKENS = ["0", "1", "ab", "ccc", "α", "z"]


class _RowsPerWrite(io.StringIO):
    """A text buffer that records how many rows each ``write`` held."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def write(self, text):
        self.rows.append(text.count("\n"))
        return super().write(text)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_rows_match_per_row_writers(data):
    from sftselect import experiment

    tokens = st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4, unique=True)
    symbols = data.draw(tokens)
    alpha = ss.Alphabet(symbols)
    na = len(symbols)
    k_max = max(k for k in range(1, 13) if na**k <= 4096) if na > 1 else 12
    k = data.draw(st.integers(1, k_max))
    mode = data.draw(st.sampled_from([ss.SLIDING, ss.ALIGNED]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    # few distinct counts, so tails repeat within and across writes
    counts = rng.choice([0, 1, 2, 7, 10**6], size=na**k, p=[0.4, 0.3, 0.2, 0.05, 0.05])
    windows = int(counts.sum())
    n = windows + k - 1 if mode == ss.SLIDING else windows * k
    rep = ss.FrequencyReport(alphabet=alpha, mode=mode, k=k, n=n, counts=counts)
    pool = [0.0, -0.0, 0.5, 1 / 3, 0.125, *rng.random(3).tolist()]
    targets = rng.choice(pool, size=na**k)
    # small writes move the head/suffix split to a letter or two; 1024 is the default
    size = data.draw(st.sampled_from([1, 2, 3, 5, 1024]))
    cases = ((targets, _old_block_rows(rep, targets)), (None, _old_freq_rows(rep, None)))
    with mock.patch.object(experiment, "_CSV_SLICE", size):
        for t, expected in cases:
            buf = _RowsPerWrite()
            experiment._write_block_rows(rep, t, buf)
            assert buf.getvalue() == expected
            assert all(1 <= rows <= max(size, na) for rows in buf.rows)
    assert _old_freq_rows(rep, targets) == _old_block_rows(rep, targets)


@pytest.mark.parametrize("symbols, ks", [(["0", "1"], range(13, 17)), (["x", "yy", "zzz"], range(1, 8))])
def test_block_rows_at_large_k(symbols, ks):
    """The default slice at k = 13..16 over two letters (8 to 64 heads) and
    k <= 7 over three tokens, against the per-row writers; no ``write``
    holds more than ``_CSV_SLICE`` rows."""
    from sftselect import experiment

    alpha = ss.Alphabet(symbols)
    rng = np.random.default_rng(16)
    for k in ks:
        size = len(symbols) ** k
        counts = rng.choice([0, 1, 2, 3, 40, 10**6], size=size)
        rep = ss.FrequencyReport(
            alphabet=alpha, mode=ss.SLIDING, k=k, n=int(counts.sum()) + k - 1, counts=counts
        )
        targets = rng.choice([0.0, -0.0, 1 / size, 0.5, 1 / 3], size=size)
        for t, expected in ((targets, _old_block_rows(rep, targets)), (None, _old_freq_rows(rep, None))):
            buf = _RowsPerWrite()
            experiment._write_block_rows(rep, t, buf)
            assert buf.getvalue() == expected
            assert all(1 <= rows <= experiment._CSV_SLICE for rows in buf.rows)
            # a head per write: 2**(k - 10) for two letters, 3**(k - 6) for three
            assert len(buf.rows) == len(symbols) ** (k - min(k, 10 if len(symbols) == 2 else 6))


class TestFreqBytes:
    """``freq`` stdout against the per-row loop it replaced, k = 1..12
    (1..8 for three multi-character tokens, 9,840 rows)."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("freq")
        binary = ss.Alphabet(["0", "1"])
        tokens = ss.Alphabet(["ab", "ccc", "α"])

        def sample(alpha, mu, seed):
            spec = ss.GeneratorSpec(
                kind=ss.MARKOV_SAMPLE, alphabet=alpha, n=6000, measure=mu, seed=seed
            )
            return alpha, ss.generate(spec)

        seqs = {
            "uniform": sample(binary, ss.uniform_measure(binary), 1),
            "golden": sample(binary, fx.golden_parry_measure(), 2),
            "tokens": sample(tokens, ss.uniform_measure(tokens), 3),
        }
        paths = {}
        for name, (alpha, idx) in seqs.items():
            paths[name] = d / f"{name}.txt"
            paths[name].write_text(write_symbol_text(alpha, idx) + "\n", encoding="utf-8")
        return seqs, paths

    @pytest.mark.parametrize("mode", [ss.SLIDING, ss.ALIGNED])
    @pytest.mark.parametrize(
        "seq, target, k_max",
        [
            ("uniform", None, 12),
            ("uniform", "uniform", 12),
            ("golden", "golden", 12),
            ("tokens", None, 8),
            ("tokens", "uniform", 8),
        ],
    )
    def test_freq_matches_per_row_loop(self, inputs, capsys, mode, seq, target, k_max):
        seqs, paths = inputs
        alpha, idx = seqs[seq]
        ks = list(range(1, k_max + 1))
        argv = ["freq", "--in", str(paths[seq]), "--mode", mode]
        argv += [a for k in ks for a in ("--k", str(k))]
        if seq == "tokens":
            argv += ["--alphabet", *alpha.symbols]
        mu = None
        if target == "uniform":
            argv.append("--uniform")
            mu = ss.uniform_measure(alpha)
        elif target == "golden":
            argv += ["--measure", str(fx.data_path("golden_parry.msr"))]
            mu = fx.golden_parry_measure()
        assert main(argv) == 0
        reports = block_frequency_reports(alpha, idx, ks, mode)
        expected = "block,count,frequency" + (",target,abs_error" if mu else "") + "\n"
        expected += "".join(
            _old_freq_rows(reports[k], ss.block_measure_array(mu, k) if mu else None) for k in ks
        )
        assert capsys.readouterr().out == expected


class TestFreqAlphabetAgainstMeasure:
    def test_mismatched_alphabet_exits_one(self, tmp_path, capsys):
        p = tmp_path / "seq.txt"
        p.write_text("abba\n")
        msr = str(fx.data_path("golden_parry.msr"))
        argv = ["freq", "--k", "1", "--alphabet", "a", "b", "--measure", msr, "--in", str(p)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --alphabet")

    def test_matching_alphabet_and_uniform_still_work(self, tmp_path, capsys):
        p = tmp_path / "seq.txt"
        p.write_text("0110\n")
        msr = str(fx.data_path("golden_parry.msr"))
        argv = ["freq", "--k", "1", "--alphabet", "0", "1", "--measure", msr, "--in", str(p)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("block,count,frequency,target,abs_error\n0,2,0.5,")
        # --measure and --uniform are mutually exclusive
        assert main(argv + ["--uniform"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument --measure" in captured.err
        q = tmp_path / "ab.txt"
        q.write_text("abba\n")
        assert main(["freq", "--k", "1", "--alphabet", "a", "b", "--uniform", "--in", str(q)]) == 0
        assert capsys.readouterr().out == (
            "block,count,frequency,target,abs_error\na,2,0.5,0.5,0.0\nb,2,0.5,0.5,0.0\n"
        )
