import io

import pytest

import sftselect as ss
from sftselect import fixtures as fx
from sftselect.cli import main
from sftselect.experiment import write_experiment_csv


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

    def test_lemma_check_caps_measure_walks_only(self, capsys):
        even = str(fx.data_path("even_positions.sel"))
        golden = str(fx.data_path("golden_parry.msr"))
        args = ["lemma-check", "--selector", even, "--n-max", "6", "--w-max", "1"]
        assert main([*args, "--measure", golden, "--max-enum", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: enumeration of 64 runs exceeds the cap of 32")
        assert "raise --max-enum" in captured.err
        assert main([*args, "--max-enum", "32"]) == 0

    def test_lemma_check_max_enum_help(self, capsys):
        assert main(["lemma-check", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "cap on the nominal runs (#A**n) of a measure walk; counts are not capped" in help_text
