import argparse
import inspect
import json
import re
import subprocess
import sys

import pytest

from hdcode import Codebook, metrics, parse_codebook, serialize_codebook, total_ones
from hdcode.cli import build_parser, main, parse_rule, parse_snr_grid


def run_cli(*args, env=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "hdcode", *args],
        capture_output=True, text=True, env=merged,
    )


# finite SNRs in dB past the +-3068 dB that the channel accepts
EXTREME_SNR = ["3082", "3083", "3100", "1e308", "-3300", "-1e308"]


def usage_error(argv, capsys):
    """Run main on a command line that argparse refuses; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestParsing:
    def test_snr_comma_list(self):
        assert parse_snr_grid("0,2,1") == [0.0, 1.0, 2.0]

    def test_snr_range_default_step(self):
        assert parse_snr_grid("0:3") == [0.0, 1.0, 2.0, 3.0]

    def test_snr_range_fractional_step(self):
        assert parse_snr_grid("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize("bad", ["", "a,b", "5:1", "0:4:0", "1:2:3:4", "0:8:inf", "0,nan",
                                     "1e308:1.7e308:1e-300"])
    def test_snr_rejects_malformed(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_snr_grid(bad)

    def test_snr_range_point_cap(self):
        from hdcode.cli import MAX_SNR_POINTS

        assert len(parse_snr_grid(f"1:{MAX_SNR_POINTS}")) == MAX_SNR_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match="more than"):
            parse_snr_grid(f"0:{MAX_SNR_POINTS}")

    def test_rule_forms(self):
        assert parse_rule("qt>=0.5").kind == "min-energy-per-time"
        assert parse_rule("throughput>=0.3").kind == "min-throughput"
        assert parse_rule("bler<=1e-3").threshold == pytest.approx(1e-3)

    @pytest.mark.parametrize("bad", ["qt>0.5", "bler>=1", "qt>=x", "loss<=1", "qt>=nan",
                                     "bler<=inf"])
    def test_rule_rejects_malformed(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rule(bad)


class TestDesignCommand:
    def test_writes_valid_codebook(self, tmp_path, capsys):
        out = tmp_path / "book.json"
        code = main(["design", "--n", "3", "--k", "2", "--d", "1",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        book = parse_codebook(out.read_text())
        assert (book.n, book.k, book.d) == (3, 2, 1)
        assert total_ones(book) == 9

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["design", "--n", "6", "--k", "3", "--d", "2",
                         "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_short_flags_match_long_ones(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["design", "-n", "3", "-k", "2", "-d", "1", "--out", str(a)]) == 0
        assert main(["design", "--n", "3", "--k", "2", "--d", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_carries_history_and_codebook(self, tmp_path):
        out, rep = tmp_path / "book.json", tmp_path / "report.json"
        assert main(["design", "--n", "3", "--k", "2", "--d", "1",
                     "--out", str(out), "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["succeeded"] is True
        assert doc["best_ones"] == 9
        assert doc["best"] == json.loads(out.read_text())
        history = doc["weight_history"]
        assert doc["generations_run"] + 1 == len(history)
        assert history[-1] == 9.0

    def test_report_written_even_on_failure(self, tmp_path):
        rep = tmp_path / "report.json"
        code = main(["design", "--n", "2", "--k", "2", "--d", "2",
                     "--max-generations", "30", "--report", str(rep)])
        assert code == 1
        doc = json.loads(rep.read_text())
        assert doc["succeeded"] is False
        assert doc["best"] is None and doc["best_ones"] is None

    def test_infeasible_exits_one(self, tmp_path, capsys):
        code = main(["design", "--n", "2", "--k", "2", "--d", "2",
                     "--max-generations", "30", "--out", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: design failed: no complete (n=2, k=2, d=2) codebook" in err


class TestValidateCommand:
    def test_accepts_designed_book(self, tmp_path, capsys):
        out = tmp_path / "book.json"
        main(["design", "--n", "3", "--k", "2", "--d", "2", "--out", str(out)])
        assert main(["validate", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "valid" in stdout and "total_ones=6" in stdout

    def test_rejects_distance_violation(self, tmp_path, capsys):
        doc = {"n": 3, "k": 2, "d": 2, "codewords": ["000", "001", "110", "111"]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "distance" in captured.err
        assert captured.out == ""

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1


class TestOracleCommand:
    def test_emits_optimum_json(self, capsys):
        assert main(["oracle", "--n", "3", "--k", "2", "--d", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["optimum_ones"] == 9
        assert sorted(payload["codebook"]["codewords"]) == ["011", "101", "110", "111"]

    def test_infeasible_is_reported_not_failed(self, capsys):
        assert main(["oracle", "--n", "2", "--k", "2", "--d", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"codebook": None, "feasible": False, "optimum_ones": None}

    def test_capacity_exit_one(self, capsys):
        """The oracle refuses an instance over its caps; the CLI reports its message."""
        assert main(["oracle", "--n", "9", "--k", "2", "--d", "1"]) == 1
        captured = capsys.readouterr()
        assert "error: exhaustive search is capped at n <= 6 and k <= 3" in captured.err
        assert captured.out == ""

    def test_parameter_out_of_domain_exit_one(self, capsys):
        """A d above n is refused by the codebook's own check, and -n/-k/-d carry
        the design command's help strings."""
        assert main(["oracle", "-n", "6", "-k", "3", "-d", "7"]) == 1
        assert capsys.readouterr().err == "error: d must lie in [1, 6], got 7\n"
        oracle = _subparsers(build_parser("oracle"))["oracle"]
        helps = {a.dest: a.help for a in oracle._actions if a.dest in ("n", "k", "d")}
        assert helps == {"n": "codeword length", "k": "message bits; codebook size is 2**k",
                         "d": "minimum Hamming distance"}


class TestBlerCommand:
    @pytest.fixture()
    def book_path(self, tmp_path):
        out = tmp_path / "book.json"
        main(["design", "--n", "3", "--k", "2", "--d", "1", "--out", str(out)])
        return str(out)

    def test_theory_csv_shape(self, book_path, capsys):
        assert main(["bler", "--codebook", book_path, "--snr-db", "0:4:2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "snr_db,mode,bler,ci95,trials"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "theory-dominant"
        assert float(first[2]) > 0 and first[3] == "0.0" and first[4] == "0"

    def test_sim_thread_invariance(self, book_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["bler", "--codebook", book_path, "--snr-db", "0,2", "--mode", "sim",
                "--trials", "20000", "--seed", "7"]
        assert main([*base, "--threads", "1", "--out", str(a)]) == 0
        assert main([*base, "--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_snr_exit_two(self, book_path, capsys):
        err = usage_error(["bler", "--codebook", book_path, "--snr-db", "zork"], capsys)
        assert "argument --snr-db: expected a finite number, got 'zork'" in err

    @pytest.mark.parametrize("grid", ["0:inf", "-inf:0", "0:8:1e-12", "nan"])
    def test_unbounded_snr_grid_exit_two(self, book_path, capsys, grid):
        """Refused up front: no OverflowError, no 8e12-point grid, no nan row."""
        err = usage_error(["bler", "--codebook", book_path, f"--snr-db={grid}"], capsys)
        assert "argument --snr-db: " in err

    def test_repeated_grid_point_exit_one(self, book_path, capsys):
        assert main(["bler", "--codebook", book_path, "--snr-db", "1,1,2"]) == 1
        captured = capsys.readouterr()
        assert "error: snr_grid repeats the point 1.0 dB" in captured.err
        assert captured.out == ""

    def test_negative_grid_after_equals_sign(self, book_path, capsys):
        # argparse reads "--snr-db -2:2" as a missing value followed by an option
        assert main(["bler", "--codebook", book_path, "--snr-db=-2:2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-2.0", "-1.0", "0.0", "1.0", "2.0"]

    @pytest.mark.parametrize("mode", ["theory-dominant", "sim"])
    @pytest.mark.parametrize("flag, value", [
        ("--threads", "0"), ("--threads", "-3"), ("--trials", "0"), ("--trials", "-5"),
        ("--trials", "1e5"),
    ])
    def test_counts_must_be_positive_integers_exit_two(self, book_path, capsys, mode, flag, value):
        """The theory modes ignore both values but still refuse a bad one."""
        err = usage_error(["bler", "--codebook", book_path, "--snr-db", "0", "--mode", mode,
                           flag, value], capsys)
        assert f"argument {flag}: expected a positive integer, got {value!r}" in err

    @pytest.mark.parametrize("mode", metrics.BLER_MODES)
    def test_extreme_snr_exit_one(self, book_path, capsys, mode):
        """A finite SNR whose Eb/N0 or N0 overflows a double is refused, not a traceback."""
        for snr in EXTREME_SNR:
            assert main(["bler", "--codebook", book_path, f"--snr-db={snr}", "--mode", mode,
                         "--trials", "1000"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: ebn0_db must be finite and lie in [-3068, 3068] dB, "
                                    f"got {float(snr)}\n")

    def test_theory_on_incomplete_book_exit_one(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(serialize_codebook(Codebook.from_values(3, 2, 1, [0b111, 0b110, 0b101])))
        result = run_cli("bler", "--codebook", str(path), "--snr-db", "0:2",
                         "--mode", "theory-union")
        assert result.returncode == 1
        assert "exactly 2**k = 4 codewords, got 3" in result.stderr
        assert result.stdout == ""


class TestSweepCommand:
    def test_csv_covers_cross_product(self, tmp_path, capsys):
        paths = []
        for (n, k, d) in [(3, 2, 1), (3, 2, 2)]:
            out = tmp_path / f"n{n}k{k}d{d}.json"
            main(["design", "--n", str(n), "--k", str(k), "--d", str(d), "--out", str(out)])
            paths.append(str(out))
        args = ["sweep", "--snr-db", "0:8:4"]
        for p in paths:
            args += ["--codebook", p]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = "codebook_id,n,k,d,snr_db,bler,throughput,energy_per_bit,energy_per_time"
        assert lines[0] == header
        assert len(lines) == 1 + 2 * 3
        assert lines[1].startswith("n3k2d1,3,2,1,0.0,")

    @pytest.mark.parametrize("mode", metrics.BLER_MODES)
    def test_extreme_snr_exit_one(self, tmp_path, capsys, mode):
        book = tmp_path / "book.json"
        book.write_text(serialize_codebook(Codebook.from_values(3, 1, 3, [0b000, 0b111])))
        for snr in EXTREME_SNR:
            assert main(["sweep", "--codebook", str(book), f"--snr-db=0,{snr}", "--mode", mode,
                         "--trials", "1000"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: ebn0_db must be finite and lie in [-3068, 3068] dB" in captured.err


class TestSelectCommand:
    def _library(self, tmp_path, specs):
        """Design codebooks and tabulate each one, as select expects on disk."""
        lib = tmp_path / "library"
        lib.mkdir()
        for (n, k, d) in specs:
            book = lib / f"n{n}k{k}d{d}.json"
            assert main(["design", "--n", str(n), "--k", str(k), "--d", str(d),
                         "--out", str(book)]) == 0
            assert main(["bler", "--codebook", str(book), "--snr-db", "0:8",
                         "--out", str(book.with_suffix(".csv"))]) == 0
        return str(lib)

    def test_reports_choice_as_json(self, tmp_path, capsys):
        lib = self._library(tmp_path, [(3, 2, 1), (3, 2, 2)])
        code = main(["select", "--library", lib, "--snr-db", "6", "--rule", "qt>=0.6"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"codebook_id", "snr_db", "bler", "throughput",
                                "energy_per_bit", "energy_per_time", "codebook"}
        assert payload["codebook_id"] == "n3k2d1"
        assert payload["energy_per_time"] == pytest.approx(0.75)

    def test_infeasible_rule_exit_one(self, tmp_path, capsys):
        lib = self._library(tmp_path, [(3, 2, 1)])
        capsys.readouterr()
        code = main(["select", "--library", lib, "--snr-db", "4", "--rule", "qt >= 0.99"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no codebook satisfies 'qt>=0.99' at 4.0 dB\n"
        assert captured.out == ""

    @pytest.mark.parametrize("rule", ["qt>0.5", "qt>=nan"])
    def test_bad_rule_exit_two(self, tmp_path, capsys, rule):
        err = usage_error(["select", "--library", str(tmp_path), "--snr-db", "4", "--rule", rule],
                          capsys)
        assert f"argument --rule: cannot parse rule {rule!r}" in err

    def test_snr_outside_tables_exit_one(self, tmp_path, capsys):
        """select_codebook refuses an SNR no table covers; the CLI reports its message."""
        lib = self._library(tmp_path, [(3, 2, 1)])
        capsys.readouterr()
        assert main(["select", "--library", lib, "--snr-db", "12",
                     "--rule", "qt>=0.5"]) == 1
        captured = capsys.readouterr()
        assert ("error: snr 12.0 dB lies outside the tabulated range [0.0, 8.0] "
                "of codebook 'n3k2d1'") in captured.err
        assert captured.out == ""

    def test_missing_table_exit_one(self, tmp_path, capsys):
        lib = tmp_path / "library"
        lib.mkdir()
        main(["design", "--n", "3", "--k", "2", "--d", "1",
              "--out", str(lib / "lonely.json")])
        assert main(["select", "--library", str(lib), "--snr-db", "4",
                     "--rule", "qt>=0.5"]) == 1
        assert "lonely" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, column",
        [("4.0,sim,0.1,,1000", "ci95"), ("4.0,sim,0.1,0.01,1.5", "trials"),
         ("nan,sim,0.1,0.01,1000", "snr_db"), ("4.0,sim,nan,0.01,1000", "bler"),
         ("4.0,sim,-3,0.01,1000", "bler"), ("4.0,sim,7,0.01,1000", "bler"),
         ("4.0,theory-dominant,2.0,0.0,0", "bler"), ("4.0,sim,0.1,nan,1000", "ci95"),
         ("4.0,sim,0.1,inf,1000", "ci95"), ("4.0,sim,0.1,-0.01,1000", "ci95"),
         ("4.0,sim,0.1,0.01,-5", "trials"), ("0.0,sim,0.1,0.01,1000", "snr_db"),
         ("4.0,bogus,0.1,0.01,1000", "mode")],
        ids=["empty", "unparsable", "nan-snr", "nan-bler", "negative-bler", "bler-above-one",
             "dominant-bler-above-one", "nan-ci95", "infinite-ci95", "negative-ci95",
             "negative-trials", "repeated-snr", "bogus-mode"],
    )
    def test_empty_table_cell_exit_one(self, tmp_path, capsys, row, column):
        lib = tmp_path / "library"
        lib.mkdir()
        assert main(["design", "--n", "3", "--k", "2", "--d", "1",
                     "--out", str(lib / "book.json")]) == 0
        (lib / "book.csv").write_text(
            "snr_db,mode,bler,ci95,trials\n"
            "0.0,sim,0.5,0.01,1000\n"
            f"{row}\n"
        )
        assert main(["select", "--library", str(lib), "--snr-db", "4",
                     "--rule", "qt>=0.5"]) == 1
        err = capsys.readouterr().err
        assert "book.csv" in err and f"'{column}'" in err and "line 3" in err

    def test_theory_dominant_bler_reads_one_at_low_snr(self, tmp_path, capsys):
        """The dominant term is clamped to 1 where it is written, so select reads it."""
        lib = tmp_path / "library"
        lib.mkdir()
        book, table = lib / "hamming.json", lib / "hamming.csv"
        assert main(["design", "--n", "7", "--k", "4", "--d", "3", "--out", str(book)]) == 0
        assert main(["bler", "--codebook", str(book), "--snr-db=-10:0:5",
                     "--mode", "theory-dominant", "--out", str(table)]) == 0
        assert "-10.0,theory-dominant,1.0,0.0,0\n" in table.read_text()
        assert main(["select", "--library", str(lib), "--snr-db", "-10",
                     "--rule", "qt>=0"]) == 0
        assert json.loads(capsys.readouterr().out)["throughput"] == 0.0

    @pytest.mark.parametrize("snr", ["nan", "inf"])
    def test_non_finite_snr_exit_two(self, tmp_path, capsys, snr):
        lib = self._library(tmp_path, [(3, 2, 1)])
        capsys.readouterr()
        err = usage_error(["select", "--library", lib, f"--snr-db={snr}", "--rule", "qt>=0.5"],
                          capsys)
        assert f"argument --snr-db: expected a finite number, got '{snr}'" in err

    def test_not_a_directory_exit_two(self, tmp_path, capsys):
        nowhere = str(tmp_path / "nowhere")
        err = usage_error(["select", "--library", nowhere, "--snr-db", "4", "--rule", "qt>=0.5"],
                          capsys)
        assert f"argument --library: {nowhere!r} is not a directory" in err


@pytest.mark.parametrize("command", ["sweep", "select"])
@pytest.mark.parametrize("data, message", [
    (b'{"n": 3}', "b.json: missing field 'k'"),
    (b'\xff{"n": 3}', "b.json: 'utf-8' codec can't decode byte 0xff"),
    (b'{"n": 3, "k": 2, "d": 1, "codewords": ["111", "110"]}',
     "codebook 'b' requires exactly 2**k = 4 codewords, got 2"),
], ids=["unparsable", "not-utf8", "incomplete"])
def test_bad_book_among_several_is_named(tmp_path, capsys, command, data, message):
    lib = tmp_path / "library"
    lib.mkdir()
    good, bad = lib / "a.json", lib / "b.json"
    good.write_text(serialize_codebook(Codebook.from_values(3, 2, 1, [7, 6, 5, 3])))
    bad.write_bytes(data)
    for stem in ("a", "b"):
        (lib / f"{stem}.csv").write_text(
            "snr_db,mode,bler,ci95,trials\n4.0,theory-dominant,0.1,0.0,0\n"
        )
    argv = (["sweep", "--codebook", str(good), "--codebook", str(bad)] if command == "sweep"
            else ["select", "--library", str(lib), "--rule", "qt>=0.5"])
    assert main([*argv, "--snr-db", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


class TestProcessLevel:
    def test_missing_subcommand_exit_two(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_flag_exit_two(self):
        proc = run_cli("design", "--n", "3", "--k", "2", "--d", "1", "--frobnicate")
        assert proc.returncode == 2

    def test_end_to_end_design_validate(self, tmp_path):
        out = tmp_path / "book.json"
        design = run_cli("design", "--n", "4", "--k", "2", "--d", "2",
                         "--seed", "1", "--out", str(out))
        assert design.returncode == 0
        check = run_cli("validate", str(out))
        assert check.returncode == 0
        assert "valid" in check.stdout

    def test_log_env_writes_stderr_only(self, tmp_path):
        out_quiet = tmp_path / "quiet.json"
        out_loud = tmp_path / "loud.json"
        quiet = run_cli("design", "--n", "3", "--k", "2", "--d", "1",
                        "--out", str(out_quiet))
        loud = run_cli("design", "--n", "3", "--k", "2", "--d", "1",
                       "--out", str(out_loud), env={"HDCODE_LOG": "info"})
        assert quiet.returncode == loud.returncode == 0
        assert out_quiet.read_bytes() == out_loud.read_bytes()
        assert "design done" in loud.stderr
        assert "design done" not in quiet.stderr

    def test_debug_log_reports_simulation_throughput(self, tmp_path):
        book = tmp_path / "book.json"
        book.write_text(serialize_codebook(Codebook.from_values(3, 2, 1, [7, 6, 5, 3])))
        args = ("bler", "--codebook", str(book), "--snr-db", "2", "--mode", "sim",
                "--trials", "1000")
        quiet = run_cli(*args)
        loud = run_cli(*args, env={"HDCODE_LOG": "debug"})
        assert quiet.returncode == loud.returncode == 0
        assert quiet.stdout == loud.stdout
        assert quiet.stderr == ""
        assert "simulated 1000 trials in 1 shards on 1 threads" in loud.stderr
        assert "trials/s" in loud.stderr


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _option(command, flag):
    sub = _subparsers(build_parser(command))[command]
    return next(a for a in sub._actions if flag in a.option_strings)


def test_rule_help_lists_selection_rules():
    """The --rule help spells out the prefixes of metrics.SELECTION_RULES."""
    rule = _option("select", "--rule")
    assert re.findall(r"'(\S+)X'", rule.help) == [
        spec.prefix for spec in metrics.SELECTION_RULES.values()
    ]


@pytest.mark.parametrize("argv, target, defaults_of", [
    (["design", "-n", "3", "-k", "2", "-d", "1"], "hdcode.search.genetic_local_search", None),
    (["bler", "--codebook", "{book}", "--snr-db", "0"], "hdcode.metrics.bler_table",
     metrics.bler_table),
    (["sweep", "--codebook", "{book}"], "hdcode.metrics.tradeoff_sweep", metrics.tradeoff_sweep),
], ids=["design", "bler", "sweep"])
def test_defaults_reach_the_library(argv, target, defaults_of, tmp_path, monkeypatch):
    """With no optional flag, each command hands the library its own defaults:
    design a DesignConfig(), bler and sweep the mode, trials, seed and threads
    of their functions' signatures."""
    from hdcode.search import DesignConfig

    book = tmp_path / "book.json"
    book.write_text(serialize_codebook(Codebook.from_values(3, 2, 1, [7, 6, 5, 3])))
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise ValueError("recorded")

    monkeypatch.setattr(target, record)
    assert main([a.format(book=book) for a in argv]) == 1
    [(args, kwargs)] = calls
    if defaults_of is None:
        assert args[3] == DesignConfig()
    else:
        params = inspect.signature(defaults_of).parameters
        expected = {name: params[name].default for name in ("mode", "trials", "seed", "threads")}
        assert {name: kwargs[name] for name in expected} == expected


def test_parser_builds_only_the_invoked_commands_options(capsys):
    for name, sub in _subparsers(build_parser("validate")).items():
        dests = [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert dests == (["codebook", "out"] if name == "validate" else []), name
    err = usage_error(["bler", "--codebook", "x", "--snr-db", "0", "--mode", "bogus"], capsys)
    assert "argument --mode: invalid choice: 'bogus'" in err
    for mode in metrics.BLER_MODES:
        assert mode in err


@pytest.mark.parametrize("argv", [
    ["design", "-n", "3", "-k", "2", "-d", "1", "--literal-weight"],
    ["sweep", "--codebook", "book.json", "--literal-total"],
    ["select", "--library", "{lib}", "--snr-db", "0", "--rule", "bler<=0.1", "--literal-total"],
    ["validate", "book.json", "--seed", "5"],
    ["validate", "book.json", "--threads", "9"],
    ["oracle", "-n", "6", "-k", "3", "-d", "3", "--seed", "1"],
    ["oracle", "-n", "6", "-k", "3", "-d", "3", "--threads", "2"],
    ["select", "--library", "{lib}", "--snr-db", "0", "--rule", "bler<=0.1", "--seed", "1"],
    ["select", "--library", "{lib}", "--snr-db", "0", "--rule", "bler<=0.1", "--threads", "2"],
    ["design", "-n", "3", "-k", "2", "-d", "1", "--threads", "2"],
])
def test_removed_reading_flags_are_usage_errors(argv, tmp_path, capsys):
    """Each command takes only the flags its handler reads: fitness and energy
    each have one reading, and only design, bler and sweep read --seed, only
    bler and sweep --threads."""
    err = usage_error([a.format(lib=tmp_path) for a in argv], capsys)
    flag = [a for a in argv if a.startswith("--")][-1]
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv", [
    ["design", "-n", "3", "-k", "2", "-d", "1"],
    ["bler", "--codebook", "book.json", "--snr-db", "0"],
    ["bler", "--codebook", "book.json", "--snr-db", "0", "--mode", "sim", "--trials", "1000"],
    ["sweep", "--codebook", "book.json"],
], ids=["design", "bler-theory", "bler-sim", "sweep"])
def test_negative_seed_is_usage_error(argv, capsys):
    """Every command that reads --seed refuses a negative one in argparse, in
    every mode, theory modes included."""
    err = usage_error([*argv, "--seed", "-1"], capsys)
    assert "argument --seed: expected a nonnegative integer, got '-1'" in err


class TestImports:
    """Each command loads only the hdcode modules it runs, in a fresh process;
    numpy.random and statistics load only where a command draws noise or
    sets the early-accept threshold."""

    PROBE = (
        "import json, sys\n"
        "from hdcode.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'hdcode'),"
        " 'numpy.random' in sys.modules, 'statistics' in sys.modules]))\n"
    )
    BASE = {"hdcode", "hdcode.cli", "hdcode.codebook"}
    EVAL = BASE | {"hdcode.linksim", "hdcode.metrics"}

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("imports")
        (root / "lib").mkdir()
        book = root / "lib" / "book.json"
        book.write_text(serialize_codebook(Codebook.from_values(3, 2, 1, [7, 6, 5, 3])))
        (root / "lib" / "book.csv").write_text(
            "snr_db,mode,bler,ci95,trials\n0.0,theory-dominant,0.5,0.0,0\n"
        )
        return root

    @pytest.mark.parametrize("argv, modules, rng, stats", [
        (["design", "-n", "3", "-k", "2", "-d", "1"], BASE | {"hdcode.search"}, True, False),
        (["validate", "{book}"], BASE, False, False),
        (["oracle", "-n", "3", "-k", "2", "-d", "1"], BASE | {"hdcode.oracle"}, False, False),
        (["bler", "--codebook", "{book}", "--snr-db", "0,2"], EVAL, False, False),
        (["bler", "--codebook", "{book}", "--snr-db", "0", "--mode", "sim", "--trials", "100"],
         EVAL, True, True),
        (["sweep", "--codebook", "{book}", "--snr-db", "0,2"], EVAL, False, False),
        (["select", "--library", "{lib}", "--snr-db", "0", "--rule", "qt>=0.1"], EVAL, False,
         False),
    ], ids=["design", "validate", "oracle", "bler-theory", "bler-sim", "sweep", "select"])
    def test_command_loads_only_its_modules(self, files, argv, modules, rng, stats):
        paths = {"book": files / "lib" / "book.json", "lib": files / "lib"}
        argv = [a.format(**paths) for a in argv] + ["--out", str(files / "out")]
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, loaded, rng_loaded, stats_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert set(loaded) == modules
        assert rng_loaded == rng
        assert stats_loaded == stats
