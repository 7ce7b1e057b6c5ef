"""Command line interface: outputs, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridpersist
from gridpersist import cli, compression, grid
from gridpersist.approximation import SignedIntervalSum, signed_rank_invariant
from gridpersist.cli import build_parser, main
from gridpersist.ffmat import FieldSpec
from gridpersist.generators import make_rng, random_interval_decomposable
from gridpersist.intervals import Interval, count_intervals
from gridpersist.pmod import format_signed_sum, parse_pmod


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example_file(tmp_path, capsys):
    path = tmp_path / "example.pmod"
    code, out, err = run_cli(capsys, "gen", "example", "--output", str(path))
    assert code == 0
    return str(path)


class TestIntervals:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "intervals", "2", "4", "--count")
        assert code == 0 and out == "55\n"

    def test_count_builds_no_interval(self, capsys, monkeypatch):
        def refuse(m, n):
            raise AssertionError("--count enumerated the intervals")

        monkeypatch.setattr(cli, "enumerate_intervals", refuse)
        code, out, _ = run_cli(capsys, "intervals", "40", "40", "--count")
        assert code == 0 and out == f"{count_intervals(40, 40)}\n"

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "intervals", "1", "2")
        assert code == 0
        assert out.splitlines() == ["1..1:[1,1]", "1..1:[1,2]", "1..1:[2,2]"]

    def test_bad_arity(self, capsys):
        code, _, err = run_cli(capsys, "intervals", "2")
        assert code == 1

    def test_nonpositive_grid(self, capsys):
        code, out, err = run_cli(capsys, "intervals", "0", "4")
        assert code == 1 and out == ""
        assert "argument m: expected an integer >= 1, got '0'" in err


# every option of gen but --field and -o, with a value, and the kinds that read each
GEN_OPTIONS = {"--m": ["2"], "--n": ["4"], "--d": ["3"], "--k": ["3"], "--l": ["1"], "--plain": [], "--seed": ["0"]}
GEN_READS = {"random": ["--n", "--d", "--seed"], "interval": ["--m", "--n", "--k", "--plain", "--seed"],
             "staircase": ["--l"], "example": []}
GEN_IGNORED = [(kind, option) for kind, reads in GEN_READS.items() for option in GEN_OPTIONS if option not in reads]


class TestGenOptions:
    """Each gen kind takes only the options it reads, besides --field and -o."""

    def test_nineteen_pairs_are_refused(self):
        assert len(GEN_IGNORED) == 19

    @pytest.mark.parametrize("kind", GEN_READS)
    def test_every_option_read_is_accepted(self, kind, capsys):
        argv = [word for option in GEN_READS[kind] for word in (option, *GEN_OPTIONS[option])]
        code, out, _ = run_cli(capsys, "gen", kind, *argv, "--field", "3")
        assert code == 0 and out.startswith("PMOD 1\nfield 3\n")

    @pytest.mark.parametrize("kind, option", GEN_IGNORED)
    def test_an_option_not_read_is_a_usage_error(self, kind, option, tmp_path, capsys):
        dest = tmp_path / "out.pmod"
        code, out, err = run_cli(capsys, "gen", kind, option, *GEN_OPTIONS[option], "-o", str(dest))
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {option}" in err
        assert not dest.exists()

    @pytest.mark.parametrize("m", ["0", "3", "x"])
    def test_interval_height_outside_the_bound(self, m, tmp_path, capsys):
        dest = tmp_path / "out.pmod"
        code, out, err = run_cli(capsys, "gen", "interval", "--m", m, "--n", "2", "-o", str(dest))
        assert code == 1 and out == "" and "argument --m: invalid" in err
        assert not dest.exists()

    @pytest.mark.parametrize("m", [1, 2])
    def test_interval_heights_round_trip(self, m, tmp_path, capsys):
        # approx of an interval sum is its true decomposition
        dest = tmp_path / "sum.pmod"
        code, _, _ = run_cli(capsys, "gen", "interval", "--m", str(m), "--n", "4", "--k", "5",
                             "--field", "3", "--seed", "11", "-o", str(dest))
        assert code == 0 and parse_pmod(dest.read_text()).grid.m == m
        code, out, _ = run_cli(capsys, "verify", str(dest))
        assert code == 0 and out.startswith("PASS")
        _, truth = random_interval_decomposable(m, 4, 5, FieldSpec(3), make_rng(11))
        code, out, _ = run_cli(capsys, "approx", str(dest))
        assert code == 0 and out == format_signed_sum(truth)

    def test_parent_options_stay_with_the_kind(self, capsys):
        # gen itself takes no option, so a kind's defaults cannot overwrite one
        code, _, err = run_cli(capsys, "gen", "--field", "3", "example")
        assert code == 1 and err.startswith("usage: ")


class TestOutOfRangeValues:
    """A value outside an option's range is a usage error: exit 1, with no
    stdout and no -o file, before any work."""

    @pytest.mark.parametrize("argv, message", [
        (["intervals", "0", "3"], "argument m: expected an integer >= 1, got '0'"),
        (["intervals", "2", "-1"], "argument n: expected an integer >= 1, got '-1'"),
        (["gen", "random", "--n", "0"], "argument --n: expected an integer >= 1, got '0'"),
        (["gen", "random", "--d", "-1"], "argument --d: expected an integer >= 0, got '-1'"),
        (["gen", "staircase", "--l", "0"], "argument --l: expected an integer >= 1, got '0'"),
        (["gen", "interval", "--k", "-1"], "argument --k: expected an integer >= 0, got '-1'"),
        (["gen", "random", "--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"),
        (["gen", "interval", "--seed", "x"], "argument --seed: expected an integer >= 0, got 'x'"),
        (["gen", "random", "--field", "4"], "argument --field: field modulus must be prime: 4"),
        (["gen", "example", "--field", "65537"],
         "argument --field: field modulus must be an integer in [2, 2**16): 65537"),
        (["gen", "example", "--field", "1"], "argument --field: expected an integer >= 2, got '1'"),
        (["bench", "--field", "4"], "argument --field: field modulus must be prime: 4"),
        (["bench", "--seed", "-1"], "argument --seed: expected an integer >= 0, got '-1'"),
    ])
    def test_usage_error(self, argv, message, tmp_path, capsys, monkeypatch):
        for worker in ("_bench_cell", "count_intervals", "enumerate_intervals", "print_pmod"):
            monkeypatch.setattr(cli, worker, TestOutputCheckedFirst.refuse)
        dest = tmp_path / "out.txt"
        output = [] if argv[0] == "intervals" else ["-o", str(dest)]  # intervals has no -o
        code, out, err = run_cli(capsys, *argv, *output)
        assert code == 1 and out == ""
        assert err.startswith("usage: ") and message in err
        assert not dest.exists()


class TestParserOnce:
    def test_two_runs_share_one_parser(self, capsys, monkeypatch):
        used = []
        parse = cli._Parser.parse_args
        monkeypatch.setattr(cli._Parser, "parse_args", lambda self, *a: used.append(self) or parse(self, *a))
        first = run_cli(capsys, "gen", "random", "--n", "3", "--seed", "5")
        second = run_cli(capsys, "gen", "random", "--n", "3", "--seed", "5")
        assert first[0] == 0 and first == second
        assert len(used) == 2 and used[0] is used[1] is build_parser()


class TestGen:
    def test_example_roundtrips(self, example_file):
        with open(example_file) as fh:
            module = parse_pmod(fh.read())
        assert module.grid.m == 2 and module.grid.n == 3

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "random", "--n", "4", "--d", "2", "--seed", "7")
        _, out2, _ = run_cli(capsys, "gen", "random", "--n", "4", "--d", "2", "--seed", "7")
        _, out3, _ = run_cli(capsys, "gen", "random", "--n", "4", "--d", "2", "--seed", "8")
        assert out1 == out2 != out3

    def test_interval_kind_parses(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "interval", "--m", "2", "--n", "3", "--k", "4",
                               "--field", "5", "--seed", "3")
        assert code == 0
        module = parse_pmod(out)
        assert module.field.p == 5

    def test_staircase_kind(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "staircase", "--l", "2")
        assert code == 0
        assert "grid 2 5" in out

    def test_bad_field_rejected(self, capsys):
        code, out, err = run_cli(capsys, "gen", "random", "--field", "9")
        assert code == 1 and out == ""
        assert "argument --field: field modulus must be prime: 9" in err

    def test_unknown_kind(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "bogus")
        assert code == 1

    @pytest.mark.parametrize("argv, vertex, dim", [
        (["random", "--n", "1", "--d", "1100"], "(1, 1)", 1100),
        (["staircase", "--l", "600"], "(1, 3)", 1200),
    ])
    def test_dimension_above_the_bound_exits_2(self, argv, vertex, dim, tmp_path, capsys):
        # every command that reads a PMOD file rejects such a document
        dest = tmp_path / "big.pmod"
        code, out, err = run_cli(capsys, "gen", *argv, "-o", str(dest))
        assert code == 2 and out == ""
        assert err == f"error: vertex {vertex} has dimension {dim}, above the PMOD bound MAX_DIM = 1024\n"
        assert not dest.exists()

    def test_dimension_at_the_bound_round_trips(self, tmp_path, capsys):
        dest = tmp_path / "edge.pmod"
        assert run_cli(capsys, "gen", "random", "--n", "1", "--d", "1024", "-o", str(dest))[0] == 0
        code, out, _ = run_cli(capsys, "verify", str(dest))
        assert code == 0 and out.endswith("dimension vector (1024 / 1024)\n")

    def test_output_into_a_missing_directory(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "out.pmod"
        code, out, err = run_cli(capsys, "gen", "example", "-o", str(dest))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {dest}: ") and "Traceback" not in err


class TestCompress:
    def test_known_output(self, example_file, capsys):
        code, out, _ = run_cli(capsys, "compress", example_file)
        assert code == 0
        lines = out.splitlines()
        assert "1 1..1:[2,2]" in lines
        assert "2 2..2:[2,2]" in lines
        assert len(lines) == 16  # nonzero values only

    def test_output_file(self, example_file, tmp_path, capsys):
        dest = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, "compress", example_file, "-o", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text().splitlines()[0] == "1 1..1:[2,2]"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compress", "/nonexistent.pmod")
        assert code == 2 and "error" in err

    def test_undecodable_file_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "binary.pmod"
        path.write_bytes(b"\xffPMOD 1\n")
        code, _, err = run_cli(capsys, "compress", str(path))
        assert code == 2 and err.startswith(f"error: cannot read {path}: ")

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmod"
        bad.write_text("PMOD 2\n")
        code, _, err = run_cli(capsys, "compress", str(bad))
        assert code == 2 and "line 1" in err

    def test_tall_grid_rejected(self, tmp_path, capsys):
        doc = "PMOD 1\nfield 2\ngrid 3 1\ndim 1 1 0\ndim 2 1 0\ndim 3 1 0\nEND\n"
        path = tmp_path / "tall.pmod"
        path.write_text(doc)
        code, _, err = run_cli(capsys, "compress", str(path))
        assert code == 2 and "height" in err


    def test_tall_grid_fails_before_its_body(self, tmp_path, capsys):
        # the line after the grid line is malformed; the height is reported
        path = tmp_path / "tall.pmod"
        path.write_text("PMOD 1\nfield 2\ngrid 3 1\nspam\n")
        code, _, err = run_cli(capsys, "compress", str(path))
        assert code == 2 and err == f"error: {path}: line 3: grid height 3 exceeds the bound 2\n"


class TestApprox:
    def test_example_coefficients(self, example_file, capsys):
        code, out, _ = run_cli(capsys, "approx", example_file)
        assert code == 0
        assert out == (
            "APPROX ss\n"
            "-1 1..2:[2,3];[1,2]\n"
            "1 1..2:[2,3];[1,3]\n"
            "1 1..2:[2,3];[2,2]\n"
            "1 2..2:[1,2]\n"
        )

    def test_output_into_a_missing_directory(self, example_file, tmp_path, capsys):
        dest = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, "approx", example_file, "-o", str(dest))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {dest}: ") and not dest.parent.exists()

    def test_single_thread_without_options(self, example_file, capsys):
        # perfbench/run.py records this value as the CLI's thread count
        assert build_parser().parse_args(["approx", "x"]).threads == 1
        for flag, value in (("--threads", "2"), ("--method", "ss")):
            code, _, err = run_cli(capsys, "approx", example_file, flag, value)
            assert code == 1 and "unrecognized arguments" in err


def off_by_one_at_last_pair(s):
    """cli.signed_rank_invariant with one value, the last pair's, off by one."""
    ranks = signed_rank_invariant(s)
    last = next(reversed(ranks))
    return {**ranks, last: ranks[last] + 1}


class TestVerify:
    def test_pass_line(self, example_file, capsys):
        code, out, _ = run_cli(capsys, "verify", example_file)
        assert code == 0
        assert out.startswith("PASS rank invariant preserved")
        assert "(1 2 1 / 0 1 1)" in out

    def test_builds_one_path_map_table(self, example_file, capsys, monkeypatch):
        built = []
        build = grid.path_map_table

        def counted(module):
            built.append(module)
            return build(module)

        monkeypatch.setattr(grid, "path_map_table", counted)
        monkeypatch.setattr(compression, "path_map_table", counted)
        code, out, _ = run_cli(capsys, "verify", example_file)
        assert code == 0 and out.startswith("PASS")
        assert len(built) == 1

    def test_rank_mismatch_exits_3(self, example_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "signed_rank_invariant", off_by_one_at_last_pair)
        code, out, _ = run_cli(capsys, "verify", example_file)
        assert code == 3
        assert out.startswith("MISMATCH rank at ") and out.count("\n") == 1

    def test_compression_off_by_one_exits_3(self, example_file, capsys, monkeypatch):
        # the ranks verify checks come from the path maps, not from the image
        # chain, so one cross-row rectangle value off by one shows up there
        arrow = Interval(1, 2, ((2, 3), (2, 3)))
        assert compression.classify_ss(arrow).kind == compression.ARROW
        value = compression._GroupedRanks.value
        monkeypatch.setattr(compression._GroupedRanks, "value", lambda self, I: value(self, I) + (I == arrow))
        code, out, _ = run_cli(capsys, "verify", example_file)
        assert code == 3
        assert out == "MISMATCH rank at (1, 2) -> (2, 3): module 1, approximation 2\n"

    def test_dimension_mismatch_is_a_rank_mismatch(self, example_file, capsys, monkeypatch):
        # a one-vertex interval changes only the rank along (v, v), which is dim M_v
        point = Interval(1, 1, ((2, 2),))
        approximate = cli.interval_approximation

        def off_by_one(module):
            approx = approximate(module)
            coeffs = {**approx.coeffs, point: approx.coeffs.get(point, 0) + 1}
            return SignedIntervalSum(approx.m, approx.n, {I: c for I, c in coeffs.items() if c})

        monkeypatch.setattr(cli, "interval_approximation", off_by_one)
        code, out, _ = run_cli(capsys, "verify", example_file)
        assert code == 3
        assert out == "MISMATCH rank at (1, 2) -> (1, 2): module 1, approximation 2\n"

    def test_random_interval_sum_passes(self, tmp_path, capsys):
        path = tmp_path / "sum.pmod"
        code, _, _ = run_cli(capsys, "gen", "interval", "--n", "5", "--k", "6",
                             "--seed", "14", "--output", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and out.startswith("PASS")

    def test_staircase_passes(self, tmp_path, capsys):
        path = tmp_path / "stairs.pmod"
        run_cli(capsys, "gen", "staircase", "--l", "2", "--output", str(path))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and out.startswith("PASS")

    def test_zero_module(self, tmp_path, capsys):
        path = tmp_path / "zero.pmod"
        run_cli(capsys, "gen", "interval", "--n", "3", "--k", "0", "--output", str(path))
        code, out, _ = run_cli(capsys, "compress", str(path))
        assert code == 0 and out == ""
        code, out, _ = run_cli(capsys, "approx", str(path))
        assert code == 0 and out == "APPROX ss\n"


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--n", "2,3", "--d", "1,2", "--reps", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["n"], r["d"]) for r in rows] == [("2", "1"), ("3", "1"), ("2", "2"), ("3", "2")]
        for r in rows:
            assert int(r["reps"]) >= 1
            assert float(r["mean_ms"]) >= 0.0 and float(r["median_ms"]) >= 0.0
            assert int(r["intervals"]) > 0
            assert int(r["path_pairs"]) > 0

    def test_bad_lists_are_usage_errors(self, capsys):
        for flag, value in (("--n", "4,x"), ("--n", "0"), ("--n", ""), ("--d", "-1"), ("--d", "1,,2")):
            code, out, err = run_cli(capsys, "bench", flag, value, "--reps", "1")
            assert code == 1 and out == "", (flag, value)
            assert err.startswith("usage: ") and f"argument {flag}: expected comma-separated" in err
        args = build_parser().parse_args(["bench", "--d", "0,5"])
        assert (args.n, args.d, args.reps) == ([4, 8, 16], [0, 5], 5)

    @pytest.mark.parametrize("value", ["0", "-2", "x", "1,2", ""])
    def test_reps_below_one_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setattr(cli, "_bench_cell", TestOutputCheckedFirst.refuse)
        code, out, err = run_cli(capsys, "bench", "--n", "2", "--reps", value)
        assert code == 1 and out == ""
        assert err.startswith("usage: ") and f"argument --reps: expected an integer >= 1, got {value!r}" in err

    def test_cells_run_for_at_least_the_cell_time(self, capsys, monkeypatch):
        # a clock that advances 10 ms per reading, so each timed run takes 10 ms
        ticks = iter(range(10**9))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks) / 100.0)
        code, out, _ = run_cli(capsys, "bench", "--n", "2", "--d", "1", "--reps", "1")
        row = next(csv.DictReader(io.StringIO(out)))
        assert code == 0 and int(row["reps"]) * 0.010 >= cli._BENCH_CELL_S
        assert (row["mean_ms"], row["median_ms"]) == ("10.0", "10.0")

    def test_interval_column_matches_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--n", "4", "--d", "1", "--reps", "1")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["intervals"] == "55"


class TestOutputCheckedFirst:
    """An output that cannot be written fails before any work, with the
    message a write would give; a command that fails leaves the output
    as it was."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the output was checked")

    @pytest.mark.parametrize("argv, worker", [
        (["bench", "--n", "2", "--d", "1", "--reps", "1"], "_bench_cell"),
        (["gen", "random"], "random_module"),
    ])
    def test_no_work_without_a_writable_output(self, argv, worker, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, worker, self.refuse)
        for dest in (tmp_path / "missing" / "x", tmp_path):
            code, out, err = run_cli(capsys, *argv, "-o", str(dest))
            assert code == 2 and out == ""
            assert err.startswith(f"error: cannot write {dest}: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, worker", [
        ("approx", "interval_approximation"),
        ("compress", "compressed_multiplicity_function"),
    ])
    def test_module_commands_read_nothing_first(self, command, worker, example_file, tmp_path,
                                                capsys, monkeypatch):
        monkeypatch.setattr(cli, worker, self.refuse)
        monkeypatch.setattr(cli, "_read_module", self.refuse)
        dest = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, command, example_file, "-o", str(dest))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {dest}: ") and not dest.parent.exists()

    def test_failed_command_keeps_the_old_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.pmod"
        bad.write_text("grid 2 2\nbogus\n")
        kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
        kept.write_text("old\n")
        for dest in (kept, fresh):
            code, _, err = run_cli(capsys, "approx", str(bad), "-o", str(dest))
            assert code == 2 and err.startswith(f"error: {bad}: ")
        assert kept.read_text() == "old\n" and not fresh.exists()

    def test_failed_command_through_a_dangling_link(self, tmp_path, capsys):
        # the check makes the link's target and removes it again; the link stays
        bad = tmp_path / "bad.pmod"
        bad.write_bytes(b"\xff\xfe")
        link, target = tmp_path / "link", tmp_path / "target.txt"
        link.symlink_to(target)
        code, out, err = run_cli(capsys, "approx", str(bad), "-o", str(link))
        assert code == 2 and out == "" and err.startswith(f"error: cannot read {bad}: ")
        assert not target.exists() and link.is_symlink() and os.readlink(link) == str(target)
        # a command that succeeds writes through the link
        code, want, _ = run_cli(capsys, "gen", "example")
        assert run_cli(capsys, "gen", "example", "-o", str(link))[:2] == (code, "")
        assert target.read_text() == want and link.is_symlink()

    def test_existing_output_is_replaced_on_success(self, example_file, tmp_path, capsys, monkeypatch):
        # verify is covered by TestVerifyOutput; bench times repeat only from a restarted clock
        dest = tmp_path / "out.txt"
        for argv in (["compress", example_file], ["approx", example_file], ["gen", "example"],
                     ["bench", "--n", "2", "--d", "0", "--reps", "1"]):
            dest.write_text("old and much longer than the result\n" * 20)
            TestBenchField.restart_clock(monkeypatch)
            code, want, _ = run_cli(capsys, *argv)
            TestBenchField.restart_clock(monkeypatch)
            assert run_cli(capsys, *argv, "-o", str(dest))[:2] == (code, "")
            assert dest.read_bytes() == want.encode()


class TestEntryPoint:
    def test_installed_script(self):
        # the package this suite imports, also when pytest found it through its pythonpath
        src = str(Path(gridpersist.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "gridpersist.cli", "intervals", "2", "3", "--count"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert proc.stdout == "27\n"

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1


class TestVerifyOutput:
    """verify -o writes its PASS or MISMATCH line to the file, not stdout,
    and checks the path before any work."""

    def test_pass_line_goes_to_the_file(self, example_file, tmp_path, capsys):
        _, want, _ = run_cli(capsys, "verify", example_file)
        dest = tmp_path / "verdict.txt"
        code, out, err = run_cli(capsys, "verify", example_file, "-o", str(dest))
        assert code == 0 and out == "" and err == ""
        assert dest.read_text() == want and want.startswith("PASS")
        code, out, _ = run_cli(capsys, "verify", example_file, "-o", "-")
        assert code == 0 and out == want

    def test_mismatch_line_goes_to_the_file(self, example_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "signed_rank_invariant", off_by_one_at_last_pair)
        _, want, _ = run_cli(capsys, "verify", example_file)
        dest = tmp_path / "verdict.txt"
        code, out, _ = run_cli(capsys, "verify", example_file, "--output", str(dest))
        assert code == 3 and out == ""
        assert dest.read_text() == want and want.startswith("MISMATCH rank at ")

    def test_no_work_without_a_writable_output(self, example_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_read_module", TestOutputCheckedFirst.refuse)
        dest = tmp_path / "missing" / "x"
        code, out, err = run_cli(capsys, "verify", example_file, "-o", str(dest))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {dest}: ")


class TestBenchField:
    """bench --field P times modules over GF(P); without it, GF(2), and
    the CSV is as before."""

    @staticmethod
    def restart_clock(monkeypatch):
        # a clock from 0 that advances 5 ms per reading, so timings repeat exactly
        ticks = iter(range(10**9))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks) / 200.0)

    def fields(self, monkeypatch):
        seen = []
        make = cli.random_module
        monkeypatch.setattr(cli, "random_module", lambda n, d, field, rng: seen.append(field.p) or make(n, d, field, rng))
        return seen

    def test_default_csv_unchanged(self, capsys, monkeypatch):
        seen = self.fields(monkeypatch)
        argv = ["bench", "--n", "2,3", "--d", "0,2", "--reps", "2"]
        self.restart_clock(monkeypatch)
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0
        assert plain.splitlines()[0] == "n,d,reps,mean_ms,median_ms,intervals,path_pairs"
        # 100 runs of 5 ms sum to just under the 0.5 s cell time in floating point
        assert plain.splitlines()[1] == "2,0,101,5.0,5.0,11,9"
        self.restart_clock(monkeypatch)
        code, explicit, _ = run_cli(capsys, *argv, "--field", "2")
        assert code == 0 and explicit == plain
        assert seen == [2] * 8

    def test_odd_field(self, capsys, monkeypatch):
        seen = self.fields(monkeypatch)
        code, out, _ = run_cli(capsys, "bench", "--n", "3", "--d", "2", "--reps", "1", "--field", "65521")
        assert code == 0 and seen == [65521]
        assert out.splitlines()[1].startswith("3,2,")

    def test_rejects_composite(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_bench_cell", TestOutputCheckedFirst.refuse)
        code, out, err = run_cli(capsys, "bench", "--n", "2", "--field", "4")
        assert code == 1 and out == "" and "argument --field: field modulus must be prime: 4" in err
