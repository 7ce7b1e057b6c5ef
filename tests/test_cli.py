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
from gridpersist.approximation import SignedIntervalSum
from gridpersist.cli import build_parser, main
from gridpersist.intervals import Interval
from gridpersist.pmod import parse_pmod


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

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "intervals", "1", "2")
        assert code == 0
        assert out.splitlines() == ["1..1:[1,1]", "1..1:[1,2]", "1..1:[2,2]"]

    def test_bad_arity(self, capsys):
        code, _, err = run_cli(capsys, "intervals", "2")
        assert code == 1

    def test_nonpositive_grid(self, capsys):
        code, _, err = run_cli(capsys, "intervals", "0", "4")
        assert code == 2
        assert "error" in err


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
        code, _, err = run_cli(capsys, "gen", "random", "--field", "9")
        assert code == 2
        assert "error" in err

    def test_unknown_kind(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "bogus")
        assert code == 1

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
        rank_of_sum = cli.rank_of_sum
        monkeypatch.setattr(cli, "rank_of_sum", lambda s, src, dst: rank_of_sum(s, src, dst) + 1)
        code, out, _ = run_cli(capsys, "verify", example_file)
        assert code == 3
        assert out.startswith("MISMATCH rank at ") and out.count("\n") == 1

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
            assert float(r["mean_ms"]) >= 0.0
            assert int(r["intervals"]) > 0
            assert int(r["path_pairs"]) > 0

    def test_bad_lists_are_usage_errors(self, capsys):
        for flag, value in (("--n", "4,x"), ("--n", "0"), ("--n", ""), ("--d", "-1"), ("--d", "1,,2")):
            code, out, err = run_cli(capsys, "bench", flag, value, "--reps", "1")
            assert code == 1 and out == "", (flag, value)
            assert err.startswith("usage: ") and f"argument {flag}: expected comma-separated" in err
        args = build_parser().parse_args(["bench", "--d", "0,5"])
        assert (args.n, args.d) == ([4, 8, 16], [0, 5])

    def test_interval_column_matches_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--n", "4", "--d", "1", "--reps", "1")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["intervals"] == "55"


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
