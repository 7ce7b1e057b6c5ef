"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 parse or validation failure
or a file that cannot be read or written, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

from .approximation import interval_approximation, rank_of_sum
from .compression import compressed_multiplicity_function
from .ffmat import FieldSpec
from .generators import (
    example_module,
    make_rng,
    random_interval_decomposable,
    random_module,
    staircase_family_module,
)
from .grid import dimension_vector, format_dimvec, rank_invariant
from .intervals import enumerate_intervals
from .mobius import mobius_invert
from . import pmod
from .pmod import PmodError, format_interval_function, format_signed_sum, print_pmod

USAGE_ERROR = 1
PARSE_ERROR = 2
VERIFY_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _int_list(least: int):
    """argparse type: comma-separated integers, each at least `least`."""
    def convert(text: str) -> list[int]:
        try:
            values = [int(x) for x in text.split(",")]
            if min(values) >= least:
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= {least}, got {text!r}")
    return convert


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(PARSE_ERROR)


def parse_pmod(text: str):
    """pmod.parse_pmod for the commands that read a module.  They handle
    grids of height at most 2, so a taller grid fails at its grid line.
    perfbench/tracer.py wraps this name with a one-argument wrapper."""
    return pmod.parse_pmod(text, max_height=2)


def _read_module(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(PARSE_ERROR)
    try:
        return parse_pmod(text)
    except PmodError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(PARSE_ERROR)


def cmd_intervals(args) -> int:
    intervals = enumerate_intervals(args.m, args.n)
    if args.count:
        print(len(intervals))
    else:
        for I in intervals:
            print(I.to_string())
    return 0


def cmd_compress(args) -> int:
    module = _read_module(args.input)
    f = compressed_multiplicity_function(module)
    _write_output(format_interval_function(f), args.output)
    return 0


def cmd_approx(args) -> int:
    module = _read_module(args.input)
    approx = interval_approximation(module)
    _write_output(format_signed_sum(approx.coeffs), args.output)
    return 0


def cmd_verify(args) -> int:
    module = _read_module(args.input)
    approx = interval_approximation(module)
    ranks = rank_invariant(module)
    for (src, dst), r in ranks.items():
        got = rank_of_sum(approx, src, dst)
        if got != r:
            print(f"MISMATCH rank at {src} -> {dst}: module {r}, approximation {got}")
            return VERIFY_MISMATCH
    # the pairs (v, v) include the dimension vector: rank M(v -> v) = dim M_v
    print(f"PASS rank invariant preserved on {len(ranks)} pairs, "
          f"dimension vector {format_dimvec(dimension_vector(module), module.grid.m, module.grid.n)}")
    return 0


def cmd_gen(args) -> int:
    field = FieldSpec(args.field)
    rng = make_rng(args.seed)
    if args.kind == "random":
        module = random_module(args.n, args.d, field, rng)
    elif args.kind == "interval":
        module, _ = random_interval_decomposable(
            args.m, args.n, args.k, field, rng, disguise=not args.plain
        )
    elif args.kind == "staircase":
        module = staircase_family_module(args.l, field)
    else:
        module = example_module(field)
    _write_output(print_pmod(module), args.output)
    return 0


def _bench_cell(n: int, d: int, reps: int, seed: int):
    rng = make_rng(seed)
    module = random_module(n, d, FieldSpec(2), rng)
    enumerate_intervals(2, n)  # interval enumeration is excluded from timing
    times = []
    while len(times) < reps or sum(times) < 0.1:
        t0 = time.perf_counter()
        f = compressed_multiplicity_function(module)
        mobius_invert(f, 2, n)
        times.append(time.perf_counter() - t0)
    pairs = sum(1 for _ in module.grid.comparable_pairs())
    return {
        "n": n,
        "d": d,
        "reps": len(times),
        "mean_ms": round(1000.0 * sum(times) / len(times), 3),
        "intervals": len(enumerate_intervals(2, n)),
        "path_pairs": pairs,
    }


def cmd_bench(args) -> int:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=["n", "d", "reps", "mean_ms", "intervals", "path_pairs"])
    writer.writeheader()
    for d in args.d:
        for n in args.n:
            writer.writerow(_bench_cell(n, d, args.reps, args.seed))
    _write_output(out.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridpersist",
                     description="Interval-decomposable approximation of 2-parameter persistence modules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intervals", help="list the intervals of an m x n grid")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--count", action="store_true", help="print only the number of intervals")
    p.set_defaults(func=cmd_intervals)

    for name, func, help_text in (
        ("compress", cmd_compress, "compressed multiplicity of every interval"),
        ("approx", cmd_approx, "signed interval approximation"),
        ("verify", cmd_verify, "check rank and dimension preservation of the approximation"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="PMOD file")
        p.add_argument("--output", "-o", default=None)
        # perfbench/run.py reads .threads for its host record; no flag sets it
        p.set_defaults(func=func, threads=1)

    p = sub.add_parser("gen", help="generate PMOD files")
    p.add_argument("kind", choices=["random", "interval", "staircase", "example"])
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=3, help="space dimension for kind=random")
    p.add_argument("--k", type=int, default=3, help="summand count for kind=interval")
    p.add_argument("--l", type=int, default=1, help="size parameter for kind=staircase")
    p.add_argument("--plain", action="store_true", help="skip the disguising base change")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="timing table over grid widths and dimensions (CSV)")
    p.add_argument("--n", type=_int_list(1), default="4,8,16", help="comma-separated grid widths")
    p.add_argument("--d", type=_int_list(0), default="10", help="comma-separated space dimensions")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
