"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 parse or validation failure
or a file that cannot be read or written, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import statistics
import sys
import time

from .approximation import interval_approximation, signed_rank_invariant
from .compression import MAX_HEIGHT, compressed_multiplicity_function
from .ffmat import GF2, FieldSpec
from .generators import (
    example_module,
    make_rng,
    random_interval_decomposable,
    random_module,
    staircase_family_module,
)
from .grid import dimension_vector, format_dimvec, rank_invariant
from .intervals import count_intervals, enumerate_intervals
from .mobius import mobius_invert
from . import pmod
from .pmod import PmodError, format_interval_function, format_signed_sum, print_pmod

# perfbench/tracer.py patches this name on this module; nothing here calls it
from .approximation import rank_of_sum  # noqa: F401

USAGE_ERROR = 1
PARSE_ERROR = 2
VERIFY_MISMATCH = 3
_BENCH_CELL_S = 0.5  # least timed seconds per bench cell, so fast cells repeat enough to compare


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _at_least(least: int, many: bool = False):
    """argparse type: an integer, or with `many` comma-separated integers, each at least `least`."""
    def convert(text: str):
        try:
            values = [int(x) for x in text.split(",")] if many else [int(text)]
            if min(values) >= least:
                return values if many else values[0]
        except ValueError:
            pass
        what = "comma-separated integers" if many else "an integer"
        raise argparse.ArgumentTypeError(f"expected {what} >= {least}, got {text!r}")
    return convert


def _field(text: str) -> FieldSpec:
    """argparse type: GF(p) for a prime modulus p in [2, 2**16)."""
    try:
        return FieldSpec(_at_least(2)(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cannot_write(path: str, exc: OSError):
    print(f"error: cannot write {path}: {exc}", file=sys.stderr)
    raise SystemExit(PARSE_ERROR)


def _check_writable(path: str | None) -> None:
    """Fail before any work, as _write_output would after it, if path
    cannot be opened for writing.  An existing file is not truncated; a
    file made by the check is removed again, also where path is a link
    to it, which stays."""
    if path is None or path == "-":
        return
    made = not os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        _cannot_write(path, exc)
    if made:
        os.remove(os.path.realpath(path))


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _cannot_write(path, exc)


def parse_pmod(text: str):
    """pmod.parse_pmod for the commands that read a module, which fail at
    the grid line of a grid taller than MAX_HEIGHT, the compression's
    bound.  perfbench/tracer.py wraps this name with a one-argument wrapper."""
    return pmod.parse_pmod(text, max_height=MAX_HEIGHT)


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


def cmd_intervals(args) -> tuple[int, str]:
    if args.count:
        return 0, f"{count_intervals(args.m, args.n)}\n"
    return 0, "".join(I.to_string() + "\n" for I in enumerate_intervals(args.m, args.n))


def cmd_compress(args) -> tuple[int, str]:
    f = compressed_multiplicity_function(_read_module(args.input))
    return 0, format_interval_function(f)


def cmd_approx(args) -> tuple[int, str]:
    approx = interval_approximation(_read_module(args.input))
    return 0, format_signed_sum(approx.coeffs)


def cmd_verify(args) -> tuple[int, str]:
    module = _read_module(args.input)
    approx = interval_approximation(module)
    ranks = rank_invariant(module)
    signed = signed_rank_invariant(approx)
    for (src, dst), r in ranks.items():
        got = signed[(src, dst)]
        if got != r:
            return VERIFY_MISMATCH, f"MISMATCH rank at {src} -> {dst}: module {r}, approximation {got}\n"
    # the pairs (v, v) include the dimension vector: rank M(v -> v) = dim M_v
    return 0, (f"PASS rank invariant preserved on {len(ranks)} pairs, dimension vector "
               f"{format_dimvec(dimension_vector(module), module.grid.m, module.grid.n)}\n")


def cmd_gen(args) -> tuple[int, str]:
    return 0, print_pmod(args.build(args, args.field))


def _bench_cell(n: int, d: int, reps: int, seed: int, field: FieldSpec = GF2):
    rng = make_rng(seed)
    module = random_module(n, d, field, rng)
    intervals = len(enumerate_intervals(module.grid.m, n))  # enumeration is excluded from timing
    times = []
    while len(times) < reps or sum(times) < _BENCH_CELL_S:
        t0 = time.perf_counter()
        f = compressed_multiplicity_function(module)
        mobius_invert(f, module.grid.m, n)
        times.append(time.perf_counter() - t0)
    return {
        "n": n,
        "d": d,
        "reps": len(times),
        "mean_ms": round(1000.0 * sum(times) / len(times), 3),
        "median_ms": round(1000.0 * statistics.median(times), 3),
        "intervals": intervals,
        "path_pairs": sum(1 for _ in module.grid.comparable_pairs()),
    }


def cmd_bench(args) -> tuple[int, str]:
    rows = [_bench_cell(n, d, args.reps, args.seed, args.field) for d in args.d for n in args.n]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return 0, out.getvalue()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; its defaults hold
    the cmd_* functions, so a test replaces the workers they call, not them."""
    parser = _Parser(prog="gridpersist",
                     description="Interval-decomposable approximation of 2-parameter persistence modules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intervals", help="list the intervals of an m x n grid")
    p.add_argument("m", type=_at_least(1))
    p.add_argument("n", type=_at_least(1))
    p.add_argument("--count", action="store_true", help="print only the number of intervals")
    p.set_defaults(func=cmd_intervals, output=None)

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

    gen = sub.add_parser("gen", help="generate PMOD files").add_subparsers(dest="kind", required=True)
    options = {
        "m": dict(type=int, choices=range(1, MAX_HEIGHT + 1), default=MAX_HEIGHT, help="grid height"),
        "n": dict(type=_at_least(1), default=4, help="grid width"),
        "d": dict(type=_at_least(0), default=3, help="space dimension"),
        "k": dict(type=_at_least(0), default=3, help="summand count"),
        "l": dict(type=_at_least(1), default=1, help="size parameter"),
        "plain": dict(action="store_true", help="skip the disguising base change"),
        "seed": dict(type=_at_least(0), default=0),
    }
    for kind, names, build in (
        ("random", "n d seed", lambda a, field: random_module(a.n, a.d, field, make_rng(a.seed))),
        ("interval", "m n k plain seed", lambda a, field: random_interval_decomposable(
            a.m, a.n, a.k, field, make_rng(a.seed), disguise=not a.plain)[0]),
        ("staircase", "l", lambda a, field: staircase_family_module(a.l, field)),
        ("example", "", lambda a, field: example_module(field)),
    ):
        p = gen.add_parser(kind)
        for name in names.split():
            p.add_argument(f"--{name}", **options[name])
        # on each kind, not on gen: a sub-parser's default overwrites what its parent parsed
        p.add_argument("--field", type=_field, default=GF2, help="prime modulus")
        p.add_argument("--output", "-o", default=None)
        p.set_defaults(func=cmd_gen, build=build)

    p = sub.add_parser("bench", help="timing table over grid widths and dimensions (CSV)")
    p.add_argument("--n", type=_at_least(1, many=True), default="4,8,16", help="comma-separated grid widths")
    p.add_argument("--d", type=_at_least(0, many=True), default="10", help="comma-separated space dimensions")
    p.add_argument("--reps", type=_at_least(1), default=5, help="least timed runs per cell")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--field", type=_field, default=GF2, help="prime modulus of the random modules")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: check its -o path before any work, then write its
    text there, or to stdout without -o, once the command has finished."""
    args = build_parser().parse_args(argv)
    _check_writable(args.output)
    try:
        code, text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    _write_output(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
