"""The benchmark's workloads: how each one makes its inputs, the CLI job
it runs on them, and how a job's output is checked.

Every input is a PMOD file written by set-up.  Input i of a run with seed
s comes from numpy's generator seeded with [s, i], so the same seed gives
the same bytes.  A run cycles through INPUTS_PER_RUN inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridpersist.approximation import SignedIntervalSum, dimvec_of_sum
from gridpersist.ffmat import FieldSpec
from gridpersist.generators import random_interval_decomposable, random_module
from gridpersist.intervals import Interval
from gridpersist.pmod import print_pmod

DEFAULT_SEED = 0
INPUTS_PER_RUN = 5
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Input:
    """One generated input: its PMOD text and what a check needs."""

    text: str
    dims: dict
    truth: dict | None  # true multiplicities, when the generator knows them

    @property
    def sha256(self) -> str:
        return sha256(self.text)


@dataclass(frozen=True)
class Workload:
    """A stream of jobs on 2 x n modules over GF(p).

    Inputs come from random_module with dimension d at every vertex, or,
    when k is set, from a disguised random_interval_decomposable sum of k
    intervals, whose true multiplicities the output must equal.
    """

    name: str
    command: str  # "approx" or "verify"
    n: int
    p: int
    d: int | None
    k: int | None
    why: str

    def make_input(self, seed: int, index: int) -> Input:
        rng = np.random.default_rng([seed, index])
        field = FieldSpec(self.p)
        if self.k is None:
            module, truth = random_module(self.n, self.d, field, rng), None
        else:
            module, sums = random_interval_decomposable(2, self.n, self.k, field, rng, disguise=True)
            truth = {I: c for I, c in sums.items() if c}
        return Input(print_pmod(module), dict(module.dims), truth)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# wide_gf2 uses a 2 x 18 grid, not 2 x 24: at 2 x 24 a job takes about 8 s,
# so a run holds 3 or 4 jobs and their median spreads too much between runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_gf2", "approx", n=12, p=2, d=100, k=None,
                 why="rank-bound GF(2) approx: 1521 ranks, most of them 200x200 blocks"),
        Workload("wide_gf2", "verify", n=18, p=2, d=10, k=None,
                 why="verify on a wide 2x18 grid, dim 10: thousands of tiny ranks, "
                     "Moebius joins, rank invariant"),
        Workload("sums_p65521", "approx", n=12, p=65521, d=None, k=150,
                 why="generic GF(65521) eliminator on 1163 mixed shapes, "
                     "checked against ground truth"),
    )
}


def job_argv(workload: Workload, in_path: Path, out_path: Path) -> list[str]:
    """The CLI arguments of one job.  No --threads: users get the default."""
    if workload.command == "approx":
        return ["approx", str(in_path), "-o", str(out_path)]
    return ["verify", str(in_path)]


def job_output(workload: Workload, rc: int, stdout: str, out_path: Path) -> str:
    """What a job produced: the output file of approx, the stdout of verify."""
    if workload.command == "approx" and rc == 0:
        return out_path.read_text()
    return stdout


def parse_approx(text: str) -> dict[Interval, int]:
    lines = text.splitlines()
    if not lines or lines[0] != "APPROX ss":
        raise ValueError("missing 'APPROX ss' header")
    coeffs = {}
    for line in lines[1:]:
        value, interval = line.split()
        coeffs[Interval.from_string(interval)] = int(value)
    return coeffs


def check_output(workload: Workload, inp: Input, rc: int, output: str,
                 want_sha256: str | None = None) -> str | None:
    """Why the job's output is wrong, or None when it passes.

    output is the job's output file for approx and its stdout for verify;
    want_sha256, when given, is the output's recorded hash.
    """
    if rc != 0:
        return f"exit code {rc}"
    if want_sha256 is not None and sha256(output) != want_sha256:
        return "output sha256 differs from the recorded reference"
    if workload.command == "verify":
        return None if output.startswith("PASS ") else "no PASS line"
    try:
        coeffs = parse_approx(output)
    except ValueError as exc:
        return f"unreadable approximation: {exc}"
    if inp.truth is not None and coeffs != inp.truth:
        return "approximation differs from the generator's true multiplicities"
    if dimvec_of_sum(SignedIntervalSum(2, workload.n, coeffs)) != inp.dims:
        return "approximation does not preserve the dimension vector"
    return None


def load_reference() -> dict:
    """sha256 of every input and job output for DEFAULT_SEED, by workload."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
