"""Run every workload and print each metric by name, unit and sample count.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload this runs run.py once untraced and twice traced with the
same seed, then prints the host, failed_frac, the end-to-end metrics, the
per-layer metrics, each layer's share of the traced job time, the tracing
overhead, and a self-check that the two traced runs gave identical counts.
It exits with 1 when a run fails, a job fails or the counts differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS, OUT_DIR, SETUP_REPEATS, SRC

sys.path.insert(0, str(SRC))

from tracer import PER_LAYER_UNITS, TIMING_DEPENDENT  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("dense_gf2", "wide_gf2", "sums_p65521")
SHARES = (
    "ffmat.rank_share", "mobius.invert_s", "compression.self_s", "grid.path_map_table_s",
    "pmod.parse_s", "grid.rank_invariant_s", "approximation.rank_of_sum_s", "pmod.format_s",
    "cli.self_s",
)
# Share of the job each layer was predicted to take, as (workload, metric, least share).
PREDICTIONS = (
    ("dense_gf2", "ffmat.rank_share", 0.85),
    ("wide_gf2", "mobius.invert_share", 0.15),
    ("sums_p65521", "ffmat.rank_share", 0.85),
)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json") as fh:
        return json.load(fh)


def counts(result: dict) -> dict:
    """The counts that must repeat exactly in every traced run."""
    return {k: v for k, v in result["per_layer"].items()
            if PER_LAYER_UNITS[k] in ("count", "bytes") and k not in TIMING_DEPENDENT}


def report(workload: str, seed: int, seconds: float) -> bool:
    plain = run(workload, seed, seconds, 0)
    traced = [run(workload, seed, seconds, 1) for _ in range(2)]
    ok = plain["failed"] == 0 and all(t["failed"] == 0 for t in traced)
    print(f"== {workload} (seed {seed}, {seconds} s per run)")
    print(f"host {json.dumps(plain['host'])}")
    print(f"failed_frac = {plain['failed_frac']:.4g} ratio "
          f"(n={plain['attempted']}; traced runs {traced[0]['failed']}/{traced[0]['attempted']}, "
          f"{traced[1]['failed']}/{traced[1]['attempted']})")
    for line in plain["failures"] + traced[0]["failures"] + traced[1]["failures"]:
        print(f"  FAIL {line}")
    samples = {
        "job_s_p50": plain["samples"]["jobs"],
        "jobs_per_min": plain["attempted"],
        "cpu_s_per_job": plain["samples"]["jobs"],
        "peak_rss_mb": 1,
        "setup_s": SETUP_REPEATS,
    }
    for name, value in plain["end_to_end"].items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} (n={samples[name]})")
    layer = traced[0]["per_layer"]
    n_traced = traced[0]["samples"]["traced_jobs"]
    for name, value in layer.items():
        n = 1 if PER_LAYER_UNITS[name] in ("count", "bytes") else n_traced
        print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]} (n={n})")
    job = layer["trace.job_s_p50"]
    print("share of traced job time:")
    for name in SHARES:
        share = layer[name] if name.endswith("_share") else layer[name] / job
        print(f"  {name:32s} {100 * share:6.1f} %")
    print(f"tracing overhead = {layer['trace.overhead_s']:.4g} s "
          f"(traced {job:.4g} s - untraced {traced[0]['end_to_end']['job_s_p50']:.4g} s job_s_p50)")
    for w, name, least in PREDICTIONS:
        if w == workload:
            verdict = "met" if layer[name] >= least else "NOT met"
            print(f"prediction {name} >= {least}: {layer[name]:.3f}, {verdict}")
    a, b = counts(traced[0]), counts(traced[1])
    differ = sorted(k for k in a if a[k] != b.get(k))
    if differ:
        ok = False
        print(f"count self-check FAILED: {', '.join(differ)} differ between the two traced runs")
    else:
        print(f"count self-check passed: {len(a)} counts identical in two traced runs")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        try:
            ok = report(workload, args.seed, args.seconds) and ok
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
