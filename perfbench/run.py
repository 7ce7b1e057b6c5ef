"""Closed-loop benchmark of the gridpersist command line, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one job at a time through gridpersist.cli.main(argv): an
`approx FILE -o OUT` or a `verify FILE` on a PMOD file that set-up wrote.
The next job starts when the previous one has returned and its output has
been checked.  Jobs run with the CLI's default thread count.

Set-up (timed as setup_s, median of SETUP_REPEATS) starts a fresh
interpreter that imports the CLI, generates and writes the run's inputs,
and warms the CLI.  The run then measures jobs for about S seconds: it
starts no job it expects to end after S seconds, but runs at least
MIN_JOBS.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced
and untraced jobs and reports per-layer metrics from the traced ones,
plus the tracing overhead; it writes its spans to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Every run also writes its full result,
with the host and the sample counts, to perfbench/out/.  The run exits
with 3, printing no result, when set-up makes other inputs than the
recorded ones (perfbench/reference.json).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
MIN_JOBS = 3

END_TO_END_UNITS = {
    "job_s_p50": "s",
    "jobs_per_min": "1/min",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class InputDrift(Exception):
    """Set-up made other inputs than the seed should give."""


def host_info(threads: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cli_threads": threads,
    }


def call_cli(argv: list[str], run=None) -> tuple[int, str]:
    """Run gridpersist.cli.main(argv) in process: exit code and stdout.

    run(main, argv), when given, makes the call instead (the tracer).
    """
    from gridpersist import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = run(cli.main, argv) if run else cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, stdout.getvalue()


def set_up(workload, seed: int, work: Path) -> tuple[list, list[float]]:
    """Set up SETUP_REPEATS times: the inputs and each set-up's seconds.

    Each set-up starts a fresh interpreter that imports the CLI, as a
    user's shell does, generates and writes the inputs, and runs the CLI
    on a small module.  Every set-up must write the same bytes.
    """
    from gridpersist.ffmat import FieldSpec
    from gridpersist.generators import example_module
    from gridpersist.pmod import print_pmod
    from workloads import INPUTS_PER_RUN

    env = dict(os.environ, PYTHONPATH=str(SRC))
    seconds, first = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gridpersist.cli"], env=env, check=True,
                       timeout=120)
        inputs = [workload.make_input(seed, i) for i in range(INPUTS_PER_RUN)]
        for i, inp in enumerate(inputs):
            (work / f"in{i}.pmod").write_text(inp.text)
        call_cli(["intervals", "2", str(workload.n), "--count"])
        (work / "warm.pmod").write_text(print_pmod(example_module(FieldSpec(workload.p))))
        call_cli([workload.command, str(work / "warm.pmod"), "-o", str(work / "warm.out")])
        seconds.append(time.perf_counter() - t0)
        if first is not None and [i.text for i in inputs] != [i.text for i in first]:
            raise InputDrift(f"two set-ups with seed {seed} wrote different inputs")
        first = inputs
    return inputs, seconds


def check_drift(workload, seed: int, inputs, reference: dict) -> None:
    """Refuse inputs that differ from the recorded default-seed ones.

    Other seeds have no record, so their runs check the default seed's
    first input instead.
    """
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        inputs = [workload.make_input(DEFAULT_SEED, 0)]
    for i, inp in enumerate(inputs):
        want = reference["inputs"][i]
        if inp.sha256 != want:
            raise InputDrift(f"{workload.name} input {i} for seed {DEFAULT_SEED} has sha256 "
                             f"{inp.sha256}, recorded {want}")


def run_jobs(workload, inputs, work: Path, seconds: float, tracer, want_sha256):
    """The closed loop: job records, failure messages and loop seconds."""
    from workloads import check_output, job_argv, job_output

    jobs, failures = [], []
    start = time.perf_counter()
    while True:
        index = len(jobs)
        k = index % len(inputs)
        out_path = work / f"out{k}.txt"
        argv = job_argv(workload, work / f"in{k}.pmod", out_path)
        traced = tracer is not None and index % 2 == 0
        run = None
        if traced:
            tracer.patch()
            run = lambda main, a: tracer.run_job(index, main, a)  # noqa: E731
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            rc, stdout = call_cli(argv, run)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if traced:
                tracer.unpatch()
        output = job_output(workload, rc, stdout, out_path)
        problem = check_output(workload, inputs[k], rc, output, want_sha256[k] if want_sha256 else None)
        if problem:
            failures.append(f"job {index} (input {k}): {problem}")
        jobs.append({"wall": wall, "cpu": cpu, "traced": traced, "input": k})
        elapsed = time.perf_counter() - start
        if len(jobs) >= MIN_JOBS and elapsed + statistics.median(j["wall"] for j in jobs) > seconds:
            return jobs, failures, elapsed


def layer_metrics(tracer, jobs, untraced_p50: float) -> dict[str, float]:
    """Per-layer metrics: times are medians over the traced jobs; counts
    are those of the first job, whose input is the same in every run."""
    from tracer import PER_LAYER_UNITS

    traced = [i for i, j in enumerate(jobs) if j["traced"]]
    per_job = [tracer.job_metrics(i) for i in traced]
    layer = {}
    for name in per_job[0]:
        if PER_LAYER_UNITS[name] in ("count", "bytes"):
            layer[name] = per_job[0][name]
        else:
            layer[name] = statistics.median(m[name] for m in per_job)
    layer["trace.job_s_p50"] = statistics.median(jobs[i]["wall"] for i in traced)
    layer["trace.overhead_s"] = layer["trace.job_s_p50"] - untraced_p50
    return layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gridpersist" / "cli.py").is_file():
        print(f"error: no gridpersist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gridpersist import cli
    from workloads import DEFAULT_SEED, WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    reference = load_reference()[workload.name]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        inputs, setups = set_up(workload, args.seed, work)
        check_drift(workload, args.seed, inputs, reference)
        want_sha256 = reference["outputs"] if args.seed == DEFAULT_SEED else None
        jobs, failures, loop_s = run_jobs(workload, inputs, work, args.seconds, tracer, want_sha256)
    except InputDrift as exc:
        print(f"error: input drift: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [j for j in jobs if not j["traced"]]
    e2e = {
        "job_s_p50": statistics.median(j["wall"] for j in untraced),
        "jobs_per_min": 60.0 * len(jobs) / loop_s,
        "cpu_s_per_job": statistics.median(j["cpu"] for j in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    threads = cli.build_parser().parse_args([workload.command, "x"]).threads
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_info(threads),
        "attempted": len(jobs),
        "failed": len(failures),
        "failed_frac": len(failures) / len(jobs),
        "failures": failures,
        "samples": {"jobs": len(untraced), "setup": len(setups)},
        "job_walls": [j["wall"] for j in jobs],
        "setups": setups,
        "end_to_end": e2e,
    }
    if tracer is None:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
    else:
        from tracer import ONE_COMMAND_ONLY, PER_LAYER_UNITS

        layer = result["per_layer"] = layer_metrics(tracer, jobs, e2e["job_s_p50"])
        result["samples"]["traced_jobs"] = len(jobs) - len(untraced)
        metrics = {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in layer.items()
                   if name not in ONE_COMMAND_ONLY}
        with open(OUT_DIR / f"trace-{tag}.json", "w") as fh:
            json.dump(dict(tracer.dump(), jobs=jobs), fh)
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    for line in failures:
        print(f"FAIL {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
