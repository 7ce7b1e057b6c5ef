"""The benchmark's recorded jobs still give their recorded outputs.

Each workload's default-seed inputs are made again, their sha256 checked
against perfbench/reference.json, and each job run through cli.main in
process; its output must hash to the recorded value and pass the
workload's own check.  Only perfbench/ is read, nothing written there.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from gridpersist import cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    # loaded from its file without writing bytecode next to it; its
    # dataclasses look their module up in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()
REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("index", range(workloads.INPUTS_PER_RUN))
def test_job_output_matches_reference(name, index, tmp_path):
    workload = workloads.WORKLOADS[name]
    recorded = REFERENCE[name]
    inp = workload.make_input(workloads.DEFAULT_SEED, index)
    assert inp.sha256 == recorded["inputs"][index], "generator drift: the input differs"
    in_path, out_path = tmp_path / "in.pmod", tmp_path / "out.txt"
    in_path.write_text(inp.text)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(workloads.job_argv(workload, in_path, out_path))
    output = workloads.job_output(workload, rc, stdout.getvalue(), out_path)
    assert workloads.check_output(workload, inp, rc, output, recorded["outputs"][index]) is None
