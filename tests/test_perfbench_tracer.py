"""The benchmark tracer still finds every package name it wraps."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from gridpersist import cli
from gridpersist.generators import example_module
from gridpersist.intervals import enumerate_intervals
from gridpersist.pmod import print_pmod

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    # loaded from its file without writing bytecode next to it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _patched_names(tracer_module):
    t = tracer_module
    names = [(module, name) for module, name, _ in t.SPANNED]
    names += [(module, "mat_rank") for module, _ in t.RANK_SITES]
    names += [(t.compression, name) for name, _ in t.BUILDERS]
    names += [(t.compression, "classify_ss"), (t.compression, "enumerate_intervals"),
              (t.mobius, "enumerate_intervals"), (t.mobius, "cover_subset_joins"),
              (t.cli, "parse_pmod"), (t.cli, "interval_approximation")]
    return names


def test_patch_then_unpatch_restores_originals(tracer_module):
    names = _patched_names(tracer_module)
    originals = {(module.__name__, name): getattr(module, name) for module, name in names}
    tracer = tracer_module.Tracer()
    tracer.patch()
    try:
        for module, name in names:
            assert getattr(module, name) is not originals[(module.__name__, name)], name
    finally:
        tracer.unpatch()
    for module, name in names:
        assert getattr(module, name) is originals[(module.__name__, name)], name


def test_traced_verify_job(tracer_module, tmp_path, capsys):
    path = tmp_path / "example.pmod"
    path.write_text(print_pmod(example_module()))
    tracer = tracer_module.Tracer()
    tracer.patch()
    try:
        rc = tracer.run_job(0, cli.main, ["verify", str(path)])
    finally:
        tracer.unpatch()
    assert rc == 0 and capsys.readouterr().out.startswith("PASS")
    metrics = tracer.job_metrics(0)
    assert metrics["mobius.invert_s"] > 0
    assert metrics["intervals.count"] == len(enumerate_intervals(2, 3))
    # verify reads the signed ranks from one product, which the tracer does not wrap
    assert metrics["approximation.rank_of_sum.calls"] == 0


def test_traced_approx_job(tracer_module, tmp_path, capsys):
    # two of the three workloads run approx; their counts come from these wrappers
    path = tmp_path / "example.pmod"
    path.write_text(print_pmod(example_module()))
    tracer = tracer_module.Tracer()
    tracer.patch()
    try:
        rc = tracer.run_job(0, cli.main, ["approx", str(path)])
    finally:
        tracer.unpatch()
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0 and lines[0] == "APPROX ss"
    metrics = tracer.job_metrics(0)
    assert metrics["compression.lookups"] > 0
    assert metrics["approximation.nnz"] == len(lines) - 1 == 4
    assert metrics["mobius.invert_s"] > 0
