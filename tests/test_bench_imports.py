"""The benchmark harness imports the library names it runs, and its
in-process workloads run against the library as it is."""

import contextlib
import importlib
import importlib.util
import os

import pytest

from oracles import band_partition

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_bench_workloads_import():
    # a library trim that drops a name bench/ imports fails here
    path = os.path.join(BENCH, "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert set(module.WORKLOADS) == {"uniform_roundtrip", "adaptive_select",
                                     "cli_cold"}


class _Clock:
    # the harness clock's interface without its timing
    def section(self):
        return contextlib.nullcontext()


@pytest.mark.parametrize("name", ["uniform_roundtrip", "adaptive_select"])
def test_bench_workload_runs(name, monkeypatch, tmp_path):
    # one smoke-size op through set-up, input, op, gate and work counts: a
    # library change that breaks what bench/ reads of a grid, a spec or a
    # result fails here, not first in a benchmark run
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](1, True, spans.Tracer(False),
                                   str(tmp_path))
    wl.setup()
    ok, _, reason = wl.check(wl.op(wl.next_input(), True, _Clock()))
    assert ok, reason
    counts = wl.counts()
    assert counts["so3.carriers"] == wl.grid.n_carriers
    assert counts["so3.bands"] == len(band_partition(wl.grid))
