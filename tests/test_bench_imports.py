"""The benchmark harness imports the library names it runs."""

import importlib.util
import os

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
