"""Checks of the benchmark harness itself.

    python3 bench/selftest.py

Every workload runs at --smoke size, so the whole file takes about a
minute.  It checks that a corrupted output fails its gate and is counted,
that the seed changes the inputs and not the metric names, that every
printed metric name is declared in BENCHMARK.json, that smoke runs take
seconds, and that run.py refuses to run without the sphwave sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
os.environ.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
                  OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import AdaptiveSelect, CliCold, UniformRoundtrip  # noqa: E402

SMOKE_LIMIT_S = 60


def run_bench(workload, seed, trace, root=ROOT):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    return proc, time.monotonic() - start


def fail_frac(cls, n_ops=2):
    """Run n_ops smoke ops of a workload class in process; failed share."""
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    try:
        tr = Tracer(False)
        wl = cls(7, True, tr, work_dir)
        wl.setup()
        runner = Runner(wl, tr)
        for op_id in range(n_ops):
            runner.run_op(op_id, wl.next_input(), cold=op_id == 0,
                          traced=False)
        return len(runner.failures) / runner.attempted
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


class PerturbedReconstruction(UniformRoundtrip):
    def op(self, table, cold, clock):
        f, coeffs, rec = super().op(table, cold, clock)
        rec.values[0, 0] += 1e-6 * np.abs(rec.values).max()
        return f, coeffs, rec


class WrongAxialAngle(AdaptiveSelect):
    def op(self, inp, cold, clock):
        _, smap, refined, rec = out = super().op(inp, cold, clock)
        b = inp[2][0]
        smap.phi1_star[0, b] += self.grid.axial_angles[1]
        return out


class TruncatedCoefficients(CliCold):
    def run_step(self, name, argv, cwd, clock):
        proc = super().run_step(name, argv, cwd, clock)
        if name == "analyze":
            path = os.path.join(cwd, "f.wav")
            with open(path, "r+b") as fh:
                fh.truncate(os.path.getsize(path) // 2)
        return proc


class HarnessTest(unittest.TestCase):
    def test_corrupted_output_is_counted(self):
        for clean, corrupt in ((UniformRoundtrip, PerturbedReconstruction),
                               (AdaptiveSelect, WrongAxialAngle),
                               (CliCold, TruncatedCoefficients)):
            with self.subTest(workload=clean.name):
                self.assertEqual(fail_frac(clean), 0.0)
                self.assertEqual(fail_frac(corrupt), 1.0)

    def test_seed_changes_inputs_only(self):
        def first_input(cls, seed):
            wl = cls(seed, True, Tracer(False), OUT)
            wl.setup()
            return wl.next_input()

        a, b = (first_input(UniformRoundtrip, s) for s in (1, 2))
        self.assertFalse(np.array_equal(a.values, b.values))
        a, b = (first_input(AdaptiveSelect, s) for s in (1, 2))
        self.assertFalse(np.array_equal(a[0].values, b[0].values))
        self.assertNotEqual(first_input(CliCold, 1),
                            first_input(CliCold, 2))
        self.assertTrue(np.array_equal(
            first_input(UniformRoundtrip, 3).values,
            first_input(UniformRoundtrip, 3).values))

        names = []
        for seed in (1, 2):
            proc, _ = run_bench("uniform_roundtrip", seed, 0)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            names.append(sorted(json.loads(
                proc.stdout.splitlines()[-1])["metrics"]))
        self.assertEqual(names[0], names[1])

    def test_metric_names_match_spec_and_smoke_is_fast(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc, elapsed = run_bench(w["name"], 5, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(
                        sorted(line), ["attempted", "correct", "failed",
                                       "metrics"])
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertEqual(
                        {n: m["unit"] for n, m in line["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[key]})
                    self.assertLess(elapsed, SMOKE_LIMIT_S)

    def test_refuses_without_sources(self):
        os.makedirs(OUT, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, _ = run_bench("uniform_roundtrip", 1, 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
