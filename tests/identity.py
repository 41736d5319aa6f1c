"""One sha256 per named output of the library on the benchmark's inputs.

    python3 tests/identity.py [--seeds 1 2 3] [--ops 3] > ids.txt

Builds the inputs of the three workloads of bench/workloads.py (imported,
never changed) at each seed and prints `<workload>.s<seed>.op<i>.<output>
<sha256>` for the forward transform, its adjoint, the uniform round trips
of both families and their S_R, the scan, the select_tau / refine_tau
picks, adaptive_analysis, the tau-map S_R and round trip, and the files
and printed text of the cli_cold steps, run in process through
sphwave.cli.main.  Two checkouts whose lines are equal give the same bits
on those inputs: `diff` the outputs of two runs.  The library and the
workloads come from the checkout holding this file.  pytest does not
collect it.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
sys.dont_write_bytecode = True      # leave no cache files under bench/

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from sphwave.cli import main  # noqa: E402
from sphwave.multiselect import adaptive_analysis, select_tau  # noqa: E402
from sphwave.transform import (adjoint_transform, forward_transform,  # noqa
                               frame_matrix, reconstruct, uniform_specs)


class _Quiet:
    """The tracer and clock interface of the workloads, timing nothing."""

    enabled = False

    def span(self, name=None):
        return contextlib.nullcontext()

    section = span


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def uniform_roundtrip(w, cold):
    f, coeffs, rec = w.op(w.next_input(), cold, _Quiet())
    yield "forward", digest(*coeffs.values)
    yield "adjoint", digest(adjoint_transform(coeffs).values)
    yield "reconstruct", digest(rec.values)
    yield "frame", digest(frame_matrix("omega", coeffs.taus, w.grid,
                                       w.scales, w.l_band))
    specs = uniform_specs("upsilon", w.TAU, w.scales)
    up = forward_transform(f, specs, w.grid, w.scales)
    yield "reconstruct_upsilon", digest(reconstruct(up).values)


def adaptive_select(w, cold):
    inp = w.next_input()
    (f, (a, _), (b, _)), smap, refined, rec = w.op(inp, cold, _Quiet())
    yield "scan", digest(smap.tau_star, smap.phi1_star, smap.value)
    yield "refine", digest(np.array(refined, float))
    yield "select", digest(np.array([select_tau(f, w.scales, 0, c, w.tsel,
                                                w.grid) for c in (a, b)]))
    yield "reconstruct_tau_map", digest(rec.values)
    amap, coeffs = adaptive_analysis(f, w.scales, w.grid, w.tsel)
    yield "adaptive_analysis", digest(amap.tau_star, amap.phi1_star,
                                      amap.value, *coeffs.values)
    yield "adjoint_tau_map", digest(adjoint_transform(coeffs).values)
    yield "frame_tau_map", digest(frame_matrix("omega", coeffs.taus, w.grid,
                                               w.scales, w.l_band))


def cli_cold(w, cold):
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="identity-") as cwd:
        os.chdir(cwd)
        try:
            for name, argv in w.steps(w.next_input()):
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    code = main(argv)
                yield name, digest(np.frombuffer(
                    ("%d\n%s" % (code, text.getvalue())).encode(), np.uint8))
            for path in sorted(os.listdir(cwd)):
                with open(path, "rb") as fh:
                    yield path, digest(np.frombuffer(fh.read(), np.uint8))
        finally:
            os.chdir(here)


def run(seeds, ops):
    for name, outputs in (("uniform_roundtrip", uniform_roundtrip),
                          ("adaptive_select", adaptive_select),
                          ("cli_cold", cli_cold)):
        for seed in seeds:
            w = workloads.WORKLOADS[name](seed, False, _Quiet(), None)
            w.setup()
            for i in range(ops):
                for out, sha in outputs(w, i == 0):
                    print("%s.s%d.op%d.%s %s" % (name, seed, i, out, sha))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--ops", type=int, default=3)
    args = parser.parse_args()
    run(args.seeds, args.ops)
