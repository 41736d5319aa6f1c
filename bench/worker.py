"""One workload process: the cold op, then warm ops for the measuring window.

run.py starts it with the BLAS thread pools pinned to one thread and the
repository's src/ on PYTHONPATH.  The last line of its standard output is
one JSON object with the raw samples; run.py turns them into metrics.

Roles: "measure" runs the cold op and the window; "cold" runs only the
cold op, so run.py can take several set-up samples from fresh processes.
In a traced run the odd-numbered window ops are traced and the even ones
are not, so the run measures its own tracing overhead.
"""

import argparse
import json
import sys
import time
import traceback

import sphwave.cli  # noqa: F401  the package as every CLI process loads it

import speed
from spans import Tracer
from workloads import WORKLOADS


def _numpy_info():
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError, AttributeError):
        return info
    for k in ("blas", "lapack"):
        if k in deps:
            info[k] = "%s %s" % (deps[k].get("name"), deps[k].get("version"))
    return info


class Runner:
    def __init__(self, wl, tracer):
        self.wl = wl
        self.tr = tracer
        self.attempted = 0
        self.failures = []
        self.accuracy = []
        self.lead_s = 0.0

    def run_op(self, op_id, inp, cold, traced):
        """Time one op and gate its output; a failure is counted, never
        retried or dropped.  Returns the op's speed.Clock."""
        tr, wl = self.tr, self.wl
        tr.op_id, tr.enabled = op_id, traced
        clock = speed.Clock(tr, self.lead_s)
        self.attempted += 1
        try:
            with tr.span("op"):
                out = wl.op(inp, cold, clock)
        except Exception:
            self.failures.append({"op": op_id,
                                  "reason": traceback.format_exc(limit=3)})
            return clock
        finally:
            self.lead_s = clock.lead_s
        try:
            ok, acc, reason = wl.check(out)
        except Exception:
            ok, acc, reason = False, {}, traceback.format_exc(limit=3)
        if ok:
            if traced:
                acc.update(wl.probe(out))
        else:
            self.failures.append({"op": op_id, "reason": reason})
        wl.done(out)
        self.accuracy.append(dict(acc, op=op_id))
        return clock


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("measure", "cold"), default="measure")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    trace = bool(args.trace)
    tr = Tracer(enabled=trace)
    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, args.smoke, tr, args.work_dir)
    runner = Runner(wl, tr)

    # cold phase: what a one-shot user pays before the first result; the
    # reference samples taken inside it are subtracted from set-up time
    t0 = time.monotonic()
    refs = speed.sample(0.3)
    ref_pause = time.monotonic() - t0
    wl.setup()
    if cls.has_cold_op:
        inp = wl.next_input()
        if trace:
            wl.cold_probe(inp)
        clock = runner.run_op(0, inp, cold=True, traced=trace)
        refs += clock.refs
        ref_pause += clock.ref_s
    elif trace:
        wl.cold_probe(None)
    result = {"cold_end": time.monotonic(), "ref_pause_s": ref_pause,
              "cold_refs": refs + speed.sample(0.3)}

    # per window op: (wall time, time at nominal machine speed)
    times, traced_times, sections = [], [], []
    if args.role == "measure":
        start = time.perf_counter()
        op_id = 1
        min_ops = max(cls.min_ops, 2 if trace else 1)
        while op_id <= min_ops or time.perf_counter() - start < args.seconds:
            traced = trace and op_id % 2 == 1
            clock = runner.run_op(op_id, wl.next_input(), cold=False,
                                  traced=traced)
            (traced_times if traced else times).append(
                (clock.raw_s, clock.scaled_s))
            sections.append(clock.sections)
            op_id += 1
        result.update(window_s=time.perf_counter() - start,
                      counts=wl.counts(), numpy=_numpy_info())
        if trace:
            layers, coverage = tr.summary(idle=(speed.REFERENCE_SPAN,))
            result.update(layers=layers, coverage=coverage, spans=tr.spans)

    result.update(op_times=times, traced_op_times=traced_times,
                  attempted=runner.attempted, failures=runner.failures,
                  sections=sections, accuracy=runner.accuracy,
                  peak_rss_mb=wl.peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
