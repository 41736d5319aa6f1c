"""Benchmark harness for sphwave: three seeded workloads, one JSON result.

    python3 bench/run.py --workload uniform_roundtrip --seed 1 --seconds 8 --trace 0

Run from anywhere; the repository root is the parent of this directory.
With --trace 0 the last line of standard output carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.  The
full record (samples, failures, spans, machine data) goes to
.bench_out/<workload>-seed<seed>-trace<trace>.json.  --smoke shrinks
every workload so a run takes seconds; it is for checking the harness,
not for measuring.  See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# fresh processes whose set-up times give the median setup_s; the
# in-process workloads pay a full cold build for each one
SETUP_SAMPLES = {"uniform_roundtrip": 2, "adaptive_select": 2,
                 "cli_cold": 5}
DEADLINE_S = 175


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tail(samples):
    """Highest order statistic with at least ten samples above it.

    Returns (value, percentile, samples beyond); with ten samples or
    fewer no percentile qualifies and the maximum stands in for it.
    """
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def machine_info():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = 0
    pkg = os.path.join(SRC, "sphwave")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "thread_pin": THREAD_PIN,
            "git_commit": commit, "src_sphwave_lines": src_lines}


def pin_cpu():
    """Keep the run's processes on one CPU, where the reference is timed
    too: the CPUs of a shared machine drift apart in speed.  The last
    allowed CPU is taken because CPU 0 usually serves more interrupts."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def run_worker(args, role, deadline):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--role", role, "--work-dir", OUT]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_PIN)
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited %d" % (role, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["cold_end"] - start - result["ref_pause_s"]
    result["setup_s"] = speed.scale(result["setup_raw_s"],
                                    result["cold_refs"])
    return result


def layer_value(name, res):
    """Per-layer metric: a computed count, a recorded accuracy value, a
    trace statistic, or a span's self time; 0 when this workload makes
    no call into that layer."""
    if name in res["counts"]:
        return res["counts"][name]
    acc = [a[name] for a in res["accuracy"] if name in a]
    if acc:
        return statistics.median(acc)
    if name == "trace.coverage":
        return statistics.median(res["coverage"]) if res["coverage"] else 0.0
    if name == "trace.overhead":
        return (statistics.median(t for _, t in res["traced_op_times"])
                / statistics.median(t for _, t in res["op_times"]) - 1.0)
    if name.endswith("_s"):
        factor = statistics.median(
            s / r for r, s in res["op_times"] + res["traced_op_times"])
        return factor * res["layers"].get(name[:-2], 0.0)
    return 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking the harness itself")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "sphwave", "__init__.py")):
        print("error: no sphwave package under %s" % SRC, file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    cpu = pin_cpu()
    # byte-compile first so the first timed process does not pay for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, BENCH],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)

    try:
        res = run_worker(args, "measure", deadline)
        workers = [res]
        if not args.trace:
            for _ in range(SETUP_SAMPLES[args.workload] - 1):
                workers.append(run_worker(args, "cold", deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    setup = [w["setup_s"] for w in workers]
    op_times = [t for _, t in res["op_times"]]
    tail_s, tail_pct, beyond = tail(op_times)
    if args.trace:
        declared = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], res) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {"setup_s": statistics.median(setup),
                  "op_p50_s": statistics.median(op_times),
                  "op_tail_s": tail_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}

    record = dict(line, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                  fail_frac=len(failures) / attempted, failures=failures,
                  setup_samples=setup,
                  op_tail={"percentile": tail_pct, "samples_beyond": beyond,
                           "samples": len(op_times)},
                  reference_nominal_s=speed.NOMINAL_S,
                  machine=dict(machine_info(), pinned_cpu=cpu,
                               **res["numpy"]),
                  worker=res)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
