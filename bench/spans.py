"""In-memory timing spans recorded around the harness's calls into sphwave.

A span has a name, start and end (seconds on the performance counter,
relative to the tracer's creation), the index of the span that encloses
it, and the op it belongs to.  Spans stay in memory until the run ends;
`summary` reduces them to per-layer self times, and `spans` is written
out with the run record.  A disabled tracer hands out one shared no-op
context, so untraced runs pay a method call per span and nothing more.
"""

import contextlib
import statistics
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.op_id = 0
        self._stack = []
        self._t0 = time.perf_counter()

    def span(self, name):
        """Context manager timing one call; a no-op when disabled."""
        return _Span(self, name) if self.enabled else _NULL

    def summary(self, idle=()):
        """Per-name self time and the coverage of each op span.

        Returns (layers, coverage): layers maps a span name to the median,
        over the ops where the name occurs, of that name's summed self
        time in the op; ops after op 0 (the cold op) win, so a name seen
        in warm ops is never mixed with its cold occurrence.  coverage
        lists, per warm op span, the share of its wall time covered by
        its child spans.  Spans named in `idle` are harness work inside
        an op: they count neither as op time nor as coverage.
        """
        child_time = [0.0] * len(self.spans)
        idle_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                acc = idle_time if s["name"] in idle else child_time
                acc[s["parent"]] += s["end"] - s["start"]
        per_op = {}
        coverage = []
        for i, s in enumerate(self.spans):
            dur = s["end"] - s["start"] - idle_time[i]
            self_time = dur - child_time[i]
            per_op.setdefault(s["name"], {}).setdefault(s["op"], 0.0)
            per_op[s["name"]][s["op"]] += self_time
            if s["name"] == "op" and s["op"] > 0 and dur > 0.0:
                coverage.append(child_time[i] / dur)
        layers = {}
        for name, ops in per_op.items():
            warm = [v for op, v in ops.items() if op > 0]
            layers[name] = statistics.median(warm or list(ops.values()))
        return layers, coverage


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append({"name": self.name,
                         "start": time.perf_counter() - tr._t0, "end": None,
                         "parent": tr._stack[-1] if tr._stack else None,
                         "op": tr.op_id})
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index]["end"] = time.perf_counter() - tr._t0
        tr._stack.pop()
        return False
